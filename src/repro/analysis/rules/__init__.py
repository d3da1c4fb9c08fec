"""Built-in lint rules; importing this package registers them all."""

from __future__ import annotations

from . import (
    atomic_writes,
    determinism,
    error_policy,
    manifest,
    process_control,
)

__all__ = [
    "atomic_writes",
    "determinism",
    "error_policy",
    "manifest",
    "process_control",
]
