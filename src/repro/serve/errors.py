"""Typed failure conditions of the sweep service.

Every condition the service deliberately surfaces to a client is one
of these classes; :mod:`repro.serve.app` maps the ``status`` attribute
onto the HTTP response code and ``retry_after_s`` onto a ``Retry-After``
header.  Anything *not* in this hierarchy that escapes a handler is a
bug and is reported as a bare 500 — with the exception type and
message, never a traceback.
"""

from __future__ import annotations

from ..errors import ServeError

__all__ = [
    "BadRequestError",
    "NotFoundError",
    "OversizeError",
    "ShedError",
    "BreakerOpenError",
    "UpstreamError",
    "DeadlineError",
    "DrainingError",
]


class BadRequestError(ServeError):
    """The request body or target could not be interpreted (400)."""

    status = 400


class NotFoundError(ServeError):
    """No handler is registered for the requested method/path (404)."""

    status = 404


class OversizeError(ServeError):
    """The declared request body exceeds the service's limit (413)."""

    status = 413


class ShedError(ServeError):
    """The compute queue is full and the request was shed (503).

    Shedding is deliberate: refusing work the service cannot start soon
    keeps latency bounded for the requests it *has* admitted, instead
    of letting every client time out together.
    """

    status = 503


class BreakerOpenError(ServeError):
    """The circuit breaker is open; compute is not being attempted (503).

    ``retry_after_s`` carries the remaining cooldown so clients back
    off for exactly as long as the service will refuse them anyway.
    """

    status = 503


class UpstreamError(ServeError):
    """Cold compute failed after its bounded retries (503).

    The failure is treated as infrastructure, not input: request
    validation happens before admission, so a request that reached the
    pool and still failed is retryable by the client once the backend
    recovers.
    """

    status = 503


class DeadlineError(ServeError):
    """The request exceeded its per-request deadline (504).

    The deadline travels into the worker as the unit's wall-clock
    budget (``timeout_s``), so the underlying computation is cancelled
    at the same moment the client gets its 504 — a blown request frees
    its pool slot instead of occupying a worker to compute an answer
    nobody is waiting for.
    """

    status = 504


class DrainingError(ServeError):
    """The service is draining after a shutdown signal (503).

    New compute is refused with ``Retry-After`` while in-flight
    requests run to completion and the memo store is left
    manifest-consistent; read-only endpoints keep answering so health
    checks can watch the drain.
    """

    status = 503
