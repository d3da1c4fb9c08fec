"""In-process server harness shared by tests, benchmarks, and chaos.

:class:`BackgroundServer` runs a :class:`~repro.serve.app.ServeApp` on
its own event loop in a daemon thread and exposes a blocking
``request()`` helper built on :mod:`http.client` — real TCP, real HTTP
parsing, no framework.  The harness deliberately talks to the service
exactly like an external client would, so what the chaos soak proves
about it holds for curl too.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar, Union

from ..errors import ServeError
from .app import ServeApp, ServePolicy

__all__ = ["BackgroundServer"]

T = TypeVar("T")


class BackgroundServer:
    """Context manager running one ServeApp on a background loop."""

    def __init__(
        self,
        store: Union[str, Path],
        *,
        workers: Union[None, int, str] = None,
        policy: Optional[ServePolicy] = None,
    ):
        self.app = ServeApp(store, workers=workers, policy=policy)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "BackgroundServer":
        started: "Future[None]" = Future()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, args=(started,), name="repro-serve", daemon=True
        )
        self._thread.start()
        started.result(timeout=30)
        return self

    def _run(self, started: "Future[None]") -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            try:
                await self.app.start("127.0.0.1", 0)
            except BaseException as error:  # surface bind failures
                started.set_exception(error)
                raise
            started.set_result(None)

        self._loop.run_until_complete(boot())
        self._loop.run_forever()

        async def drain() -> None:
            # Abandoned single-flight leaders (e.g. a 504'd request
            # whose computation was left to finish and memoize) must
            # not outlive the loop; cancel and await them.
            await self.app.stop()
            tasks = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        self._loop.run_until_complete(drain())
        self._loop.close()

    def __exit__(self, *exc_info: Any) -> None:
        assert self._loop is not None and self._thread is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ServeError("serve thread failed to stop")

    @property
    def port(self) -> int:
        port = self.app.port
        if port is None:
            raise ServeError("server is not running")
        return port

    # -- client side ----------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        timeout: float = 120.0,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One blocking HTTP exchange; returns (status, headers, body)."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            body = json.dumps(payload).encode("utf-8") if payload is not None else None
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            data = response.read()
            headers = {name.lower(): value for name, value in response.getheaders()}
            return response.status, headers, data
        finally:
            connection.close()

    def call(self, fn: Callable[..., T], *args: Any) -> T:
        """Run ``fn`` inside the server's event-loop thread.

        The app mutates its state (breaker, pool, counters) only from
        its own loop; the chaos harness uses this to reset the backend
        between rounds without racing in-flight requests.
        """
        assert self._loop is not None
        result: "Future[T]" = Future()

        def invoke() -> None:
            try:
                result.set_result(fn(*args))
            except BaseException as error:
                result.set_exception(error)

        self._loop.call_soon_threadsafe(invoke)
        return result.result(timeout=30)
