"""Traced runs: spans around the public entry points of each layer.

The program's own tracer stays off.  Instead :class:`Instrumentation`
wraps one public method per layer boundary from outside (and restores
them afterwards), recording a span per call: name, kind, thread, start,
end and the span that caused it.  Spans live in memory and are written
out when the run ends.

Attribution rules:

* A span's *self* time is its duration minus the time its children on
  the **same thread** cover.  Children running on another thread (a shard
  call on a router pool thread) are parallel work; the thread that waits
  for them records that wait as a span of its own.
* Spans of kind ``"wait"`` count as wait time, never as self time: a
  ``SerializedService`` call minus its child is lock wait, a coalescing
  follower's whole call is waiting for its leader, ``Future.result`` on a
  scatter is waiting for the shard pool, and a socket exchange is waiting
  for the worker process.
* A shard call submitted to a ``ThreadPoolExecutor`` is parented to the
  span that submitted it, by wrapping ``submit``.

Only calls made inside a traced pan step are recorded; set-up, the
background rebalance build and anything else run untraced.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.client.frontend import KyrixFrontend
from repro.cluster.router import ClusterRouter, _ScatterGatherService
from repro.minisql.executor import SQLEngine
from repro.net.socket_transport import FRAME_HEADER, SocketTransport
from repro.server.backend import KyrixBackend
from repro.serving.middleware import CachingService, CoalescingService, SerializedService
from repro.serving.transport import LocalTransport, RemoteBackendStub, TransportService
from repro.storage.rtree import RTreeIndex

ROOT = "client"


@dataclass
class Span:
    name: str
    kind: str  # "self" or "wait"
    thread: int
    parent: "Span | None"
    start: float
    end: float = 0.0
    rows: int = 0  # SQLEngine.execute only: rows returned
    wire_bytes: int = 0  # transport exchanges only: frames both ways
    children_same_thread: float = field(default=0.0, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def exclusive(self) -> float:
        return self.duration - self.children_same_thread


class SpanRecorder:
    """Collects spans from every thread; each thread keeps its own stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, kind: str, parent: Span | None) -> Span:
        span = Span(name, kind, threading.get_ident(), parent, time.perf_counter())
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        # list.append is atomic, so threads can record concurrently.
        self.spans.append(span)

    def finish(self) -> None:
        """Charge every span's same-thread children against its duration."""
        for span in self.spans:
            parent = span.parent
            if parent is not None and parent.thread == span.thread:
                parent.children_same_thread += span.duration

    def write(self, path: Path) -> None:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": ids.get(id(span.parent)),
                            "name": span.name,
                            "kind": span.kind,
                            "thread": span.thread,
                            "start": span.start,
                            "end": span.end,
                        }
                    )
                    + "\n"
                )


@dataclass(frozen=True)
class _Target:
    owner: type
    method: str
    name: str | Callable[[Any], str]
    kind: str = "self"
    #: Inspect ``(span, args, result)`` after the call (e.g. a coalescing
    #: follower turns the span into a wait; SQL records its row count).
    after: Callable[[Span, tuple, Any], None] | None = None


def _follower_waits(span: Span, args: tuple, response: Any) -> None:
    if response.coalesced:
        span.kind = "wait"
        span.name = "serving.coalesce.wait"


def _count_rows(span: Span, args: tuple, result: Any) -> None:
    span.rows = len(result.rows)


def _count_wire(span: Span, args: tuple, result: Any) -> None:
    # What RemoteBackendStub's wire stats (collect_wire_stats) count: both
    # payloads plus a length header each.  Counted here because an online
    # rebalance retires the stubs that held the counters.
    _, body = args
    _, reply = result
    span.wire_bytes = len(body) + len(reply) + 2 * FRAME_HEADER.size


class Instrumentation:
    """Installs the layer wrappers for the duration of a ``with`` block."""

    def __init__(self, recorder: SpanRecorder, router: ClusterRouter) -> None:
        self.recorder = recorder
        router_cache = router.cache

        def cache_layer(middleware: CachingService) -> str:
            # The router's cache is serving middleware; every other
            # CachingService is a shard backend's own cache.
            return "serving.cache" if middleware.cache is router_cache else "server.backend"

        # Span names are the layer metrics they feed.  The router's layer
        # is its facade, its scatter-gather core and (in _wrap_submit) the
        # pool thread's dispatch of each shard call.
        self.targets = [
            _Target(KyrixFrontend, "pan_to", ROOT),
            _Target(ClusterRouter, "handle", "cluster.router"),
            _Target(_ScatterGatherService, "handle", "cluster.router"),
            _Target(CachingService, "handle", cache_layer),
            _Target(CoalescingService, "handle", "serving.coalesce", after=_follower_waits),
            _Target(SerializedService, "handle", "serving.serialized.wait", "wait"),
            _Target(TransportService, "handle", "net.codec"),
            _Target(RemoteBackendStub, "handle", "net.codec"),
            _Target(LocalTransport, "exchange", "net.codec", after=_count_wire),
            _Target(SocketTransport, "exchange", "net.socket", "wait", _count_wire),
            _Target(KyrixBackend, "handle", "server.backend"),
            _Target(KyrixBackend, "execute", "server.backend"),
            _Target(SQLEngine, "execute", "minisql.execute", after=_count_rows),
            _Target(RTreeIndex, "search", "storage.rtree"),
        ]
        self._saved: list[tuple[type, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for target in self.targets:
            self._patch(target.owner, target.method, self._wrap(target))
        self._patch(ThreadPoolExecutor, "submit", self._wrap_submit())
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, method, original in reversed(self._saved):
            setattr(owner, method, original)
        self._saved.clear()

    def _patch(self, owner: type, method: str, wrapper: Callable) -> None:
        original = owner.__dict__[method]
        self._saved.append((owner, method, original))
        setattr(owner, method, wrapper)

    def _wrap(self, target: _Target) -> Callable:
        recorder = self.recorder
        original = target.owner.__dict__[target.method]
        name, kind, after = target.name, target.kind, target.after
        is_root = name == ROOT

        def wrapper(instance, *args, **kwargs):
            parent = recorder.current()
            if parent is None and not is_root:
                return original(instance, *args, **kwargs)
            span_name = name if isinstance(name, str) else name(instance)
            span = recorder.open(span_name, kind, parent)
            try:
                result = original(instance, *args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _wrap_submit(self) -> Callable:
        recorder = self.recorder
        original_submit = ThreadPoolExecutor.__dict__["submit"]

        def submit(executor, fn, /, *args, **kwargs):
            parent = recorder.current()
            if parent is None:
                return original_submit(executor, fn, *args, **kwargs)

            def run(*run_args, **run_kwargs):
                # The pool thread's dispatch of one shard call, parented
                # to the scatter that submitted it.
                span = recorder.open("cluster.router", "self", parent)
                try:
                    return fn(*run_args, **run_kwargs)
                finally:
                    recorder.close(span)

            future = original_submit(executor, run, *args, **kwargs)
            original_result = future.result

            def result(timeout=None):
                waiter = recorder.current()
                if waiter is None:
                    return original_result(timeout)
                span = recorder.open("cluster.scatter.wait", "wait", waiter)
                try:
                    return original_result(timeout)
                finally:
                    recorder.close(span)

            future.result = result  # instance attribute shadows the method
            return future

        return submit
