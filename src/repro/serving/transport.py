"""Wire-level transport for the serving surface.

The router used to call shard backends in-process with live Python objects;
nothing guaranteed a shard conversation survived encoding losslessly.  This
module puts an encoding on the shard boundary for real:

* :class:`LocalTransport` — the server side of the wire: it accepts one
  tagged frame payload, decodes it, dispatches to a server-side
  :class:`~repro.serving.base.DataService`, and returns the encoded reply.
  It is the in-process stand-in for a worker process — the bytes that
  cross it are exactly the bytes a socket carries.
* :class:`RemoteBackendStub` — the client side: a :class:`DataService`
  whose every call is encoded, pushed through a transport, and decoded
  back.  Point it at a :class:`LocalTransport` for wire-faithful in-process
  shards, or at a :class:`~repro.net.socket_transport.SocketTransport` for
  a worker process; the router cannot tell the difference.
* :class:`TransportService` — middleware gluing the two together around an
  inner service, so ``TransportService(shard)`` makes every shard call
  round-trip ``encode -> decode -> handle -> encode -> decode``.

One framing, no negotiation (:mod:`repro.net.columnar`): ``handle``
crosses as a ``B`` binary columnar message, and the metadata operations
(``warm``/``canvas_info``/``layer_density``) as ``J`` JSON envelopes.
Decoded responses are identical to the in-process ones — that is the law
this seam exists to enforce.

An optional :class:`~repro.net.link.SimulatedLink` charges each reply's
measured byte size, so shard-boundary traffic shows up in link statistics
(and, with ``simulate_delay``, as real wall-clock latency the parallel
scatter-gather then overlaps across shards).  Independently of the link,
every stub counts its real payload traffic (:class:`WireStats`), which is
what the scaling benchmark reports as ``wire_bytes_per_step``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from ..errors import FetchError, KyrixError, ProtocolError
from ..net import columnar
from ..net.protocol import DataRequest, DataResponse
from ..net.socket_transport import FRAME_HEADER
from ..telemetry import get_tracer
from .base import DataService, ServiceMiddleware

if TYPE_CHECKING:
    from ..compiler.plan import CompiledApplication
    from ..config import KyrixConfig
    from ..net.link import SimulatedLink


@runtime_checkable
class ShardTransport(Protocol):
    """One request/reply exchange of tagged frame payloads.

    ``exchange`` sends ``body`` as one ``codec`` frame (``"binary"`` for
    ``handle``, ``"json"`` for metadata envelopes) and returns the reply
    as ``(reply_codec, reply_body)``.
    """

    def exchange(self, codec: str, body: bytes) -> tuple[str, bytes]:
        """Send one encoded payload, return the encoded reply."""
        ...

    def close(self) -> None: ...


class TransportError(KyrixError):
    """A server-side error re-raised on the client side of a transport."""


def encode_envelope(op: str, params: dict[str, Any]) -> bytes:
    """Encode one metadata operation envelope (a ``J`` frame body)."""
    return json.dumps({"op": op, "params": params}, sort_keys=True).encode("utf-8")


def encode_reply(result: Any) -> bytes:
    """Encode a successful metadata reply."""
    return json.dumps({"ok": True, "result": result}, sort_keys=True).encode("utf-8")


def encode_error(error: BaseException) -> bytes:
    """Encode a server-side failure so the stub can re-raise it."""
    return json.dumps(
        {"ok": False, "error": {"type": type(error).__name__, "message": str(error)}},
        sort_keys=True,
    ).encode("utf-8")


def decode_reply(body: bytes) -> Any:
    """The result of a JSON reply envelope.

    A failure reply is re-raised as :class:`TransportError`; a body that
    is not a reply envelope at all raises :class:`ProtocolError`.
    """
    try:
        reply = json.loads(body)
    except ValueError as error:
        raise ProtocolError(f"malformed JSON reply: {error}") from error
    if not isinstance(reply, dict):
        raise ProtocolError(f"JSON reply is a {type(reply).__name__}, not an envelope")
    if not reply.get("ok", False):
        failure = reply.get("error")
        if not isinstance(failure, dict):
            failure = {}
        raise TransportError(
            f"{failure.get('type', 'Error')}: {failure.get('message', 'remote failure')}"
        )
    return reply.get("result")


@dataclass(frozen=True)
class WireStats:
    """Measured shard-boundary traffic of one (or a sum of) transport stubs.

    Byte counts are frame payloads plus the 4-byte length header — what a
    socket actually carries per round-trip, whether the transport under
    the stub is a real socket or its in-process stand-in.
    """

    calls: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_sent + self.bytes_received

    def __add__(self, other: "WireStats") -> "WireStats":
        return WireStats(
            calls=self.calls + other.calls,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_received=self.bytes_received + other.bytes_received,
        )


class LocalTransport:
    """The server end of the wire, dispatching frames to a service.

    Every operation crosses fully encoded both ways — responses are
    produced with :func:`repro.net.columnar.encode_response` and never
    leak live objects, which is what makes the pair wire-faithful.
    :meth:`roundtrip_frame` is the frame server a worker process runs;
    :meth:`exchange` is the same conversation in-process.
    """

    def __init__(self, service: DataService) -> None:
        self.service = service

    def roundtrip_frame(self, payload: bytes) -> bytes:
        """Serve one tagged frame payload and return the tagged reply.

        ``B`` serves a binary ``handle`` message and ``J`` a metadata
        envelope.  Any other payload, an empty one included, is answered
        with a ``J`` error envelope naming its tag: the frame stream is
        still in step, so the connection stays usable.
        """
        try:
            codec, body = columnar.split_frame(payload)
        except ProtocolError as error:
            return columnar.TAG_JSON + encode_error(error)
        if codec == columnar.CODEC_BINARY:
            return columnar.TAG_BINARY + self._serve_binary(body)
        return columnar.TAG_JSON + self._serve_json(body)

    def exchange(self, codec: str, body: bytes) -> tuple[str, bytes]:
        """One in-process tagged round-trip (the socket transport's twin)."""
        return columnar.split_frame(
            self.roundtrip_frame(columnar.tag_frame(codec, body))
        )

    def _serve_binary(self, body: bytes) -> bytes:
        try:
            # A trace context riding the request is lifted off before the
            # request is rebuilt, so server-side caches and responses stay
            # identical whether or not the caller traces.
            request, context = columnar.decode_request(body)
            tracer = get_tracer()
            with tracer.remote_trace(context) as collected:
                response = self.service.handle(request)
            if collected is not None and collected.spans:
                return columnar.encode_response(response, trace=collected.spans)
            return columnar.encode_response(response)
        except Exception as error:  # noqa: BLE001 - faults must cross the wire
            return columnar.encode_error(error)

    def _serve_json(self, body: bytes) -> bytes:
        try:
            envelope = json.loads(body)
            return encode_reply(
                self._dispatch(envelope["op"], envelope.get("params", {}))
            )
        except Exception as error:  # noqa: BLE001 - faults must cross the wire
            return encode_error(error)

    def _dispatch(self, op: str, params: dict[str, Any]) -> Any:
        if op == "warm":
            self.service.warm(DataRequest(**params["request"]))
            return None
        if op == "canvas_info":
            return self.service.canvas_info(params["canvas_id"])
        if op == "layer_density":
            return self.service.layer_density(
                params["canvas_id"], params["layer_index"]
            )
        raise FetchError(f"unknown transport operation {op!r}")

    def close(self) -> None:
        self.service.close()


class RemoteBackendStub:
    """A :class:`DataService` whose calls travel over a :class:`ShardTransport`.

    ``compiled`` and ``config`` are client-side metadata handed to the stub
    at construction (a remote deployment ships the compiled plan to every
    node; re-sending it per request would be absurd).  Everything else —
    requests, responses, canvas metadata — crosses the transport encoded,
    and the stub counts its own payload traffic (:attr:`wire_stats`).
    """

    def __init__(
        self,
        transport: ShardTransport,
        compiled: "CompiledApplication",
        config: "KyrixConfig",
        *,
        link: "SimulatedLink | None" = None,
    ) -> None:
        self.transport = transport
        self._compiled = compiled
        self._config = config
        self.link = link
        self._wire_lock = threading.Lock()
        self._wire_calls = 0
        self._wire_sent = 0
        self._wire_received = 0

    @property
    def compiled(self) -> "CompiledApplication":
        return self._compiled

    @property
    def config(self) -> "KyrixConfig":
        return self._config

    @property
    def stats(self) -> Any:
        return self.link.stats if self.link is not None else None

    @property
    def wire_stats(self) -> WireStats:
        """Payload traffic this stub has pushed through its transport."""
        with self._wire_lock:
            return WireStats(
                calls=self._wire_calls,
                bytes_sent=self._wire_sent,
                bytes_received=self._wire_received,
            )

    # -- the wire ---------------------------------------------------------------------

    def _exchange(self, codec: str, body: bytes) -> bytes:
        """Send one ``codec`` frame; return the reply body of the same codec."""
        reply_codec, reply_body = self.transport.exchange(codec, body)
        with self._wire_lock:
            self._wire_calls += 1
            self._wire_sent += len(body) + FRAME_HEADER.size
            self._wire_received += len(reply_body) + FRAME_HEADER.size
        if self.link is not None:
            # Charge the measured byte size of the reply (the request side
            # is covered by the link's per-request overhead term).
            self.link.charge_request(len(reply_body))
        if reply_codec != codec:
            if reply_codec == columnar.CODEC_JSON:
                decode_reply(reply_body)  # re-raises the far side's error
            raise ProtocolError(
                f"a {codec} frame was answered with a {reply_codec} frame"
            )
        return reply_body

    def _call(self, op: str, params: dict[str, Any]) -> Any:
        return decode_reply(
            self._exchange(columnar.CODEC_JSON, encode_envelope(op, params))
        )

    # -- DataService ------------------------------------------------------------------

    def handle(self, request: DataRequest) -> DataResponse:
        tracer = get_tracer()
        with tracer.span("rpc", op="handle") as span:
            # The trace context is stamped onto the wire form only — the
            # caller's request object (and any cache keyed on it) never
            # sees it.
            body = columnar.encode_request(request, trace=tracer.current_context())
            reply = self._exchange(columnar.CODEC_BINARY, body)
            if columnar.message_kind(reply) == columnar.MSG_ERROR:
                name, message = columnar.decode_error(reply)
                raise TransportError(f"{name}: {message}")
            response, remote_spans = columnar.decode_response(reply)
            if remote_spans:
                # Spans recorded on the far side come home inside the
                # reply; draining them here keeps the decoded response
                # byte-identical to an untraced one.
                tracer.ingest(remote_spans)
                span.set_attribute("remote_spans", len(remote_spans))
            return response

    def warm(self, request: DataRequest) -> None:
        self._call("warm", {"request": request.to_dict()})

    def canvas_info(self, canvas_id: str) -> dict[str, Any]:
        return self._call("canvas_info", {"canvas_id": canvas_id})

    def layer_density(self, canvas_id: str, layer_index: int) -> float:
        return float(
            self._call(
                "layer_density", {"canvas_id": canvas_id, "layer_index": layer_index}
            )
        )

    def close(self) -> None:
        self.transport.close()


class TransportService(ServiceMiddleware):
    """Middleware making every call to ``inner`` wire-faithful.

    Composes a :class:`LocalTransport` (server side) and a
    :class:`RemoteBackendStub` (client side) around the inner service; a
    call entering this layer is encoded, decoded, served, re-encoded and
    re-decoded — byte-for-byte what a networked shard would do.
    """

    def __init__(
        self, inner: DataService, *, link: "SimulatedLink | None" = None
    ) -> None:
        super().__init__(inner)
        self.transport = LocalTransport(inner)
        self.stub = RemoteBackendStub(
            self.transport, inner.compiled, inner.config, link=link
        )

    @property
    def stats(self) -> Any:
        return self.stub.stats

    def handle(self, request: DataRequest) -> DataResponse:
        return self.stub.handle(request)

    def warm(self, request: DataRequest) -> None:
        self.stub.warm(request)

    def canvas_info(self, canvas_id: str) -> dict[str, Any]:
        return self.stub.canvas_info(canvas_id)

    def layer_density(self, canvas_id: str, layer_index: int) -> float:
        return self.stub.layer_density(canvas_id, layer_index)


def collect_wire_stats(service: DataService) -> WireStats:
    """Sum the measured shard-boundary traffic of every stub in a stack.

    Walks the stack like :func:`~repro.serving.base.stack_layers` and adds
    up the :attr:`RemoteBackendStub.wire_stats` of every transport seam —
    whether the stub sits inside a :class:`TransportService` (threads/wire
    topologies) or terminates a branch directly (worker processes).
    """
    from .base import stack_layers

    total = WireStats()
    for layer in stack_layers(service):
        if isinstance(layer, TransportService):
            total = total + layer.stub.wire_stats
        elif isinstance(layer, RemoteBackendStub):
            total = total + layer.wire_stats
    return total
