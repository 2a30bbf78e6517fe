"""Wire-level transport: encode -> decode -> handle -> encode -> decode parity."""

from __future__ import annotations

import json
import re
import socket

import pytest

from repro.net import columnar
from repro.net.link import SimulatedLink
from repro.net.protocol import DataRequest
from repro.net.socket_transport import (
    read_frame,
    split_sequence,
    stamp_sequence,
    write_frame,
)
from repro.serving import (
    LocalTransport,
    RemoteBackendStub,
    TransportError,
    TransportService,
    WorkerPool,
    build_shard_spec,
)
from repro.serving.transport import decode_reply, encode_envelope


class TestTransportParity:
    def test_cached_roundtrip_equals_in_process_exactly(self, dots_stack, box_request):
        backend = dots_stack.backend
        backend.cache.clear()
        backend.handle(box_request)  # populate the backend cache
        in_process = backend.handle(box_request)
        assert in_process.from_cache is True  # deterministic (query_ms == 0)
        wire = TransportService(backend).handle(box_request)
        assert wire == in_process

    def test_fresh_roundtrip_carries_identical_payload(self, dots_stack, box_request):
        backend = dots_stack.backend
        service = TransportService(backend)
        backend.cache.clear()
        wire = service.handle(box_request)
        backend.cache.clear()
        in_process = backend.handle(box_request)
        # Timings are measurements and may differ; the data-bearing fields
        # must be identical — including tuple-typed columns like bbox.
        assert wire.request == in_process.request
        assert wire.objects == in_process.objects
        assert wire.queries_issued == in_process.queries_issued
        assert json.dumps(wire.objects, sort_keys=True) == json.dumps(
            in_process.objects, sort_keys=True
        )

    def test_objects_keep_canonical_tuple_columns(self, dots_stack, box_request):
        dots_stack.backend.cache.clear()
        wire = TransportService(dots_stack.backend).handle(box_request)
        assert wire.objects, "the parity box should not be empty"
        for obj in wire.objects:
            assert isinstance(obj["bbox"], tuple)

    def test_metadata_calls_cross_the_wire(self, dots_stack):
        backend = dots_stack.backend
        service = TransportService(backend)
        assert service.canvas_info("dots") == backend.canvas_info("dots")
        assert service.layer_density("dots", 0) == pytest.approx(
            backend.layer_density("dots", 0)
        )

    def test_warm_populates_the_far_side_cache(self, dots_stack, box_request):
        backend = dots_stack.backend
        backend.cache.clear()
        TransportService(backend).warm(box_request)
        assert backend.cache.peek(box_request.cache_key()) is not None


class TestTransportFaults:
    def test_server_errors_reraise_client_side(self, dots_stack):
        service = TransportService(dots_stack.backend)
        bad = DataRequest(
            app_name="dots",
            canvas_id="no-such-canvas",
            layer_index=0,
            granularity="box",
            xmin=0.0,
            ymin=0.0,
            xmax=1.0,
            ymax=1.0,
        )
        with pytest.raises(TransportError, match="no-such-canvas"):
            service.handle(bad)

    def test_unknown_operation_is_a_wire_fault(self, dots_stack):
        transport = LocalTransport(dots_stack.backend)
        codec, body = transport.exchange("json", encode_envelope("explode", {}))
        assert codec == "json"
        reply = json.loads(body)
        assert reply["ok"] is False
        assert "explode" in reply["error"]["message"]

    def test_garbage_payload_is_a_wire_fault(self, dots_stack):
        transport = LocalTransport(dots_stack.backend)
        codec, body = transport.exchange("json", b"not json at all")
        assert codec == "json"
        assert json.loads(body)["ok"] is False
        codec, body = transport.exchange("binary", b"\xffnot a message")
        assert codec == "binary"
        assert columnar.message_kind(body) == columnar.MSG_ERROR


#: Payloads no peer built from this tree sends: an old codec hello, an
#: untagged JSON envelope, and an empty frame.
UNKNOWN_FRAMES = {
    "hello": b'H{"codecs": ["binary", "json"]}',
    "untagged": b'{"op": "canvas_info", "params": {"canvas_id": "dots"}}',
    "empty": b"",
}


def _names_tag(payload: bytes) -> str:
    return re.escape(f"unknown frame tag {payload[:1]!r}")


class _RetaggingTransport:
    """Sends every frame with its tag replaced by ``payload``."""

    def __init__(self, server: LocalTransport, payload: bytes) -> None:
        self.server = server
        self.payload = payload

    def exchange(self, codec, body):
        return columnar.split_frame(self.server.roundtrip_frame(self.payload))

    def close(self):
        pass


class TestUnknownFrames:
    @pytest.mark.parametrize("kind", sorted(UNKNOWN_FRAMES))
    def test_server_answers_with_a_typed_error_reply(self, dots_stack, kind):
        server = LocalTransport(dots_stack.backend)
        payload = UNKNOWN_FRAMES[kind]
        codec, body = columnar.split_frame(server.roundtrip_frame(payload))
        assert codec == "json"
        with pytest.raises(TransportError, match=_names_tag(payload)):
            decode_reply(body)
        # The frame stream is still in step: the next frame is served.
        _, body = server.exchange(
            "json", encode_envelope("canvas_info", {"canvas_id": "dots"})
        )
        assert decode_reply(body) == dots_stack.backend.canvas_info("dots")

    @pytest.mark.parametrize("kind", sorted(UNKNOWN_FRAMES))
    def test_stub_raises_transport_error_naming_the_tag(
        self, dots_stack, box_request, kind
    ):
        backend = dots_stack.backend
        server = LocalTransport(backend)
        payload = UNKNOWN_FRAMES[kind]
        stub = RemoteBackendStub(
            _RetaggingTransport(server, payload), backend.compiled, backend.config
        )
        with pytest.raises(TransportError, match=_names_tag(payload)):
            stub.canvas_info("dots")
        with pytest.raises(TransportError, match=_names_tag(payload)):
            stub.handle(box_request)
        healthy = RemoteBackendStub(server, backend.compiled, backend.config)
        assert healthy.canvas_info("dots") == backend.canvas_info("dots")

    def test_worker_connection_survives_unknown_frames(self, dots_stack):
        spec = build_shard_spec(
            dots_stack.database,
            dots_stack.compiled,
            dots_stack.backend.config,
            shard_id=0,
        )
        pool = WorkerPool([spec])
        pool.start()
        try:
            port = pool.handle_for(0).port
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                for sequence, payload in enumerate(UNKNOWN_FRAMES.values()):
                    write_frame(sock, stamp_sequence(sequence, payload))
                    echoed, reply = split_sequence(read_frame(sock))
                    assert echoed == sequence
                    codec, body = columnar.split_frame(reply)
                    assert codec == "json"
                    with pytest.raises(TransportError, match="unknown frame tag"):
                        decode_reply(body)
                # Same connection, a well-formed frame: served normally.
                write_frame(
                    sock,
                    stamp_sequence(
                        len(UNKNOWN_FRAMES),
                        columnar.tag_frame(
                            "json",
                            encode_envelope("canvas_info", {"canvas_id": "dots"}),
                        ),
                    ),
                )
                _, reply = split_sequence(read_frame(sock))
                _, body = columnar.split_frame(reply)
                assert decode_reply(body) == dots_stack.backend.canvas_info("dots")
        finally:
            pool.close()


class TestStubAndLink:
    def test_stub_serves_a_frontend_end_to_end(self, dots_stack):
        from repro.client import KyrixFrontend

        backend = dots_stack.backend
        stub = RemoteBackendStub(
            LocalTransport(backend), backend.compiled, backend.config
        )
        frontend = KyrixFrontend(stub)
        frontend.load_initial_canvas()
        frontend.pan_by(256.0, 0.0)
        assert frontend.metrics.total_requests() >= 1

    def test_link_charges_shard_boundary_traffic(self, dots_stack, box_request):
        backend = dots_stack.backend
        backend.cache.clear()
        link = SimulatedLink(backend.config.network)
        service = TransportService(backend, link=link)
        response = service.handle(box_request)
        assert response.objects
        assert link.stats.requests == 1
        # The charged payload is the real reply encoding (the binary
        # columnar message) plus the link's per-request overhead;
        # the stub's own wire accounting sees the same reply plus the
        # 4-byte frame header.
        wire = service.stub.wire_stats
        assert wire.calls == 1
        reply_bytes = wire.bytes_received - 4
        assert link.stats.bytes_transferred == (
            reply_bytes + backend.config.network.request_overhead_bytes
        )
        assert service.stats is link.stats
