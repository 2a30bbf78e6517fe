"""Unit tests for the binary columnar codec and the lossless-wire bugfixes.

Covers the three bugfix regressions of this change set — ``default=str``
coercion removed from the JSON encoder, recursive canonicalisation of
nested sequence columns, and chatty peers raising
:class:`~repro.errors.ProtocolViolationError` instead of blaming a
truncated stream — plus the request numbers that keep a stray frame from
answering another request, the codec's own round-trips, its frame tags,
and the typed fallbacks that keep it lossless.
"""

from __future__ import annotations

import datetime
import socket
import threading

import pytest

from repro.errors import (
    ProtocolError,
    ProtocolViolationError,
    TruncatedFrameError,
    WorkerConnectionError,
)
from repro.net import columnar
from repro.net.protocol import DataRequest, DataResponse
from repro.net.socket_transport import (
    SocketTransport,
    encode_frame,
    read_frame,
    serve_connection,
    split_sequence,
    stamp_sequence,
    write_frame,
)


def box_request(**overrides):
    fields = dict(
        app_name="dots",
        canvas_id="dots",
        layer_index=0,
        granularity="box",
        design="spatial",
        xmin=0.0,
        ymin=0.0,
        xmax=256.0,
        ymax=256.0,
        shard_id=3,
    )
    fields.update(overrides)
    return DataRequest(**fields)


def tile_request(**overrides):
    fields = dict(
        app_name="dots",
        canvas_id="dots",
        layer_index=1,
        granularity="tile",
        design="mapping",
        tile_id=42,
        tile_size=1024,
    )
    fields.update(overrides)
    return DataRequest(**fields)


def response(objects, **overrides):
    fields = dict(
        request=box_request(),
        objects=objects,
        query_ms=1.25,
        from_cache=False,
        queries_issued=2,
        shard_ms={"shard0": 0.5, "shard1": 0.75},
        coalesced=True,
    )
    fields.update(overrides)
    return DataResponse(**fields)


# ---------------------------------------------------------------------------
# Bugfix regressions
# ---------------------------------------------------------------------------


class TestLosslessWireBugfixes:
    def test_datetime_column_raises_typed_protocol_error_on_json(self):
        # Regression: `default=str` used to silently stringify this,
        # producing a payload that decoded to a *different* response.
        bad = response([{"when": datetime.datetime(2026, 8, 8, 12, 0)}])
        with pytest.raises(ProtocolError, match="datetime"):
            bad.to_json()

    def test_datetime_column_raises_typed_protocol_error_on_binary(self):
        bad = response([{"when": datetime.datetime(2026, 8, 8, 12, 0)}])
        with pytest.raises(ProtocolError, match="datetime"):
            columnar.encode_response(bad)

    def test_nested_sequences_decode_to_tuples_at_every_depth(self):
        # Regression: `_canonical_object` used to tuple-ise only the top
        # level, so a polygon column (list of point pairs) round-tripped
        # to a tuple *of lists* and broke response equality.
        polygon = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
        original = response([{"polygon": polygon, "ring": ((1, 2), (3, (4, 5)))}])
        decoded = DataResponse.from_json(original.to_json())
        assert decoded == original
        assert decoded.objects[0]["polygon"] == polygon
        assert isinstance(decoded.objects[0]["polygon"][0], tuple)
        assert isinstance(decoded.objects[0]["ring"][1][1], tuple)

    def test_extra_frames_raise_protocol_violation(self):
        # Regression: a live peer pipelining a second frame used to raise
        # TruncatedFrameError, blaming a "truncated" stream for a chatty
        # peer.  The violation error subclasses it for compatibility.
        assert issubclass(ProtocolViolationError, TruncatedFrameError)
        client, peer = socket.socketpair()
        try:
            peer.sendall(encode_frame(b"one") + encode_frame(b"two"))
            with pytest.raises(ProtocolViolationError, match="more than one frame"):
                read_frame(client)
        finally:
            client.close()
            peer.close()

    def test_socket_transport_names_the_violation(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def chatty_server():
            conn, _ = listener.accept()
            with conn:
                sequence, _ = split_sequence(read_frame(conn))
                write_frame(conn, stamp_sequence(sequence, b"Jfirst"))
                write_frame(conn, stamp_sequence(sequence, b"Jsecond"))
                read_frame(conn)

        thread = threading.Thread(target=chatty_server, daemon=True)
        thread.start()
        transport = SocketTransport("127.0.0.1", port)
        replies = []
        try:
            # The second frame is caught by the round-trip it lands in:
            # the first, if it arrives with the first frame, else the next
            # one, which it would otherwise answer.
            with pytest.raises(
                WorkerConnectionError, match="violated the framing protocol"
            ):
                replies.append(transport.exchange("json", b"hello?"))
                replies.append(transport.exchange("json", b"again?"))
            assert replies in ([], [("json", b"first")])
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5.0)


# ---------------------------------------------------------------------------
# Request numbers
# ---------------------------------------------------------------------------


def _serve_once(listener, reply):
    """Accept one connection and answer its first frame with
    ``reply(sequence)``; returns the thread doing it."""

    def server():
        conn, _ = listener.accept()
        with conn:
            sequence, _ = split_sequence(read_frame(conn))
            write_frame(conn, reply(sequence))

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    return thread


class TestRequestNumbers:
    def test_stamp_then_split_is_identity(self):
        assert split_sequence(stamp_sequence(7, b"Jbody")) == (7, b"Jbody")

    @pytest.mark.parametrize("payload", [b"", b"J", b"Jab"])
    def test_frame_without_a_number_is_a_violation(self, payload):
        with pytest.raises(ProtocolViolationError, match="no request number"):
            split_sequence(payload)

    def test_reply_to_another_request_tears_the_connection_down(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        transport = SocketTransport("127.0.0.1", port)
        try:
            stale = _serve_once(
                listener, lambda sequence: stamp_sequence(sequence - 1, b"Jstale")
            )
            with pytest.raises(
                WorkerConnectionError,
                match="violated the framing protocol: reply to request 0 "
                "arrived for request 1",
            ):
                transport.exchange("json", b"first")
            stale.join(timeout=5.0)
            # The next round-trip reconnects and is answered normally.
            honest = _serve_once(
                listener, lambda sequence: stamp_sequence(sequence, b"Jfresh")
            )
            assert transport.exchange("json", b"second") == ("json", b"fresh")
            honest.join(timeout=5.0)
        finally:
            transport.close()
            listener.close()

    def test_server_echoes_the_number_and_drops_unnumbered_frames(self):
        client, peer = socket.socketpair()
        client.settimeout(5.0)

        def server():
            with peer:
                for _ in serve_connection(peer, lambda body: b"J" + body):
                    pass

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        try:
            write_frame(client, stamp_sequence(41, b"ping"))
            assert split_sequence(read_frame(client)) == (41, b"Jping")
            write_frame(client, b"no")
            assert read_frame(client) is None
        finally:
            thread.join(timeout=5.0)
            client.close()


# ---------------------------------------------------------------------------
# Frame tags
# ---------------------------------------------------------------------------


class TestFrameTags:
    @pytest.mark.parametrize("codec", ["binary", "json"])
    def test_tag_then_split_is_identity(self, codec):
        body = b"\x00payload\xff"
        assert columnar.split_frame(columnar.tag_frame(codec, body)) == (codec, body)

    @pytest.mark.parametrize("payload", [b"", b"H{}", b'{"op": "warm"}'])
    def test_unknown_tag_is_a_typed_error_naming_it(self, payload):
        with pytest.raises(ProtocolError, match="unknown frame tag"):
            columnar.split_frame(payload)

    def test_unknown_codec_cannot_be_tagged(self):
        with pytest.raises(ProtocolError, match="unknown wire codec"):
            columnar.tag_frame("xml", b"")


# ---------------------------------------------------------------------------
# Request round-trips
# ---------------------------------------------------------------------------


class TestRequestRoundTrip:
    @pytest.mark.parametrize("request_", [box_request(), tile_request()])
    def test_roundtrip_is_identity(self, request_):
        decoded, context = columnar.decode_request(columnar.encode_request(request_))
        assert decoded == request_
        assert context is None

    def test_trace_context_is_stamped_and_popped(self):
        request = box_request()
        context = {"trace_id": "t1", "span_id": "s1", "sampled": True}
        body = columnar.encode_request(request, trace=context)
        decoded, popped = columnar.decode_request(body)
        # The context rides the wire form only; the rebuilt request (and
        # any cache keyed on it) never sees it — exactly the JSON path.
        assert popped == context
        assert decoded.trace is None
        assert decoded == request

    def test_wrong_kind_raises(self):
        body = columnar.encode_response(response([]))
        with pytest.raises(ProtocolError, match="expected a request"):
            columnar.decode_request(body)

    def test_truncated_body_raises(self):
        body = columnar.encode_request(box_request())
        with pytest.raises(ProtocolError, match="truncated"):
            columnar.decode_request(body[: len(body) // 2])

    def test_trailing_bytes_raise(self):
        body = columnar.encode_request(box_request())
        with pytest.raises(ProtocolError, match="trailing"):
            columnar.decode_request(body + b"\x00")


# ---------------------------------------------------------------------------
# Response round-trips and column typing
# ---------------------------------------------------------------------------


def _via_binary(resp):
    decoded, spans = columnar.decode_response(columnar.encode_response(resp))
    assert spans == []
    return decoded


class TestResponseRoundTrip:
    def test_typed_columns_roundtrip(self):
        objects = [
            {
                "tuple_id": row,
                "x": row * 1.5,
                "label": f"row{row}",
                "flag": row % 2 == 0,
                "bbox": (0.0 + row, 1.0, 2.0, 3.0),
            }
            for row in range(10)
        ]
        assert _via_binary(response(objects)) == response(objects)

    def test_scalar_fields_and_shard_ms_survive(self):
        decoded = _via_binary(response([]))
        assert decoded.query_ms == 1.25
        assert decoded.queries_issued == 2
        assert decoded.coalesced is True
        assert decoded.shard_ms == {"shard0": 0.5, "shard1": 0.75}

    def test_nulls_and_missing_keys_are_distinct(self):
        objects = [{"a": 1, "b": None}, {"a": 2}, {"b": None}]
        decoded = _via_binary(response(objects))
        assert decoded.objects == objects
        assert "b" not in decoded.objects[1]

    def test_mixed_int_float_column_stays_lossless(self):
        # Packing 1 and 1.0 into one numeric column would retype one of
        # them; the codec must fall back to JSON cells instead.
        objects = [{"v": 1}, {"v": 1.0}, {"v": 2}]
        decoded = _via_binary(response(objects))
        assert decoded.objects == objects
        assert isinstance(decoded.objects[0]["v"], int)
        assert isinstance(decoded.objects[1]["v"], float)

    def test_out_of_i64_range_integers_survive(self):
        objects = [{"big": 2**80}, {"big": -(2**70)}]
        assert _via_binary(response(objects)).objects == objects

    def test_bools_are_not_packed_as_ints(self):
        objects = [{"v": True}, {"v": 1}]
        decoded = _via_binary(response(objects))
        assert decoded.objects[0]["v"] is True
        assert isinstance(decoded.objects[1]["v"], int)

    def test_nested_sequence_columns_roundtrip_canonically(self):
        objects = [{"polygon": ((0.0, 0.0), (1.0, 0.0))}]
        assert _via_binary(response(objects)).objects == objects

    def test_remote_spans_ride_the_message(self):
        spans = [{"name": "query", "duration_ms": 1.0}]
        body = columnar.encode_response(response([]), trace=spans)
        decoded, shipped = columnar.decode_response(body)
        assert shipped == spans
        # Decoded responses stay byte-identical whether or not the far
        # side traced: the span list never lands on the response itself.
        assert decoded.trace == []

    def test_decoded_payload_matches_the_json_codec_byte_for_byte(self):
        objects = [
            {"tuple_id": 7, "x": 1.5, "bbox": (0.0, 1.0, 2.0, 3.0)},
            {"tuple_id": 8, "label": "s", "nested": ((1.0, 2.0),)},
        ]
        original = response(objects)
        via_binary = _via_binary(original)
        via_json = DataResponse.from_json(original.to_json())
        assert via_binary == via_json
        assert via_binary.to_json() == via_json.to_json()

    def test_binary_encoding_is_smaller_than_json_for_wide_rows(self):
        objects = [
            {"tuple_id": row, "x": row * 0.5, "y": row * 0.25,
             "bbox": (0.0 + row, 1.0, 2.0, 3.0)}
            for row in range(200)
        ]
        wide = response(objects)
        assert len(columnar.encode_response(wide)) < len(wide.to_json().encode())


class TestErrors:
    def test_error_roundtrip(self):
        body = columnar.encode_error(ValueError("boom"))
        assert columnar.message_kind(body) == columnar.MSG_ERROR
        assert columnar.decode_error(body) == ("ValueError", "boom")

    def test_empty_message_raises(self):
        with pytest.raises(ProtocolError, match="empty"):
            columnar.message_kind(b"")

    def test_corrupt_response_bytes_fail_typed(self):
        # Every column type, including per-cell JSON.  A corrupt row count
        # must be rejected before the decoder allocates rows for it.
        objects = [
            {
                "tuple_id": i,
                "x": i * 1.5,
                "name": f"n{i}",
                "flag": i % 2 == 0,
                "bbox": (0.0, 1.0, 2.0, 3.0),
                "extra": [i, "mixed"],
            }
            for i in range(12)
        ]
        body = columnar.encode_response(response(objects))
        for offset in range(len(body)):
            for value in (0x00, 0x7F, 0xFF):
                corrupt = body[:offset] + bytes([value]) + body[offset + 1 :]
                try:
                    columnar.decode_response(corrupt)
                except ProtocolError:
                    pass
