"""Wire parity: the binary shard wire serves byte-identical payloads.

The binary columnar codec (:mod:`repro.net.columnar`) only redefines how
bytes cross the shard boundary — never *which* decoded payload comes back.
This suite proves it across the wire-level topologies (in-process wire
stubs and forked worker processes) against an in-process cluster with no
wire at all, and under real worker kills.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster
from repro.net.protocol import DataRequest
from repro.serving import collect_wire_stats, kill_worker

from tests.cluster.conftest import parity_requests, payload_bytes

WIRE_TOPOLOGIES = {
    "wire": {"worker_mode": "threads", "wire_shards": True},
    "processes": {"worker_mode": "processes"},
}


@pytest.mark.parametrize("topology", sorted(WIRE_TOPOLOGIES))
def test_codecs_serve_byte_identical_payloads(eeg_parity_stack, topology):
    stack = eeg_parity_stack
    requests = parity_requests(stack)
    payloads: dict[str, list[bytes]] = {}
    wire_bytes: dict[str, int] = {}
    for name, options in (
        ("in-process", {"worker_mode": "threads", "wire_shards": False}),
        (topology, WIRE_TOPOLOGIES[topology]),
    ):
        cluster = build_cluster(
            stack.backend, shard_count=2, tile_sizes=stack.tile_sizes, **options
        )
        try:
            payloads[name] = [
                payload_bytes(cluster.router.handle(r)) for r in requests
            ]
            wire_bytes[name] = collect_wire_stats(cluster.router).bytes_total
        finally:
            cluster.close()
    assert any(payload != b"[]" for payload in payloads["in-process"])
    # Decoded payloads are the law: byte-identical with and without a wire.
    assert payloads[topology] == payloads["in-process"]
    assert wire_bytes["in-process"] == 0
    assert wire_bytes[topology] > 0


def test_killed_worker_fails_over_under_the_binary_codec(dots_stack):
    def box(nudge):
        return DataRequest(
            app_name=dots_stack.compiled.app_name,
            canvas_id="dots",
            layer_index=0,
            granularity="box",
            xmin=0.0,
            ymin=0.0,
            xmax=2000.0 + nudge,
            ymax=2000.0,
        )

    baseline = build_cluster(dots_stack.backend, shard_count=2, replicas=1)
    cluster = build_cluster(
        dots_stack.backend,
        shard_count=2,
        replicas=2,
        worker_mode="processes",
    )
    try:
        requests = [box(i) for i in range(4)]
        expected = [payload_bytes(baseline.router.handle(r)) for r in requests]
        assert any(payload != b"[]" for payload in expected)

        handle = kill_worker(cluster, shard_id=0, replica_index=0)
        assert not handle.alive

        degraded = [payload_bytes(cluster.router.handle(r)) for r in requests]
        assert degraded == expected, "binary-codec failover changed the payload"
        # The stub accounting proves binary frames moved on the survivor.
        assert collect_wire_stats(cluster.router).calls > 0
    finally:
        cluster.close()
        baseline.close()
