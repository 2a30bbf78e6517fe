"""Wall-clock pan-step benchmark: one workload, one seed, one run.

Replays seeded pan walks through the real frontend
(``KyrixFrontend.pan_to``) against a serving stack built by
``build_service``, times every step with the program's tracing off, and
checks every step's delivered tuple ids against a numpy brute-force oracle
after the timed region.  Usage, from the repository root::

    python3 benchmarks/panstep/run.py --workload dbox-threads --seed 1 \\
        --seconds 10 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` lists them
and the metrics.  ``--trace 0`` times ``SETUP_REPEATS`` cold set-ups, each
in a fresh interpreter (``setup_s`` is the median), runs the last one and
prints the end-to-end metrics; step latencies and throughput are
medians over windows of 1000 steps (see ``step_summary``).  ``--trace 1``
runs once untraced, then again on a fresh stack with a span wrapper
around each layer's public entry point (see ``spans.py``), and prints the
per-layer metrics; the spans are written to ``--spans-dir``.  A per-layer
metric whose layer does not run in the workload (the socket under
threads, the shard engine behind a process boundary, re-splits outside
``hotspot-rebalance``) reads 0.

Every metric is printed as a ``name value unit`` line, plus
``error_rate`` (failed / attempted steps); the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, where ``failed`` counts steps that raised plus steps whose
ids differ from the oracle.  The exit code is 1 when any step failed or
mismatched, and 3 (with no JSON line) when the run is invalid because
its load generator, not the system, fell behind (``LATE_SHARE``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir() or not (_ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"panstep: {_ROOT} is not a full checkout (needs src/repro and BENCHMARK.json)")
sys.path.insert(0, str(_ROOT / "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
from oracle import Oracle, count_mismatches  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Set-ups timed per ``--trace 0`` run, each in a fresh interpreter (the
#: last one in this process, whose stack the run then uses); ``setup_s``
#: is their median.
SETUP_REPEATS = 3
#: A run whose dispatch lateness p99 exceeds this share of its step
#: latency p99 measured its own load generator, not the system, and is
#: not scored.
LATE_SHARE = 0.25

#: Metric names and units, as ``BENCHMARK.json`` at the checkout root lists them.
_CONTRACT = json.loads((_ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


class InvalidRun(Exception):
    """The run measured its own load generator; it must not be scored."""


def _ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1000.0, q))


def late_p99_ms(result: harness.RunResult) -> float:
    return _ms([value for log in result.logs for value in log.late], 99)


def run_once(workload: Workload, inputs: harness.Inputs, seconds: float, stack: harness.Stack):
    result = harness.run_closed(stack, inputs, seconds, workload.phase_steps)
    late_p99, step_p99 = late_p99_ms(result), step_summary(result)[1]
    if late_p99 > LATE_SHARE * step_p99:
        raise InvalidRun(
            f"load generator fell behind: dispatch lateness p99 "
            f"{late_p99:.1f} ms > {LATE_SHARE} x step p99 {step_p99:.1f} ms"
        )
    return result


def cold_setup_s(workload: Workload, seed: int, seconds: float) -> float:
    """Set-up time of a fresh interpreter (this script with ``--setup-only``)."""
    child = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload.name, "--seed", str(seed),
            "--seconds", str(seconds), "--setup-only",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    return float(child.stdout.split()[-1])


def step_summary(result: harness.RunResult) -> tuple[float, float, float]:
    """Step p50 (ms), p99 (ms) and steps per second of a run.

    Each is the median over consecutive windows of at least ``MIN_STEPS``
    steps in completion order, so every window's p99 has ten samples
    beyond it and one burst (a collector pause, a stalled core) moves one
    window rather than the whole run's figure.
    """
    steps = np.array(
        sorted(
            (done, latency)
            for log in result.logs
            for done, latency in zip(log.done, log.latencies)
        )
    )
    windows = np.array_split(steps, max(1, len(steps) // harness.MIN_STEPS))
    p50s, p99s, rates = [], [], []
    previous_end = result.start
    for window in windows:
        latencies = window[:, 1] * 1000.0
        p50s.append(float(np.percentile(latencies, 50)))
        p99s.append(float(np.percentile(latencies, 99)))
        end = float(window[-1, 0])
        rates.append(len(window) / (end - previous_end))
        previous_end = end
    return statistics.median(p50s), statistics.median(p99s), statistics.median(rates)


def end_to_end(workload, inputs, seed, seconds) -> tuple[dict[str, float], harness.RunResult]:
    setups = [cold_setup_s(workload, seed, seconds) for _ in range(SETUP_REPEATS - 1)]
    stack = harness.build_stack(workload, inputs)
    setups.append(stack.total)
    try:
        result = run_once(workload, inputs, seconds, stack)
        rss = harness.peak_rss_mb(stack)
    finally:
        harness.release(stack)
    p50, p99, rate = step_summary(result)
    metrics = {
        "setup_s": statistics.median(setups),
        "step_p50_ms": p50,
        "step_p99_ms": p99,
        "steps_per_s": rate,
        "peak_rss_mb": rss,
    }
    return metrics, result


def per_layer(workload, inputs, seconds, spans_dir: Path, seed: int):
    # Untraced reference run, then a traced run on a fresh stack.  The
    # set-up splits are the first (cold) build's.
    stack = harness.build_stack(workload, inputs)
    phases = stack.phases
    try:
        reference = run_once(workload, inputs, seconds, stack)
    finally:
        harness.release(stack)

    stack = harness.build_stack(workload, inputs)
    router = stack.router
    before = _counters(stack)
    recorder = spans.SpanRecorder()
    try:
        with spans.Instrumentation(recorder, router):
            traced = run_once(workload, inputs, seconds, stack)
        after = _counters(stack)
    finally:
        harness.release(stack)
    recorder.finish()
    recorder.write(spans_dir / f"{workload.name}-seed{seed}.spans.jsonl")

    steps = traced.steps
    by_name: dict[str, list[spans.Span]] = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)

    def total_ms(name: str) -> float:
        """Self (or, for wait spans, wait) milliseconds per step."""
        return sum(span.exclusive for span in by_name.get(name, ())) * 1000.0 / steps

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sql = by_name.get("minisql.execute", [])
    socket = by_name.get("net.socket", [])
    wire = sum(span.wire_bytes for span in by_name.get("net.codec", []) + socket)
    delta = {key: after[key] - before[key] for key in after}
    # Per client thread, self plus wait time of the spans it ran must cover
    # the time it spent inside pan_to.
    clients = {span.thread for span in by_name.get(spans.ROOT, [])}
    covered = sum(span.exclusive for span in recorder.spans if span.thread in clients)
    inside = sum(value for log in traced.logs for value in log.latencies)

    metrics = {
        "client.self_ms_per_step": total_ms(spans.ROOT),
        "client.requests_per_step": delta["fe_misses"] / steps,
        "client.cache_hit_ratio": ratio(
            delta["fe_hits"], delta["fe_hits"] + delta["fe_misses"]
        ),
        "serving.cache.hit_ratio": ratio(
            delta["rc_hits"], delta["rc_hits"] + delta["rc_misses"]
        ),
        "serving.cache.self_ms_per_step": total_ms("serving.cache"),
        "serving.coalesce.follower_ratio": ratio(
            delta["followers"], delta["leaders"] + delta["followers"]
        ),
        "serving.coalesce.self_ms_per_step": total_ms("serving.coalesce"),
        "serving.coalesce.wait_ms_per_step": total_ms("serving.coalesce.wait"),
        "serving.serialized.wait_ms_per_step": total_ms("serving.serialized.wait"),
        "cluster.router.self_ms_per_step": total_ms("cluster.router"),
        "cluster.fanout": ratio(delta["shard_queries"], delta["scatters"]),
        "cluster.scatter.wait_ms_per_step": total_ms("cluster.scatter.wait"),
        "cluster.build_s": phases["cluster.build_s"],
        "net.codec.self_ms_per_step": total_ms("net.codec"),
        "net.wire_bytes_per_step": wire / steps,
        "net.socket.rtt_p50_ms": _ms([s.duration for s in socket], 50) if socket else 0.0,
        "server.backend.self_ms_per_step": total_ms("server.backend"),
        "server.precompute_s": phases["server.precompute_s"],
        "minisql.execute.self_ms_per_step": total_ms("minisql.execute"),
        "minisql.rows_per_query": ratio(sum(span.rows for span in sql), len(sql)),
        "storage.rtree.self_ms_per_step": total_ms("storage.rtree"),
        "storage.rtree.searches_per_step": len(by_name.get("storage.rtree", [])) / steps,
        "datagen.load_s": phases["datagen.load_s"],
        "trace.overhead_frac": step_summary(traced)[0] / step_summary(reference)[0] - 1.0,
        "trace.unattributed_frac": 1.0 - covered / inside,
        "cluster.rebalance.build_ms": _mean([r.build_ms for r in traced.rebalances]),
        "cluster.rebalance.drain_ms": _mean([r.drain_ms for r in traced.rebalances]),
        "cluster.rebalance.skew_after": _mean(traced.skew_after),
        "loadgen.late_p99_ms": late_p99_ms(traced),
    }
    return metrics, [reference, traced]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _counters(stack: harness.Stack) -> dict[str, int]:
    router = stack.router
    frontend_stats = [frontend.cache.stats for frontend in stack.frontends]
    coalescer = router.coalescer.stats if router.coalescer is not None else None
    return {
        "fe_hits": sum(s.hits for s in frontend_stats),
        "fe_misses": sum(s.misses for s in frontend_stats),
        "rc_hits": router.cache.stats.hits,
        "rc_misses": router.cache.stats.misses,
        "leaders": coalescer.leaders if coalescer else 0,
        "followers": coalescer.followers if coalescer else 0,
        "scatters": router.stats.scatter_gathers,
        "shard_queries": router.stats.shard_queries,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-dir",
        type=Path,
        default=Path(".panstep-spans"),
        help="where a traced run writes its spans (JSON lines)",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the stack, print its set-up seconds and exit (one cold set-up)",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = harness.make_inputs(workload, args.seed, args.seconds)
    if args.setup_only:
        stack = harness.build_stack(workload, inputs)
        harness.release(stack)
        print(stack.total)
        return 0

    try:
        if args.trace:
            metrics, results = per_layer(
                workload, inputs, args.seconds, args.spans_dir, args.seed
            )
            units = PER_LAYER_UNITS
        else:
            metrics, result = end_to_end(workload, inputs, args.seed, args.seconds)
            results = [result]
            units = END_TO_END_UNITS
    except InvalidRun as error:
        print(f"panstep: invalid run, not scored: {error}", file=sys.stderr)
        return 3

    oracle = Oracle(inputs.spec)
    attempted = sum(r.steps for r in results)
    records = (record for r in results for log in r.logs for record in log.records)
    failed = sum(r.failed for r in results) + count_mismatches(oracle, records)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6f} {unit}")
    print(f"{'error_rate':40s} {failed / attempted:14.6f} fraction")
    print(f"{'steps':40s} {attempted:14d} count")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
