"""Set-up of one workload's stack and the closed-loop driver."""

from __future__ import annotations

import gc
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.bench.apps import build_dots_application, default_config
from repro.bench.experiments import dataset_for_scale
from repro.client.frontend import KyrixFrontend
from repro.cluster import ClusterRouter
from repro.compiler import compile_application
from repro.core.viewport import Viewport
from repro.datagen.synthetic import DotDatasetSpec, load_dots
from repro.server.schemes import dbox_scheme
from repro.serving import build_service, unwrap
from repro.storage.database import Database

import workloads as wl

#: A run keeps going past ``--seconds`` until it holds this many steps, so
#: its p99 has at least ten samples beyond it ...
MIN_STEPS = 1000
#: ... but never longer than this many times ``--seconds``.
MAX_STRETCH = 4.0
#: Walk positions generated per session and second of ``--seconds``: far
#: more than any stack completes, so a walk never runs out.
STEPS_PER_SECOND = 1000


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything generated from the seed for one run of a workload."""

    spec: DotDatasetSpec
    #: Per session, the canvas-load position then the pan positions.
    walks: list[list[tuple[float, float]]]


def make_inputs(workload: wl.Workload, seed: int, seconds: float) -> Inputs:
    spec = dataset_for_scale("skewed", "smoke")
    rng = np.random.default_rng(seed)
    steps = int(seconds * STEPS_PER_SECOND) + MIN_STEPS + 1

    def walk() -> list[tuple[float, float]]:
        return wl.figure5_walk(
            rng, spec.canvas_width, spec.canvas_height, steps,
            phase_steps=workload.phase_steps,
        )

    return Inputs(spec=spec, walks=[walk() for _ in range(wl.CLIENTS)])


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Stack:
    service: Any
    router: ClusterRouter
    frontends: list[KyrixFrontend]
    #: Set-up phases in seconds (datagen.load_s, server.precompute_s,
    #: cluster.build_s); ``total`` is the wall time of all of set-up, the
    #: end-to-end ``setup_s``, whose remainder is the sessions' canvas loads.
    phases: dict[str, float]
    total: float


def build_stack(workload: wl.Workload, inputs: Inputs) -> Stack:
    """Everything before the first timed step, through ``build_service``."""
    config = default_config()
    phases: dict[str, float] = {}
    started = time.perf_counter()

    database = Database(config.storage)
    load_dots(database, inputs.spec)
    mark = time.perf_counter()
    phases["datagen.load_s"] = mark - started

    compiled = compile_application(build_dots_application(inputs.spec, config))
    backend = build_service(config, database=database, compiled=compiled)
    now = time.perf_counter()
    phases["server.precompute_s"], mark = now - mark, now

    service = build_service(
        config,
        backend=backend,
        shard_count=workload.shards,
        worker_mode=workload.topology,
        rebalance=bool(workload.phase_steps),
    )
    now = time.perf_counter()
    phases["cluster.build_s"] = now - mark
    router = unwrap(service, ClusterRouter)

    frontends = []
    for walk in inputs.walks:
        frontend = KyrixFrontend(service, dbox_scheme(), config=config)
        frontend.load_canvas("dots", Viewport(*walk[0], wl.VIEWPORT, wl.VIEWPORT))
        frontends.append(frontend)
    # The set-up heap (rows, indexes, shard stacks: ~340k objects) lives as
    # long as the server, as in a pre-forked server, so it leaves the
    # collector's generations.  Otherwise every full collection during the
    # timed region re-traverses it, a 150-300 ms pause on about 1% of steps
    # that makes step_p99_ms depend on where the pauses fall.  Objects
    # built during the run, such as a re-split's shard generation, are
    # still collected as usual.
    gc.collect()
    gc.freeze()
    return Stack(service, router, frontends, phases, time.perf_counter() - started)


def release(stack: Stack) -> None:
    """Close the stack (and its worker processes) and free its memory."""
    stack.service.close()
    stack.router.cluster.source.close()
    gc.unfreeze()
    gc.collect()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class StepLog:
    """What one client thread saw, in step order."""

    latencies: list[float] = field(default_factory=list)  # seconds inside pan_to
    done: list[float] = field(default_factory=list)  # perf_counter at completion
    #: Dispatch lateness: from when a step was due (its predecessor's
    #: completion) until the generator started it.
    late: list[float] = field(default_factory=list)
    failed: int = 0
    #: (position, previous position, delivered ids) of every completed step.
    records: list[tuple[tuple[float, float], tuple[float, float], np.ndarray]] = field(
        default_factory=list
    )


def _delivered(frontend: KyrixFrontend) -> np.ndarray:
    objects = frontend.visible_objects.get(0, ())
    return np.fromiter((o["tuple_id"] for o in objects), dtype=np.int64, count=len(objects))


@dataclass
class RunResult:
    logs: list[StepLog]
    start: float  # perf_counter when the timed region began
    #: Hotspot workloads: every re-split's RebalanceReport, and the load
    #: skew each one left behind at the end of its phase.
    rebalances: list[Any] = field(default_factory=list)
    skew_after: list[float] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return sum(len(log.latencies) for log in self.logs)

    @property
    def failed(self) -> int:
        return sum(log.failed for log in self.logs)


def _control(stack: Stack, orders: queue.Queue, result: RunResult, errors: list) -> None:
    """Carry out the first session's orders in the background: re-split the
    cluster, or sample the load skew the last re-split left behind."""
    rebalancer = stack.router.cluster.rebalancer
    try:
        for order in iter(orders.get, None):
            if order == "rebalance":
                result.rebalances.append(rebalancer.rebalance())
            else:
                result.skew_after.append(rebalancer.skew())
    except BaseException as error:  # surfaced after the join
        errors.append(error)


def run_closed(
    stack: Stack, inputs: Inputs, seconds: float, phase_steps: int = 0
) -> RunResult:
    """Each session pans as soon as its previous step completes.

    With ``phase_steps``, the first session orders a re-split half-way
    through every phase of its walk and a skew sample at the phase's end;
    a control thread carries them out while the sessions keep panning.
    """
    sessions = len(stack.frontends)
    logs = [StepLog() for _ in range(sessions)]
    counts = [0] * sessions  # each thread writes only its own slot
    barrier = threading.Barrier(sessions + 1)
    clock: dict[str, float] = {}
    result = RunResult(logs=logs, start=0.0)
    orders: queue.Queue = queue.Queue()
    control_errors: list[BaseException] = []

    def session(index: int) -> None:
        frontend, walk, log = stack.frontends[index], inputs.walks[index], logs[index]
        barrier.wait()
        due = clock["start"]
        deadline = due + seconds
        hard_stop = due + seconds * MAX_STRETCH
        for step in range(1, len(walk)):
            position, previous = walk[step], walk[step - 1]
            began = time.perf_counter()
            try:
                frontend.pan_to(*position)
            except Exception:  # noqa: BLE001 - a failed step is counted, not fatal
                done = time.perf_counter()
                log.failed += 1
            else:
                done = time.perf_counter()
                log.records.append((position, previous, _delivered(frontend)))
            log.late.append(began - due)
            log.latencies.append(done - began)
            log.done.append(done)
            counts[index] += 1
            if index == 0 and phase_steps:
                if step % phase_steps == phase_steps // 2:
                    orders.put("rebalance")
                elif step % phase_steps == phase_steps - 1:
                    orders.put("skew")
            if done >= hard_stop or (done >= deadline and sum(counts) >= MIN_STEPS):
                break
            due = done

    threads = [threading.Thread(target=session, args=(i,)) for i in range(sessions)]
    if phase_steps:
        control = threading.Thread(
            target=_control, args=(stack, orders, result, control_errors)
        )
        control.start()
    for thread in threads:
        thread.start()
    clock["start"] = result.start = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    if phase_steps:
        orders.put(None)
        control.join()
    if control_errors:
        raise control_errors[0]
    return result


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def _peak_rss_kb(pid: int | str) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def peak_rss_mb(stack: Stack) -> float:
    """Peak RSS of this process plus every live shard worker process."""
    total = _peak_rss_kb("self")
    pool = stack.router.cluster.worker_pool
    if pool is not None:
        total += sum(_peak_rss_kb(worker["pid"]) for worker in pool.describe())
    return total / 1024.0
