"""The pan-step workloads and their seeded walk generator.

Every input the program sees is generated here from the ``--seed`` the
benchmark was started with: the viewport positions each session pans to.
The program under test receives only those positions, through
``KyrixFrontend.pan_to``.

Geometry is in canvas pixels; a *position* is the top-left corner of a
1024 x 1024 viewport, always fully inside the canvas.

The walks are built from the paper's own movement model, the three
Figure 5 traces of ``repro.datagen.traces``: 1024-px steps (one viewport
length, so a dbox step fetches a whole new viewport) that cross into,
through and out of the skewed dataset's dense rectangle.  Each leg is
moved by one of ``OFFSETS`` plus a seeded jitter of up to ``JITTER`` px
and may be played backwards, so viewports do not repeat across legs,
while every cycle of legs uses each trace at each offset once, so the
share of dense, crossing and sparse steps is the same for every seed.
On the smoke skewed dataset (30k dots, 16384 x 8192) a step's viewport
then holds a median of 58 dots, and 36-37% of steps (first 700 steps of
seeds 1-4) hold more than 500, about 960 each inside the dense rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.datagen.traces import paper_traces

VIEWPORT = 1024
#: Client threads driving the load: closed-loop sessions, one per core of
#: the machine the benchmark was sized on.
CLIENTS = 2
#: Shifts (px) of a Figure 5 leg from the paper's placement; each trace is
#: used once at each shift per cycle of legs, in a seeded order ...
OFFSETS = ((-256, -256), (-256, 256), (256, -256), (256, 256))
#: ... plus a seeded jitter of up to this many px per axis.
JITTER = 64
#: Every fifth step returns to a recent viewport (the frontend cache's).
REVISIT_EVERY = 5


@dataclass(frozen=True)
class Workload:
    """Parameters of one workload (what ``BENCHMARK.json`` summarises).

    Every workload serves the smoke skewed dataset with the paper's dynamic
    box scheme to ``CLIENTS`` closed-loop sessions.
    """

    name: str
    shards: int
    topology: str  # cluster worker mode: "threads" or "processes"
    #: Steps per session between hotspot moves; 0 keeps the paper's placement.
    #: When set, the walk alternates between the paper's placement and its
    #: mirror image, and the cluster re-splits half-way through each phase.
    phase_steps: int = 0


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(name="dbox-threads", shards=4, topology="threads"),
        Workload(name="dbox-processes", shards=2, topology="processes"),
        Workload(
            name="hotspot-rebalance",
            shards=2,
            topology="threads",
            phase_steps=400,
        ),
    )
}


def _legs(width: float, height: float) -> list[list[tuple[float, float]]]:
    """The Figure 5 traces a, b and c as legs of positions."""
    return [list(trace.positions) for trace in paper_traces(width, height).values()]


def _placed(
    rng: np.random.Generator,
    leg: list[tuple[float, float]],
    offset: tuple[int, int],
    width: float,
    height: float,
    mirrored: bool,
) -> Iterator[tuple[float, float]]:
    """One leg shifted by ``offset`` and seeded jitter (kept on the canvas),
    maybe reversed, maybe mirrored left to right."""
    xs = [x for x, _ in leg]
    ys = [y for _, y in leg]
    dx = float(
        np.clip(
            offset[0] + rng.uniform(-JITTER, JITTER), -min(xs), width - VIEWPORT - max(xs)
        )
    )
    dy = float(
        np.clip(
            offset[1] + rng.uniform(-JITTER, JITTER), -min(ys), height - VIEWPORT - max(ys)
        )
    )
    if rng.random() < 0.5:
        leg = leg[::-1]
    for x, y in leg:
        x = x + dx
        if mirrored:
            x = width - VIEWPORT - x
        yield float(round(x)), float(round(y + dy))


def _with_revisits(
    rng: np.random.Generator,
    moves: Iterator[tuple[float, float]],
    steps: int,
    *,
    history: int = 4,
) -> list[tuple[float, float]]:
    """Draw ``steps`` positions from ``moves``; every ``REVISIT_EVERY``-th
    step instead returns to one of the last ``history`` distinct positions
    (never the current one, which would fetch nothing)."""
    positions: list[tuple[float, float]] = []
    recent: list[tuple[float, float]] = []
    while len(positions) < steps:
        current = positions[-1] if positions else None
        choices = [p for p in recent if p != current]
        if choices and len(positions) % REVISIT_EVERY == REVISIT_EVERY - 1:
            positions.append(choices[int(rng.integers(len(choices)))])
            continue
        position = next(moves)
        if position == current:
            continue
        positions.append(position)
        if position in recent:
            recent.remove(position)
        recent.append(position)
        del recent[:-history]
    return positions


def figure5_walk(
    rng: np.random.Generator,
    width: float,
    height: float,
    steps: int,
    *,
    phase_steps: int = 0,
) -> list[tuple[float, float]]:
    """One session's walk: cycles of the Figure 5 legs, each trace once at
    each of ``OFFSETS`` in a seeded order, with revisits.

    With ``phase_steps``, phases of that many steps alternate between the
    paper's placement and its mirror image; the dataset's dense rectangle
    is centred, so both phases see the same mix of densities while the
    load moves from one half of the canvas to the other.
    """
    legs = _legs(width, height)
    phases = []
    for phase in range(steps // phase_steps + 1 if phase_steps else 1):

        def moves(mirrored: bool = phase % 2 == 1) -> Iterator[tuple[float, float]]:
            cycle = [(leg, offset) for leg in legs for offset in OFFSETS]
            while True:
                for index in rng.permutation(len(cycle)):
                    leg, offset = cycle[index]
                    yield from _placed(rng, leg, offset, width, height, mirrored)

        phases.append(_with_revisits(rng, moves(), phase_steps or steps))
    return [position for phase in phases for position in phase][:steps]
