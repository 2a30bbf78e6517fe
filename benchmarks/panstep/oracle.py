"""Independent output check: expected tuple ids by numpy brute force.

The oracle never calls the program under test.  It regenerates the dots
with :func:`repro.datagen.synthetic.generate_points` and answers each
viewport by a vectorised bbox intersection over all of them, so a wrong
index, shard split, merge, cache entry or codec round trip shows up as a
mismatch.  Checks run after the timed region.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.synthetic import DotDatasetSpec, generate_points

from workloads import VIEWPORT


class Oracle:
    """Expected visible tuple ids for a viewport under the dynamic box scheme."""

    def __init__(self, spec: DotDatasetSpec) -> None:
        points = generate_points(spec)
        half = spec.half_extent
        # The same float64 arithmetic the loader uses for each row's bbox.
        self.bxmin = points[:, 0] - half
        self.bymin = points[:, 1] - half
        self.bxmax = points[:, 0] + half
        self.bymax = points[:, 1] + half
        self._expected: dict[tuple[float, float], np.ndarray] = {}

    def box_ids(self, xmin: float, ymin: float, xmax: float, ymax: float) -> np.ndarray:
        """Ids whose bbox shares any point with the box (edges count)."""
        hit = ~(
            (self.bxmax < xmin)
            | (xmax < self.bxmin)
            | (self.bymax < ymin)
            | (ymax < self.bymin)
        )
        return np.flatnonzero(hit)

    def expected(self, position: tuple[float, float], previous: tuple[float, float]) -> np.ndarray:
        """Sorted ids a step to ``position`` must deliver.

        The box is the viewport, fetched whenever the viewport leaves the
        previous box, i.e. unless the position is unchanged.
        """
        if position == previous:
            return np.empty(0, dtype=np.int64)
        cached = self._expected.get(position)
        if cached is None:
            x, y = position
            ids = self.box_ids(x, y, x + VIEWPORT, y + VIEWPORT)
            cached = self._expected[position] = np.sort(ids)
        return cached


def count_mismatches(oracle: Oracle, records) -> int:
    """How many recorded steps delivered other ids than the oracle expects.

    ``records`` yields ``(position, previous_position, delivered_ids)`` for
    every step that completed without raising.
    """
    mismatched = 0
    for position, previous, delivered in records:
        if not np.array_equal(np.sort(delivered), oracle.expected(position, previous)):
            mismatched += 1
    return mismatched
