"""The round kernel's sort and Λ-rounding against the lexsort oracle.

:func:`repro.engine.kernels.compact_round_range` orders each row's entries
with one stable int64 argsort keyed by (row, descending value rank).  The
equivalence corpus uses integer/dyadic weights only, where the order of equal
values cannot change a prefix sum, so it does not pin the permutation.  Here
the kernel is compared byte for byte with the lexsort kernel it replaced,
kept below as the oracle, on non-dyadic weights and value vectors full of
ties: any change in how ties are ordered changes a float sum and shows up.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.rounding import LambdaGrid
from repro.engine.kernels import (
    _gathered_sub_csr,
    compact_round_range,
    compact_trajectory,
    round_values,
)
from repro.graph.csr import graph_to_csr
from repro.graph.graph import Graph

LAMBDAS = (0.0, 0.25, 0.5)
PALETTES = (
    (0.0, math.inf),
    (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, math.inf),
    (0.1, 0.7, 0.7000000000000001, 1.9, 2.0, 5.5, math.inf),
)


def lexsort_round_range(csr, current, lo, hi, grid):
    """The previous kernel: ``np.lexsort`` plus per-node Λ-rounding."""
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    local_n = hi - lo
    loops = csr.loops[lo:hi]
    counts = np.diff(csr.indptr[lo:hi + 1])
    rows = np.repeat(np.arange(local_n), counts)
    vals = current[csr.indices[start:stop]]
    order = np.lexsort((-vals, rows))
    sorted_vals = vals[order]
    sorted_w = csr.weights[start:stop][order]
    flat_cs = np.cumsum(sorted_w)
    row_starts = csr.indptr[lo:hi] - start
    nonempty = counts > 0
    before_row = np.zeros(local_n, dtype=np.float64)
    before_row[nonempty] = flat_cs[row_starts[nonempty]] - sorted_w[row_starts[nonempty]]
    within_cs = flat_cs - np.repeat(before_row, counts) + np.repeat(loops, counts)
    candidates = np.minimum(within_cs, sorted_vals)
    new = loops.copy()
    if len(candidates):
        seg_max = np.full(local_n, -np.inf, dtype=np.float64)
        seg_max[nonempty] = np.maximum.reduceat(candidates, row_starts[nonempty])
        new = np.maximum(new, np.where(nonempty, seg_max, loops))
    if grid.is_exact:
        return new
    return np.array([grid.round_down(x) for x in new], dtype=np.float64)


def random_graph(seed: int, n: int, p: float, weights: str) -> Graph:
    """G(n, p) with non-dyadic weights (``"uniform"`` floats or ``"thirds"``)."""
    rng = np.random.default_rng(seed)
    graph = Graph(nodes=range(n))

    def draw():
        if weights == "uniform":
            return float(rng.uniform(0.05, 3.0))
        return int(rng.integers(1, 10)) / 3.0

    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v, draw())
        if rng.random() < 0.2:
            graph.add_edge(u, u, draw())
    return graph


CASES = [(seed, n, p, weights)
         for seed in range(12)
         for n, p in ((40, 0.02), (60, 0.15))   # sparse: 2m < n; dense: 2m >= n
         for weights in ("uniform", "thirds")]


def _assert_bytes_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, n, p, weights", CASES)
class TestRankKeySortMatchesLexsort:
    def _vectors(self, seed, csr):
        rng = np.random.default_rng(1000 + seed)
        n = csr.num_nodes
        yield np.full(n, np.inf)
        yield csr.degrees()
        for palette in PALETTES:
            yield rng.choice(np.asarray(palette), size=n)
        # Real mid-trajectory rows: the ties the algorithm itself produces.
        yield from compact_trajectory(csr, 6)[1:4]

    def test_full_and_sub_ranges(self, seed, n, p, weights):
        csr = graph_to_csr(random_graph(seed, n, p, weights))
        rng = np.random.default_rng(seed)
        ranges = [(0, n), (0, 1), (n - 1, n), (n // 3, n // 3)]
        ranges += [tuple(sorted(rng.integers(0, n + 1, size=2))) for _ in range(4)]
        for lam in LAMBDAS:
            grid = LambdaGrid(lam=lam)
            for current in self._vectors(seed, csr):
                for lo, hi in ranges:
                    _assert_bytes_equal(
                        compact_round_range(csr, current, lo, hi, grid),
                        lexsort_round_range(csr, current, lo, hi, grid))

    def test_gathered_rows(self, seed, n, p, weights):
        csr = graph_to_csr(random_graph(seed, n, p, weights))
        rng = np.random.default_rng(seed + 1)
        for lam in LAMBDAS:
            grid = LambdaGrid(lam=lam)
            for current in self._vectors(seed, csr):
                for size in (1, n // 4, n):
                    ids = np.unique(rng.integers(0, n, size=size))
                    sub = _gathered_sub_csr(csr, ids)
                    _assert_bytes_equal(
                        compact_round_range(sub, current, 0, len(ids), grid),
                        lexsort_round_range(sub, current, 0, len(ids), grid))

    def test_trajectory(self, seed, n, p, weights):
        csr = graph_to_csr(random_graph(seed, n, p, weights))
        for lam in LAMBDAS:
            grid = LambdaGrid(lam=lam)
            trajectory = compact_trajectory(csr, 8, lam=lam)
            for t in range(1, trajectory.shape[0]):
                _assert_bytes_equal(
                    trajectory[t],
                    lexsort_round_range(csr, trajectory[t - 1], 0, n, grid))


class TestRoundValues:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 0.1])
    def test_matches_elementwise_round_down(self, lam):
        grid = LambdaGrid(lam=lam)
        rng = np.random.default_rng(7)
        powers = [(1.0 + lam) ** k for k in range(-6, 12)]
        pool = np.concatenate((
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            [0.0, -0.0, math.inf, 1.0, 1.0 / 3.0, 7.0],
            rng.uniform(0.0, 50.0, size=30)))
        values = rng.choice(pool, size=400)   # every level repeats
        want = np.array([grid.round_down(x) for x in values], dtype=np.float64)
        _assert_bytes_equal(round_values(grid, values), want)

    def test_grid_powers_are_fixed_points(self):
        grid = LambdaGrid(lam=0.5)
        powers = np.array([1.5 ** k for k in range(-4, 20)] * 2)
        want = np.array([grid.round_down(x) for x in powers], dtype=np.float64)
        _assert_bytes_equal(round_values(grid, powers), want)

    def test_empty_vector(self):
        out = round_values(LambdaGrid(lam=0.5), np.zeros(0, dtype=np.float64))
        assert out.dtype == np.float64 and out.shape == (0,)

    def test_exact_grid_is_identity(self):
        values = np.array([0.3, 0.3, math.inf])
        assert round_values(LambdaGrid(lam=0.0), values) is values
