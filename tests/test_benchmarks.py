import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from hillvallea.benchmarks import (ALL_IDS, UnavailableProblem, catalog,
                                   five_uneven_peak_trap, get_problem,
                                   modified_rastrigin, shubert, vincent)

# dimension, number of global optima, budget, niche radius
EXPECTED = {
    1: (1, 2, 50_000, 0.01),
    2: (1, 5, 50_000, 0.01),
    3: (1, 1, 50_000, 0.01),
    4: (2, 4, 50_000, 0.01),
    5: (2, 2, 50_000, 0.01),
    6: (2, 18, 200_000, 0.5),
    7: (2, 36, 200_000, 0.2),
    8: (3, 81, 400_000, 0.5),
    9: (3, 216, 400_000, 0.2),
    10: (2, 12, 200_000, 0.01),
}


class TestCatalog:
    def test_id_ranges(self):
        assert [c.id for c in catalog() if c.available] == list(range(1, 11))
        assert ALL_IDS == tuple(range(1, 21))

    def test_twenty_entries(self):
        entries = catalog()
        assert [c.id for c in entries] == list(range(1, 21))
        assert all(c.available for c in entries[:10])
        assert not any(c.available for c in entries[10:])

    @pytest.mark.parametrize("pid", sorted(EXPECTED))
    def test_metadata(self, pid):
        d, gopt, budget, radius = EXPECTED[pid]
        spec = get_problem(pid)
        assert spec.dimension == d
        assert spec.num_global_optima == gopt
        assert spec.budget == budget
        assert spec.niche_radius == radius
        assert spec.maximize

    @pytest.mark.parametrize("pid", range(11, 21))
    def test_composition_functions_unavailable(self, pid):
        with pytest.raises(UnavailableProblem, match=str(pid)):
            get_problem(pid)

    @pytest.mark.parametrize("pid", [0, 21, -3])
    def test_unknown_ids_rejected(self, pid):
        with pytest.raises(ValueError):
            get_problem(pid)


class TestDeclaredOptima:
    @pytest.mark.parametrize("pid", sorted(EXPECTED))
    def test_optima_shape_and_bounds(self, pid):
        spec = get_problem(pid)
        assert spec.known_optima.shape == (spec.num_global_optima,
                                           spec.dimension)
        assert np.all(spec.known_optima >= spec.lower)
        assert np.all(spec.known_optima <= spec.upper)

    @pytest.mark.parametrize("pid", sorted(EXPECTED))
    def test_optima_reach_declared_fitness(self, pid):
        spec = get_problem(pid)
        f = spec.objective(spec.known_optima)
        assert np.allclose(f, spec.optimum_fitness, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("pid", sorted(EXPECTED))
    def test_optima_pairwise_separated(self, pid):
        spec = get_problem(pid)
        xs = spec.known_optima
        if len(xs) < 2:
            return
        diffs = xs[:, None, :] - xs[None, :, :]
        dist = np.linalg.norm(diffs, axis=-1)
        dist[np.diag_indices(len(xs))] = np.inf
        assert dist.min() > spec.niche_radius

    def test_boundary_optima_of_trap_function(self):
        # the two-peak trap maximizes on the box edges, where a local
        # polish cannot run; check monotone decrease moving inward instead
        spec = get_problem(1)
        for x0, inward in ((0.0, 1.0), (30.0, -1.0)):
            steps = x0 + inward * np.array([[0.0], [0.01], [0.1], [1.0]])
            f = spec.objective(steps)
            assert f[0] == 200.0
            assert np.all(np.diff(f) < 0)

    @pytest.mark.parametrize("pid", sorted(set(EXPECTED) - {1}))
    def test_optima_are_stationary(self, pid):
        # polishing from each declared optimum must not improve fitness
        # beyond numerical noise
        spec = get_problem(pid)
        for x0 in spec.known_optima:
            res = minimize(lambda x: -spec.objective(x[None, :])[0], x0,
                           method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-12})
            assert -res.fun <= spec.optimum_fitness + 1e-7
            assert np.linalg.norm(res.x - x0) < 1e-4


def _count_global_optima_by_grid(spec, grid_per_dim, epsilon=1e-4):
    """Independent count: dense grid scan, local polish, niche dedupe."""
    axes = [np.linspace(spec.lower[i], spec.upper[i], grid_per_dim)
            for i in range(spec.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    f = spec.objective(pts)
    fbest = f.max()
    seeds = pts[f >= fbest - 0.05 * max(abs(fbest), 1.0)]
    found = []
    for x0 in seeds:
        res = minimize(lambda x: -spec.objective(
            np.clip(x, spec.lower, spec.upper)[None, :])[0], x0,
            method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-10})
        x = np.clip(res.x, spec.lower, spec.upper)
        if -res.fun < spec.optimum_fitness - epsilon:
            continue
        if all(np.linalg.norm(x - y) > spec.niche_radius for y in found):
            found.append(x)
    return len(found)


class TestIndependentOptimaCounts:
    @pytest.mark.parametrize("pid,grid", [(1, 600), (2, 600), (3, 600),
                                          (4, 80), (5, 80), (10, 120)])
    def test_low_dimensional_grid_oracle(self, pid, grid):
        spec = get_problem(pid)
        assert _count_global_optima_by_grid(spec, grid) == spec.num_global_optima

    def test_two_dimensional_vincent_grid_oracle(self):
        spec = get_problem(7)
        # peaks bunch towards the lower bound on a log scale, so the
        # linear grid needs to be fine enough to seed each one
        assert _count_global_optima_by_grid(spec, 400) == 36

    def test_two_dimensional_shubert_grid_oracle(self):
        spec = get_problem(6)
        assert _count_global_optima_by_grid(spec, 220) == 18

    def test_shubert_counts_follow_product_structure(self):
        # the objective is a product of identical one-dimensional factors;
        # a global optimum takes the min-magnitude factor value in exactly
        # one coordinate and a max-magnitude value in the others
        spec1 = get_problem(6)
        spec2 = get_problem(8)
        one_d_min = _count_shubert_1d_positions("min")
        one_d_max = _count_shubert_1d_positions("max")
        assert spec1.num_global_optima == 2 * one_d_min * one_d_max
        assert spec2.num_global_optima == 3 * one_d_min * one_d_max ** 2

    def test_vincent_counts_follow_product_structure(self):
        # sin(10 ln x) has six full periods on [0.25, 10]; the mean over
        # coordinates is maximal when every coordinate sits at a peak
        xs = np.linspace(0.25, 10.0, 400_001)
        v = np.sin(10.0 * np.log(xs))
        peaks = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])
                               & (v[1:-1] > 1.0 - 1e-6))
        assert len(peaks) == 6
        assert get_problem(7).num_global_optima == 6 ** 2
        assert get_problem(9).num_global_optima == 6 ** 3


_TRAP_EDGES = np.array([0.0, 2.5, 5.0, 7.5, 12.5, 17.5, 22.5, 27.5, 30.0])
_TRAP_SPECIAL = np.concatenate([
    _TRAP_EDGES, np.nextafter(_TRAP_EDGES, -np.inf), np.nextafter(_TRAP_EDGES, np.inf),
    [-0.0, np.inf, -np.inf, np.nan, -40.0, 40.0]])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 50), special=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_five_uneven_peak_trap_is_the_select_expression(n, special, seed):
    # bit for bit the published piecewise form through np.select, on the
    # breakpoints, their float neighbours, -0.0, +-inf, NaN and beyond [0, 30]
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(n) < special, rng.choice(_TRAP_SPECIAL, n),
                 rng.uniform(-5.0, 35.0, n))
    want = np.select(
        [x < 2.5, x < 5.0, x < 7.5, x < 12.5, x < 17.5, x < 22.5, x < 27.5,
         x <= 30.0],
        [80.0 * (2.5 - x), 64.0 * (x - 2.5), 64.0 * (7.5 - x), 28.0 * (x - 7.5),
         28.0 * (17.5 - x), 32.0 * (x - 17.5), 32.0 * (27.5 - x),
         80.0 * (x - 27.5)])
    got = five_uneven_peak_trap(x[:, None])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 50), grid=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_shubert_is_the_sum_and_product_expression(d, n, grid, seed):
    # bit for bit the np.sum/np.prod form of the Shubert function
    rng = np.random.default_rng(seed)
    X = (rng.integers(-40, 41, (n, d)) / 4.0 if grid
         else rng.uniform(-10.0, 10.0, (n, d)))
    j = np.arange(1, 6)
    want = -np.prod(np.sum(j * np.cos((j + 1) * X[..., None] + j), axis=-1),
                    axis=-1)
    assert shubert(X).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 50), grid=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_vincent_is_the_mean_expression(d, n, grid, seed):
    # bit for bit the np.mean form of the Vincent function
    rng = np.random.default_rng(seed)
    X = (rng.integers(1, 41, (n, d)) / 4.0 if grid
         else rng.uniform(0.25, 10.0, (n, d)))
    want = np.mean(np.sin(10.0 * np.log(X)), axis=-1)
    assert vincent(X).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 50), grid=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_modified_rastrigin_is_the_sum_expression(n, grid, seed):
    # bit for bit the np.sum form of the modified Rastrigin function
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, (n, 2)) / 4.0 if grid else rng.uniform(0.0, 1.0, (n, 2))
    k = np.array([3.0, 4.0])
    want = -np.sum(10.0 + 9.0 * np.cos(2.0 * np.pi * k * X), axis=-1)
    assert modified_rastrigin(X).tobytes() == want.tobytes()


def _count_shubert_1d_positions(kind):
    xs = np.linspace(-10.0, 10.0, 2_000_001)
    j = np.arange(1, 6)
    g = (j[:, None] * np.cos((j[:, None] + 1.0) * xs[None, :] + j[:, None])).sum(axis=0)
    if kind == "min":
        target, tol = g.min(), 1e-6
        hits = np.flatnonzero((g[1:-1] <= g[:-2]) & (g[1:-1] < g[2:])
                              & (g[1:-1] < target + abs(target) * 1e-6 + tol))
    else:
        target, tol = g.max(), 1e-6
        hits = np.flatnonzero((g[1:-1] >= g[:-2]) & (g[1:-1] > g[2:])
                              & (g[1:-1] > target - abs(target) * 1e-6 - tol))
    return len(hits)
