import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillvallea import hillvalley, orchestrator
from hillvallea.benchmarks import get_problem
from hillvallea.hillvalley import (MAX_TEST_POINTS, NARROW_K, ROUNDING_MARGIN,
                                   cluster_population, expected_edge_length,
                                   nearest_better, nearest_first,
                                   neighbour_rows, squared_distances)
from hillvallea.hillvalley import _test_point_counts as point_counts
from hillvallea.hillvalley import hill_valley_test
from hillvallea.problem import BudgetedEvaluator, BudgetExhausted, best_of

import reference_clustering as ref
from conftest import double_well, evaluate_point, sphere, synthetic_spec


def _pop(e, xs):
    xs = np.asarray(xs, float)
    return e.evaluate_batch(xs.reshape(len(xs), -1))


def _pair_points(a, b, n_test, e):
    """``hill_valley_tests`` of the one pair ``hill_valley_test`` tests:
    the evaluated points, their fitness and whether each was accepted."""
    (xa, fa), (xb, fb) = a, b
    _, x, f, ok = hillvalley.hill_valley_tests(
        xa[None, :], xb[None, :], np.array([max(fa, fb)]),
        np.array([n_test]), e)
    return x, f, ok


class TestHillValleyTest:
    def test_identical_points_same_niche_zero_evals(self, sphere_eval):
        a = evaluate_point(sphere_eval, 0.5)
        used = sphere_eval.used
        with mock.patch.object(hillvalley, "hill_valley_tests") as tests:
            out = hill_valley_test(a, (a[0].copy(), a[1]), 3, sphere_eval)
        assert out.same_niche
        tests.assert_not_called()  # no test points at all
        assert sphere_eval.used == used

    def test_convex_segment_same_niche(self, sphere_eval):
        # f(x) = x^2, endpoints -1 and 1: interpolants -0.5, 0, 0.5 all <= 1
        a = evaluate_point(sphere_eval, -1.0)
        b = evaluate_point(sphere_eval, 1.0)
        assert hill_valley_test(a, b, 3, sphere_eval).same_niche
        tx, tf, ok = _pair_points(a, b, 3, sphere_eval)
        assert tx.shape == (3, 1) and len(tf) == 3
        assert ok.all()  # no violator
        assert sorted(tx[:, 0]) == pytest.approx([-0.5, 0.0, 0.5])
        assert list(tf) == pytest.approx(list(tx[:, 0] ** 2))

    def test_double_well_midpoint_violates(self, double_well_eval):
        a = evaluate_point(double_well_eval, -1.0)
        b = evaluate_point(double_well_eval, 1.0)
        assert not hill_valley_test(a, b, 1, double_well_eval).same_niche
        tx, tf, ok = _pair_points(a, b, 1, double_well_eval)
        assert list(ok) == [False]  # no accepted point before the violator
        assert tx[-1, 0] == pytest.approx(0.0)
        assert tf[-1] == pytest.approx(1.0)

    def test_points_sampled_starting_at_first_argument(self, double_well_eval):
        # first test point is nearest to a; the violator (midpoint of a
        # 3-point test) is preceded by one accepted point on a's side
        a = evaluate_point(double_well_eval, -1.3)
        b = evaluate_point(double_well_eval, 1.3)
        assert not hill_valley_test(a, b, 3, double_well_eval).same_niche
        tx, _, ok = _pair_points(a, b, 3, double_well_eval)
        assert list(ok) == [True, False]
        assert list(tx[:, 0]) == pytest.approx([-0.65, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-2.0, 2.0), hi=st.floats(-2.0, 2.0),
           n_test=st.integers(1, 5))
    def test_unimodal_segment_always_same_niche(self, lo, hi, n_test):
        spec = synthetic_spec(sphere, [-2.0], [2.0], [[0.0]])
        e = BudgetedEvaluator(spec)
        a, b = evaluate_point(e, lo), evaluate_point(e, hi)
        out = hill_valley_test(a, b, n_test, e)
        assert out.same_niche

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 3), fn=st.sampled_from([double_well, sphere]),
           grid=st.booleans(), n_test=st.integers(0, 5), left=st.integers(0, 6),
           seed=st.integers(0, 2 ** 16))
    def test_single_pair_path_is_the_batched_path(self, d, fn, grid, n_test,
                                                   left, seed):
        # Same verdict, same rows in the same calls, same budget use, and
        # the budget (``left`` evaluations) runs out at the same point.
        rng = np.random.default_rng(seed)
        # a coarse grid repeats points, so identical endpoints occur
        xs = (rng.integers(-4, 5, (2, d)) / 2.0 if grid
              else rng.uniform(-2.0, 2.0, (2, d)))
        a, b = (xa, fa), (xb, fb) = [(x, float(v)) for x, v in zip(xs, fn(xs))]

        def run(test):
            calls = []

            def spy(X):
                calls.append(X.tobytes())
                return fn(X)

            spec = _spec(spy, d, budget=10)
            e = BudgetedEvaluator(spec, used=spec.budget - left)
            try:
                verdict = test(e)
            except BudgetExhausted:
                verdict = "exhausted"
            return verdict, e.used, calls

        def batched(e):
            n = 0 if np.array_equal(xa, xb) else n_test
            *_, ok = hillvalley.hill_valley_tests(
                xa[None, :], xb[None, :], np.array([max(fa, fb)]),
                np.array([n]), e)
            return bool(ok.all())

        got = run(lambda e: hill_valley_test(a, b, n_test, e).same_niche)
        assert got == run(batched)


class TestClusterPopulation:
    def test_single_solution(self, sphere_eval):
        pop = _pop(sphere_eval, [0.3])
        used = sphere_eval.used
        clusters = cluster_population(pop, sphere_eval)
        assert len(clusters) == 1
        assert len(clusters[0][1]) == 1
        assert sphere_eval.used == used

    def test_double_well_two_clusters(self, double_well_eval):
        pop = _pop(double_well_eval, [-1.1, -0.9, 0.9, 1.1])
        clusters = cluster_population(pop, double_well_eval)
        assert len(clusters) == 2
        for x, _ in clusters:
            signs = set(np.sign(x[:, 0]))
            assert len(signs) == 1, "cluster straddles the ridge"

    def test_convex_single_cluster(self, sphere_eval):
        xs = np.linspace(-2.0, 2.0, 8)
        pop = _pop(sphere_eval, xs)
        clusters = cluster_population(pop, sphere_eval)
        assert len(clusters) == 1

    def test_partition_and_accounting(self, double_well_eval):
        rng = np.random.default_rng(5)
        pop = _pop(double_well_eval, rng.uniform(-2, 2, 40))
        used_before = double_well_eval.used
        clusters = cluster_population(pop, double_well_eval)
        test_evals = double_well_eval.used - used_before
        members_x = np.concatenate([x for x, _ in clusters])
        members_f = np.concatenate([f for _, f in clusters])
        # every input row appears exactly once, with its fitness; extra
        # members are the accepted test solutions, which never exceed the
        # evaluations spent
        for x, f in zip(*pop):
            hits = np.flatnonzero((members_x == x).all(axis=1))
            assert len(hits) == 1 and members_f[hits[0]] == f
        assert len(members_f) - len(pop[1]) <= test_evals

    def test_best_index_tracks_minimum(self, double_well_eval):
        pop = _pop(double_well_eval, [-1.3, -1.0, 1.2])
        clusters = cluster_population(pop, double_well_eval)
        for c in clusters:
            x, f = c
            first_min = int(np.argmin(f))
            best_x, best_f = best_of(*c)
            assert best_f == f.min()
            assert np.array_equal(best_x, x[first_min])

    def test_budget_exhaustion_returns_partial(self, double_well_1d):
        rows = []

        def recorded(X):
            rows.extend(X.tolist())
            return double_well(X)

        spec = replace(double_well_1d, budget=44, objective=recorded)
        e = BudgetedEvaluator(spec)
        rng = np.random.default_rng(2)
        pop = _pop(e, rng.uniform(-2, 2, 40))
        with pytest.raises(BudgetExhausted):
            cluster_population(pop, e)  # only 4 test evals left
        assert e.used == len(rows) == spec.budget
        f = double_well(np.array(rows))
        i = int(np.argmin(f))
        assert e.best[0].tolist() == rows[i] and e.best[1] == f[i]


def test_test_point_count_scales_with_distance():
    spec = synthetic_spec(sphere, [0.0], [10.0], [[0.0]])
    edge = expected_edge_length(spec, 10)  # = 1.0
    starts, ends = np.array([[1.0], [1.0]]), np.array([[1.5], [9.0]])
    assert list(point_counts(starts, ends, edge)) == [1, 5]  # far is capped


def test_test_point_count_is_capped_before_the_cast():
    # On this box the edge length is about 1e-26, so a pair far apart on
    # the wide axis is about 1e176 edge lengths apart: past the int range,
    # where a bare cast gave a negative count and a warning.
    spec = synthetic_spec(sphere, [0.0, 0.0], [1e-200, 1e150], [[0.0, 0.0]])
    edge = expected_edge_length(spec, 130)
    starts, ends = np.array([[0.0, 0.0]] * 2), np.array([[0.0, 0.8e150], [0.0, 0.0]])
    assert point_counts(starts, ends, edge).tolist() == [MAX_TEST_POINTS, 1]


@pytest.mark.parametrize("d, width", [(200, 0.01), (400, 20.0)])
def test_box_volume_out_of_float_range(d, width):
    # 0.01 ** 200 underflows to 0 and 20 ** 400 overflows to inf; the edge
    # length must still be width * n ** (-1 / d), and clustering must test.
    n = 40
    spec = synthetic_spec(_wells, [0.0] * d, [width] * d, [[0.0] * d])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = expected_edge_length(spec, n)
        assert edge == pytest.approx(width * n ** (-1.0 / d), rel=1e-12)
        e = BudgetedEvaluator(spec)
        pop = e.evaluate_batch(
            np.random.default_rng(d).uniform(0.0, width, (n, d)))
        clusters = cluster_population(pop, e)
    assert e.used > n
    assert sum(len(f) for _, f in clusters) >= n


def _wells(X):
    # several valleys per axis on [-2, 2]^d, so first tests often fail
    return np.cos(5.0 * X).sum(axis=1)


def _many_wells(X):
    # about ten valleys per axis: fallback tests are common, and a
    # solution's shortlist of neighbors often runs out
    return np.cos(16.0 * X).sum(axis=1) + 0.1 * (X ** 2).sum(axis=1)


def _assert_same_clusters(got, want):
    assert len(got) == len(want)
    for (gx, gf), (wx, wf) in zip(got, want):
        assert gx.shape == wx.shape
        assert gx.tobytes() == wx.tobytes()
        assert gf.tobytes() == wf.tobytes()


def _spec(fn, d, budget=1_000_000):
    return synthetic_spec(fn, [-2.0] * d, [2.0] * d, [[0.0] * d], budget=budget)


class TestBatchedClusteringEquivalence:
    """The batched clustering against the sequential reference."""

    @settings(max_examples=150, deadline=None)
    # d = 8 is the first dimension whose rows numpy would sum pairwise;
    # both clusterings add the squared distances left to right there too
    # (see ``squared_distances``)
    @given(d=st.sampled_from([1, 2, 3, 8]), n=st.integers(1, 90),
           fn=st.sampled_from([_wells, _many_wells, double_well, sphere]),
           grid=st.booleans(), extra=st.integers(0, 400),
           seed=st.integers(0, 2 ** 16))
    def test_same_clusters_and_evaluations(self, d, n, fn, grid, extra, seed):
        spec = _spec(fn, d)
        rng = np.random.default_rng(seed)
        # a coarse grid repeats points, so identical endpoints occur
        xs = (rng.integers(-4, 5, (n, d)) / 2.0 if grid
              else rng.uniform(-2.0, 2.0, (n, d)))
        pop = BudgetedEvaluator(spec).evaluate_batch(xs)
        e_ref = BudgetedEvaluator(spec, used=n)
        want = ref.cluster_population(pop, e_ref)
        # small extras run out of budget part way through clustering, which
        # then raises with the whole budget spent
        spec = replace(spec, budget=n + extra)
        e_new = BudgetedEvaluator(spec, used=n)
        if e_ref.used > spec.budget:
            with pytest.raises(BudgetExhausted):
                cluster_population(pop, e_new)
            assert e_new.used == spec.budget
        else:
            _assert_same_clusters(cluster_population(pop, e_new), want)
            assert e_new.used == e_ref.used

    @pytest.mark.parametrize("d, n, seed, per_unit", [
        *(pytest.param(d, n, seed, 4, id=f"{d}-{n}-{seed}")
          for d, n, seed in [(1, 700, 4), (1, 1500, 5), (2, 700, 0),
                             (2, 1500, 1), (3, 700, 2), (3, 1500, 3)]),
        pytest.param(1, 700, 6, 100, id="1-700-6-fine")])
    def test_large_tied_populations(self, d, n, seed, per_unit):
        # Grid ties in populations far beyond the shortlist width, where
        # many rows, from the sorted line and the KD-tree alike, are cut
        # at a tie. On the grid of 4 points a unit nearly every point has
        # duplicates, whose rows are cut at their first entry. On the
        # finer line most points are distinct, and a row is often cut
        # between a left and a right neighbour at the same distance,
        # where the merge's order (right first) is not the index order:
        # reading those rows as proposed changes clusters.
        spec = _spec(_many_wells, d)
        rng = np.random.default_rng(seed)
        xs = rng.integers(-2 * per_unit, 2 * per_unit + 1, (n, d)) / per_unit
        pop = BudgetedEvaluator(spec).evaluate_batch(xs)
        e_ref = BudgetedEvaluator(spec, used=n)
        want = ref.cluster_population(pop, e_ref)
        e_new = BudgetedEvaluator(spec, used=n)
        _assert_same_clusters(cluster_population(pop, e_new), want)
        assert e_new.used == e_ref.used

    @pytest.mark.parametrize("d, n_rounds", [(1, 5), (2, 26), (3, 58)])
    def test_each_round_tests_in_rank_order(self, d, n_rounds):
        # A walk woken when the root it waits on is decided runs in that
        # same round, in rank order with the others, so the solutions
        # tested in any one round ascend in fitness, and there are as many
        # rounds as when every waiting walk is resumed in every round (the
        # counts that schedule made on these populations).
        n = 100 * d
        spec = _spec(_many_wells, d)
        pop = BudgetedEvaluator(spec).evaluate_batch(
            np.random.default_rng(d).uniform(-2.0, 2.0, (n, d)))
        fitness = {x.tobytes(): f for x, f in zip(*pop)}
        rounds = []
        real = hillvalley.hill_valley_tests

        def spy(starts, ends, worst, n_test, e):
            rounds.append([fitness[x.tobytes()] for x in starts])
            return real(starts, ends, worst, n_test, e)

        with mock.patch.object(hillvalley, "hill_valley_tests", spy):
            cluster_population(pop, BudgetedEvaluator(spec, used=n))
        assert len(rounds) == n_rounds
        for r in rounds:
            assert r == sorted(r)

    @pytest.mark.parametrize("d", [1, 2])
    def test_unimodal_population_takes_few_objective_calls(self, d):
        calls = []

        def counted_sphere(X):
            calls.append(len(X))
            return sphere(X)

        spec = synthetic_spec(counted_sphere, [-2.0] * d, [2.0] * d, [[0.0] * d])
        e = BudgetedEvaluator(spec)
        pop = e.evaluate_batch(np.random.default_rng(0).uniform(-2, 2, (300, d)))
        calls.clear()
        clusters = cluster_population(pop, e)
        # convex: every first test passes, so one call per test-point round
        assert len(clusters) == 1
        assert 1 <= len(calls) <= MAX_TEST_POINTS
        assert sum(calls) == e.used - 300


@pytest.mark.parametrize("pid", [2, 6, 7, 10])
def test_runs_match_the_sequential_reference(pid):
    # Whole runs on the multimodal 2-D problems, where most fallback
    # tests happen, and on a 1-D one, whose rows come from the sorted
    # sample, give the same report with either clustering.
    spec = replace(get_problem(pid), budget=30_000)
    for seed in (0, 1):
        got = orchestrator.run_hillvallea(spec, seed).serialize()
        with mock.patch.object(orchestrator, "cluster_population",
                               ref.cluster_population):
            want = orchestrator.run_hillvallea(spec, seed).serialize()
        assert got == want


def _neighbour_order(coords):
    """Every point's neighbour order by brute force: all points in
    ascending (``squared_distances``, index) order."""
    n = len(coords)
    return np.array([np.lexsort((np.arange(n), squared_distances(coords, x)))
                     for x in coords])


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 5),
       n=st.one_of(st.integers(1, 40), st.integers(1, 400)),  # pads often
       kind=st.sampled_from(["uniform", "grid", "far"]),
       seed=st.integers(0, 2 ** 16))
def test_neighbour_rows_are_the_brute_force_order(d, n, kind, seed):
    # Every row clustering reads is a brute-force sort, from the sorted
    # line (d = 1) and the KD-tree alike: the first better neighbours the
    # narrow first query finds, and the rows of any subset, narrow or
    # full (the points the narrow rows leave open, the roots). A coarse
    # grid repeats points and ties many distances, and so do the gaps of
    # points on a box centred at -3e8, which are multiples of its spacing
    # of floats. A row is read up to its first entry not proven and left
    # empty (index n) from there on, which is where the sorted distances
    # tie; uniform points fill their rows, up to the population's end.
    rng = np.random.default_rng(seed)
    coords = {"uniform": lambda: rng.uniform(0.0, 1.0, (n, d)),
              "grid": lambda: rng.integers(0, 5, (n, d)) / 4.0,
              "far": lambda: rng.uniform(-3e8 - 0.5, -3e8 + 0.5, (n, d))}[kind]()
    k = 8 * (1 + d)
    order = _neighbour_order(coords)
    rows = neighbour_rows(coords)
    first = [-1] + [int(row[row < i][0]) for i, row in enumerate(order) if i]
    nearest, full = nearest_better(rows, n, k)
    found = nearest >= 0
    assert nearest[found].tolist() == np.array(first)[found].tolist()
    assert set(np.flatnonzero(~found[1:]) + 1) <= set(full)
    for width in (NARROW_K - 1, k):
        some = rng.choice(n, rng.integers(0, n + 1), replace=False)
        got = rows(some, width)
        assert got.shape == (len(some), width)
        checked = list(zip(some, got))
        if width == k:  # and the full rows nearest_better kept
            checked += full.items()
        for i, row in checked:
            m = int((row < n).sum())
            assert row.tolist() == order[i, :m].tolist() + [n] * (width - m)
            if m < min(n, width):  # cut at a tie of entries m and m + 1
                sq = squared_distances(coords, coords[i])[order[i, m:m + 2]]
                # the tree's margin is on distances: about twice it on squares
                assert sq[1] <= sq[0] * (1 + 3 * ROUNDING_MARGIN)
            assert kind != "uniform" or m == min(n, width)


def test_continuous_line_builds_no_tree():
    # Without ties every 1-D row comes from the merge: no tree is built,
    # and the clusters are the sequential reference's.
    from scipy import spatial
    spec = _spec(_many_wells, 1)
    pop = BudgetedEvaluator(spec).evaluate_batch(
        np.random.default_rng(7).uniform(-2.0, 2.0, (1000, 1)))
    e_ref = BudgetedEvaluator(spec, used=1000)
    want = ref.cluster_population(pop, e_ref)
    e_new = BudgetedEvaluator(spec, used=1000)
    with mock.patch.object(spatial, "cKDTree", wraps=spatial.cKDTree) as tree:
        _assert_same_clusters(cluster_population(pop, e_new), want)
    assert tree.call_count == 0
    assert e_new.used == e_ref.used


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 3), i=st.integers(1, 300), chunk=st.integers(1, 40),
       seed=st.integers(0, 2 ** 16))
def test_nearest_first_is_the_stable_argsort(d, i, chunk, seed):
    # grid points: many better predecessors lie at the same distance
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 4, (i + 1, d)) / 4.0
    dists = ((coords[:i] - coords[i]) ** 2).sum(axis=1)
    want = np.argsort(dists, kind="stable").tolist()
    got = np.concatenate(list(nearest_first(coords[:i], coords[i], chunk)))
    assert got.tolist() == want
    # After a row's (distance, index) pair, as a walk goes on past its
    # row: the rest of that order, ties at the row's distance included.
    last = int(rng.integers(i))
    got = np.concatenate(list(nearest_first(coords[:i], coords[i], chunk, last)))
    assert got.tolist() == want[want.index(last) + 1:]


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 5), i=st.integers(1, 300), seed=st.integers(0, 2 ** 16))
def test_argmin_is_the_head_of_nearest_first(d, i, seed):
    # The first partner past the shortlist: the first of the nearest, on a
    # grid where many better predecessors tie, over the column-major copy
    # that clustering makes.
    coords = np.random.default_rng(seed).integers(0, 4, (i + 1, d)) / 4.0
    columns = np.asfortranarray(coords)
    head = next(nearest_first(columns[:i], coords[i], 2 * 8 * (1 + d)))[0]
    assert squared_distances(columns[:i], coords[i]).argmin() == head


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 12), n=st.integers(0, 40), grid=st.booleans(),
       fortran=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_squared_distances_are_numpys_bit_for_bit(d, n, grid, fortran, seed):
    # Each row's squares added left to right, in every dimension; numpy
    # sums a row that way too below d = 8, and pairwise from there on.
    rng = np.random.default_rng(seed)
    if grid:  # ties and exact zeros
        p, x = rng.integers(-4, 5, (n, d)) / 4.0, rng.integers(-4, 5, d) / 4.0
    else:  # rounding over many decades
        p = rng.uniform(-1, 1, (n, d)) * 10.0 ** rng.integers(-9, 10, (n, d))
        x = rng.uniform(-1, 1, d) * 10.0 ** rng.integers(-9, 10, d)
    got = squared_distances(np.asfortranarray(p) if fortran else p, x)
    want = sum((p[:, k] - x[k]) ** 2 for k in range(d))
    assert got.tobytes() == want.tobytes()
    if d < 8:
        assert got.tobytes() == ((p - x) ** 2).sum(axis=1).tobytes()
