from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillvallea import hillvalley, orchestrator
from hillvallea.benchmarks import get_problem
from hillvallea.hillvalley import (MAX_TEST_POINTS, cluster_population,
                                   expected_edge_length, nearest_first)
from hillvallea.hillvalley import _test_point_counts as point_counts
from hillvallea.hillvalley import hill_valley_test
from hillvallea.problem import BudgetedEvaluator, BudgetExhausted, Solution

import reference_clustering as ref
from conftest import double_well, fallback_spans, sphere, synthetic_spec


def _sol(e, x):
    return e.evaluate(np.atleast_1d(np.asarray(x, float)))


def _pop(e, xs):
    xs = np.asarray(xs, float)
    return e.evaluate_batch(xs.reshape(len(xs), -1))


def _pair_points(a, b, n_test, e):
    """``hill_valley_tests`` of the one pair ``hill_valley_test`` tests:
    the evaluated points, their fitness and whether each was accepted."""
    _, x, f, ok = hillvalley.hill_valley_tests(
        a.x[None, :], b.x[None, :], np.array([max(a.f, b.f)]),
        np.array([n_test]), e)
    return x, f, ok


class TestHillValleyTest:
    def test_identical_points_same_niche_zero_evals(self, sphere_eval):
        a = _sol(sphere_eval, 0.5)
        used = sphere_eval.used
        with mock.patch.object(hillvalley, "hill_valley_tests") as tests:
            out = hill_valley_test(a, Solution(a.x.copy(), a.f), 3, sphere_eval)
        assert out.same_niche
        tests.assert_not_called()  # no test points at all
        assert sphere_eval.used == used

    def test_convex_segment_same_niche(self, sphere_eval):
        # f(x) = x^2, endpoints -1 and 1: interpolants -0.5, 0, 0.5 all <= 1
        a, b = _sol(sphere_eval, -1.0), _sol(sphere_eval, 1.0)
        assert hill_valley_test(a, b, 3, sphere_eval).same_niche
        tx, tf, ok = _pair_points(a, b, 3, sphere_eval)
        assert tx.shape == (3, 1) and len(tf) == 3
        assert ok.all()  # no violator
        assert sorted(tx[:, 0]) == pytest.approx([-0.5, 0.0, 0.5])
        assert list(tf) == pytest.approx(list(tx[:, 0] ** 2))

    def test_double_well_midpoint_violates(self, double_well_eval):
        a, b = _sol(double_well_eval, -1.0), _sol(double_well_eval, 1.0)
        assert not hill_valley_test(a, b, 1, double_well_eval).same_niche
        tx, tf, ok = _pair_points(a, b, 1, double_well_eval)
        assert list(ok) == [False]  # no accepted point before the violator
        assert tx[-1, 0] == pytest.approx(0.0)
        assert tf[-1] == pytest.approx(1.0)

    def test_points_sampled_starting_at_first_argument(self, double_well_eval):
        # first test point is nearest to a; the violator (midpoint of a
        # 3-point test) is preceded by one accepted point on a's side
        a, b = _sol(double_well_eval, -1.3), _sol(double_well_eval, 1.3)
        assert not hill_valley_test(a, b, 3, double_well_eval).same_niche
        tx, _, ok = _pair_points(a, b, 3, double_well_eval)
        assert list(ok) == [True, False]
        assert list(tx[:, 0]) == pytest.approx([-0.65, 0.0])

    def test_rejects_n_test_zero_for_distinct_points(self, sphere_eval):
        a, b = _sol(sphere_eval, -1.0), _sol(sphere_eval, 1.0)
        with pytest.raises(ValueError):
            hill_valley_test(a, b, 0, sphere_eval)

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-2.0, 2.0), hi=st.floats(-2.0, 2.0),
           n_test=st.integers(1, 5))
    def test_unimodal_segment_always_same_niche(self, lo, hi, n_test):
        spec = synthetic_spec(sphere, [-2.0], [2.0], [[0.0]])
        e = BudgetedEvaluator(spec)
        out = hill_valley_test(_sol(e, lo), _sol(e, hi), n_test, e)
        assert out.same_niche

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 3), fn=st.sampled_from([double_well, sphere]),
           grid=st.booleans(), n_test=st.integers(1, 5), left=st.integers(0, 6),
           seed=st.integers(0, 2 ** 16))
    def test_single_pair_path_is_the_batched_path(self, d, fn, grid, n_test,
                                                   left, seed):
        # Same verdict, same rows in the same calls, same budget use, and
        # the budget (``left`` evaluations) runs out at the same point.
        rng = np.random.default_rng(seed)
        # a coarse grid repeats points, so identical endpoints occur
        xs = (rng.integers(-4, 5, (2, d)) / 2.0 if grid
              else rng.uniform(-2.0, 2.0, (2, d)))
        a, b = (Solution(x, float(v)) for x, v in zip(xs, fn(xs)))

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
            n = 0 if np.array_equal(a.x, b.x) else n_test
            *_, ok = hillvalley.hill_valley_tests(
                a.x[None, :], b.x[None, :], np.array([max(a.f, b.f)]),
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
        assert len(clusters[0]) == 1
        assert sphere_eval.used == used

    def test_double_well_two_clusters(self, double_well_eval):
        pop = _pop(double_well_eval, [-1.1, -0.9, 0.9, 1.1])
        clusters = cluster_population(pop, double_well_eval)
        assert len(clusters) == 2
        for c in clusters:
            signs = set(np.sign(c.x[:, 0]))
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
        members_x = np.concatenate([c.x for c in clusters])
        members_f = np.concatenate([c.f for c in clusters])
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
            first_min = int(np.argmin(c.f))
            assert c.best_solution.f == c.f.min()
            assert np.array_equal(c.best_solution.x, c.x[first_min])

    def test_budget_exhaustion_returns_partial(self, double_well_1d):
        from dataclasses import replace
        spec = replace(double_well_1d, budget=44)
        e = BudgetedEvaluator(spec)
        rng = np.random.default_rng(2)
        pop = _pop(e, rng.uniform(-2, 2, 40))
        clusters = cluster_population(pop, e)  # only 4 test evals left
        assert e.used <= spec.budget
        assert len(clusters) >= 1


def test_test_point_count_scales_with_distance():
    spec = synthetic_spec(sphere, [0.0], [10.0], [[0.0]])
    edge = expected_edge_length(spec, 10)  # = 1.0
    starts, ends = np.array([[1.0], [1.0]]), np.array([[1.5], [9.0]])
    assert list(point_counts(starts, ends, edge)) == [1, 5]  # far is capped


def _wells(X):
    # several valleys per axis on [-2, 2]^d, so first tests often fail
    return np.cos(5.0 * X).sum(axis=1)


def _many_wells(X):
    # about ten valleys per axis: fallback tests are common, and a
    # solution's shortlist of neighbors often runs out
    return np.cos(16.0 * X).sum(axis=1) + 0.1 * (X ** 2).sum(axis=1)


def _assert_same_clusters(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.x.shape == w.x.shape
        assert g.x.tobytes() == w.x.tobytes()
        assert g.f.tobytes() == w.f.tobytes()


def _spec(fn, d, budget=1_000_000):
    return synthetic_spec(fn, [-2.0] * d, [2.0] * d, [[0.0] * d], budget=budget)


class TestBatchedClusteringEquivalence:
    """The batched clustering against the sequential reference."""

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 3), n=st.integers(1, 90),
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
        # small extras run out of budget part way through clustering
        spec = replace(spec, budget=n + extra)
        e_new, e_ref = BudgetedEvaluator(spec, used=n), BudgetedEvaluator(spec, used=n)
        got = cluster_population(pop, e_new)
        want = ref.cluster_population(pop, e_ref)
        _assert_same_clusters(got, want)
        assert e_new.used == e_ref.used <= spec.budget

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_budget_ending_inside_a_fallback_test(self, d):
        # On a full budget, record where the reference's fallback tests
        # start; then rerun with budgets that end after the first point of
        # such a test, and check that the batched clustering runs out
        # inside that same test.
        n = 60 * d
        spec = _spec(_many_wells, d)
        pop = BudgetedEvaluator(spec).evaluate_batch(
            np.random.default_rng(d).uniform(-2.0, 2.0, (n, d)))
        with fallback_spans() as spans:
            ref.cluster_population(pop, BudgetedEvaluator(spec, used=n))
        cuts = [before + 1 for before, after in spans if after - before >= 2]
        assert len(cuts) >= 3
        for budget in (cuts[0], cuts[len(cuts) // 2], cuts[-1]):
            short = replace(spec, budget=budget)
            e_new = BudgetedEvaluator(short, used=n)
            e_ref = BudgetedEvaluator(short, used=n)
            ran_out_in = []
            real = hillvalley.hill_valley_tests

            def spy(starts, ends, worst, n_test, e):
                try:
                    return real(starts, ends, worst, n_test, e)
                except BudgetExhausted:
                    ran_out_in.append(e.used)
                    raise

            with mock.patch.object(hillvalley, "hill_valley_tests", spy):
                got = cluster_population(pop, e_new)
            assert ran_out_in == [budget]
            _assert_same_clusters(got, ref.cluster_population(pop, e_ref))
            assert e_new.used == e_ref.used == budget

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


@pytest.mark.parametrize("pid", [6, 7, 10])
def test_runs_match_the_sequential_reference(pid):
    # Whole runs on the multimodal 2-D problems, where most fallback
    # tests happen, give the same report with either clustering.
    spec = replace(get_problem(pid), budget=30_000)
    for seed in (0, 1):
        got = orchestrator.run_hillvallea(spec, seed).serialize()
        with mock.patch.object(orchestrator, "cluster_population",
                               ref.cluster_population):
            want = orchestrator.run_hillvallea(spec, seed).serialize()
        assert got == want


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 3), i=st.integers(1, 300), chunk=st.integers(1, 40),
       seed=st.integers(0, 2 ** 16))
def test_nearest_first_is_the_stable_argsort(d, i, chunk, seed):
    # grid points: many better predecessors lie at the same distance
    coords = np.random.default_rng(seed).integers(0, 4, (i + 1, d)) / 4.0
    dists = ((coords[:i] - coords[i]) ** 2).sum(axis=1)
    got = list(nearest_first(coords[:i], coords[i], chunk))
    assert got == np.argsort(dists, kind="stable").tolist()
