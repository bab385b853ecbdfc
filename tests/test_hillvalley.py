from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillvallea.hillvalley import (MAX_TEST_POINTS, cluster_population,
                                   expected_edge_length)
from hillvallea.hillvalley import hill_valley_test
from hillvallea.hillvalley import test_point_count as point_count
from hillvallea.problem import BudgetedEvaluator, Solution

import reference_clustering as ref
from conftest import double_well, sphere, synthetic_spec


def _sol(e, x):
    return e.evaluate(np.atleast_1d(np.asarray(x, float)))


class TestHillValleyTest:
    def test_identical_points_same_niche_zero_evals(self, sphere_eval):
        a = _sol(sphere_eval, 0.5)
        used = sphere_eval.used
        out = hill_valley_test(a, Solution(a.x.copy(), a.f), 3, sphere_eval)
        assert out.same_niche
        assert out.accepted_tests == []
        assert sphere_eval.used == used

    def test_convex_segment_same_niche(self, sphere_eval):
        # f(x) = x^2, endpoints -1 and 1: interpolants -0.5, 0, 0.5 all <= 1
        a, b = _sol(sphere_eval, -1.0), _sol(sphere_eval, 1.0)
        out = hill_valley_test(a, b, 3, sphere_eval)
        assert out.same_niche
        assert len(out.accepted_tests) == 3
        assert out.violator is None
        xs = sorted(t.x[0] for t in out.accepted_tests)
        assert xs == pytest.approx([-0.5, 0.0, 0.5])

    def test_double_well_midpoint_violates(self, double_well_eval):
        a, b = _sol(double_well_eval, -1.0), _sol(double_well_eval, 1.0)
        out = hill_valley_test(a, b, 1, double_well_eval)
        assert not out.same_niche
        assert out.accepted_tests == []
        assert out.violator.x[0] == pytest.approx(0.0)
        assert out.violator.f == pytest.approx(1.0)

    def test_points_sampled_starting_at_first_argument(self, double_well_eval):
        # first test point is nearest to a; the violator (midpoint of a
        # 3-point test) is preceded by one accepted point on a's side
        a, b = _sol(double_well_eval, -1.3), _sol(double_well_eval, 1.3)
        out = hill_valley_test(a, b, 3, double_well_eval)
        assert not out.same_niche
        assert [t.x[0] for t in out.accepted_tests] == pytest.approx([-0.65])
        assert out.violator.x[0] == pytest.approx(0.0)

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


class TestClusterPopulation:
    def test_single_solution(self, sphere_eval):
        pop = [_sol(sphere_eval, 0.3)]
        used = sphere_eval.used
        clusters = cluster_population(pop, sphere_eval)
        assert len(clusters) == 1
        assert len(clusters[0].members) == 1
        assert sphere_eval.used == used

    def test_double_well_two_clusters(self, double_well_eval):
        pop = [_sol(double_well_eval, x) for x in (-1.1, -0.9, 0.9, 1.1)]
        clusters = cluster_population(pop, double_well_eval)
        assert len(clusters) == 2
        for c in clusters:
            signs = {np.sign(m.x[0]) for m in c.members}
            assert len(signs) == 1, "cluster straddles the ridge"

    def test_convex_single_cluster(self, sphere_eval):
        xs = np.linspace(-2.0, 2.0, 8)
        pop = [_sol(sphere_eval, x) for x in xs]
        clusters = cluster_population(pop, sphere_eval)
        assert len(clusters) == 1

    def test_partition_and_accounting(self, double_well_eval):
        rng = np.random.default_rng(5)
        pop = [_sol(double_well_eval, x) for x in rng.uniform(-2, 2, 40)]
        used_before = double_well_eval.used
        clusters = cluster_population(pop, double_well_eval)
        test_evals = double_well_eval.used - used_before
        total_members = sum(len(c.members) for c in clusters)
        # every input appears exactly once; extra members are the accepted
        # test solutions, which never exceed the evaluations spent
        ids = [id(m) for c in clusters for m in c.members]
        assert len(ids) == len(set(ids))
        for s in pop:
            assert any(m is s for c in clusters for m in c.members)
        assert total_members - len(pop) <= test_evals

    def test_best_index_tracks_minimum(self, double_well_eval):
        pop = [_sol(double_well_eval, x) for x in (-1.3, -1.0, 1.2)]
        clusters = cluster_population(pop, double_well_eval)
        for c in clusters:
            fs = [m.f for m in c.members]
            assert c.members[c.best].f == min(fs)

    def test_budget_exhaustion_returns_partial(self, double_well_1d):
        from dataclasses import replace
        spec = replace(double_well_1d, budget=44)
        e = BudgetedEvaluator(spec)
        rng = np.random.default_rng(2)
        pop = [_sol(e, x) for x in rng.uniform(-2, 2, 40)]
        clusters = cluster_population(pop, e)  # only 4 test evals left
        assert e.used <= spec.budget
        assert len(clusters) >= 1


def test_test_point_count_scales_with_distance():
    spec = synthetic_spec(sphere, [0.0], [10.0], [[0.0]])
    edge = expected_edge_length(spec, 10)  # = 1.0
    e = BudgetedEvaluator(spec)
    near = [_sol(e, 1.0), _sol(e, 1.5)]
    far = [_sol(e, 1.0), _sol(e, 9.0)]
    assert point_count(near[0], near[1], edge) == 1
    assert point_count(far[0], far[1], edge) == 5  # capped


def _wells(X):
    # several valleys per axis on [-2, 2]^d, so first tests often fail
    return np.cos(5.0 * X).sum(axis=1)


def _assert_same_clusters(got, want, pop):
    pop_ids = {id(s) for s in pop}
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g.members) == len(w.members)
        for a, b in zip(g.members, w.members):
            if id(b) in pop_ids:
                assert a is b
            else:
                assert id(a) not in pop_ids
                assert a.x.tobytes() == b.x.tobytes() and a.f == b.f


class TestBatchedClusteringEquivalence:
    """The batched clustering against the sequential reference."""

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 2), n=st.integers(1, 70),
           fn=st.sampled_from([_wells, double_well, sphere]),
           grid=st.booleans(), extra=st.integers(0, 400),
           seed=st.integers(0, 2 ** 16))
    def test_same_clusters_and_evaluations(self, d, n, fn, grid, extra, seed):
        spec = synthetic_spec(fn, [-2.0] * d, [2.0] * d, [[0.0] * d])
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
        _assert_same_clusters(got, want, pop)
        assert e_new.used == e_ref.used <= spec.budget

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
