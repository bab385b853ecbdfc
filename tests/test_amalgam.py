import itertools
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillvallea import amalgam, orchestrator
from hillvallea.amalgam import (CONVERGED_SPREAD, ELITE_TEST_POINTS,
                                GEN_CAP_MULTIPLIER, REEXPLORATION_PERIOD,
                                STDDEV_FLOOR_SCALE,
                                TARGET_GAP, WINDOW,
                                TerminationReason,
                                check_convergence_termination,
                                check_reexploration, estimate_rate,
                                generation_step, init_from_cluster,
                                run_core_search, time_to_optimum)
from hillvallea.orchestrator import ElitistArchive
from hillvallea.problem import BudgetedEvaluator, BudgetExhausted, best_of

from conftest import double_well, evaluate_point, sphere, synthetic_spec


# a min_spread below the positive floor: the spread is the cluster's own
NO_SPREAD = np.zeros(1)


def _cluster(e, xs):
    return e.evaluate_batch(np.asarray(xs, float)[:, None])


def _archive(elite):
    x, f = elite
    return ElitistArchive(x=x[None, :], f=np.array([f]))


class TestRateEstimator:
    @pytest.mark.parametrize("r", [0.01, 0.1, 0.5])
    def test_recovers_true_rate_from_exponential_decay(self, r):
        # gap shrinking by a factor (1 - r) per generation over a
        # 5-generation window must yield the rate back exactly
        delta_old = 1.0
        delta_new = delta_old * (1.0 - r) ** WINDOW
        assert estimate_rate(delta_old, delta_new) == pytest.approx(r, abs=1e-9)

    def test_worked_example_half_gap_in_five_generations(self):
        r = estimate_rate(1.0, 0.5)
        assert r == pytest.approx(1.0 - 0.5 ** 0.2, abs=1e-12)
        assert r == pytest.approx(0.1294494367, abs=1e-9)

    def test_growing_gap_reports_full_rate(self):
        # a widening gap has no meaningful shrink factor; the estimator
        # saturates rather than returning a negative rate
        assert estimate_rate(1.0, 2.0) < 0.0 or estimate_rate(1.0, 2.0) <= 1.0

    @given(r=st.floats(min_value=1e-6, max_value=0.99),
           scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, r, scale):
        delta_old = scale
        delta_new = scale * (1.0 - r) ** WINDOW
        assert estimate_rate(delta_old, delta_new) == pytest.approx(r, rel=1e-6)


class TestTimeToOptimum:
    def test_worked_example(self):
        tto = time_to_optimum(0.5, 1.0)
        assert tto == pytest.approx(194.31, abs=0.01)

    def test_brackets_target_gap(self):
        # extrapolating the fitted decay forwards: the gap must cross
        # the 1e-12 target between floor(tto) and ceil(tto) generations
        delta_old, delta_new = 1.0, 0.5
        r = estimate_rate(delta_old, delta_new)
        tto = time_to_optimum(delta_new, delta_old)
        gap_before = delta_new * (1.0 - r) ** math.floor(tto)
        gap_after = delta_new * (1.0 - r) ** math.ceil(tto)
        assert gap_after <= TARGET_GAP <= gap_before

    def test_already_at_target(self):
        assert time_to_optimum(1e-13, 1.0) == 0.0

    def test_matches_brute_force_iteration(self):
        delta_old, delta_new = 1.0, 0.5
        r = estimate_rate(delta_old, delta_new)
        gap, steps = delta_new, 0
        while gap > TARGET_GAP:
            gap *= 1.0 - r
            steps += 1
        tto = time_to_optimum(delta_new, delta_old)
        assert math.floor(tto) + 1 == steps


class TestConvergenceTracker:
    """``check_convergence_termination`` on the window of a_g values that
    ``run_core_search`` keeps."""

    def _history(self, values):
        # the window as ``run_core_search`` keeps it
        return deque(values, maxlen=WINDOW + 1)

    def test_window_must_be_full(self):
        # a short window never predicts, even where a full one would
        h = self._history([0.99 ** k for k in range(WINDOW)])
        assert not check_convergence_termination(h, 0.0, 10, 1)
        h.append(0.99 ** WINDOW)
        assert check_convergence_termination(h, 0.0, 10, 1)

    def test_negative_gap_blocks_termination(self):
        # selection mean already below the reference: prediction is moot
        h = self._history([6.0, 5.5, 5.2, 5.1, 5.05, 4.9])
        assert len(h) == WINDOW + 1
        assert not check_convergence_termination(h, 5.0, 10, 1)

    def test_nonpositive_old_gap_blocks_termination(self):
        h = self._history([1.0, 1.2, 1.15, 1.1, 1.05, 1.02])
        assert not check_convergence_termination(h, 1.0, 10, 1)

    def test_requires_five_consecutive_improvements(self):
        # one bump inside the window breaks the improvement streak
        h = self._history([1.0, 0.9, 0.95, 0.9, 0.85, 0.8])
        assert len(h) == WINDOW + 1 and h[2] > h[1]
        assert not check_convergence_termination(h, 0.0, 10, 1)
        # the same window without the bump does terminate
        assert check_convergence_termination(
            self._history([1.0, 0.99, 0.98, 0.9, 0.85, 0.8]), 0.0, 10, 1)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(1, 9).map(float), min_size=WINDOW + 1,
                           max_size=WINDOW + 8))
    def test_window_test_is_the_improvement_streak(self, values):
        # gap, rate and cap tests all pass here, so the search stops iff
        # each of the last WINDOW records was below the one before it
        streak = 0
        for old, new in itertools.pairwise(values):
            streak = streak + 1 if new < old else 0
        h = self._history(values)
        assert check_convergence_termination(h, 0.0, 10 ** 9, 1) == (streak >= WINDOW)

    def test_slow_decay_terminates_against_small_cap(self):
        vals = [0.99 ** k for k in range(WINDOW + 1)]
        h = self._history(vals)
        assert check_convergence_termination(h, 0.0, 10, 1)

    def test_fast_decay_survives_large_cap(self):
        vals = [10.0 ** -k for k in range(WINDOW + 1)]
        h = self._history(vals)
        assert not check_convergence_termination(h, 0.0, 10, 100)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), max_size=WINDOW + 3),
           g=st.integers(0, 10 ** 6), gen_cap=st.integers(1, 10 ** 6))
    def test_no_elite_never_predicts(self, values, g, gen_cap):
        # an empty archive's best fitness is +inf, so no gap is positive
        h = self._history(values)
        assert check_convergence_termination(h, math.inf, g, gen_cap) is False

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), min_size=WINDOW + 1, max_size=WINDOW + 3),
           b=st.floats(allow_nan=False, allow_infinity=False),
           g=st.integers(0, 10 ** 6), gen_cap=st.integers(1, 10 ** 6))
    def test_any_window_gives_an_answer(self, values, b, g, gen_cap):
        # a_g is +-inf or NaN when huge finite fitness sums past the floats
        h = self._history(values)
        assert check_convergence_termination(h, b, g, gen_cap) in (True, False)

    @pytest.mark.parametrize("values, b", [
        ([math.inf, 5.0, 4.0, 3.0, 2.0, 1.0], 0.0),  # an overflowed a_g
        ([1.7e308, 1e307, 1e306, 1e305, 1e304, -1.6e308], -1.7e308)])  # gap overflows
    def test_infinite_old_gap_declines(self, values, b):
        # both used to reach math.log(0.0) and raise ValueError
        assert not check_convergence_termination(self._history(values), b, 10, 1)

    def test_threshold_is_multiple_of_generation_cap(self):
        vals = [0.99 ** k for k in range(WINDOW + 1)]
        h = self._history(vals)
        tto = time_to_optimum(vals[-1], vals[0])
        g = 10
        cap_below = math.floor((g + tto) / GEN_CAP_MULTIPLIER)
        cap_above = math.ceil((g + tto) / GEN_CAP_MULTIPLIER) + 1
        assert check_convergence_termination(h, 0.0, g, cap_below)
        assert not check_convergence_termination(h, 0.0, g, cap_above)


class TestInitFromCluster:
    def test_singleton_gets_floor_stddev(self, sphere_eval):
        c = _cluster(sphere_eval, [1.0])
        s = init_from_cluster(c, 1, sphere_eval, np.random.default_rng(0), NO_SPREAD)
        floor = STDDEV_FLOOR_SCALE * (sphere_eval.spec.upper - sphere_eval.spec.lower)
        assert np.allclose(s.stddev, floor)
        assert np.allclose(s.mean, [1.0])

    def test_two_point_sample_statistics(self, sphere_eval):
        c = _cluster(sphere_eval, [0.0, 2.0])
        s = init_from_cluster(c, 2, sphere_eval, np.random.default_rng(0), NO_SPREAD)
        assert s.mean[0] == pytest.approx(1.0)
        assert s.stddev[0] == pytest.approx(math.sqrt(2.0))  # unbiased

    def test_no_evaluations_when_population_large_enough(self, sphere_eval):
        c = _cluster(sphere_eval, [0.0, 1.0, 2.0])
        used = sphere_eval.used
        init_from_cluster(c, 3, sphere_eval, np.random.default_rng(0), NO_SPREAD)
        assert sphere_eval.used == used

    def test_top_up_evaluates_exactly_the_shortfall(self, sphere_eval):
        c = _cluster(sphere_eval, [0.0, 1.0])
        used = sphere_eval.used
        s = init_from_cluster(c, 10, sphere_eval, np.random.default_rng(0), NO_SPREAD)
        assert sphere_eval.used == used + 8
        assert s.population[0].shape == (10, 1) and len(s.population[1]) == 10

    def test_min_spread_widens_degenerate_fit(self, sphere_eval):
        c = _cluster(sphere_eval, [1.0])
        s = init_from_cluster(c, 1, sphere_eval, np.random.default_rng(0),
                              min_spread=np.array([0.25]))
        assert s.stddev[0] == pytest.approx(0.25)

    def test_best_is_fittest_member(self, sphere_eval):
        c = _cluster(sphere_eval, [2.0, 0.5, -1.0])
        s = init_from_cluster(c, 3, sphere_eval, np.random.default_rng(0), NO_SPREAD)
        assert s.best[1] == pytest.approx(0.25)

    def test_empty_cluster_rejected(self, sphere_eval):
        with pytest.raises(ValueError):
            init_from_cluster((np.empty((0, 1)), np.empty(0)), 4,
                              sphere_eval, np.random.default_rng(0), NO_SPREAD)


class TestGenerationStep:
    def _state(self, e, xs, pop_size, seed=0):
        return init_from_cluster(_cluster(e, xs), pop_size, e,
                                 np.random.default_rng(seed), NO_SPREAD)

    def test_population_size_is_preserved(self, sphere_eval):
        rng = np.random.default_rng(1)
        s = self._state(sphere_eval, [1.0, 1.3, 1.6], 20, seed=1)
        generation_step(s, sphere_eval, rng)
        assert s.population[0].shape == (20, 1) and len(s.population[1]) == 20
        assert s.generation == 1

    def test_elitism_best_never_degrades(self, sphere_eval):
        rng = np.random.default_rng(2)
        s = self._state(sphere_eval, [1.0, 1.3, 1.6], 20, seed=2)
        prev = s.best[1]
        for _ in range(15):
            generation_step(s, sphere_eval, rng)
            assert s.best[1] <= prev
            prev = s.best[1]
        assert np.any(s.population[1] == s.best[1])

    def test_descends_sphere_to_high_precision(self, sphere_eval):
        rng = np.random.default_rng(3)
        s = self._state(sphere_eval, [1.0, 1.3, 1.6], 50, seed=3)
        for _ in range(30):
            generation_step(s, sphere_eval, rng)
        assert s.best[1] < 1e-6

    def test_returns_selection_mean_fitness(self, sphere_eval):
        rng = np.random.default_rng(4)
        s = self._state(sphere_eval, [1.0, 1.3, 1.6], 20, seed=4)
        n_sel = math.ceil(0.35 * 20)
        expected = float(np.mean(sorted(s.population[1])[:n_sel]))
        a_g = generation_step(s, sphere_eval, rng)
        assert a_g == pytest.approx(expected)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 64), d=st.integers(1, 5), grid=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_statistics_are_numpys_bit_for_bit(self, n, d, grid, seed):
        rng = np.random.default_rng(seed)
        if grid:  # ties among the rows, the fitness values and the spreads
            x = rng.integers(-2, 3, (n, d)) / 4.0
            f = rng.integers(0, 3, n) / 2.0
        else:
            x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 3, d)
            f = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
        spec = synthetic_spec(sphere, [-1.0] * d, [1.0] * d, [[0.0] * d])
        floor = STDDEV_FLOOR_SCALE * (spec.upper - spec.lower)
        s = amalgam.CoreSearchState(mean=np.zeros(d), stddev=np.ones(d),
                                    multiplier=1.0, population=(x, f),
                                    generation=0, best=best_of(x, f),
                                    stddev_floor=floor)
        sel = np.argsort(f, kind="stable")[:math.ceil(0.35 * n)]
        a_g = generation_step(s, BudgetedEvaluator(spec), rng)
        assert np.float64(a_g).tobytes() == np.float64(np.mean(f[sel])).tobytes()
        assert s.mean.tobytes() == np.mean(x[sel], axis=0).tobytes()
        want = np.maximum(np.std(x[sel], axis=0, ddof=0), floor)
        assert s.stddev.tobytes() == want.tobytes()

    @pytest.mark.parametrize("f, a_g", [([1.7e308] * 6, math.inf),
                                        ([-1.7e308] * 6, -math.inf)])
    def test_huge_finite_fitness_sums_without_warning(self, f, a_g):
        # the selection's sum overflows; RuntimeWarnings fail tier 1
        spec = synthetic_spec(sphere, [-1.0], [1.0], [[0.0]])
        x = np.linspace(-0.5, 0.5, len(f))[:, None]
        f = np.array(f)
        s = amalgam.CoreSearchState(mean=np.zeros(1), stddev=np.ones(1),
                                    multiplier=1.0, population=(x, f),
                                    generation=0, best=best_of(x, f),
                                    stddev_floor=np.zeros(1))
        assert generation_step(s, BudgetedEvaluator(spec), np.random.default_rng(0)) == a_g

    def test_budget_exhaustion_keeps_partial_best(self):
        spec = synthetic_spec(sphere, [-10.0], [10.0], [[0.0]], budget=8)
        e = BudgetedEvaluator(spec)
        s = self._state(e, [3.0, 4.0, 5.0], 3)  # cluster members use 3 evals
        # 5 evals remain; a 20-strong population is unobtainable
        x, f = s.population  # pretend pop_size 21 without evals
        s.population = (np.tile(x, (7, 1)), np.tile(f, 7))
        with pytest.raises(BudgetExhausted):
            generation_step(s, e, np.random.default_rng(0))
        assert e.used == spec.budget
        assert e.best[1] <= s.best[1] == 9.0  # the evaluator saw the offspring that fit


@pytest.mark.parametrize("check",
                         [orchestrator._precheck_skip, check_reexploration],
                         ids=["precheck", "reexploration"])
class TestReexplorationCheck:
    """The explored-niche check at both of its call sites: before a core
    search and every REEXPLORATION_PERIOD generations inside one."""

    def test_empty_archive_is_free(self, check, double_well_eval):
        s = evaluate_point(double_well_eval, 1.0)
        used = double_well_eval.used
        assert not check(s, ElitistArchive(), double_well_eval)
        assert double_well_eval.used == used

    def test_less_fit_elite_is_free(self, check, double_well_eval):
        # same well, but the elite is worse: its search was cut short
        s = evaluate_point(double_well_eval, 0.9)
        archive = _archive(evaluate_point(double_well_eval, 1.3))
        used = double_well_eval.used
        assert not check(s, archive, double_well_eval)
        assert double_well_eval.used == used

    def test_equally_fit_elite_counts(self, check, sphere_eval):
        s = evaluate_point(sphere_eval, 0.5)
        assert check(s, _archive(evaluate_point(sphere_eval, -0.5)), sphere_eval)

    def test_same_well_detected(self, check, double_well_eval):
        s = evaluate_point(double_well_eval, 0.9)
        archive = _archive(evaluate_point(double_well_eval, 1.0))
        assert check(s, archive, double_well_eval)

    def test_opposite_well_is_distinct(self, check, double_well_eval):
        s = evaluate_point(double_well_eval, -0.9)
        archive = _archive(evaluate_point(double_well_eval, 1.0))
        assert not check(s, archive, double_well_eval)

    @pytest.mark.parametrize("in_test", [0, 2, 4])
    def test_budget_ending_inside_the_test(self, check, in_test):
        # the test takes ELITE_TEST_POINTS evaluations, all accepted
        spec = synthetic_spec(double_well, [-2.0], [2.0], [[-1.0], [1.0]],
                              budget=2 + in_test)
        e = BudgetedEvaluator(spec)
        s, archive = evaluate_point(e, 0.9), _archive(evaluate_point(e, 1.0))
        assert in_test < ELITE_TEST_POINTS
        with pytest.raises(BudgetExhausted):
            check(s, archive, e)
        assert e.used == spec.budget


class TestRunCoreSearch:
    def test_sphere_converges_to_high_precision(self, sphere_eval):
        c = _cluster(sphere_eval, [1.0, 1.3, 1.6])
        best, reason, gens = run_core_search(
            c, 50, ElitistArchive(), sphere_eval,
            np.random.default_rng(5), NO_SPREAD)
        assert reason == TerminationReason.CONVERGED
        assert best[1] < 1e-10
        assert gens >= 1

    def test_preseeded_niche_triggers_reexploration_stop(self, double_well_eval):
        elite_x, elite_f = evaluate_point(double_well_eval, 1.0)
        archive = ElitistArchive(x=elite_x[None, :], f=np.array([elite_f]),
                                 max_generation=50)
        c = _cluster(double_well_eval, [0.7, 0.8, 1.3])
        best, reason, gens = run_core_search(
            c, 30, archive, double_well_eval,
            np.random.default_rng(6), NO_SPREAD)
        assert reason == TerminationReason.REEXPLORED_NICHE
        assert gens <= 50

    def test_zero_budget_reports_exhaustion(self):
        spec = synthetic_spec(sphere, [-10.0], [10.0], [[0.0]], budget=3)
        e = BudgetedEvaluator(spec)
        c = _cluster(e, [3.0, 4.0, 5.0])  # consumes the whole budget
        with pytest.raises(BudgetExhausted):
            run_core_search(c, 30, ElitistArchive(), e, np.random.default_rng(7),
                            NO_SPREAD)
        assert e.used == spec.budget
        assert e.best[0].tolist() == [3.0] and e.best[1] == 9.0

    @pytest.mark.parametrize("top_up", [1, 4, 26])
    def test_budget_ending_inside_the_top_up(self, top_up):
        spec = synthetic_spec(sphere, [-10.0], [10.0], [[0.0]], budget=3 + top_up)
        e = BudgetedEvaluator(spec)
        c = _cluster(e, [3.0, 4.0, 5.0])  # leaves ``top_up`` of 27 rows
        with pytest.raises(BudgetExhausted):
            run_core_search(c, 30, ElitistArchive(), e, np.random.default_rng(9),
                            NO_SPREAD)
        assert e.used == spec.budget
        # The same top-up with budget to spare: the first ``top_up`` of its
        # rows are the ones evaluated above.
        full = init_from_cluster(c, 30, BudgetedEvaluator(replace(spec, budget=100)),
                                 np.random.default_rng(9), NO_SPREAD)
        x, f = (v[:3 + top_up] for v in full.population)
        i = int(np.argmin(f))
        assert e.best[0].tolist() == x[i].tolist() and e.best[1] == f[i]

    def test_reexploration_is_checked_every_period(self, double_well_eval,
                                                   monkeypatch):
        # The elite sits in the other well, so the check never fires.
        elite = evaluate_point(double_well_eval, 1.0)
        c = _cluster(double_well_eval, [-0.7, -0.8, -1.3])
        steps, checked_at, answers = [], [], []
        real_step, real_check = amalgam.generation_step, amalgam.check_reexploration

        def step(*args):
            steps.append(None)
            return real_step(*args)

        def check(*args):
            checked_at.append(len(steps))
            answers.append(real_check(*args))
            return answers[-1]

        monkeypatch.setattr(amalgam, "generation_step", step)
        monkeypatch.setattr(amalgam, "check_reexploration", check)
        _, reason, gens = run_core_search(
            c, 30, _archive(elite), double_well_eval, np.random.default_rng(0),
            NO_SPREAD)
        assert reason != TerminationReason.REEXPLORED_NICHE
        assert gens >= 2 * REEXPLORATION_PERIOD
        assert len(checked_at) == gens // REEXPLORATION_PERIOD
        assert checked_at == list(range(REEXPLORATION_PERIOD, gens + 1,
                                        REEXPLORATION_PERIOD))
        assert not any(answers)

    def test_converged_spread_matches_final_distribution(self, sphere_eval):
        c = _cluster(sphere_eval, [1.0, 1.3, 1.6])
        best, reason, _ = run_core_search(
            c, 50, ElitistArchive(), sphere_eval,
            np.random.default_rng(8), NO_SPREAD)
        assert reason == TerminationReason.CONVERGED
        assert abs(best[0][0]) < CONVERGED_SPREAD * 100
