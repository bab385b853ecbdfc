import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillvallea.benchmarks import get_problem
from hillvallea.orchestrator import RunReport
from hillvallea.problem import Solution
from hillvallea.scoring import Score, aggregate, score

SPEC2 = get_problem(2)  # five equal maxima at 0.1, 0.3, ..., 0.9, fopt 1.0


def _sols(xs, fs):
    return [Solution(np.atleast_1d(np.asarray(x, float)), float(f))
            for x, f in zip(xs, fs)]


class TestScore:
    def test_all_peaks_exact(self):
        reported = _sols([0.1, 0.3, 0.5, 0.7, 0.9], [1.0] * 5)
        s = score(reported, SPEC2, evaluations_used=123)
        assert s.peaks_found == 5
        assert s.peak_ratio == 1.0
        assert s.static_f1 == 1.0
        assert s.f1_harmonic == 1.0
        assert s.evaluations_used == 123

    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_coordinate_count_rejected(self, width):
        # on 2-D problem 7 a 1-coordinate point used to be broadcast
        # against the optima and claim a peak
        spec = get_problem(7)
        reported = [Solution(np.full(width, 1.0 / 3.0), spec.optimum_fitness)]
        with pytest.raises(ValueError, match=f"{width} coordinates; problem 7 "
                                              f"has dimension 2"):
            score(reported, spec)

    def test_empty_report(self):
        s = score([], SPEC2)
        assert s == Score(0, 0.0, 0.0, 0.0, 0)

    def test_duplicate_claims_one_optimum(self):
        # two solutions on the same peak: one claims it, the other is a
        # false positive that costs precision
        reported = _sols([0.1, 0.1001, 0.3, 0.5], [1.0, 1.0 - 1e-6, 1.0, 1.0])
        s = score(reported, SPEC2)
        assert s.peaks_found == 3
        assert s.peak_ratio == pytest.approx(0.6)
        assert s.static_f1 == pytest.approx(0.75)
        assert s.f1_harmonic == pytest.approx(2 * 0.6 * 0.75 / 1.35)

    def test_fitness_outside_epsilon_rejected(self):
        reported = _sols([0.1], [1.0 - 2e-5])
        assert score(reported, SPEC2).peaks_found == 0

    def test_fitness_on_epsilon_boundary_accepted(self):
        reported = _sols([0.1], [1.0 - 1e-5])
        assert score(reported, SPEC2).peaks_found == 1

    def test_nan_fitness_claims_no_optimum(self):
        report = RunReport.parse("1 0 100\n0.0 nan\n")
        s = score(report.solutions, get_problem(1))
        assert s.peaks_found == 0
        assert s.static_f1 == 0.0

    def test_non_finite_coordinate_claims_no_optimum(self):
        reported = _sols([np.nan, np.inf, 0.3], [1.0, 1.0, 1.0])
        s = score(reported, SPEC2)
        assert s.peaks_found == 1
        assert s.static_f1 == pytest.approx(1 / 3)

    def test_distance_outside_niche_radius_rejected(self):
        reported = _sols([0.1 + 0.011], [1.0])
        assert score(reported, SPEC2).peaks_found == 0

    def test_lower_error_solution_wins_the_claim(self):
        close = _sols([0.102, 0.098], [1.0 - 5e-6, 1.0 - 1e-6])
        s = score(close, SPEC2)
        assert s.peaks_found == 1
        assert s.static_f1 == pytest.approx(0.5)

    def test_epsilon_monotonicity(self):
        reported = _sols([0.1, 0.3, 0.5], [1.0 - 8e-6, 1.0 - 3e-5, 1.0])
        found = [score(reported, SPEC2, epsilon=eps).peaks_found
                 for eps in (1e-6, 1e-5, 1e-4)]
        assert found == sorted(found)

    @given(perm=st.permutations(range(5)))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, perm):
        xs = [0.1, 0.3, 0.5, 0.5001, 0.9]
        fs = [1.0, 1.0 - 1e-6, 1.0, 1.0 - 2e-6, 1.0]
        base = score(_sols(xs, fs), SPEC2)
        shuffled = score(_sols([xs[i] for i in perm], [fs[i] for i in perm]),
                         SPEC2)
        assert shuffled == base

    @given(n=st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_peaks_found_bounded_by_both_sides(self, n):
        rng = np.random.default_rng(n)
        xs = rng.uniform(0.0, 1.0, n)
        reported = _sols(xs, [1.0] * n)
        s = score(reported, SPEC2)
        assert s.peaks_found <= min(n, SPEC2.num_global_optima)
        assert 0.0 <= s.peak_ratio <= 1.0
        assert 0.0 <= s.static_f1 <= 1.0


class TestAggregate:
    def test_means_and_extremes(self):
        a = Score(5, 1.0, 1.0, 1.0, 40_000)
        b = Score(2, 0.5, 0.8, 0.6, 50_000)
        s = aggregate([a, b])
        assert s.runs == 2
        assert s.mean_peak_ratio == pytest.approx(0.75)
        assert s.mean_static_f1 == pytest.approx(0.9)
        assert s.mean_f1_harmonic == pytest.approx(0.8)
        assert s.mean_evaluations == pytest.approx(45_000)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
