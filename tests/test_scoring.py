import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillvallea.benchmarks import get_problem
from hillvallea.orchestrator import RunReport
from hillvallea.scoring import Score, aggregate, score

SPEC2 = get_problem(2)  # five equal maxima at 0.1, 0.3, ..., 0.9, fopt 1.0


def _pair(xs, fs):
    """The report ``(x, f)`` of 1-D points ``xs`` with fitness ``fs``."""
    return np.asarray(xs, float).reshape(len(xs), -1), np.asarray(fs, float)


class TestScore:
    def test_all_peaks_exact(self):
        reported = _pair([0.1, 0.3, 0.5, 0.7, 0.9], [1.0] * 5)
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
        reported = (np.full((1, width), 1.0 / 3.0), np.array([spec.optimum_fitness]))
        with pytest.raises(ValueError, match=f"{width} coordinates; problem 7 "
                                              f"has dimension 2"):
            score(reported, spec)

    def test_empty_report(self):
        s = score((np.empty((0, 0)), np.empty(0)), SPEC2)
        assert s == Score(0, 0.0, 0.0, 0.0, 0)

    @pytest.mark.parametrize("width", [1, 3])
    def test_empty_report_has_no_width_to_check(self, width):
        s = score((np.empty((0, width)), np.empty(0)), SPEC2, evaluations_used=7)
        assert s == Score(0, 0.0, 0.0, 0.0, 7)

    def test_duplicate_claims_one_optimum(self):
        # two solutions on the same peak: one claims it, the other is a
        # false positive that costs precision
        reported = _pair([0.1, 0.1001, 0.3, 0.5], [1.0, 1.0 - 1e-6, 1.0, 1.0])
        s = score(reported, SPEC2)
        assert s.peaks_found == 3
        assert s.peak_ratio == pytest.approx(0.6)
        assert s.static_f1 == pytest.approx(0.75)
        assert s.f1_harmonic == pytest.approx(2 * 0.6 * 0.75 / 1.35)

    def test_fitness_outside_epsilon_rejected(self):
        reported = _pair([0.1], [1.0 - 2e-5])
        assert score(reported, SPEC2).peaks_found == 0

    def test_fitness_on_epsilon_boundary_accepted(self):
        reported = _pair([0.1], [1.0 - 1e-5])
        assert score(reported, SPEC2).peaks_found == 1

    def test_nan_fitness_claims_no_optimum(self):
        report = RunReport.parse("1 0 100\n0.0 nan\n")
        s = score(report.solutions, get_problem(1))
        assert s.peaks_found == 0
        assert s.static_f1 == 0.0

    def test_non_finite_coordinate_claims_no_optimum(self):
        reported = _pair([np.nan, np.inf, 0.3], [1.0, 1.0, 1.0])
        s = score(reported, SPEC2)
        assert s.peaks_found == 1
        assert s.static_f1 == pytest.approx(1 / 3)

    @pytest.mark.parametrize("problem, x", [
        (1, [1e200]), (1, [1e308]), (1, [-1e308]),
        (4, [1e200, 2.0]), (4, [3.0, 1e308]), (4, [-1e308, -1e308])])
    def test_huge_coordinate_claims_no_optimum(self, problem, x):
        # Its squared distance overflows to inf, past every niche radius,
        # and quietly: the suite turns a RuntimeWarning into an error.
        spec = get_problem(problem)
        s = score((np.array([x]), np.array([spec.optimum_fitness])), spec)
        assert (s.peaks_found, s.static_f1) == (0, 0.0)

    def test_distance_outside_niche_radius_rejected(self):
        reported = _pair([0.1 + 0.011], [1.0])
        assert score(reported, SPEC2).peaks_found == 0

    def test_lower_error_solution_wins_the_claim(self):
        close = _pair([0.102, 0.098], [1.0 - 5e-6, 1.0 - 1e-6])
        s = score(close, SPEC2)
        assert s.peaks_found == 1
        assert s.static_f1 == pytest.approx(0.5)

    def test_epsilon_monotonicity(self):
        reported = _pair([0.1, 0.3, 0.5], [1.0 - 8e-6, 1.0 - 3e-5, 1.0])
        found = [score(reported, SPEC2, epsilon=eps).peaks_found
                 for eps in (1e-6, 1e-5, 1e-4)]
        assert found == sorted(found)

    @given(perm=st.permutations(range(5)))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, perm):
        xs = [0.1, 0.3, 0.5, 0.5001, 0.9]
        fs = [1.0, 1.0 - 1e-6, 1.0, 1.0 - 2e-6, 1.0]
        base = score(_pair(xs, fs), SPEC2)
        shuffled = score(_pair([xs[i] for i in perm], [fs[i] for i in perm]),
                         SPEC2)
        assert shuffled == base

    @given(n=st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_peaks_found_bounded_by_both_sides(self, n):
        rng = np.random.default_rng(n)
        xs = rng.uniform(0.0, 1.0, n)
        reported = _pair(xs, [1.0] * n)
        s = score(reported, SPEC2)
        assert s.peaks_found <= min(n, SPEC2.num_global_optima)
        assert 0.0 <= s.peak_ratio <= 1.0
        assert 0.0 <= s.static_f1 <= 1.0


def _per_solution_score(x, f, spec, epsilon, evaluations_used):
    """``score`` as a loop over the reported solutions one at a time: the
    reference that the array version must equal."""
    reported = list(zip(x, f.tolist()))
    for sx, _ in reported:
        if len(sx) != spec.dimension:
            raise ValueError("wrong coordinate count")
    if not reported:
        return Score(0, 0.0, 0.0, 0.0, evaluations_used)
    pairs = []  # (fitness error, solution index, optimum index)
    for i, (sx, sf) in enumerate(reported):
        err = abs(sf - spec.optimum_fitness)
        if not (err <= epsilon and np.isfinite(sx).all()):
            continue
        dists = np.linalg.norm(spec.known_optima - sx, axis=1)
        for j in np.flatnonzero(dists <= spec.niche_radius):
            pairs.append((err, i, int(j)))
    pairs.sort()
    claimed_opt, claimed_sol = set(), set()
    for err, i, j in pairs:
        if i in claimed_sol or j in claimed_opt:
            continue
        claimed_sol.add(i)
        claimed_opt.add(j)
    peaks = len(claimed_opt)
    pr = peaks / spec.num_global_optima
    precision = len(claimed_sol) / len(reported)
    harmonic = (2.0 * pr * precision / (pr + precision)) if (pr + precision) > 0 else 0.0
    return Score(peaks, pr, precision, harmonic, evaluations_used)


# problems of dimension 1 (2: five peaks), 2 (4: four; 6: 18 and 7: 36,
# some closer than two niche radii) and 3 (8: 81)
SPECS = {pid: get_problem(pid) for pid in (2, 4, 6, 7, 8)}
NON_FINITE = [np.nan, np.inf, -np.inf]


@st.composite
def _report(draw):
    """A problem, an epsilon and a report ``(x, f)`` of 0-20 rows.

    Rows sit on an optimum, on its niche radius along one axis, between it
    and its nearest other optimum, near it or anywhere; fitness errors lie
    inside, on or past the epsilon boundary. Some rows repeat earlier ones
    and some values are non-finite. Epsilon is a round scale or exactly
    the fitness error of one row.
    """
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    scale = draw(st.sampled_from([1e-5, 1e-3, 1e-1]))
    d, r, optima = spec.dimension, spec.niche_radius, spec.known_optima
    xs, fs = [], []
    for _ in range(draw(st.integers(0, 20))):
        if xs and draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, len(xs) - 1))  # a duplicate row
            xs.append(xs[k].copy())
            fs.append(fs[k])
            continue
        opt = optima[draw(st.integers(0, len(optima) - 1))]
        noise = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        kind = draw(st.sampled_from(["on", "radius", "between", "near", "box"]))
        x = opt.copy()
        if kind == "radius":
            x[draw(st.integers(0, d - 1))] += draw(st.sampled_from([r, -r]))
        elif kind == "between":
            dist = np.linalg.norm(optima - opt, axis=1)
            dist[dist == 0.0] = np.inf
            x = 0.5 * (opt + optima[dist.argmin()]) + 0.1 * r * noise
        elif kind == "near":
            x = opt + 2.0 * r * noise
        elif kind == "box":
            x = 20.0 * noise
        if draw(st.integers(0, 5)) == 0:
            x[draw(st.integers(0, d - 1))] = draw(st.sampled_from(NON_FINITE))
        f = spec.optimum_fitness + draw(st.one_of(
            st.sampled_from([0.0, scale, -scale, 2 * scale, -0.5 * scale]),
            st.floats(-2 * scale, 2 * scale),
            st.sampled_from(NON_FINITE)))
        xs.append(x)
        fs.append(f)
    x = np.array(xs, dtype=float).reshape(len(xs), d)
    f = np.array(fs, dtype=float)
    errors = np.abs(f - spec.optimum_fitness)
    epsilon = draw(st.sampled_from([scale, *errors[np.isfinite(errors)].tolist()]))
    return spec, epsilon, (x, f)


class TestScoreMatchesPerSolutionLoop:
    @given(case=_report(), evaluations=st.integers(0, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_equal_scores(self, case, evaluations):
        spec, epsilon, (x, f) = case
        got = score((x, f), spec, epsilon, evaluations)
        want = _per_solution_score(x, f, spec, epsilon, evaluations)
        for field in dataclasses.fields(Score):
            g, w = getattr(got, field.name), getattr(want, field.name)
            assert type(g) is type(w) and g == w, field.name


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
