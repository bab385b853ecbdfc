from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillvallea.benchmarks import get_problem
from hillvallea.orchestrator import run_hillvallea
from hillvallea.problem import (BudgetedEvaluator, BudgetExhausted,
                                DimensionMismatch, uniform_init)

from conftest import evaluate_point, sphere, synthetic_spec


def test_equal_maxima_peak_is_minus_one_internally():
    e = BudgetedEvaluator(get_problem(2))
    _, f = evaluate_point(e, 0.1)
    assert f == pytest.approx(-1.0, abs=1e-12)
    assert e.used == 1


@pytest.mark.parametrize("pid", range(1, 11))
def test_known_optima_match_declared_fitness(pid):
    spec = get_problem(pid)
    _, f = BudgetedEvaluator(spec).evaluate_batch(spec.known_optima)
    assert np.all(np.abs(f - spec.to_internal(spec.optimum_fitness)) < 1e-10)


def test_budget_exhausted_at_limit():
    spec = synthetic_spec(sphere, [-1.0], [1.0], [[0.0]], budget=2)
    e = BudgetedEvaluator(spec)
    e.evaluate_batch(np.array([[0.5]]))
    e.evaluate_batch(np.array([[0.5]]))
    with pytest.raises(BudgetExhausted):
        e.evaluate_batch(np.array([[0.5]]))
    assert e.used == 2


def test_dimension_mismatch():
    e = BudgetedEvaluator(get_problem(4))
    for shape in [(1, 1), (1, 3), (2,)]:  # short row, long row, bare vector
        with pytest.raises(DimensionMismatch):
            e.evaluate_batch(np.ones(shape))
    assert e.used == 0


def test_batch_partial_on_exhaustion():
    spec = synthetic_spec(sphere, [-1.0], [1.0], [[0.0]], budget=3)
    e = BudgetedEvaluator(spec)
    xs = np.array([[0.5], [-0.25], [0.25], [0.0], [0.0]])
    with pytest.raises(BudgetExhausted):
        e.evaluate_batch(xs)
    assert e.used == 3
    # the rows that fit were evaluated: the first fittest of them is kept
    assert e.best[0].tolist() == [-0.25] and e.best[1] == 0.0625


def test_uniform_init_counts_and_bounds():
    spec = get_problem(4)
    e = BudgetedEvaluator(spec)
    x, f = uniform_init(e, 128, np.random.default_rng(3))
    assert x.shape == (128, spec.dimension) and f.shape == (128,)
    assert e.used == 128
    assert np.all(x >= spec.lower) and np.all(x <= spec.upper)


def test_uniform_init_deterministic():
    spec = get_problem(4)
    a = uniform_init(BudgetedEvaluator(spec), 16, np.random.default_rng(7))
    b = uniform_init(BudgetedEvaluator(spec), 16, np.random.default_rng(7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_single_sample_in_bounds():
    spec = synthetic_spec(sphere, [-1.0], [1.0], [[0.0]], budget=10)
    x, f = uniform_init(BudgetedEvaluator(spec), 1, np.random.default_rng(0))
    assert x.shape == (1, 1) and len(f) == 1
    assert -1.0 <= x[0, 0] <= 1.0


def test_reevaluation_is_bitwise_identical():
    spec = get_problem(6)
    e = BudgetedEvaluator(spec)
    x = np.array([1.234567, -5.4321])
    assert evaluate_point(e, x)[1] == evaluate_point(e, x)[1]


def test_clamp_repairs_out_of_bounds():
    spec = get_problem(5)
    repaired = spec.clamp(np.array([[5.0, -9.0]]))
    assert np.allclose(repaired, [[1.9, -1.1]])


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(0, 12), seed=st.integers(0, 2 ** 16))
def test_clamp_is_np_clip_bit_for_bit(d, n, seed):
    # bounds at 0.0 and samples of -0.0, 0.0, inside and beyond the box
    rng = np.random.default_rng(seed)
    lower = rng.choice([-2.0, 0.0], d)
    upper = lower + rng.choice([0.5, 2.0], d)
    x = rng.choice([-0.0, 0.0, -3.0, 3.0, np.nextafter(0.0, 1.0)], (n, d))
    x = np.where(rng.random((n, d)) < 0.5, x, rng.uniform(-3.0, 3.0, (n, d)))
    spec = synthetic_spec(sphere, lower, upper, [lower])
    assert spec.clamp(x).tobytes() == np.clip(x, lower, upper).tobytes()


@pytest.mark.parametrize("extra", [1, -1])
def test_wrong_length_objective_output_rejected(extra):
    def ragged(X):
        return np.zeros(len(X) + extra)

    e = BudgetedEvaluator(synthetic_spec(ragged, [-1.0], [1.0], [[0.0]]))
    with pytest.raises(ValueError, match="expected \\(3,\\)"):
        e.evaluate_batch(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="expected \\(1,\\)"):
        e.evaluate_batch(np.zeros((1, 1)))
    assert e.used == 0


def test_column_shaped_objective_output_rejected():
    e = BudgetedEvaluator(synthetic_spec(lambda X: X, [-1.0], [1.0], [[0.0]]))
    with pytest.raises(ValueError, match="shape \\(2, 1\\)"):
        e.evaluate_batch(np.zeros((2, 1)))


@pytest.mark.parametrize("output, error", [
    (lambda X: X[:, 0] + 1j, "complex values for 2 rows"),
    (lambda X: list(X[:, 0] + 0j), "complex values for 2 rows"),
    (lambda X: None, "shape \\(\\) for 2 rows"),
], ids=["complex", "complex-list", "none"])
def test_complex_or_missing_objective_output_rejected(output, error):
    # a complex output used to lose its imaginary part with only a warning
    e = BudgetedEvaluator(synthetic_spec(output, [-1.0], [1.0], [[0.0]]))
    with pytest.raises(ValueError, match=error):
        e.evaluate_batch(np.zeros((2, 1)))
    assert e.used == 0


@pytest.mark.parametrize("maximize", [False, True])
def test_non_finite_values_count_as_worst(maximize):
    def holes(X):
        return np.array([np.nan, np.inf, -np.inf, 2.0])[:len(X)]

    spec = replace(synthetic_spec(holes, [-1.0], [1.0], [[0.0]]), maximize=maximize)
    _, f = BudgetedEvaluator(spec).evaluate_batch(np.zeros((4, 1)))
    assert list(f) == [np.inf, np.inf, np.inf, spec.to_internal(2.0)]


@pytest.mark.parametrize("maximize", [False, True])
def test_huge_finite_values_are_kept(maximize):
    # their sum overflows; RuntimeWarnings fail tier 1
    huge = np.array([1.7e308, -1.7e308, 1.7e308, np.finfo(float).max, 1.0])

    def values(X):
        return huge[:len(X)].copy()

    spec = replace(synthetic_spec(values, [-1.0], [1.0], [[0.0]]), maximize=maximize)
    e = BudgetedEvaluator(spec)
    _, f = e.evaluate_batch(np.zeros((5, 1)))
    assert f.tobytes() == spec.to_internal(huge).tobytes()
    assert e.best[1] == f.min()


class TestProblemSpecValidation:
    def _spec(self, **changes):
        return replace(synthetic_spec(sphere, [-1.0], [1.0], [[0.0]]), **changes)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        # used to be accepted and to give an empty report
        with pytest.raises(ValueError, match="budget must be >= 1"):
            self._spec(budget=budget)

    @pytest.mark.parametrize("name, value", [
        ("budget", 5000.0), ("budget", "5000"), ("budget", np.float64(5000)),
        ("dimension", 1.0), ("dimension", np.float64(1.0))])
    def test_non_integer_size_rejected(self, name, value):
        # a float used to pass here and fail later, in evaluation or sampling
        with pytest.raises(ValueError, match=f"{name} must be >= 1 and an integer"):
            self._spec(**{name: value})

    def test_numpy_integer_sizes_accepted(self):
        spec = get_problem(4)
        cast = replace(spec, dimension=np.int64(spec.dimension),
                       budget=np.int64(3000))
        assert (run_hillvallea(cast, 0).serialize()
                == run_hillvallea(replace(spec, budget=3000), 0).serialize())

    @pytest.mark.parametrize("name", ["lower", "upper"])
    def test_bound_length_must_match_dimension(self, name):
        # used to fail deep inside numpy broadcasting
        with pytest.raises(ValueError, match=f"{name} has shape \\(2,\\)"):
            self._spec(**{name: np.array([-1.0, 1.0]) if name == "lower"
                          else np.array([1.0, 2.0])})

    def test_known_optima_width_must_match_dimension(self):
        with pytest.raises(ValueError, match="known_optima has shape \\(1, 2\\)"):
            self._spec(known_optima=np.array([[0.0, 0.0]]))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            self._spec(dimension=0, lower=np.empty(0), upper=np.empty(0),
                       known_optima=np.empty((1, 0)))

    def test_known_optima_must_list_one(self):
        # an empty list used to make ``score`` divide by zero
        with pytest.raises(ValueError, match="known_optima has shape \\(0, 1\\)"):
            self._spec(known_optima=np.empty((0, 1)))

    def test_optimum_count_is_the_known_optima(self):
        spec = self._spec(known_optima=np.array([[-0.5], [0.5]]))
        assert spec.num_global_optima == 2
        with pytest.raises(TypeError):  # derived, so not settable
            replace(spec, num_global_optima=1)

    @pytest.mark.parametrize("radius", [0.0, -0.1, np.nan, np.inf])
    def test_niche_radius_must_be_finite_and_positive(self, radius):
        # used to be accepted, and every run then scored 0
        with pytest.raises(ValueError, match="niche_radius must be finite and > 0"):
            self._spec(niche_radius=radius)

    @pytest.mark.parametrize("fopt", [np.nan, np.inf])
    def test_optimum_fitness_must_be_finite(self, fopt):
        with pytest.raises(ValueError, match="optimum_fitness must be finite"):
            self._spec(optimum_fitness=fopt)

    # At +-1e300 the distance between two test endpoints used to overflow,
    # and clustering then accepted the pair without evaluating it; at
    # +-1e308 the width itself overflows. The check may not warn (a
    # RuntimeWarning fails the suite).
    @pytest.mark.parametrize("lower, upper", [([1.0], [1.0]), ([2.0], [1.0]),
                                              ([-np.inf], [1.0]),
                                              ([-1e300], [1e300]),
                                              ([-1e308], [1e308]),
                                              ([1.0], [np.inf]),
                                              ([np.inf], [np.inf]),
                                              ([np.nan], [1.0])])
    def test_empty_or_infinite_box_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="invalid bounds"):
            self._spec(lower=np.array(lower), upper=np.array(upper))

    @pytest.mark.parametrize("optimum", [[[np.inf]], [[np.nan]]])
    def test_known_optima_must_be_finite(self, optimum):
        # used to build, with an optimum no report could ever claim
        with pytest.raises(ValueError, match="known_optima must be finite"):
            self._spec(known_optima=np.array(optimum))

    def test_box_with_a_finite_squared_diagonal_builds(self):
        spec = self._spec(lower=np.array([-1e150]), upper=np.array([1e150]))
        assert spec.upper.tolist() == [1e150]
