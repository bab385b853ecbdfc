import contextlib
from unittest import mock

import numpy as np
import pytest

from hillvallea.problem import BudgetedEvaluator, ProblemSpec

import reference_clustering


def synthetic_spec(fn, lower, upper, optima, fopt=0.0, budget=1_000_000,
                   radius=0.1, pid=0, name="synthetic"):
    """Minimization test problem; internal fitness equals published."""
    lower = np.atleast_1d(np.asarray(lower, float))
    upper = np.atleast_1d(np.asarray(upper, float))
    optima = np.atleast_2d(np.asarray(optima, float))
    return ProblemSpec(
        id=pid, name=name, dimension=len(lower), lower=lower, upper=upper,
        budget=budget, known_optima=optima,
        optimum_fitness=fopt, niche_radius=radius, objective=fn,
        maximize=False)


def evaluate_point(e, x):
    """Evaluate the one point ``x`` (a scalar or a vector); return it as a
    point ``(x, f)``: its (d,) row and its fitness as a Python float."""
    xs, fs = e.evaluate_batch(np.atleast_1d(np.asarray(x, float))[None, :])
    return xs[0], float(fs[0])


def sphere(X):
    return (X ** 2).sum(axis=1)


def double_well(X):
    # (x^2 - 1)^2: minima at +-1, ridge of height 1 at 0
    return (X[:, 0] ** 2 - 1.0) ** 2


@pytest.fixture
def sphere_1d():
    return synthetic_spec(sphere, [-2.0], [2.0], [[0.0]])


@pytest.fixture
def double_well_1d():
    return synthetic_spec(double_well, [-2.0], [2.0], [[-1.0], [1.0]])


@pytest.fixture
def sphere_eval(sphere_1d):
    return BudgetedEvaluator(sphere_1d)


@pytest.fixture
def double_well_eval(double_well_1d):
    return BudgetedEvaluator(double_well_1d)


@contextlib.contextmanager
def fallback_spans():
    """Record ``(used before, used after)`` of every fallback test (a
    solution's second and later tests) the sequential reference clustering
    runs. The batched clustering evaluates the same points in another
    order, so a budget that ends inside one of these spans ends inside its
    clustering too."""
    spans = []
    last = []
    real = reference_clustering.hill_valley_test

    def spy(a, b, n_test, e):
        before = e.used
        try:
            return real(a, b, n_test, e)
        finally:
            if last and last[0] is a:
                spans.append((before, e.used))
            last[:] = [a]

    with mock.patch.object(reference_clustering, "hill_valley_test", spy):
        yield spans
