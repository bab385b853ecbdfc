"""Objective-function interface, box bounds, and budgeted evaluation.

All internal logic minimizes. Benchmark problems that are published as
maximization tasks are negated once at this boundary; scoring undoes the
negation before comparing against declared optima.

A population is one pair ``(x, f)``: an (n, d) matrix whose rows are the
solutions and the (n,) vector of their internal fitness. The evaluator,
clustering, core search, archive and run report all pass populations in
this form. A single point (a test endpoint, a search's best, an elite,
the evaluator's best) is the one-row case: a pair of its (d,) row and
its fitness as a Python float.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class BudgetExhausted(Exception):
    """Raised by the evaluation that does not fit the budget; it ends the
    run (see ``orchestrator.run_hillvallea``)."""


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    """Static description of one optimization problem.

    ``objective`` maps an (n, d) array to an (n,) array of
    published-orientation values. It must be row-wise: a row's value may
    not depend on the other rows of the batch, because the algorithm
    evaluates the same point alone or among many others and relies on
    getting the same value. The evaluator rejects complex output and
    output of any other shape, and a non-finite value (NaN or +-inf)
    counts as the worst fitness. When ``maximize`` is true, internal
    fitness is the negated value.
    """

    id: int
    name: str
    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    budget: int
    known_optima: np.ndarray  # (k, d), published locations of the k optima
    optimum_fitness: float  # shared published fitness of the optima
    niche_radius: float
    objective: Callable[[np.ndarray], np.ndarray]
    maximize: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "known_optima",
                           np.asarray(self.known_optima, dtype=float))
        for name in ("dimension", "budget"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"problem {self.id}: {name} must be >= 1 and an "
                                 f"integer, got {value!r}")
        d = self.dimension
        for name in ("lower", "upper"):
            shape = getattr(self, name).shape
            if shape != (d,):
                raise ValueError(f"problem {self.id}: {name} has shape {shape}, "
                                 f"expected ({d},)")
        if self.known_optima.shape[1:] != (d,) or not len(self.known_optima):
            raise ValueError(f"problem {self.id}: known_optima has shape "
                             f"{self.known_optima.shape}, expected (k, {d}), k >= 1")
        if not np.all(np.isfinite(self.known_optima)):
            raise ValueError(f"problem {self.id}: known_optima must be finite")
        if not np.isfinite(self.optimum_fitness):
            raise ValueError(f"problem {self.id}: optimum_fitness must be finite, "
                             f"got {self.optimum_fitness}")
        if not (np.isfinite(self.niche_radius) and self.niche_radius > 0):
            raise ValueError(f"problem {self.id}: niche_radius must be finite "
                             f"and > 0, got {self.niche_radius}")
        # The squared diagonal is finite only when both bounds are, and when
        # no distance across the box overflows: an inf distance would let a
        # hill-valley test pass without evaluating anything.
        with np.errstate(over="ignore", invalid="ignore"):
            diagonal = ((self.upper - self.lower) ** 2).sum()
        if not (np.isfinite(diagonal) and np.all(self.lower < self.upper)):
            raise ValueError(f"invalid bounds for problem {self.id}")

    @property
    def num_global_optima(self) -> int:
        return len(self.known_optima)

    def to_internal(self, published: np.ndarray | float):
        return -published if self.maximize else published

    def to_published(self, internal: np.ndarray | float):
        return -internal if self.maximize else internal

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Repair out-of-bounds samples by coordinate-wise clamping: the
        ``clip`` ufunc that ``np.clip`` reaches, without its Python wrapper."""
        return x.clip(self.lower, self.upper)


def best_of(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float]:
    """The first fittest row of a non-empty population, as a point: a copy
    of its row and its fitness."""
    i = int(f.argmin())
    return x[i].copy(), float(f[i])


@dataclass
class BudgetedEvaluator:
    """Counts every fitness evaluation and enforces the budget.

    ``best`` is the first fittest row evaluated so far, as a point
    ``(x, f)`` (None before any).
    """

    spec: ProblemSpec
    used: int = 0
    best: tuple[np.ndarray, float] | None = field(default=None, init=False)

    def evaluate_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the rows of ``xs``; one budget unit per row.

        Returns the population pair: a fresh copy of the rows and their
        internal fitness. If the budget runs out mid-batch, the rows that
        still fit are evaluated, so the whole budget is spent, and then
        ``BudgetExhausted`` is raised. Complex objective output, and output
        of a shape other than (rows,), raises ``ValueError``; non-finite
        values (NaN and either infinity) become +inf, the worst fitness,
        and every finite value is kept as it is, however large.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.spec.dimension:
            raise DimensionMismatch(
                f"expected (n, {self.spec.dimension}) array, got shape {xs.shape}")
        n = xs.shape[0]
        fit = min(n, self.spec.budget - self.used)
        values = np.empty(0)
        if fit > 0:
            values = self.spec.objective(xs[:fit])
            if np.iscomplexobj(values):  # the float cast would drop the imaginary part
                raise ValueError(f"objective of problem {self.spec.id} returned "
                                 f"complex values for {fit} rows; expected real ones")
            values = np.array(values, dtype=float)  # own copy
            if values.shape != (fit,):
                raise ValueError(
                    f"objective of problem {self.spec.id} returned shape "
                    f"{values.shape} for {fit} rows; expected ({fit},)")
            values = self.spec.to_internal(values)
            values[~np.isfinite(values)] = np.inf  # worst
            self.used += fit
            i = values.argmin()
            if self.best is None or values[i] < self.best[1]:
                self.best = xs[i].copy(), float(values[i])
        if fit < n:
            raise BudgetExhausted("evaluation budget exhausted")
        return xs.copy(), values


def uniform_init(e: BudgetedEvaluator, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample and evaluate n solutions uniformly within the bounds."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = rng.uniform(e.spec.lower, e.spec.upper, size=(n, e.spec.dimension))
    return e.evaluate_batch(xs)
