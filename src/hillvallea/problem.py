"""Objective-function interface, box bounds, and budgeted evaluation.

All internal logic minimizes. Benchmark problems that are published as
maximization tasks are negated once at this boundary; scoring undoes the
negation before comparing against declared optima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class BudgetExhausted(Exception):
    """Raised when an evaluation would exceed the budget.

    Recoverable: callers finalize and report. ``partial`` carries any
    solutions evaluated before the budget ran out (batched calls).
    """

    def __init__(self, message: str = "evaluation budget exhausted",
                 partial: list["Solution"] | None = None):
        super().__init__(message)
        self.partial: list[Solution] = partial if partial is not None else []


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    """Static description of one optimization problem.

    ``objective`` maps an (n, d) array to an (n,) array of
    published-orientation values. It must be row-wise: a row's value may
    not depend on the other rows of the batch, because the algorithm
    evaluates the same point alone or among many others and relies on
    getting the same value. The evaluator rejects output of any other
    shape, and a non-finite value (NaN or +-inf) counts as the worst
    fitness. When ``maximize`` is true, internal fitness is the negated
    value.
    """

    id: int
    name: str
    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    budget: int
    num_global_optima: int
    known_optima: np.ndarray  # (num_global_optima, d), published locations
    optimum_fitness: float  # shared published fitness of the optima
    niche_radius: float
    objective: Callable[[np.ndarray], np.ndarray]
    maximize: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "known_optima",
                           np.asarray(self.known_optima, dtype=float))
        if not np.all(self.lower < self.upper):
            raise ValueError(f"invalid bounds for problem {self.id}")

    @property
    def internal_optimum_fitness(self) -> float:
        return -self.optimum_fitness if self.maximize else self.optimum_fitness

    def to_internal(self, published: np.ndarray | float):
        return -published if self.maximize else published

    def to_published(self, internal: np.ndarray | float):
        return -internal if self.maximize else internal

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Repair out-of-bounds samples by coordinate-wise clamping."""
        return np.clip(x, self.lower, self.upper)


@dataclass
class Solution:
    """Parameter vector plus internal (minimization) fitness."""

    x: np.ndarray
    f: float

    def copy(self) -> "Solution":
        return Solution(self.x.copy(), self.f)


@dataclass
class BudgetedEvaluator:
    """Counts every fitness evaluation and enforces the budget."""

    spec: ProblemSpec
    used: int = 0

    @property
    def remaining(self) -> int:
        return self.spec.budget - self.used

    def evaluate(self, x: np.ndarray) -> Solution:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.spec.dimension,):
            raise DimensionMismatch(
                f"expected vector of length {self.spec.dimension}, got shape {x.shape}")
        return self.evaluate_batch(x[None, :])[0]

    def evaluate_batch(self, xs: np.ndarray) -> list[Solution]:
        """Evaluate the rows of ``xs``; one budget unit per row.

        If the budget runs out mid-batch, the rows that still fit are
        evaluated and attached to the raised ``BudgetExhausted``. Objective
        output of a shape other than (rows,) raises ``ValueError``;
        non-finite values become +inf.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.spec.dimension:
            raise DimensionMismatch(
                f"expected (n, {self.spec.dimension}) array, got shape {xs.shape}")
        n = xs.shape[0]
        fit = min(n, self.remaining)
        sols: list[Solution] = []
        if fit > 0:
            values = np.asarray(self.spec.objective(xs[:fit]), dtype=float)
            if values.shape != (fit,):
                raise ValueError(
                    f"objective of problem {self.spec.id} returned shape "
                    f"{values.shape} for {fit} rows; expected ({fit},)")
            values = self.spec.to_internal(values)
            values = np.where(np.isfinite(values), values, np.inf)  # worst
            self.used += fit
            # Each solution holds its own row of one fresh copy of the batch.
            sols = [Solution(x, f) for x, f in zip(xs[:fit].copy(), values.tolist())]
        if fit < n:
            raise BudgetExhausted(partial=sols)
        return sols


def uniform_init(e: BudgetedEvaluator, n: int,
                 rng: np.random.Generator) -> list[Solution]:
    """Sample and evaluate n solutions uniformly within the bounds."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = rng.uniform(e.spec.lower, e.spec.upper, size=(n, e.spec.dimension))
    return e.evaluate_batch(xs)
