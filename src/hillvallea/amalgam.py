"""AMaLGaM-Univariate core search run on a single cluster.

Each generation fits an axis-aligned Gaussian to the best fraction of the
population, adapts a scalar distribution multiplier, shifts part of the
offspring along the anticipated mean displacement, and preserves a single
elitist survivor. Two extra terminators stop searches that re-explore an
archived niche or that are predicted to converge to a local minimum.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .hillvalley import Cluster, hill_valley_test
from .problem import BudgetedEvaluator, Solution, best_of

if TYPE_CHECKING:
    from .orchestrator import ElitistArchive

SELECTION_FRACTION = 0.35
MULTIPLIER_DECREASE = 0.9
MULTIPLIER_INCREASE = 1.0 / 0.9
MULTIPLIER_CAP = 1e4
AMS_SHIFT_FACTOR = 2.0
STDDEV_FLOOR_SCALE = 1e-15
# A search counts as converged once its sampling spread falls below this;
# tight enough that the elitist best is orders of magnitude inside the
# 1e-5 scoring accuracy, loose enough not to waste budget on polishing.
CONVERGED_SPREAD = 1e-7
TARGET_GAP = 1e-12
GENERATION_CEILING = 2000
REEXPLORATION_PERIOD = 5
ELITE_TEST_POINTS = 5  # per hill-valley test against an archived elite
WINDOW = 5  # generations over which the convergence rate is estimated
GEN_CAP_MULTIPLIER = 50


class TerminationReason(enum.Enum):
    REEXPLORED_NICHE = "reexplored_niche"
    LOCAL_MINIMUM_PREDICTED = "local_minimum_predicted"
    MAXED_OUT = "maxed_out"
    BUDGET_EXHAUSTED = "budget_exhausted"  # never returned; the benchmark ledger lists it
    CONVERGED = "converged"


@dataclass
class CoreSearchState:
    mean: np.ndarray
    stddev: np.ndarray
    multiplier: float
    population: tuple[np.ndarray, np.ndarray]  # (x, f)
    generation: int
    best: Solution
    stddev_floor: np.ndarray  # the least spread per dimension, fixed per search


@dataclass
class ConvergenceTracker:
    """Exponential-convergence bookkeeping for one core search.

    ``b`` approximates the global minimum (best archived elite); the
    history holds the average selection fitness of the most recent
    WINDOW + 1 generations.
    """

    b: float
    history: deque = field(default_factory=lambda: deque(maxlen=WINDOW + 1))

    def record(self, a_g: float) -> None:
        self.history.append(a_g)

    @property
    def full(self) -> bool:
        return len(self.history) == WINDOW + 1


def estimate_rate(delta_old: float, delta_new: float) -> float:
    """Convergence-rate estimate over the last WINDOW generations.

    r = 1 - (1 - (delta_old - delta_new)/delta_old)^(1/WINDOW), i.e. the
    per-generation shrink factor of the fitness gap under the exponential
    model delta_{g+1} = delta_g * (1 - r).
    """
    ratio = 1.0 - (delta_old - delta_new) / delta_old
    if ratio <= 0.0:
        return 1.0
    return 1.0 - ratio ** (1.0 / WINDOW)


def time_to_optimum(delta_new: float, delta_old: float) -> float:
    """Predicted generations until the fitness gap reaches TARGET_GAP."""
    if delta_new <= TARGET_GAP:
        return 0.0
    return math.log(TARGET_GAP / delta_new) / ((1.0 / WINDOW) * math.log(delta_new / delta_old))


def check_convergence_termination(t: ConvergenceTracker, g: int,
                                  gen_cap: int) -> bool:
    """Predict convergence to a local minimum from the gap history.

    Requires a full window. Does not terminate while the gap is negative
    (mean already better than the reference), while the rate estimate is
    non-positive (still exploratory), or unless the gap decreased in each
    of the last WINDOW generations. Otherwise terminates when the current
    generation plus the predicted time to optimum exceeds
    GEN_CAP_MULTIPLIER times gen_cap.
    """
    if not t.full:
        raise ValueError("tracker window not yet full")
    delta_new = t.history[-1] - t.b
    delta_old = t.history[0] - t.b
    if delta_new < 0.0:
        return False
    if delta_old <= 0.0:
        return False
    r = estimate_rate(delta_old, delta_new)
    if r <= 0.0:
        return False
    if not all(new < old for old, new in itertools.pairwise(t.history)):
        return False
    tto = time_to_optimum(delta_new, delta_old)
    return g + tto > GEN_CAP_MULTIPLIER * gen_cap


def init_from_cluster(c: Cluster, pop_size: int, e: BudgetedEvaluator,
                      rng: np.random.Generator,
                      min_spread: np.ndarray) -> CoreSearchState:
    """Fit the initial Gaussian to a cluster and top up its population.

    ``min_spread`` (per-dimension) widens degenerate fits: a singleton or
    very tight cluster would otherwise start with near-zero variance and
    converge on the spot without descending into its valley.
    """
    if not len(c):
        raise ValueError("cluster must be non-empty")
    mean = c.x.mean(axis=0)
    if len(c) > 1:
        stddev = c.x.std(axis=0, ddof=1)
    else:
        stddev = np.zeros(e.spec.dimension)
    floor = STDDEV_FLOOR_SCALE * (e.spec.upper - e.spec.lower)
    stddev = np.maximum(np.maximum(stddev, floor), min_spread)
    pop_x, pop_f = c.x, c.f
    n_extra = pop_size - len(c)
    if n_extra > 0:
        samples = e.spec.clamp(
            mean + stddev * rng.standard_normal((n_extra, e.spec.dimension)))
        x, f = e.evaluate_batch(samples)
        pop_x, pop_f = np.vstack([pop_x, x]), np.concatenate([pop_f, f])
    return CoreSearchState(mean=mean, stddev=stddev, multiplier=1.0,
                           population=(pop_x, pop_f), generation=0,
                           best=best_of(pop_x, pop_f), stddev_floor=floor)


def generation_step(s: CoreSearchState, e: BudgetedEvaluator,
                    rng: np.random.Generator) -> float:
    """Advance the search by one generation; returns the selection mean
    fitness (a_g) used by the convergence tracker.

    The mean, spread and a_g are the reductions and divisions of numpy's
    ``_mean`` and ``_var`` without their wrappers, so they equal ``np.mean``
    and ``np.std(ddof=0)`` bit for bit.
    """
    spec = e.spec
    pop_x, pop_f = s.population
    pop_size = len(pop_f)
    n_sel = math.ceil(SELECTION_FRACTION * pop_size)
    selection = np.argsort(pop_f, kind="stable")[:n_sel]
    a_g = float(np.add.reduce(pop_f[selection]) / n_sel)
    sel_x = pop_x[selection]

    old_mean = s.mean
    s.mean = np.add.reduce(sel_x, axis=0) / n_sel
    dev = sel_x - s.mean
    s.stddev = np.maximum(np.sqrt(np.add.reduce(dev * dev, axis=0) / n_sel), s.stddev_floor)
    mean_shift = s.mean - old_mean

    n_off = max(pop_size - 1, 1)
    xs = s.mean + s.multiplier * s.stddev * rng.standard_normal((n_off, spec.dimension))
    n_ams = min(math.ceil(0.5 * SELECTION_FRACTION * pop_size), n_off)
    xs[:n_ams] += AMS_SHIFT_FACTOR * mean_shift
    next_x = np.empty((n_off + 1, spec.dimension))  # offspring rows, then the elite
    next_x[:n_off] = spec.clamp(xs)

    off_x, off_f = e.evaluate_batch(next_x[:n_off])
    if np.minimum.reduce(off_f) < s.best.f:
        s.best = best_of(off_x, off_f)
        spread = s.multiplier * s.stddev
        beyond = np.any(np.abs(s.best.x - s.mean) > spread)
        if beyond:
            s.multiplier = min(s.multiplier * MULTIPLIER_INCREASE, MULTIPLIER_CAP)
    else:
        s.multiplier *= MULTIPLIER_DECREASE

    next_x[n_off] = s.best.x
    s.population = (next_x, np.concatenate((off_f, [s.best.f])))
    s.generation += 1
    return a_g


def check_reexploration(s: Solution, archive: "ElitistArchive",
                        e: BudgetedEvaluator) -> bool:
    """True when ``s`` is in an explored niche: it shares a niche with its
    nearest elite, and that elite is at least as fit (a less fit one stems
    from a search cut short). Checked before and during each core search.
    """
    if not len(archive):
        return False
    i = archive.nearest_index(s.x)
    if archive.f[i] > s.f:
        return False
    return hill_valley_test(s, archive.elite(i), ELITE_TEST_POINTS, e).same_niche


def run_core_search(c: Cluster, pop_size: int, archive: "ElitistArchive",
                    e: BudgetedEvaluator, rng: np.random.Generator,
                    min_spread: np.ndarray
                    ) -> tuple[Solution, TerminationReason, int]:
    """Run one core search to termination.

    Returns the best solution found, the termination reason, and the
    number of generations executed.
    """
    state = init_from_cluster(c, pop_size, e, rng, min_spread)
    tracker = ConvergenceTracker(b=archive.best_fitness) if len(archive) else None

    while True:
        if state.generation >= GENERATION_CEILING:
            return state.best, TerminationReason.MAXED_OUT, state.generation
        a_g = generation_step(state, e, rng)
        if tracker is not None:
            tracker.record(a_g)

        if float(np.maximum.reduce(state.stddev)) * state.multiplier < CONVERGED_SPREAD:
            return state.best, TerminationReason.CONVERGED, state.generation
        if (state.generation % REEXPLORATION_PERIOD == 0
                and check_reexploration(state.best, archive, e)):
            return (state.best, TerminationReason.REEXPLORED_NICHE,
                    state.generation)
        if (tracker is not None and tracker.full
                and check_convergence_termination(tracker, state.generation, archive.gen_cap)):
            return (state.best, TerminationReason.LOCAL_MINIMUM_PREDICTED,
                    state.generation)
