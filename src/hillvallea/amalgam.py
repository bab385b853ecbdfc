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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .hillvalley import hill_valley_test
from .problem import BudgetedEvaluator, best_of

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
    best: tuple[np.ndarray, float]  # (x, f)
    stddev_floor: np.ndarray  # the least spread per dimension, fixed per search


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


def check_convergence_termination(history: deque, b: float, g: int,
                                  gen_cap: int) -> bool:
    """Predict convergence to a local minimum from the gap history.

    ``history`` holds the average selection fitness of the most recent
    generations, at most WINDOW + 1 of them; ``b`` approximates the global
    minimum (the best archived elite, +inf with none), and the gap is their
    difference. Does not terminate before the window is full, while the gap
    is negative (mean already better than the reference), while the oldest
    gap is not finite and positive, while the rate estimate is
    non-positive (still exploratory), or unless the gap decreased in each
    of the last WINDOW generations. Otherwise terminates when the current
    generation plus the predicted time to optimum exceeds
    GEN_CAP_MULTIPLIER times ``gen_cap`` (the archive's
    ``max_generation``).
    """
    if len(history) <= WINDOW:
        return False
    delta_new = history[-1] - b
    delta_old = history[0] - b
    if delta_new < 0.0:
        return False
    if not 0.0 < delta_old < math.inf:  # an infinite one has no rate
        return False
    r = estimate_rate(delta_old, delta_new)
    if r <= 0.0:
        return False
    if not all(new < old for old, new in itertools.pairwise(history)):
        return False
    tto = time_to_optimum(delta_new, delta_old)
    return g + tto > GEN_CAP_MULTIPLIER * gen_cap


def init_from_cluster(c: tuple[np.ndarray, np.ndarray], pop_size: int,
                      e: BudgetedEvaluator, rng: np.random.Generator,
                      min_spread: np.ndarray) -> CoreSearchState:
    """Fit the initial Gaussian to a cluster ``(x, f)`` and top up its
    population.

    ``min_spread`` (per-dimension) widens degenerate fits: a singleton or
    very tight cluster would otherwise start with near-zero variance and
    converge on the spot without descending into its valley.
    """
    pop_x, pop_f = c
    if not len(pop_f):
        raise ValueError("cluster must be non-empty")
    mean = pop_x.mean(axis=0)
    if len(pop_f) > 1:
        stddev = pop_x.std(axis=0, ddof=1)
    else:
        stddev = np.zeros(e.spec.dimension)
    floor = STDDEV_FLOOR_SCALE * (e.spec.upper - e.spec.lower)
    stddev = np.maximum(np.maximum(stddev, floor), min_spread)
    n_extra = pop_size - len(pop_f)
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
    fitness (a_g) that the convergence prediction reads.

    The mean, spread and a_g are the reductions and divisions of numpy's
    ``_mean`` and ``_var`` without their wrappers, so they equal ``np.mean``
    and ``np.std(ddof=0)`` bit for bit.
    """
    spec = e.spec
    pop_x, pop_f = s.population
    pop_size = len(pop_f)
    n_sel = math.ceil(SELECTION_FRACTION * pop_size)
    selection = pop_f.argsort(kind="stable")[:n_sel]
    # Huge finite fitness can sum past the floats, to +-inf or, with a +inf
    # term, NaN; the convergence prediction declines such an a_g.
    with np.errstate(over="ignore", invalid="ignore"):
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
    if np.minimum.reduce(off_f) < s.best[1]:
        s.best = best_of(off_x, off_f)
        spread = s.multiplier * s.stddev
        if (np.abs(s.best[0] - s.mean) > spread).any():
            s.multiplier = min(s.multiplier * MULTIPLIER_INCREASE, MULTIPLIER_CAP)
    else:
        s.multiplier *= MULTIPLIER_DECREASE

    next_x[n_off], best_f = s.best
    s.population = (next_x, np.concatenate((off_f, [best_f])))
    s.generation += 1
    return a_g


def check_reexploration(s: tuple[np.ndarray, float], archive: "ElitistArchive",
                        e: BudgetedEvaluator) -> bool:
    """True when the point ``s = (x, f)`` is in an explored niche: it shares
    a niche with its nearest elite, and that elite is at least as fit (a
    less fit one stems from a search cut short). Checked before and during
    each core search.
    """
    if not len(archive):
        return False
    elite = archive.nearest(s[0])[1]
    return elite[1] <= s[1] and hill_valley_test(s, elite, ELITE_TEST_POINTS, e).same_niche


def run_core_search(c: tuple[np.ndarray, np.ndarray], pop_size: int,
                    archive: "ElitistArchive", e: BudgetedEvaluator,
                    rng: np.random.Generator, min_spread: np.ndarray
                    ) -> tuple[tuple[np.ndarray, float], TerminationReason, int]:
    """Run one core search to termination.

    Returns the best point ``(x, f)`` found, the termination reason, and the
    number of generations executed. The archive is not changed during a
    search, so its best fitness ``b`` and its ``max_generation`` are read
    once; with no elite yet ``b`` is +inf, every gap is then negative or
    undefined, and convergence is never predicted.
    """
    state = init_from_cluster(c, pop_size, e, rng, min_spread)
    b, gen_cap = archive.best_fitness, archive.max_generation
    history = deque(maxlen=WINDOW + 1)

    while True:
        if state.generation >= GENERATION_CEILING:
            return state.best, TerminationReason.MAXED_OUT, state.generation
        history.append(generation_step(state, e, rng))

        if float(np.maximum.reduce(state.stddev)) * state.multiplier < CONVERGED_SPREAD:
            return state.best, TerminationReason.CONVERGED, state.generation
        if (state.generation % REEXPLORATION_PERIOD == 0
                and check_reexploration(state.best, archive, e)):
            return (state.best, TerminationReason.REEXPLORED_NICHE,
                    state.generation)
        if check_convergence_termination(history, b, state.generation, gen_cap):
            return (state.best, TerminationReason.LOCAL_MINIMUM_PREDICTED,
                    state.generation)
