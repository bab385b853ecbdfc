"""Outer HillVallEA loop: restart scheme, cluster dispatch, elitist
archive maintenance, and the final local-optimum filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import amalgam
from .amalgam import TerminationReason, run_core_search
from .hillvalley import cluster_population, hill_valley_test
from .problem import (BudgetedEvaluator, BudgetExhausted, ProblemSpec,
                      Solution, uniform_init)

INITIAL_POP_PER_DIM = 2 ** 6
RESTART_GROWTH = 2
POSTPROCESS_TOLERANCE = 1e-5
DEFAULT_GEN_CAP = 100  # used while the archive is still empty
ARCHIVE_TEST_POINTS = 5


def initial_population_size(dimension: int, round_index: int = 0) -> int:
    return INITIAL_POP_PER_DIM * dimension * RESTART_GROWTH ** round_index


def min_core_population(dimension: int) -> int:
    return 8 + math.ceil(2.0 * math.sqrt(dimension))


@dataclass
class ElitistArchive:
    """Distinct-niche best solutions found so far."""

    elites: list[Solution] = field(default_factory=list)
    insertion_generation: list[int] = field(default_factory=list)
    _max_insertion_generation: int = 0

    def __len__(self) -> int:
        return len(self.elites)

    @property
    def best_fitness(self) -> float:
        return min(s.f for s in self.elites)

    @property
    def gen_cap(self) -> int:
        """Max generations any core search needed to find an elite."""
        if not self.elites:
            return DEFAULT_GEN_CAP
        return max(self._max_insertion_generation, 1)

    def nearest_index(self, x: np.ndarray) -> int:
        """Index of the elite closest to ``x`` (first one on ties)."""
        xs = np.array([s.x for s in self.elites])
        return int(np.argmin(np.linalg.norm(xs - x, axis=1)))


def archive_insert(a: ElitistArchive, s: Solution, gens: int,
                   e: BudgetedEvaluator) -> str:
    """Insert a core-search best into the archive.

    Hill-valley-tested against the nearest elite: a different niche
    appends, a same-niche improvement replaces, anything else is
    discarded. Returns one of "appended", "replaced", "discarded".
    """
    if not a.elites:
        a.elites.append(s.copy())
        a.insertion_generation.append(gens)
        a._max_insertion_generation = max(a._max_insertion_generation, gens)
        return "appended"
    idx = a.nearest_index(s.x)
    try:
        outcome = hill_valley_test(s, a.elites[idx], ARCHIVE_TEST_POINTS, e)
    except BudgetExhausted:
        return "discarded"
    if not outcome.same_niche:
        a.elites.append(s.copy())
        a.insertion_generation.append(gens)
        a._max_insertion_generation = max(a._max_insertion_generation, gens)
        return "appended"
    if s.f < a.elites[idx].f:
        a.elites[idx] = s.copy()
        a.insertion_generation[idx] = gens
        a._max_insertion_generation = max(a._max_insertion_generation, gens)
        return "replaced"
    return "discarded"


def postprocess_archive(a: ElitistArchive) -> list[Solution]:
    """Keep only elites within the fitness tolerance of the best one."""
    if not a.elites:
        return []
    b = a.best_fitness
    return [s.copy() for s in a.elites if s.f <= b + POSTPROCESS_TOLERANCE]


@dataclass
class RunReport:
    """Outcome of one HillVallEA run, published fitness orientation."""

    problem_id: int
    seed: int
    evaluations: int
    solutions: list[Solution]  # f in published orientation

    def serialize(self) -> str:
        lines = [f"{self.problem_id} {self.seed} {self.evaluations}"]
        for s in self.solutions:
            coords = " ".join(repr(float(v)) for v in s.x)
            lines.append(f"{coords} {repr(float(s.f))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "RunReport":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty report")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError("line 1: expected 'problem_id seed evaluations'")
        problem_id, seed, evaluations = (int(v) for v in head)
        solutions = []
        width = None
        for lineno, ln in enumerate(lines[1:], start=2):
            parts = ln.split()
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: expected coordinates and fitness")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(f"line {lineno}: inconsistent coordinate count")
            values = [float(v) for v in parts]
            solutions.append(Solution(np.array(values[:-1]), values[-1]))
        return cls(problem_id, seed, evaluations, solutions)


def _precheck_skip(cluster_best: Solution, archive: ElitistArchive,
                   e: BudgetedEvaluator) -> bool:
    """True when a cluster's best already sits in an archived niche.

    A niche only counts as explored when its elite is at least as fit as
    the cluster's best; otherwise the archived entry stems from a search
    that was cut short and the niche deserves another search.
    """
    if not archive.elites:
        return False
    elite = archive.elites[archive.nearest_index(cluster_best.x)]
    if elite.f > cluster_best.f:
        return False
    outcome = hill_valley_test(cluster_best, elite, ARCHIVE_TEST_POINTS, e)
    return outcome.same_niche


def run_hillvallea(spec: ProblemSpec, seed: int) -> RunReport:
    """Run the restart loop on one problem until the budget is spent."""
    rng = np.random.default_rng(seed)
    e = BudgetedEvaluator(spec)
    archive = ElitistArchive()
    round_index = 0
    min_pop = min_core_population(spec.dimension)

    try:
        while True:
            try:
                pop = uniform_init(
                    e, initial_population_size(spec.dimension, round_index), rng)
            except BudgetExhausted as exc:
                # A degenerate budget still yields a report from the
                # partial sample.
                if exc.partial and not archive.elites:
                    best = min(exc.partial, key=lambda s: s.f)
                    archive_insert(archive, best, 0, e)
                raise
            clusters = cluster_population(pop, e)
            clusters.sort(key=lambda c: c.best_solution.f)
            # Initial Gaussian spread never below half the expected
            # sample spacing, so tiny clusters still search their valley.
            min_spread = 0.5 * (spec.upper - spec.lower) * len(pop) ** (-1.0 / spec.dimension)
            for cluster in clusters:
                if _precheck_skip(cluster.best_solution, archive, e):
                    continue
                pop_size = max(len(cluster.members), min_pop)
                best, reason, gens = run_core_search(
                    cluster, pop_size, archive, e, rng, archive.gen_cap,
                    min_spread=min_spread)
                archive_insert(archive, best, gens, e)
                if reason is TerminationReason.BUDGET_EXHAUSTED:
                    raise BudgetExhausted()
            round_index += 1
    except BudgetExhausted:
        pass

    reported = postprocess_archive(archive)
    published = [Solution(s.x, float(spec.to_published(s.f))) for s in reported]
    return RunReport(problem_id=spec.id, seed=seed,
                     evaluations=e.used, solutions=published)
