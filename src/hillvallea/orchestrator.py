"""Outer HillVallEA loop: restart scheme, cluster dispatch, elitist
archive maintenance, and the final local-optimum filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .amalgam import ELITE_TEST_POINTS, check_reexploration, run_core_search
from .hillvalley import cluster_population, hill_valley_test, squared_distances
from .problem import (BudgetedEvaluator, BudgetExhausted, ProblemSpec,
                      best_of, uniform_init)

INITIAL_POP_PER_DIM = 2 ** 6
RESTART_GROWTH = 2
POSTPROCESS_TOLERANCE = 1e-5


def initial_population_size(dimension: int, round_index: int = 0) -> int:
    return INITIAL_POP_PER_DIM * dimension * RESTART_GROWTH ** round_index


def min_core_population(dimension: int) -> int:
    return 8 + math.ceil(2.0 * math.sqrt(dimension))


@dataclass
class ElitistArchive:
    """Distinct-niche best solutions found so far.

    The elites are the rows of one (k, d) matrix ``x`` with fitness ``f``,
    a population pair; an empty archive holds a (0, 0) matrix, takes its
    width from the first elite added, and has best fitness +inf. Elites
    come in and, from ``nearest``, go out as points ``(x, f)``.
    ``max_generation`` is the most generations any inserted core search
    took, and at least 1.
    """

    x: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    f: np.ndarray = field(default_factory=lambda: np.empty(0))
    max_generation: int = 1

    def __len__(self) -> int:
        return len(self.f)

    @property
    def best_fitness(self) -> float:
        return float(self.f.min(initial=np.inf))

    def nearest(self, x: np.ndarray) -> tuple[int, tuple[np.ndarray, float]]:
        """The elite closest to ``x`` (first one on ties): its index ``i``
        and the point ``(x[i], f[i])``, with its fitness as a Python float.
        Closest by the distances of ``squared_distances``; their ``sqrt``
        can merge squares, which decides ties. Below eight coordinates these
        are the ``np.linalg.norm`` distances bit for bit; from eight on,
        each row's squares are added left to right, as in clustering, where
        numpy sums them pairwise."""
        i = int(np.sqrt(squared_distances(self.x, x)).argmin())
        return i, (self.x[i], float(self.f[i]))

    def add(self, s: tuple[np.ndarray, float], gens: int) -> None:
        self.x = np.vstack([self.x.reshape(-1, len(s[0])), s[0]])
        self.f = np.append(self.f, s[1])
        self.max_generation = max(self.max_generation, gens)

    def replace(self, i: int, s: tuple[np.ndarray, float], gens: int) -> None:
        self.x[i], self.f[i] = s
        self.max_generation = max(self.max_generation, gens)


def archive_insert(a: ElitistArchive, s: tuple[np.ndarray, float], gens: int,
                   e: BudgetedEvaluator) -> str:
    """Insert a core-search best ``(x, f)`` into the archive.

    Hill-valley-tested against the nearest elite: a different niche
    appends, a same-niche improvement replaces, anything else is
    discarded. Returns one of "appended", "replaced", "discarded".
    """
    if len(a):
        idx, elite = a.nearest(s[0])
        if hill_valley_test(s, elite, ELITE_TEST_POINTS, e).same_niche:
            if s[1] < elite[1]:
                a.replace(idx, s, gens)
                return "replaced"
            return "discarded"
    a.add(s, gens)
    return "appended"


def postprocess_archive(a: ElitistArchive) -> tuple[np.ndarray, np.ndarray]:
    """Keep only elites within the fitness tolerance of the best one, as a
    population pair; an empty archive gives ``(0, 0)`` and ``(0,)`` arrays."""
    keep = a.f <= a.best_fitness + POSTPROCESS_TOLERANCE
    return a.x[keep], a.f[keep]


@dataclass
class RunReport:
    """Outcome of one HillVallEA run: the reported population pair
    ``solutions = (x, f)``, with ``f`` in published orientation."""

    problem_id: int
    seed: int
    evaluations: int
    solutions: tuple[np.ndarray, np.ndarray]

    def __eq__(self, other) -> bool:
        """Reports are equal when they serialize alike (the generated
        ``==`` would compare the arrays element-wise)."""
        return isinstance(other, RunReport) and self.serialize() == other.serialize()

    def serialize(self) -> str:
        lines = [f"{self.problem_id} {self.seed} {self.evaluations}"]
        for x, f in zip(*self.solutions):
            lines.append(" ".join(repr(float(v)) for v in (*x, f)))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "RunReport":
        lines = [(lineno, ln.split())
                 for lineno, ln in enumerate(text.splitlines(), start=1)
                 if ln.strip()]
        if not lines:
            raise ValueError("empty report")
        lineno, head = lines[0]
        rows = []
        try:  # every error names its line in the text
            if len(head) != 3:
                raise ValueError("expected 'problem_id seed evaluations'")
            problem_id, seed, evaluations = (int(v) for v in head)
            for lineno, parts in lines[1:]:
                if len(parts) < 2:
                    raise ValueError("expected coordinates and fitness")
                if rows and len(parts) != len(rows[0]):
                    raise ValueError("inconsistent coordinate count")
                rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        table = np.array(rows) if rows else np.empty((0, 1))
        return cls(problem_id, seed, evaluations, (table[:, :-1], table[:, -1]))


# The pre-check: True when a cluster's best already sits in an explored
# niche. A name of its own only so that perfbench's ledger can wrap the
# pre-check apart from the in-search check; it goes once the ledger reads
# a run trace.
_precheck_skip = check_reexploration


def run_hillvallea(spec: ProblemSpec, seed: int) -> RunReport:
    """Run the restart loop on one problem until the budget is spent.

    The run ends at the evaluation that does not fit the budget, wherever
    it is made, and reports the archive as it stood then; a run that ends
    before its first archive insert reports the best point it evaluated.
    """
    rng = np.random.default_rng(seed)
    e = BudgetedEvaluator(spec)
    archive = ElitistArchive()
    round_index = 0
    min_pop = min_core_population(spec.dimension)

    try:
        while True:
            size = initial_population_size(spec.dimension, round_index)
            pop = uniform_init(e, size, rng)
            clusters = cluster_population(pop, e)
            clusters.sort(key=lambda c: c[1].min())
            # Initial Gaussian spread never below half the expected
            # sample spacing, so tiny clusters still search their valley.
            min_spread = 0.5 * (spec.upper - spec.lower) * size ** (-1.0 / spec.dimension)
            for cluster in clusters:
                if _precheck_skip(best_of(*cluster), archive, e):
                    continue
                pop_size = max(len(cluster[1]), min_pop)
                best, _, gens = run_core_search(
                    cluster, pop_size, archive, e, rng, min_spread=min_spread)
                archive_insert(archive, best, gens, e)
            round_index += 1
    except BudgetExhausted:
        if not len(archive):
            archive.add(e.best, 0)

    x, f = postprocess_archive(archive)
    return RunReport(problem_id=spec.id, seed=seed, evaluations=e.used,
                     solutions=(x, spec.to_published(f)))
