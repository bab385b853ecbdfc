"""Hill-Valley same-niche test and hill-valley clustering.

Two solutions share a niche when no point sampled on the segment between
them is worse than both endpoints. Clustering applies the test along
nearest-better-neighbor edges in fitness-sorted order; test solutions are
kept and attached to whichever cluster the tested solution ends up in.

Clustering batches its tests without changing which points are
evaluated. A solution's first test, against its nearest better neighbor,
has endpoints, point count and threshold fixed before any test runs, so
the first tests of a block of solutions run together in rounds: round k
evaluates test point k of every pair still undecided, in one objective
call, and a pair that meets a violator is never evaluated again. That is
the sequential early stop, so the evaluations are exactly the sequential
ones. Cluster assignment and the rare fallback tests against further
neighbors stay sequential in rank order. A solution takes at most
1 + d tests of at most MAX_TEST_POINTS points, and a block holds
``max(1, remaining // ((1 + d) * MAX_TEST_POINTS))`` solutions, so even
its worst case fits the remaining budget. Near the end of the budget a
block is one solution, which is the sequential algorithm, so the budget
runs out at the same evaluation as it would there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .problem import BudgetedEvaluator, BudgetExhausted, Solution

# Upper bound on test points per pair; the count grows with the distance
# between the endpoints relative to the expected nearest-neighbor spacing.
MAX_TEST_POINTS = 5

# Extra nearest-better attempts (beyond the first) per dimension.
EXTRA_ATTEMPTS_PER_DIM = 1


@dataclass
class HillValleyOutcome:
    same_niche: bool
    accepted_tests: list[Solution]
    violator: Solution | None = None


@dataclass
class Cluster:
    members: list[Solution]

    @property
    def best(self) -> int:
        fs = [m.f for m in self.members]
        return int(np.argmin(fs))

    @property
    def best_solution(self) -> Solution:
        return self.members[self.best]


def hill_valley_tests(starts: np.ndarray, ends: np.ndarray,
                      worst: np.ndarray, n_test: np.ndarray,
                      e: BudgetedEvaluator) -> list[HillValleyOutcome]:
    """Run one hill-valley test per row pair, all pairs in lockstep.

    Pair p samples ``n_test[p]`` equidistant interior points on the
    segment from ``starts[p]`` to ``ends[p]`` and accepts iff none is
    worse than ``worst[p]``. Round k evaluates point k of every pair still
    undecided in one ``evaluate_batch`` call; a pair stops at its first
    violating point, which is excluded from its accepted tests. A pair
    with ``n_test`` 0 is accepted without evaluations.
    """
    outcomes = [HillValleyOutcome(True, []) for _ in range(len(starts))]
    live = np.flatnonzero(n_test > 0)
    k = 1
    while live.size:
        t = k / (n_test[live] + 1)
        a = starts[live]
        sols = e.evaluate_batch(a + t[:, None] * (ends[live] - a))
        violated = np.array([s.f for s in sols]) > worst[live]
        for p, sol, bad in zip(live.tolist(), sols, violated.tolist()):
            if bad:
                outcomes[p].same_niche = False
                outcomes[p].violator = sol
            else:
                outcomes[p].accepted_tests.append(sol)
        live = live[~violated & (n_test[live] > k)]
        k += 1
    return outcomes


def hill_valley_test(a: Solution, b: Solution, n_test: int,
                     e: BudgetedEvaluator) -> HillValleyOutcome:
    """Decide whether ``a`` and ``b`` occupy the same valley.

    Samples ``n_test`` equidistant interior points on the segment from
    ``a`` to ``b`` (in that order) and accepts iff every point is no worse
    than the worse endpoint. Stops at the first violating point, which is
    excluded from the returned test solutions.
    """
    if np.array_equal(a.x, b.x):
        return HillValleyOutcome(True, [])
    if n_test < 1:
        raise ValueError("n_test must be >= 1 for distinct endpoints")
    return hill_valley_tests(a.x[None, :], b.x[None, :],
                             np.array([max(a.f, b.f)]), np.array([n_test]), e)[0]


def expected_edge_length(spec, pop_size: int) -> float:
    """Expected nearest-neighbor spacing of a uniform population."""
    volume = float(np.prod(spec.upper - spec.lower))
    return (volume / pop_size) ** (1.0 / spec.dimension)


def test_point_count(a: Solution, b: Solution, edge_length: float) -> int:
    return int(_test_point_counts(a.x[None, :], b.x[None, :], edge_length)[0])


def _test_point_counts(starts: np.ndarray, ends: np.ndarray,
                       edge_length: float) -> np.ndarray:
    """Test points per row pair: one per expected edge length, capped."""
    diff = starts - ends
    # A row-wise matmul runs the same dot kernel as ``np.linalg.norm`` of
    # one vector, so a batched count equals a pairwise one bit for bit;
    # summing the squares can round differently.
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    return np.minimum(MAX_TEST_POINTS, 1 + (dist / edge_length).astype(int))


def cluster_population(pop: list[Solution],
                       e: BudgetedEvaluator) -> list[Cluster]:
    """Partition a population into niches via hill-valley clustering.

    Solutions are visited in ascending-fitness order; each is tested
    against its nearest better neighbor and, on failure, against up to d
    further nearest better neighbors in clusters not yet tried. Accepted
    test solutions travel with the solution into its final cluster. On
    budget exhaustion the clusters built so far are returned. The first
    tests run in blocks and rounds as the module docstring describes.
    """
    if not pop:
        raise ValueError("population must be non-empty")
    spec = e.spec
    d = spec.dimension
    order = sorted(range(len(pop)), key=lambda i: (pop[i].f, i))
    ranked = [pop[i] for i in order]
    xs = np.array([s.x for s in ranked])
    fs = np.array([s.f for s in ranked])
    coords = xs / (spec.upper - spec.lower)  # box-normalized
    edge = expected_edge_length(spec, len(pop))

    clusters: list[Cluster] = [Cluster([ranked[0]])]
    cluster_of = [0]
    max_attempts = 1 + d * EXTRA_ATTEMPTS_PER_DIM
    n = len(ranked)

    # Only a handful of nearest better neighbors are ever inspected.
    # A KD-tree shortlist avoids the O(n^2 d) brute-force distance pass;
    # the rare solution that exhausts its shortlist falls back to a full
    # scan of its better predecessors.
    shortlist_k = min(n, 8 * max_attempts)
    nn = cKDTree(coords).query(coords, k=shortlist_k)[1] if n > shortlist_k else None

    def better_neighbors(i):
        seen: set[int] = set()
        if nn is not None:
            for j in nn[i]:
                if j < i:
                    seen.add(int(j))
                    yield int(j)
            if len(seen) == i:
                return
        dists = ((coords[:i] - coords[i]) ** 2).sum(axis=1)
        for j in np.argsort(dists, kind="stable"):
            if int(j) not in seen:
                yield int(j)

    # The first neighbor better_neighbors(i) yields, for every i >= 1.
    if nn is not None:
        below = nn < np.arange(n)[:, None]
        nearest = nn[np.arange(n), below.argmax(axis=1)]
        missing = np.flatnonzero(~below.any(axis=1))
    else:
        nearest = np.zeros(n, dtype=int)
        missing = np.arange(n)
    for i in missing[missing > 0]:
        nearest[i] = next(better_neighbors(i))

    worst_case = max_attempts * MAX_TEST_POINTS  # evaluations per solution
    start = 1
    while start < n:
        stop = min(n, start + max(1, e.remaining // worst_case))
        near = nearest[start:stop]
        n_test = _test_point_counts(xs[start:stop], xs[near], edge)
        n_test[(xs[start:stop] == xs[near]).all(axis=1)] = 0
        try:
            firsts = hill_valley_tests(xs[start:stop], xs[near],
                                       np.maximum(fs[start:stop], fs[near]),
                                       n_test, e)
        except BudgetExhausted:
            return clusters
        for i, first in zip(range(start, stop), firsts):
            x = ranked[i]
            pending = first.accepted_tests
            target = cluster_of[nearest[i]] if first.same_niche else None
            if target is None:
                tried = {cluster_of[nearest[i]]}
                try:
                    for j in better_neighbors(i):
                        cid = cluster_of[j]
                        if cid in tried:
                            continue
                        if len(tried) >= max_attempts:
                            break
                        tried.add(cid)
                        n_test_j = test_point_count(x, ranked[j], edge)
                        outcome = hill_valley_test(x, ranked[j], n_test_j, e)
                        pending.extend(outcome.accepted_tests)
                        if outcome.same_niche:
                            target = cid
                            break
                except BudgetExhausted:
                    return clusters
            if target is None:
                clusters.append(Cluster([x] + pending))
                cluster_of.append(len(clusters) - 1)
            else:
                clusters[target].members.append(x)
                clusters[target].members.extend(pending)
                cluster_of.append(target)
        start = stop
    return clusters
