"""Hill-Valley same-niche test and hill-valley clustering.

Two solutions share a niche when no point sampled on the segment between
them is worse than both endpoints. Clustering applies the test along
nearest-better-neighbor edges in fitness-sorted order; test solutions are
kept and attached to whichever cluster the tested solution ends up in.

Clustering works on index arrays over the fitness-ranked population (an
``(x, f)`` pair, see ``problem``). It evaluates exactly the points the
sequential algorithm (visit the solutions in rank order, test, assign,
append) evaluates, and returns the same clusters, numbered alike, with
the same members in the same order.

First tests in rounds. A solution's first test, against its nearest
better neighbor, has endpoints, point count and threshold fixed before
any test runs, so the first tests of a block of solutions run together:
round k evaluates test point k of every pair still undecided, in one
objective call, and a pair that meets a violator is never evaluated
again (the sequential early stop). A solution takes at most 1 + d tests
of at most MAX_TEST_POINTS points, and a block holds
``max(1, remaining // ((1 + d) * MAX_TEST_POINTS))`` solutions, so even
its worst case fits the remaining budget. Near the end of the budget a
block is one solution, which is the sequential algorithm, so the budget
runs out at the same evaluation as it would there.

Assignment by pointer jumping. A solution whose first test passes joins
the cluster of its nearest better neighbor, which is ranked before it.
So it points at that neighbor, a solution whose first test failed points
at itself, and ``root = root[root]`` repeated until stable leaves every
solution pointing at the first self-pointing solution down its chain,
whose cluster it shares. Only those roots run the fallback tests against
further neighbors, one at a time in rank order; the cluster of any
neighbor is that of its root, which is ranked before the solution under
test and so is already decided. A root that no test accepts founds the
next cluster, so clusters are numbered in the rank order of their
founders, as in the sequential algorithm. There a solution is appended
to its cluster followed by its accepted test points, solutions in rank
order; one stable sort of all members by (cluster, rank), with the
solutions ahead of the test points and the test points in evaluation
order, gives the same member order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .problem import BudgetedEvaluator, BudgetExhausted, Solution, best_of

# Upper bound on test points per pair; the count grows with the distance
# between the endpoints relative to the expected nearest-neighbor spacing.
MAX_TEST_POINTS = 5

# Extra nearest-better attempts (beyond the first) per dimension.
EXTRA_ATTEMPTS_PER_DIM = 1


@dataclass
class HillValleyOutcome:
    same_niche: bool
    accepted_tests: tuple[np.ndarray, np.ndarray]  # (x, f), in sampling order
    violator: Solution | None = None


@dataclass
class Cluster:
    """One niche: its members' (m, d) rows and (m,) fitness, in member order."""

    x: np.ndarray
    f: np.ndarray

    def __len__(self) -> int:
        return len(self.f)

    @property
    def best(self) -> int:
        return int(np.argmin(self.f))

    @property
    def best_solution(self) -> Solution:
        return best_of(self.x, self.f)


def hill_valley_tests(starts: np.ndarray, ends: np.ndarray,
                      worst: np.ndarray, n_test: np.ndarray,
                      e: BudgetedEvaluator
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run one hill-valley test per row pair, all pairs in lockstep.

    Pair p samples ``n_test[p]`` equidistant interior points on the
    segment from ``starts[p]`` to ``ends[p]``; a point is accepted unless
    it is worse than ``worst[p]``. Round k evaluates point k of every pair
    still undecided in one ``evaluate_batch`` call; a pair stops at its
    first rejected point, so a pair shares a niche iff it has no rejected
    point, and a rejected point is its pair's last. A pair with
    ``n_test`` 0 is accepted without evaluations.

    Returns every evaluated point in evaluation order: its pair, row,
    fitness and whether it was accepted.
    """
    owners, xs, fs, oks = [], [], [], []
    live = np.flatnonzero(n_test > 0)
    k = 1
    while live.size:
        t = k / (n_test[live] + 1)
        a = starts[live]
        x, f = e.evaluate_batch(a + t[:, None] * (ends[live] - a))
        ok = ~(f > worst[live])
        owners.append(live)
        xs.append(x)
        fs.append(f)
        oks.append(ok)
        live = live[ok & (n_test[live] > k)]
        k += 1
    if not owners:
        return (np.empty(0, dtype=int), np.empty((0, starts.shape[1])),
                np.empty(0), np.empty(0, dtype=bool))
    return (np.concatenate(owners), np.concatenate(xs), np.concatenate(fs),
            np.concatenate(oks))


def hill_valley_test(a: Solution, b: Solution, n_test: int,
                     e: BudgetedEvaluator) -> HillValleyOutcome:
    """Decide whether ``a`` and ``b`` occupy the same valley.

    Samples ``n_test`` equidistant interior points on the segment from
    ``a`` to ``b`` (in that order) and accepts iff every point is no worse
    than the worse endpoint. Stops at the first violating point, which is
    excluded from the returned test solutions.
    """
    if np.array_equal(a.x, b.x):
        return HillValleyOutcome(True, (np.empty((0, len(a.x))), np.empty(0)))
    if n_test < 1:
        raise ValueError("n_test must be >= 1 for distinct endpoints")
    _, x, f, ok = hill_valley_tests(a.x[None, :], b.x[None, :],
                                    np.array([max(a.f, b.f)]), np.array([n_test]), e)
    if ok[-1]:
        return HillValleyOutcome(True, (x, f))
    return HillValleyOutcome(False, (x[:-1], f[:-1]), Solution(x[-1], float(f[-1])))


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


def cluster_population(pop: tuple[np.ndarray, np.ndarray],
                       e: BudgetedEvaluator) -> list[Cluster]:
    """Partition a population ``(x, f)`` into niches via hill-valley clustering.

    Solutions are visited in ascending-fitness order; each is tested
    against its nearest better neighbor and, on failure, against up to d
    further nearest better neighbors in clusters not yet tried. Accepted
    test solutions travel with the solution into its final cluster. On
    budget exhaustion the clusters built so far are returned. Tests and
    assignment run as the module docstring describes.
    """
    pop_x, pop_f = pop
    n = len(pop_f)
    if n == 0:
        raise ValueError("population must be non-empty")
    spec = e.spec
    d = spec.dimension
    order = np.argsort(pop_f, kind="stable")
    xs, fs = pop_x[order], pop_f[order]
    coords = xs / (spec.upper - spec.lower)  # box-normalized
    edge = expected_edge_length(spec, n)
    max_attempts = 1 + d * EXTRA_ATTEMPTS_PER_DIM

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

    root = np.arange(n)  # root[i]: whose cluster i shares (final below start)
    label = np.zeros(n, dtype=int)  # cluster of each root; rank 0 founds 0
    n_clusters = 1
    tests = []  # (rank, x, f) of accepted test points, in evaluation order

    def fallback(i: int, block_tests: list) -> int:
        """Test root ``i`` against further neighbors; return its cluster."""
        a = Solution(xs[i], float(fs[i]))
        tried = {label[root[nearest[i]]]}
        for j in better_neighbors(i):
            cid = label[root[j]]
            if cid in tried:
                continue
            if len(tried) >= max_attempts:
                break
            tried.add(cid)
            b = Solution(xs[j], float(fs[j]))
            outcome = hill_valley_test(a, b, test_point_count(a, b, edge), e)
            tx, tf = outcome.accepted_tests
            block_tests.append((np.full(len(tf), i), tx, tf))
            if outcome.same_niche:
                return cid
        return -1

    worst_case = max_attempts * MAX_TEST_POINTS  # evaluations per solution
    start = 1
    try:
        while start < n:
            stop = min(n, start + max(1, e.remaining // worst_case))
            ranks = np.arange(start, stop)
            near = nearest[start:stop]
            n_test = _test_point_counts(xs[start:stop], xs[near], edge)
            n_test[(xs[start:stop] == xs[near]).all(axis=1)] = 0
            owner, tx, tf, ok = hill_valley_tests(
                xs[start:stop], xs[near], np.maximum(fs[start:stop], fs[near]),
                n_test, e)
            passed = np.ones(stop - start, dtype=bool)
            passed[owner[~ok]] = False
            block_tests = [(start + owner[ok], tx[ok], tf[ok])]
            root[start:stop] = np.where(passed, near, ranks)
            while True:
                jumped = root[root[start:stop]]
                if np.array_equal(jumped, root[start:stop]):
                    break
                root[start:stop] = jumped
            for i in ranks[~passed].tolist():
                cid = fallback(i, block_tests)
                if cid < 0:
                    cid = n_clusters
                    n_clusters += 1
                label[i] = cid
            label[start:stop] = label[root[start:stop]]
            tests.extend(block_tests)
            start = stop
    except BudgetExhausted:
        pass  # solutions from ``start`` on stay unassigned

    rank = np.concatenate([np.arange(start)] + [t[0] for t in tests])
    member = np.argsort(label[rank] * n + rank, kind="stable")
    mx = np.concatenate([xs[:start]] + [t[1] for t in tests])[member]
    mf = np.concatenate([fs[:start]] + [t[2] for t in tests])[member]
    bounds = np.cumsum(np.bincount(label[rank]))[:-1]
    return [Cluster(x, f) for x, f in zip(np.split(mx, bounds), np.split(mf, bounds))]
