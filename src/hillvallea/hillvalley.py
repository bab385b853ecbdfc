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
whose cluster it shares. Only those roots run fallback tests against
further neighbors; the cluster of any neighbor is that of its root.

Fallback tests in rounds. The roots of a block are labelled together.
Each round, every undecided root walks its neighbor list in rank order
up to its next test, skipping neighbors in clusters it has tried; it
waits while the root of its next neighbor is itself undecided. All tests
scheduled in a round then run in one ``hill_valley_tests`` call, each
pair with its own early stop. A root depends only on roots ranked before
it, so the lowest undecided root never waits and every round makes
progress. A block of two or more solutions cannot run out of budget (see
above), and a block of one runs its tests one after the other, which is
the sequential algorithm. A root that no test accepts founds a cluster
labelled by its own rank, so cluster labels sort in the rank order of
their founders, which is how the sequential algorithm numbers them.

Member order. The sequential algorithm appends a solution to its cluster
followed by its accepted test points, solutions in rank order. Each root's tests
run in later rounds than its earlier tests, so one stable sort of all
members by (cluster, rank), with the solutions ahead of the test points
and the test points in evaluation order, gives the same member order.

Neighbor order. The neighbors of rank i are the solutions ranked before
i in its KD-tree shortlist (its 8 * (1 + d) nearest), in shortlist order,
then, if the walk gets past them, the other better solutions by distance.
That order is ``argsort(kind="stable")`` of the distances, produced a
chunk at a time by ``nearest_first``, so a walk that stops early costs
O(i) instead of a full sort. A root's
walk, with its distance array, is dropped as soon as the root is
decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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


@dataclass
class Cluster:
    """One niche: its members' (m, d) rows and (m,) fitness, in member order."""

    x: np.ndarray
    f: np.ndarray

    def __len__(self) -> int:
        return len(self.f)

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
    than the worse endpoint. Stops at the first violating point. This is
    ``hill_valley_tests`` on one pair, bit for bit: the same arithmetic
    (``t = k / (n_test + 1)``, ``a + t * (b - a)``), one point per objective
    call, each compared with the worse endpoint in the same order.
    """
    if np.array_equal(a.x, b.x):
        return HillValleyOutcome(True)
    if n_test < 1:
        raise ValueError("n_test must be >= 1 for distinct endpoints")
    points = a.x + (np.arange(1, n_test + 1) / (n_test + 1))[:, None] * (b.x - a.x)
    for k in range(n_test):
        if e.evaluate_batch(points[k:k + 1])[1][0] > max(a.f, b.f):
            return HillValleyOutcome(False)
    return HillValleyOutcome(True)


def expected_edge_length(spec, pop_size: int) -> float:
    """Expected nearest-neighbor spacing of a uniform population."""
    volume = float(np.prod(spec.upper - spec.lower))
    return (volume / pop_size) ** (1.0 / spec.dimension)


def nearest_first(points: np.ndarray, x: np.ndarray, chunk: int) -> Iterator[int]:
    """Yield the row indices of ``points`` from nearest to ``x`` outwards,
    in ``argsort(kind="stable")`` order of the squared distances.

    Works a chunk at a time, so a caller that stops early pays O(len)
    rather than a full sort; each chunk is eight times the last, so a
    caller that walks far needs few chunks. Between chunks only the
    largest distance yielded so far is kept, and the next chunk computes
    the distances again, so a paused caller holds O(chunk) memory rather
    than O(len).
    """
    passed = -np.inf
    while passed < np.inf:
        order, passed = _next_chunk(points, x, passed, chunk)
        yield from order
        chunk *= 8


def _next_chunk(points: np.ndarray, x: np.ndarray, passed: float,
                chunk: int) -> tuple[list[int], float]:
    """The rows whose squared distance to ``x`` exceeds ``passed``, up to
    and including every tie of the ``chunk``-th smallest such distance, in
    (distance, index) order; and that distance, or inf if no row is left."""
    d = ((points - x) ** 2).sum(axis=1)
    rest = np.flatnonzero(d > passed)
    limit = np.inf
    if rest.size > chunk:
        limit = np.partition(d[rest], chunk - 1)[chunk - 1]
        rest = rest[d[rest] <= limit]
    return rest[np.lexsort((rest, d[rest]))].tolist(), limit


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
    # the rare solution that exhausts its shortlist goes on to the
    # distances to all its better predecessors.
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
        for j in nearest_first(coords[:i], coords[i], 2 * shortlist_k):
            if j not in seen:
                yield j

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
    label = np.zeros(n, dtype=int)  # cluster of each root: its founder's rank
    tests = []  # (rank, x, f) of accepted test points, in evaluation order

    def run_tests(a: np.ndarray, b: np.ndarray, block_tests: list) -> np.ndarray:
        """Test rank ``a[p]`` against rank ``b[p]`` for every p at once;
        file the accepted test points under ``a`` and return which passed."""
        n_test = _test_point_counts(xs[a], xs[b], edge)
        n_test[(xs[a] == xs[b]).all(axis=1)] = 0
        owner, tx, tf, ok = hill_valley_tests(
            xs[a], xs[b], np.maximum(fs[a], fs[b]), n_test, e)
        block_tests.append((a[owner[ok]], tx[ok], tf[ok]))
        passed = np.ones(len(a), dtype=bool)
        passed[owner[~ok]] = False
        return passed

    def fallback_walk(i: int):
        """Root ``i``'s tests against further neighbors, as a coroutine.

        Yields each neighbor to test and is sent whether that test
        passed; yields None while the cluster of the next neighbor is
        undecided. Sets ``label[i]``: the cluster joined, or ``i`` for a
        new one.
        """
        tried = set()
        for j in better_neighbors(i):
            r = root[j]
            while label[r] < 0:
                yield None
            cid = label[r]
            if cid in tried:
                continue
            if len(tried) >= max_attempts:
                break
            tried.add(cid)
            # The first neighbor is nearest[i], whose test already failed.
            if len(tried) > 1 and (yield j):
                label[i] = cid
                return
        label[i] = i

    def label_roots(roots: np.ndarray, block_tests: list) -> None:
        """Label the roots of a block in lockstep rounds of fallback tests."""
        label[roots] = -1  # undecided
        walks = {i: fallback_walk(i) for i in roots.tolist()}
        sent: dict[int, bool] = {}
        while walks:
            tested = []
            for i, walk in list(walks.items()):
                try:
                    j = walk.send(sent.get(i))
                except StopIteration:
                    del walks[i]  # decided: drop its neighbor scan
                    continue
                if j is not None:
                    tested.append((i, j))
            if tested:
                a, b = np.array(tested).T
                sent = dict(zip(a.tolist(), run_tests(a, b, block_tests).tolist()))

    worst_case = max_attempts * MAX_TEST_POINTS  # evaluations per solution
    start = 1
    try:
        while start < n:
            stop = min(n, start + max(1, e.remaining // worst_case))
            ranks = np.arange(start, stop)
            near = nearest[start:stop]
            block_tests = []
            passed = run_tests(ranks, near, block_tests)
            root[start:stop] = np.where(passed, near, ranks)
            while True:
                jumped = root[root[start:stop]]
                if np.array_equal(jumped, root[start:stop]):
                    break
                root[start:stop] = jumped
            label_roots(ranks[~passed], block_tests)
            label[start:stop] = label[root[start:stop]]
            tests.extend(block_tests)
            start = stop
    except BudgetExhausted:
        pass  # solutions from ``start`` on stay unassigned

    rank = np.concatenate([np.arange(start)] + [t[0] for t in tests])
    member = np.argsort(label[rank] * n + rank, kind="stable")
    mx = np.concatenate([xs[:start]] + [t[1] for t in tests])[member]
    mf = np.concatenate([fs[:start]] + [t[2] for t in tests])[member]
    bounds = np.flatnonzero(np.diff(label[rank][member])) + 1
    return [Cluster(x, f) for x, f in zip(np.split(mx, bounds), np.split(mf, bounds))]
