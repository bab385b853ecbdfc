"""Hill-Valley same-niche test and hill-valley clustering.

Two solutions share a niche when no point sampled on the segment between
them is worse than both endpoints. Clustering applies the test along
nearest-better-neighbor edges in fitness-sorted order; test solutions are
kept and attached to whichever cluster the tested solution ends up in.

Clustering works on index arrays over the fitness-ranked population (an
``(x, f)`` pair, see ``problem``). It evaluates exactly the points the
sequential algorithm (visit the solutions in rank order, test, assign,
append) evaluates, and returns the same clusters, numbered alike, with
the same members in the same order. It evaluates them in another order.
That shows only when the budget runs out during clustering, which ends
the run (see ``orchestrator.run_hillvallea``) after other points than
the sequential order would have evaluated. A run that ends inside its
first clustering has an empty archive and reports the best of its own
first ``budget`` evaluations, which can differ from the sequential
algorithm's best.

First tests in rounds. A solution's first test, against its nearest
better neighbor, has endpoints, point count and threshold fixed before
any test runs, so the first tests of all solutions run together: round
k evaluates test point k of every pair still undecided, in one objective
call, and a pair that meets a violator is never evaluated again (the
sequential early stop).

Assignment by pointer jumping. A solution whose first test passes joins
the cluster of its nearest better neighbor, which is ranked before it.
So it points at that neighbor, a solution whose first test failed points
at itself, and ``root = root[root]`` repeated until stable leaves every
solution pointing at the first self-pointing solution down its chain,
whose cluster it shares. Only those roots run fallback tests against
further neighbors; the cluster of any neighbor is that of its root.

Fallback tests in rounds. The roots are labelled together. Each
undecided root walks its neighbor list in rank order up to its next
test, skipping neighbors in clusters it has tried. The list comes a
block of indices at a time, and the walk finds its next event in a block
with one array pass over the neighbors' cluster labels: the first
neighbor whose root is undecided or whose cluster it has not tried. The
neighbors before it are the ones the walk skips. When the root of that
neighbor is undecided, the walk files itself under that root and sleeps;
it is woken, in the same round, when that root's walk ends, and reads
the labels again from the same neighbor. A round resumes the walks sent
a test result and the walks woken during the round, lowest rank first.
All tests scheduled in a round then run in one ``hill_valley_tests``
call, each pair with its own early stop. A root depends only on roots
ranked before it, so a waking root always runs before its waiters, the
lowest undecided root never waits, and every round makes progress: these
are the rounds that resuming every walk in every round would make, with
the same tests in the same order, but a waiting walk is resumed once
instead of once per round. A root that no test accepts founds a cluster
labelled by its own rank, so cluster labels sort in the rank order of
their founders, which is how the sequential algorithm numbers them.

Member order. The sequential algorithm appends a solution to its cluster
followed by its accepted test points, solutions in rank order. Each root's tests
run in later rounds than its earlier tests, so one stable sort of all
members by (cluster, rank), with the solutions ahead of the test points
and the test points in evaluation order, gives the same member order.

Neighbor order. The neighbors of rank i are the other solutions in
ascending order of (``squared_distances`` over box-normalized coordinates,
index); its better neighbors are the ones ranked before i, in that order.
``neighbour_rows`` proposes each row's first k, and one rule reads every
row: entry j as it is when the distances rise by more than
``ROUNDING_MARGIN`` at every step up to entry j + 1, and as empty from
the first entry that is not proven so. A point's better neighbors past
its proven entries come from the distances to all of them (``argmin``,
``nearest_first``).
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .problem import BudgetedEvaluator

# Upper bound on test points per pair; the count grows with the distance
# between the endpoints relative to the expected nearest-neighbor spacing.
MAX_TEST_POINTS = 5

# Extra nearest-better attempts (beyond the first) per dimension.
EXTRA_ATTEMPTS_PER_DIM = 1

# Neighbors per point in the first query, of every point, which only
# finds the nearest better neighbors its rows prove (see "Neighbor order"
# above); 6 or 7 ran fastest on the CEC2013 samples of d = 1 to 3, where
# 6-8% of the points then needed their full shortlist.
NARROW_K = 6

# Relative rise of a proposed row's distances, from each entry to the
# next, past which the entries before it are the nearest points by
# ``squared_distances`` too. The KD-tree adds a row's squares in another
# order and takes a square root, which moves a distance by less than
# d * 2**-52 of itself: the margin covers that below about 4 million
# dimensions.
ROUNDING_MARGIN = 1e-9


@dataclass
class HillValleyOutcome:
    same_niche: bool


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


def hill_valley_test(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float],
                     n_test: int, e: BudgetedEvaluator) -> HillValleyOutcome:
    """Decide whether the points ``a = (xa, fa)`` and ``b = (xb, fb)`` occupy
    the same valley.

    Samples ``n_test`` equidistant interior points on the segment from
    ``xa`` to ``xb`` (in that order) and accepts iff every point is no worse
    than the worse endpoint. Stops at the first violating point. This is
    ``hill_valley_tests`` on one pair, bit for bit, for every count (0
    accepts without evaluations): the same arithmetic
    (``t = k / (n_test + 1)``, ``xa + t * (xb - xa)``), one point per objective
    call, each compared with the worse endpoint in the same order.
    """
    (xa, fa), (xb, fb) = a, b
    if np.array_equal(xa, xb):
        return HillValleyOutcome(True)
    points = xa + (np.arange(1, n_test + 1) / (n_test + 1))[:, None] * (xb - xa)
    for k in range(n_test):
        if e.evaluate_batch(points[k:k + 1])[1][0] > max(fa, fb):
            return HillValleyOutcome(False)
    return HillValleyOutcome(True)


def expected_edge_length(spec, pop_size: int) -> float:
    """Expected nearest-neighbor spacing of a uniform population:
    ``(volume / pop_size) ** (1 / d)``, in log space when that quotient
    overflows or falls below the normal floats (a wide or a narrow box in
    many dimensions)."""
    widths = spec.upper - spec.lower
    with np.errstate(over="ignore", under="ignore"):
        share = float(np.prod(widths)) / pop_size
    if sys.float_info.min <= share < math.inf:
        return share ** (1.0 / spec.dimension)
    return math.exp((float(np.log(widths).sum()) - math.log(pop_size))
                    / spec.dimension)


def nearest_first(points: np.ndarray, x: np.ndarray, chunk: int,
                  last: int = -1) -> Iterator[np.ndarray]:
    """Yield, in ascending (squared distance to ``x``, index) order, the row
    indices of ``points`` that come after row ``last`` in that order (all
    of them for -1), as consecutive index arrays. The fallback walks read
    it past their rows; from the start, its first index is the ``argmin``
    of those distances.

    Works a chunk at a time, so a caller that stops early pays O(len)
    rather than a full sort; each chunk is eight times the last, so a
    caller that walks far needs few chunks. Between chunks only the last
    row yielded is kept, and the next chunk computes the distances again,
    so a paused caller holds O(chunk) memory rather than O(len).
    """
    while True:
        order, more = _next_chunk(points, x, last, chunk)
        yield order
        if not more:
            return
        last, chunk = order[-1], chunk * 8


def squared_distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The squared distances from ``x`` to the rows of ``points``, each
    row's squares added left to right, a column at a time, which is fast
    when ``points`` is column-major. ``x`` is one point, or any array of
    points that broadcasts against ``points`` (one per row, say). Below
    eight columns this is numpy's ``((points - x) ** 2).sum(axis=-1)`` bit
    for bit; numpy sums longer rows pairwise."""
    d = (points[..., 0] - x[..., 0]) ** 2
    for k in range(1, x.shape[-1]):
        d += (points[..., k] - x[..., k]) ** 2
    return d


def _next_chunk(points: np.ndarray, x: np.ndarray, last: int,
                chunk: int) -> tuple[np.ndarray, bool]:
    """The rows past row ``last``'s (squared distance to ``x``, index) pair
    (all rows for -1), up to and including every tie of the ``chunk``-th
    smallest distance among them, in (distance, index) order; and whether
    any row is left past them."""
    d = squared_distances(points, x)
    passed = d[last] if last >= 0 else -np.inf
    past = d > passed
    past[last + 1:] |= d[last + 1:] == passed
    rest = np.flatnonzero(past)
    more = rest.size > chunk
    if more:
        limit = np.partition(d[rest], chunk - 1)[chunk - 1]
        rest = rest[d[rest] <= limit]
    return rest[np.lexsort((rest, d[rest]))], more


def neighbour_rows(coords: np.ndarray) -> Callable[[np.ndarray, int], np.ndarray]:
    """``rows(idx, k)``: the rows of points ``idx`` in neighbor order, k
    entries each, from one query of their k + 1 nearest points (index n
    past the last point).

    In d >= 2 a KD-tree proposes them; scipy is imported here, not with
    the package, so a process that builds no tree (a 1-D run, ``list``,
    ``score``) never pays its import. In d = 1 a merge over the sorted
    sample does: each step takes the nearer of a point's next-left and
    next-right places by squared gap, which is ``squared_distances`` in
    one coordinate, starting from the point's own place. Where the
    proposed distances rise by more than the margin at every step up to
    entry j + 1, the first j + 1 entries are the nearest points in that
    order by ``squared_distances`` too, and are read as they are. From
    the first entry not proven so on, a row is left empty (index n), so
    that its point's better neighbors past the proven entries come from
    all of them, sorted exactly: the first by ``argmin``, the walk's by
    ``nearest_first`` on from the row's last better entry. Two pads (inf)
    do not rise, so no pad is ever read as a point."""
    n, d = coords.shape
    if d > 1:
        from scipy.spatial import cKDTree
        tree = cKDTree(coords)

        def propose(idx, m):
            return tree.query(coords[idx], k=m)
    else:
        c = coords[:, 0]
        order = np.argsort(c, kind="stable")
        line = np.concatenate(([-np.inf], c[order], [np.inf]))  # a pad is never nearer
        index = np.concatenate(([n], order, [n]))
        place = np.empty(n, dtype=np.intp)  # each point's place in line
        place[order] = np.arange(1, n + 1)

        def propose(idx, m):
            ci, left = c[idx], place[idx]  # left: next-left place, from its own
            right = left + 1
            near = np.full((m, len(idx)), n)  # column j: entry j of every row
            dist = np.full((m, len(idx)), np.inf)
            for col in range(min(m, n)):  # past n only pads are left
                dl = (line[left] - ci) ** 2
                dr = (line[right] - ci) ** 2
                go_left = dl < dr
                near[col] = index[np.where(go_left, left, right)]
                dist[col] = np.minimum(dl, dr)
                left -= go_left
                right += ~go_left
            return dist.T, near.T

    def rows(idx: np.ndarray, k: int) -> np.ndarray:
        dist, near = propose(idx, k + 1)
        rise = dist[:, 1:] > dist[:, :-1] * (1 + ROUNDING_MARGIN)
        return np.where(np.logical_and.accumulate(rise, axis=1), near[:, :k], n)
    return rows


def first_better(rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The first entry ``j < ranks[r]`` of each row r of ``rows``, or -1
    where the row has none."""
    below = rows < ranks[:, None]
    return np.where(below.any(axis=1),
                    rows[np.arange(len(rows)), below.argmax(axis=1)], -1)


def nearest_better(rows: Callable[[np.ndarray, int], np.ndarray], n: int,
                   k: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Each of the n points' first better neighbor in its row of ``rows``,
    or -1 where the row holds none (always for rank 0); and the full rows
    (k entries) it fetched, by point. Only the points whose row of
    ``NARROW_K`` nearest holds none get their full rows."""
    ranks = np.arange(n)
    nearest = first_better(rows(ranks, NARROW_K - 1), ranks)
    redo = np.flatnonzero(nearest[1:] < 0) + 1
    full = rows(redo, k)
    nearest[redo] = first_better(full, redo)
    return nearest, dict(zip(redo.tolist(), full))


def _test_point_counts(starts: np.ndarray, ends: np.ndarray,
                       edge_length: float) -> np.ndarray:
    """Test points per row pair: one per expected edge length, capped."""
    dist = np.sqrt(squared_distances(starts, ends))
    # capped before the cast, which a ratio of 2**63 or more would overflow
    return 1 + np.minimum(dist / edge_length, MAX_TEST_POINTS - 1).astype(int)


def cluster_population(pop: tuple[np.ndarray, np.ndarray],
                       e: BudgetedEvaluator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition a population ``(x, f)`` into niches via hill-valley clustering.

    Solutions are visited in ascending-fitness order; each is tested
    against its nearest better neighbor and, on failure, against up to d
    further nearest better neighbors in clusters not yet tried. Accepted
    test solutions travel with the solution into its final cluster. Tests
    and assignment run as the module docstring describes. Each cluster is
    a population pair: its members' (m, d) rows and (m,) fitness, in
    member order.
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
    columns = np.asfortranarray(coords)  # for walks past the shortlist
    edge = expected_edge_length(spec, n)
    max_attempts = 1 + d * EXTRA_ATTEMPTS_PER_DIM

    # Only a handful of nearest better neighbors are ever inspected.
    # A shortlist, from a KD-tree or in d = 1 from the sorted sample,
    # avoids the O(n^2 d) brute-force distance pass; the rare solution
    # that exhausts its shortlist goes on to the distances to all its
    # better predecessors.
    shortlist_k = 8 * max_attempts
    rows = neighbour_rows(coords)
    nearest, full = nearest_better(rows, n, shortlist_k)
    # Where the shortlist has no better neighbor, the first one past it.
    for i in np.flatnonzero(nearest[1:] < 0) + 1:
        nearest[i] = squared_distances(columns[:i], coords[i]).argmin()

    def better_neighbors(i):
        """Rank ``i``'s better neighbors in walk order, as index arrays."""
        better = full[i][full[i] < i]
        yield better
        # On from the row's last better entry: the row holds every point
        # before its own end, so every better one after that entry is past it.
        yield from nearest_first(columns[:i], coords[i], 2 * shortlist_k,
                                 better[-1] if len(better) else -1)

    root = np.arange(n)  # root[i]: whose cluster i shares
    label = np.zeros(n, dtype=int)  # cluster of each root: its founder's rank
    waiters: dict[int, list[int]] = {}  # undecided root -> walks waiting on it
    tests = []  # (rank, x, f) of accepted test points, in evaluation order

    def run_tests(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Test rank ``a[p]`` against rank ``b[p]`` for every p at once;
        file the accepted test points under ``a`` and return which passed."""
        xa, xb = xs[a], xs[b]
        n_test = _test_point_counts(xa, xb, edge)
        n_test[(xa == xb).all(axis=1)] = 0
        owner, tx, tf, ok = hill_valley_tests(
            xa, xb, np.maximum(fs[a], fs[b]), n_test, e)
        tests.append((a[owner[ok]], tx[ok], tf[ok]))
        passed = np.ones(len(a), dtype=bool)
        passed[owner[~ok]] = False
        return passed

    def fallback_walk(i: int):
        """Root ``i``'s tests against further neighbors, as a coroutine.

        Yields each neighbor to test and is sent whether that test
        passed. When the cluster of the next neighbor is undecided, it
        files ``i`` under that neighbor's root in ``waiters`` and yields
        None, to be resumed once that root is decided. Sets ``label[i]``:
        the cluster joined, or ``i`` for a new one.
        """
        tried = []
        for chunk in better_neighbors(i):
            owner = root[chunk]
            pos = 0
            while pos < len(chunk):
                if tried:  # skip to the next neighbor in an untried cluster
                    labels = label[owner[pos:]]  # undecided ones are -1
                    fresh = labels != tried[0]
                    for cid in tried[1:]:
                        fresh &= labels != cid
                    ahead = int(fresh.argmax())
                    if not fresh[ahead]:
                        break
                    pos += ahead
                r = int(owner[pos])
                if label[r] < 0:
                    waiters.setdefault(r, []).append(i)
                    yield None
                    continue  # read the labels again from pos
                if len(tried) >= max_attempts:
                    label[i] = i
                    return
                tried.append(label[r])
                # The first neighbor is nearest[i], whose test already failed.
                if len(tried) > 1 and (yield int(chunk[pos])):
                    label[i] = tried[-1]
                    return
                pos += 1
        label[i] = i

    def label_roots(roots: np.ndarray) -> None:
        """Label the roots in lockstep rounds of fallback tests.

        A round resumes the walks that are ready, lowest rank first: those
        sent a test result and those woken when the root they wait on is
        decided. That root is ranked before them, so they still run in
        the round that decided it.
        """
        label[roots] = -1  # undecided
        walks = {i: fallback_walk(i) for i in roots.tolist()}
        ready = list(walks)  # ascending, so already a heap
        sent: dict[int, bool] = {}
        while ready:
            tested = []
            while ready:
                i = heapq.heappop(ready)
                try:
                    j = walks[i].send(sent.pop(i, None))
                except StopIteration:
                    del walks[i]  # decided: drop its neighbor scan
                    for w in waiters.pop(i, ()):
                        heapq.heappush(ready, w)
                    continue
                if j is not None:
                    tested.append((i, j))
            if tested:
                a, b = np.array(tested).T
                ready = a.tolist()
                sent = dict(zip(ready, run_tests(a, b).tolist()))

    ranks = np.arange(1, n)
    passed = run_tests(ranks, nearest[1:])
    root[1:] = np.where(passed, nearest[1:], ranks)
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root[:] = jumped
    roots = ranks[~passed]
    # the walks read the roots' full rows; nearest_better has the redo points'
    unread = roots[[r not in full for r in roots.tolist()]]
    full.update(zip(unread.tolist(), rows(unread, shortlist_k)))
    label_roots(roots)
    label[:] = label[root]

    rank = np.concatenate([np.arange(n)] + [t[0] for t in tests])
    member = np.argsort(label[rank] * n + rank, kind="stable")
    mx = np.concatenate([xs] + [t[1] for t in tests])[member]
    mf = np.concatenate([fs] + [t[2] for t in tests])[member]
    bounds = np.flatnonzero(np.diff(label[rank][member])) + 1
    return list(zip(np.split(mx, bounds), np.split(mf, bounds)))
