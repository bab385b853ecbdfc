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

First partners from one radius. ``neighbour_rows`` also lists the pairs
of points within a radius r of ``PAIR_RADIUS`` expected spacings. The
sorted line finds them exactly; the KD-tree adds a pair's squares in its
own order, which moves the squared distance by less than
``ROUNDING_MARGIN`` of it. So every pair whose squared distance is at
most r² (1 - ``ROUNDING_MARGIN``) is listed, and every pair not listed is
at least that far. A point's partner is its better listed partner of
least (squared distance, index). Where that distance is below
r² (1 - ``ROUNDING_MARGIN``), every better point not listed is farther,
so the partner is the point's first better neighbor, exactly. Only the
points left open, with no better point that near, read their full rows,
and past those the ``argmin``. A sample whose pairs could outnumber
``PAIR_LIMIT`` times the entries of its full rows (duplicates, clumps)
skips the pair query, and every point reads its full row.
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

# Radius of the pair query that proves most first partners (see "First
# partners from one radius" above), in expected spacings of the
# box-normalized sample. On the CEC2013 samples of problems 1-10 it left
# 22%, 4.9% and 2.9% of the points open in d = 1, 2 and 3, with 1.5, 3.5
# and 6.6 pairs a point, and ran faster than 2 or 2.5 spacings, which
# also overran the limit below on 3-D samples. Results do not depend on it.
PAIR_RADIUS = 1.5

# The pair query is skipped, and every point reads its full row, when its
# pairs could outnumber this many times the entries of all full rows,
# n · (8·(1+d) + 1). Duplicates and clumps do that, and so do large
# samples in d >= 4, where a cell's 3^d block bounds the pairs loosely;
# the CEC2013 samples of d <= 3 stay below 0.63 of it.
PAIR_LIMIT = 2

# Relative rise of a proposed row's distances, from each entry to the
# next, past which the entries before it are the nearest points by
# ``squared_distances`` too; and the share of r² below which a first
# partner from the pairs within r is trusted. The KD-tree adds a row's
# squares in another order and takes a square root, which moves a
# distance by less than d * 2**-52 of itself: the margin covers that
# below about 4 million dimensions.
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
    # each list starts with the empty result, which no pair to test returns
    owners, xs, fs, oks = ([np.empty(0, dtype=int)], [np.empty((0, starts.shape[1]))],
                           [np.empty(0)], [np.empty(0, dtype=bool)])
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
    if (xa == xb).all():
        return HillValleyOutcome(True)
    points = xa + (np.arange(1, n_test + 1) / (n_test + 1))[:, None] * (xb - xa)
    worst = max(fa, fb)
    for k in range(n_test):
        if e.evaluate_batch(points[k:k + 1])[1][0] > worst:
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


def neighbour_rows(coords: np.ndarray) -> tuple[Callable, Callable]:
    """``(rows, pairs)``. ``rows(idx, k)``: the rows of points ``idx`` in
    neighbor order, k entries each, from one query of their k + 1 nearest
    points (index n past the last point). ``pairs(r, most)``: every pair
    of points within distance r, as rows ``(a, b)`` with ``a < b``; or
    None, without a query, when more than ``most`` pairs could be that
    near.

    In d >= 2 a KD-tree proposes the rows and finds the pairs; scipy is
    imported here, not with the package, so a process that builds no tree
    (a 1-D run, ``list``, ``score``) never pays its import. In d = 1 the
    sorted sample does. A row comes from a merge: each step takes the
    nearer of a point's next-left and next-right places by squared gap,
    which is ``squared_distances`` in one coordinate, starting from the
    point's own place. The pairs come from a window on the line: each
    point with the points after it up to its own value plus r, that sum
    rounded down, so the window holds exactly the points within r.

    Where the proposed distances rise by more than the margin at every
    step up to entry j + 1, the first j + 1 entries are the nearest points
    in that order by ``squared_distances`` too, and are read as they are.
    A leading run of zero distances (the point and its copies) is exact
    in any arithmetic: when a positive distance follows it in the row,
    the run holds every copy, ordered here by index, and counts as
    rising. From the first entry not proven so on, a row is left empty
    (index n), so that its point's better neighbors past the proven
    entries come from all of them, sorted exactly: the first by
    ``argmin``, the walk's by ``nearest_first`` on from the row's last
    better entry. Two pads (inf) do not rise, so no pad is ever read as
    a point."""
    n, d = coords.shape
    if d > 1:
        from scipy.spatial import cKDTree
        # sliding-midpoint splits and unshrunk boxes build in 50-60% of the
        # default's time on the CEC2013 samples and query within a tenth of
        # it; the rows and pairs read do not depend on the tree's shape
        tree = cKDTree(coords, balanced_tree=False, compact_nodes=False)

        def propose(idx, m):
            return tree.query(coords[idx], k=m)

        def pairs(r, most):
            # a pair within r lies in one cell of side r or in two adjacent
            # ones, so a point pairs at most with the rest of its cell's
            # 3^d block: sum those counts over one padded grid of cells
            scaled = (coords - coords.min(axis=0)) / r
            if np.prod(scaled.max(axis=0) + 3) > most:  # the grid, before the cast
                return None
            cell = scaled.astype(np.intp) + 1
            shape = cell.max(axis=0) + 2
            count = np.bincount(np.ravel_multi_index(cell.T, shape),
                                minlength=shape.prod()).reshape(shape)
            block = count
            for axis in range(d):
                block = block + np.roll(block, 1, axis) + np.roll(block, -1, axis)
            if (int((count * block).sum()) - n) // 2 > most:
                return None
            return tree.query_pairs(r, output_type="ndarray")
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

        def pairs(r, most):
            s = line[1:-1]
            # the float at or below s + r: the rounded sum, one step down
            # where it rounded up
            top = s + r
            err = (s - (top - (top - s))) + (r - (top - s))  # top + err == s + r
            top = np.where(err < 0, np.nextafter(top, -np.inf), top)
            count = np.searchsorted(s, top, side="right") - np.arange(1, n + 1)
            total = int(count.sum())
            if total > most:
                return None
            first = np.repeat(np.arange(n), count)  # the window's own place
            after = np.arange(total) - np.repeat(np.cumsum(count) - count, count)
            a, b = order[first], order[first + 1 + after]
            return np.column_stack((np.minimum(a, b), np.maximum(a, b)))

    def rows(idx: np.ndarray, k: int) -> np.ndarray:
        dist, near = propose(idx, k + 1)
        copies = np.flatnonzero(dist[:, 1] == 0)
        if copies.size:  # each zero run by index, the rest as it is
            key = np.where(dist[copies] == 0, near[copies], n + np.arange(k + 1))
            near[copies] = np.take_along_axis(near[copies], np.argsort(key, axis=1),
                                              axis=1)
        rise = ((dist[:, 1:] > dist[:, :-1] * (1 + ROUNDING_MARGIN))
                | ((dist[:, 1:] == 0) & (dist[:, -1:] > 0)))
        return np.where(np.logical_and.accumulate(rise, axis=1), near[:, :k], n)
    return rows, pairs


def first_better(rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The first entry ``j < ranks[r]`` of each row r of ``rows``, or -1
    where the row has none."""
    below = rows < ranks[:, None]
    return np.where(below.any(axis=1),
                    rows[np.arange(len(rows)), below.argmax(axis=1)], -1)


def nearest_better(coords: np.ndarray, rows: Callable, pairs: Callable,
                   k: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Each point's first better neighbor, from the ``rows`` and ``pairs``
    of ``neighbour_rows(coords)``, or -1 where neither the pairs prove it
    nor its row of k entries holds it (always for rank 0); and the full
    rows it fetched, by point: those of the points the pairs leave open
    (see "First partners from one radius" above)."""
    n, d = coords.shape
    r = PAIR_RADIUS * n ** (-1 / d)
    least, partner = np.full(n, np.inf), np.full(n, n)
    found = pairs(r, PAIR_LIMIT * n * (k + 1))
    if found is not None:
        a, b = found.T  # a < b: a is the better of the two
        # a column at a time, as squared_distances adds them, so that the
        # pairs' rows are never gathered whole
        sq = squared_distances(coords[a, :1], coords[b, :1])
        for col in range(1, d):
            sq += squared_distances(coords[a, col:col + 1], coords[b, col:col + 1])
        np.minimum.at(least, b, sq)
        tie = sq == least[b]
        np.minimum.at(partner, b[tie], a[tie])
    nearest = np.where(least < r * r * (1 - ROUNDING_MARGIN), partner, -1)
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
    # box-normalized, column-major for the distances past the shortlist
    coords = np.asfortranarray(xs / (spec.upper - spec.lower))
    edge = expected_edge_length(spec, n)
    max_attempts = 1 + d * EXTRA_ATTEMPTS_PER_DIM

    # Only a handful of nearest better neighbors are ever inspected.
    # A shortlist, from a KD-tree or in d = 1 from the sorted sample,
    # avoids the O(n^2 d) brute-force distance pass; the rare solution
    # that exhausts its shortlist goes on to the distances to all its
    # better predecessors.
    shortlist_k = 8 * max_attempts
    rows, pairs = neighbour_rows(coords)
    nearest, full = nearest_better(coords, rows, pairs, shortlist_k)
    # Where the shortlist has no better neighbor, the first one past it.
    for i in np.flatnonzero(nearest[1:] < 0) + 1:
        nearest[i] = squared_distances(coords[:i], coords[i]).argmin()

    def better_neighbors(i):
        """Rank ``i``'s better neighbors in walk order, as index arrays."""
        better = full[i][full[i] < i]
        yield better
        # On from the row's last better entry: the row holds every point
        # before its own end, so every better one after that entry is past it.
        yield from nearest_first(coords[:i], coords[i], 2 * shortlist_k,
                                 better[-1] if len(better) else -1)

    root = np.arange(n)  # root[i]: whose cluster i shares
    label = np.zeros(n, dtype=int)  # cluster of each root: its founder's rank
    waiters: dict[int, list[int]] = {}  # undecided root -> walks waiting on it
    # (rank, x, f) of the members: the solutions, then the accepted test
    # points in evaluation order
    members = [(np.arange(n), xs, fs)]

    def run_tests(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Test rank ``a[p]`` against rank ``b[p]`` for every p at once;
        file the accepted test points under ``a`` and return which passed."""
        xa, xb = xs[a], xs[b]
        n_test = _test_point_counts(xa, xb, edge)
        n_test[(xa == xb).all(axis=1)] = 0
        owner, tx, tf, ok = hill_valley_tests(
            xa, xb, np.maximum(fs[a], fs[b]), n_test, e)
        members.append((a[owner[ok]], tx[ok], tf[ok]))
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

    rank, mx, mf = map(np.concatenate, zip(*members))
    member = np.argsort(label[rank] * n + rank, kind="stable")
    bounds = np.flatnonzero(np.diff(label[rank][member])) + 1
    return list(zip(np.split(mx[member], bounds), np.split(mf[member], bounds)))
