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

Neighbor order. The neighbors of rank i are the solutions ranked before
i in its shortlist (row i of a KD-tree's ``query(coords, k)`` with
k = 8 * (1 + d)), in shortlist order, then, if the walk gets past them,
the other better solutions by distance. When k is at least the
population size n, the row holds every point (cKDTree pads it with
index n at distance inf), so no walk gets past it.

Only two readers need a shortlist: the first test needs each solution's
nearest better neighbor (the first entry ``j < i`` of its row, or, when
the row has none, the nearest better solution past it), and the fallback
walks need the rows of the roots. So every point is first queried with
only ``NARROW_K`` neighbors, and the first ``j < i`` of that narrow row
is trusted when its distance is below the row's last one and no other
entry of the row has its distance. Then every point nearer than ``j`` is
in the narrow row, ahead of ``j``, and is not better, and no other point
lies at ``j``'s distance, so ``j`` is also the first better entry of the
full row, however the tree orders ties. (The narrow row is no prefix of
the full one: cKDTree orders tied neighbors differently for different
k, so nothing else is read from it.) The other points get their full
rows from one batched ``query(coords[idx], k)``, which serves this trust
rule alone; once the first tests have picked the roots, the walks take
the roots' rows from one more such query. A batched query gives each
point the row the whole-population query gives it.

In one dimension (d = 1, k = 16) the sorted sample already holds every
point's nearest neighbors, so ``line_rows`` builds all rows without a
tree, in one vectorized merge over ``argsort(kind="stable")`` order: each
step takes the nearer of a point's next-left and next-right neighbors by
squared gap ``(c_j - c_i) ** 2``, the arithmetic cKDTree uses for one
coordinate, and index n pads short rows as in cKDTree. A row whose first
k + 1 squared distances are all distinct (the inf pads aside) has one
k-nearest set in one order, so it is the tree's row, however the tree
orders tied points. The other rows, where duplicates, equal left and
right gaps, or the quantised gaps of a box far from 0 tie two distances,
come from one batched query of a tree built only when such a row exists.
The first tests read ``nearest`` from these rows and the walks read the
roots' rows from the same array, so in d = 1 neither the narrow query,
the trust rule, the redo query nor the roots' query runs. Every tree
comes from ``kd_tree``, which imports scipy on its first call, so scipy
is loaded by every d >= 2 run and by 1-D samples with tied distances
only.

Past the shortlist, the order is ``argsort(kind="stable")`` of the
squared distances to the better solutions. The first test needs only its
head, the ``argmin`` of those distances (the first of the nearest). The
walks take it a chunk at a time from ``nearest_first``, so a walk that
stops early costs O(i) instead of a full sort. ``squared_distances`` adds
each row's squares left to right, a column at a time over a column-major
copy of the coordinates, made once per clustering, so the order is the
same in every dimension. A root's walk is dropped as soon as the root is
decided.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .problem import BudgetedEvaluator, Solution

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

# Upper bound on test points per pair; the count grows with the distance
# between the endpoints relative to the expected nearest-neighbor spacing.
MAX_TEST_POINTS = 5

# Extra nearest-better attempts (beyond the first) per dimension.
EXTRA_ATTEMPTS_PER_DIM = 1

# Neighbors per point in the first KD-tree query (d >= 2), which only
# finds the nearest better neighbors it can vouch for (see "Neighbor
# order" above); 6 or 7 ran fastest on the CEC2013 samples of d = 1 to 3,
# where 6-8% of the points then needed their full shortlist.
NARROW_K = 6


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


def hill_valley_test(a: Solution, b: Solution, n_test: int,
                     e: BudgetedEvaluator) -> HillValleyOutcome:
    """Decide whether ``a`` and ``b`` occupy the same valley.

    Samples ``n_test`` equidistant interior points on the segment from
    ``a`` to ``b`` (in that order) and accepts iff every point is no worse
    than the worse endpoint. Stops at the first violating point. This is
    ``hill_valley_tests`` on one pair, bit for bit, for every count (0
    accepts without evaluations): the same arithmetic
    (``t = k / (n_test + 1)``, ``a + t * (b - a)``), one point per objective
    call, each compared with the worse endpoint in the same order.
    """
    if np.array_equal(a.x, b.x):
        return HillValleyOutcome(True)
    points = a.x + (np.arange(1, n_test + 1) / (n_test + 1))[:, None] * (b.x - a.x)
    for k in range(n_test):
        if e.evaluate_batch(points[k:k + 1])[1][0] > max(a.f, b.f):
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


def nearest_first(points: np.ndarray, x: np.ndarray,
                  chunk: int) -> Iterator[np.ndarray]:
    """Yield the row indices of ``points`` from nearest to ``x`` outwards,
    in ``argsort(kind="stable")`` order of the squared distances, as
    consecutive index arrays. The fallback walks read it past the
    shortlist; its first index is the ``argmin`` of those distances.

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
        yield order
        chunk *= 8


def squared_distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The squared distances from ``x`` to the rows of ``points``, each
    row's squares added left to right, a column at a time, which is fast
    when ``points`` is column-major. Below eight columns this is numpy's
    ``((points - x) ** 2).sum(axis=1)`` bit for bit; numpy sums longer
    rows pairwise."""
    cols = points.T
    d = (cols[0] - x[0]) ** 2
    for k in range(1, len(x)):
        d += (cols[k] - x[k]) ** 2
    return d


def _next_chunk(points: np.ndarray, x: np.ndarray, passed: float,
                chunk: int) -> tuple[np.ndarray, float]:
    """The rows whose squared distance to ``x`` exceeds ``passed``, up to
    and including every tie of the ``chunk``-th smallest such distance, in
    (distance, index) order; and that distance, or inf if no row is left."""
    d = squared_distances(points, x)
    rest = np.flatnonzero(d > passed)
    limit = np.inf
    if rest.size > chunk:
        limit = np.partition(d[rest], chunk - 1)[chunk - 1]
        rest = rest[d[rest] <= limit]
    return rest[np.lexsort((rest, d[rest]))], limit


def kd_tree(coords: np.ndarray) -> cKDTree:
    """A KD-tree over the rows of ``coords``. scipy is imported here, on
    the first call, not with the package: a process that builds no tree
    (a 1-D run without tied neighbor distances, ``list``, ``score``)
    never pays its import."""
    from scipy.spatial import cKDTree
    return cKDTree(coords)


def shortlist_rows(tree: cKDTree, coords: np.ndarray, idx: np.ndarray,
                   k: int) -> np.ndarray:
    """Rows ``idx`` of ``tree.query(coords, k)[1]``, from one query of those
    points alone: a point's row does not depend on the points queried
    with it."""
    return tree.query(coords[idx], k=k)[1]


def first_better(rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The first entry ``j < ranks[r]`` of each row r of ``rows``, or -1
    where the row has none."""
    below = rows < ranks[:, None]
    return np.where(below.any(axis=1),
                    rows[np.arange(len(rows)), below.argmax(axis=1)], -1)


def nearest_better(tree: cKDTree, coords: np.ndarray, k: int) -> np.ndarray:
    """The first entry ``j < i`` of each row i of ``tree.query(coords, k)[1]``,
    or -1 where the row has none (always for row 0). Only the points whose
    ``NARROW_K`` row leaves the answer open get their full rows, which serve
    the trust rule alone (see "Neighbor order" in the module docstring)."""
    ranks = np.arange(len(coords))
    dist, nn = tree.query(coords, k=NARROW_K)
    below = nn < ranks[:, None]
    first = below.argmax(axis=1)
    nearest = nn[ranks, first]
    near = dist[ranks, first][:, None]
    trusted = (below.any(axis=1) & (near[:, 0] < dist[:, -1])
               & ((dist == near).sum(axis=1) == 1))
    redo = np.flatnonzero(~trusted[1:]) + 1
    nearest[redo] = first_better(shortlist_rows(tree, coords, redo, k), redo)
    nearest[0] = -1
    return nearest


def line_rows(coords: np.ndarray, k: int) -> np.ndarray:
    """``cKDTree(coords).query(coords, k)[1]`` for one coordinate
    (``coords`` of shape (n, 1)), from one merge over the sorted sample;
    only the rows with a tie among their first k + 1 distances come from
    the tree (see "Neighbor order" in the module docstring)."""
    n = len(coords)
    c = coords[:, 0]
    order = np.argsort(c, kind="stable")
    pad = np.full(k, np.inf)  # a pad is never nearer than a point
    line = np.concatenate((-pad, c[order], pad))
    index = np.concatenate((np.full(k, n), order, np.full(k, n)))
    left = np.empty(n, dtype=np.intp)  # each point's next-left place in line
    left[order] = np.arange(k - 1, k - 1 + n)
    right = left + 2
    rows = np.full((n, k + 1), n)  # a step past the row, to test its end
    rows[:, 0] = np.arange(n)
    last = np.zeros(n)  # the squared distance of the entry before
    tied = np.zeros(n, dtype=bool)
    for col in range(1, min(k, n - 1) + 1):  # past n - 1 only pads are left
        dl = (line[left] - c) ** 2
        dr = (line[right] - c) ** 2
        go_left = dl < dr
        rows[:, col] = index[np.where(go_left, left, right)]
        dist = np.minimum(dl, dr)
        tied |= dist == last
        last = dist
        left -= go_left
        right += ~go_left
    rows = rows[:, :k]
    tied = np.flatnonzero(tied)
    if tied.size:
        rows[tied] = shortlist_rows(kd_tree(coords), coords, tied, k)
    return rows


def _test_point_counts(starts: np.ndarray, ends: np.ndarray,
                       edge_length: float) -> np.ndarray:
    """Test points per row pair: one per expected edge length, capped."""
    diff = starts - ends
    # A row-wise matmul runs the same dot kernel as ``np.linalg.norm`` of
    # one vector, so a batched count equals a pairwise one bit for bit;
    # summing the squares can round differently.
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
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
    if d == 1:
        rows = line_rows(coords, shortlist_k)
        nearest = first_better(rows, np.arange(n))
    else:
        tree = kd_tree(coords)
        nearest = nearest_better(tree, coords, shortlist_k)
    # Where the shortlist has no better neighbor, the nearest one past it
    # (the first on ties, as ``nearest_first`` would give it).
    for i in np.flatnonzero(nearest[1:] < 0) + 1:
        nearest[i] = squared_distances(columns[:i], coords[i]).argmin()

    def better_neighbors(i):
        """Rank ``i``'s better neighbors in walk order, as index arrays."""
        row = rows[i]
        row = row[row < i]
        yield row
        if len(row) == i:
            return
        seen = np.zeros(i, dtype=bool)
        seen[row] = True
        for chunk in nearest_first(columns[:i], coords[i], 2 * shortlist_k):
            yield chunk[~seen[chunk]]

    root = np.arange(n)  # root[i]: whose cluster i shares
    label = np.zeros(n, dtype=int)  # cluster of each root: its founder's rank
    waiters: dict[int, list[int]] = {}  # undecided root -> walks waiting on it
    tests = []  # (rank, x, f) of accepted test points, in evaluation order

    def run_tests(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Test rank ``a[p]`` against rank ``b[p]`` for every p at once;
        file the accepted test points under ``a`` and return which passed."""
        n_test = _test_point_counts(xs[a], xs[b], edge)
        n_test[(xs[a] == xs[b]).all(axis=1)] = 0
        owner, tx, tf, ok = hill_valley_tests(
            xs[a], xs[b], np.maximum(fs[a], fs[b]), n_test, e)
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
    if d > 1:  # the walks read the roots' full shortlists
        rows = dict(zip(roots.tolist(),
                        shortlist_rows(tree, coords, roots, shortlist_k)))
    label_roots(roots)
    label[:] = label[root]

    rank = np.concatenate([np.arange(n)] + [t[0] for t in tests])
    member = np.argsort(label[rank] * n + rank, kind="stable")
    mx = np.concatenate([xs] + [t[1] for t in tests])[member]
    mf = np.concatenate([fs] + [t[2] for t in tests])[member]
    bounds = np.flatnonzero(np.diff(label[rank][member])) + 1
    return list(zip(np.split(mx, bounds), np.split(mf, bounds)))
