"""The sequential hill-valley clustering, kept as the reference that the
batched ``hillvallea.hillvalley.cluster_population`` must match: same
clusters, same member order, same evaluations. Every test point is
evaluated on its own, and each test stops at its first violator. It takes
and returns the same types: a population pair ``(x, f)`` in, clusters of
``(x, f)`` rows out; inside, it holds each solution as a point ``(x, f)``.
Its neighbor order is the definition: the better solutions in ascending
(squared distance, index) order, each distance's squares added left to
right, from all of them, by brute force.
"""

import math
from typing import NamedTuple

import numpy as np

from hillvallea.hillvalley import (EXTRA_ATTEMPTS_PER_DIM, MAX_TEST_POINTS,
                                   expected_edge_length)
from hillvallea.problem import BudgetExhausted


class Outcome(NamedTuple):
    same_niche: bool
    accepted_tests: list  # points (x, f), in sampling order


def hill_valley_test(a, b, n_test, e):
    (xa, fa), (xb, fb) = a, b
    if np.array_equal(xa, xb):
        return Outcome(True, [])
    worst = max(fa, fb)
    accepted = []
    for k in range(1, n_test + 1):
        point = xa + (k / (n_test + 1)) * (xb - xa)
        xs, fs = e.evaluate_batch(point[None, :])
        if fs[0] > worst:
            return Outcome(False, accepted)
        accepted.append((xs[0], float(fs[0])))
    return Outcome(True, accepted)


def test_point_count(a, b, edge_length):
    dist = math.sqrt(sum(v * v for v in (a[0] - b[0]).tolist()))
    return min(MAX_TEST_POINTS, 1 + int(dist / edge_length))


def _as_clusters(clusters):
    return [(np.array([x for x, _ in c]), np.array([f for _, f in c]))
            for c in clusters]


def cluster_population(pop, e):
    pop = [(x, float(f)) for x, f in zip(*pop)]
    spec = e.spec
    d = spec.dimension
    order = sorted(range(len(pop)), key=lambda i: (pop[i][1], i))
    ranked = [pop[i] for i in order]
    coords = np.array([x for x, _ in ranked]) / (spec.upper - spec.lower)
    edge = expected_edge_length(spec, len(pop))

    clusters = [[ranked[0]]]
    cluster_of = [0]
    max_attempts = 1 + d * EXTRA_ATTEMPTS_PER_DIM
    n = len(ranked)

    def better_neighbors(i):
        dists = sum((coords[:i, k] - coords[i, k]) ** 2 for k in range(d))
        yield int(dists.argmin())  # the first of the nearest, without a sort
        yield from np.argsort(dists, kind="stable")[1:].tolist()

    for i in range(1, n):
        x = ranked[i]
        pending = []
        tried = set()
        placed = False
        try:
            for j in better_neighbors(i):
                cid = cluster_of[j]
                if tried and cid in tried:
                    continue
                if len(tried) >= max_attempts:
                    break
                tried.add(cid)
                outcome = hill_valley_test(
                    x, ranked[j], test_point_count(x, ranked[j], edge), e)
                pending.extend(outcome.accepted_tests)
                if outcome.same_niche:
                    clusters[cid].append(x)
                    clusters[cid].extend(pending)
                    cluster_of.append(cid)
                    placed = True
                    break
        except BudgetExhausted:
            return _as_clusters(clusters)
        if not placed:
            clusters.append([x] + pending)
            cluster_of.append(len(clusters) - 1)
    return _as_clusters(clusters)
