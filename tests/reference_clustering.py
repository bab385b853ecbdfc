"""The sequential hill-valley clustering, kept as the reference that the
batched ``hillvallea.hillvalley.cluster_population`` must match: same
clusters, same member order, same evaluations. Every test point is
evaluated on its own, and each test stops at its first violator. It takes
and returns the same types: a population pair ``(x, f)`` in, clusters of
``(x, f)`` rows out. Its neighbor order is the definition: the better
solutions in ascending (squared distance, index) order, each distance's
squares added left to right, from all of them, by brute force.
"""

import math
from typing import NamedTuple

import numpy as np

from hillvallea.hillvalley import (EXTRA_ATTEMPTS_PER_DIM, MAX_TEST_POINTS,
                                   expected_edge_length)
from hillvallea.problem import BudgetExhausted, Solution


class Outcome(NamedTuple):
    same_niche: bool
    accepted_tests: list  # Solutions, in sampling order


def hill_valley_test(a, b, n_test, e):
    if np.array_equal(a.x, b.x):
        return Outcome(True, [])
    worst = max(a.f, b.f)
    accepted = []
    for k in range(1, n_test + 1):
        point = a.x + (k / (n_test + 1)) * (b.x - a.x)
        xs, fs = e.evaluate_batch(point[None, :])
        sol = Solution(xs[0], float(fs[0]))
        if sol.f > worst:
            return Outcome(False, accepted)
        accepted.append(sol)
    return Outcome(True, accepted)


def test_point_count(a, b, edge_length):
    dist = math.sqrt(sum(v * v for v in (a.x - b.x).tolist()))
    return min(MAX_TEST_POINTS, 1 + int(dist / edge_length))


def _as_clusters(clusters):
    return [(np.array([m.x for m in c]), np.array([m.f for m in c]))
            for c in clusters]


def cluster_population(pop, e):
    pop = [Solution(x, float(f)) for x, f in zip(*pop)]
    spec = e.spec
    d = spec.dimension
    order = sorted(range(len(pop)), key=lambda i: (pop[i].f, i))
    ranked = [pop[i] for i in order]
    coords = np.array([s.x for s in ranked]) / (spec.upper - spec.lower)
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
