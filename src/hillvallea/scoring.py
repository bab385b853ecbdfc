"""Peak ratio and static F1 for a reported solution set.

A reported solution matches a known optimum when its published fitness is
within epsilon of the optimal value and it lies within the problem's niche
radius of that optimum. Matching is greedy by ascending fitness error with
each optimum claimable once. A solution with a non-finite fitness or
coordinate matches no optimum.

``static_f1`` is, despite its name, the precision: the share of reported
solutions that match an optimum. The competition's F1 is ``f1_harmonic``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec, Solution

DEFAULT_EPSILON = 1e-5


@dataclass(frozen=True)
class Score:
    peaks_found: int
    peak_ratio: float
    static_f1: float
    f1_harmonic: float
    evaluations_used: int


@dataclass(frozen=True)
class Summary:
    runs: int
    mean_peak_ratio: float
    mean_static_f1: float
    mean_f1_harmonic: float
    mean_evaluations: float


def score(reported: list[Solution], spec: ProblemSpec,
          epsilon: float = DEFAULT_EPSILON,
          evaluations_used: int = 0) -> Score:
    """Score published-orientation solutions against the known optima.

    Raises ``ValueError`` when a solution's coordinate count is not the
    problem's dimension.
    """
    for sol in reported:
        if len(sol.x) != spec.dimension:
            raise ValueError(f"report solutions have {len(sol.x)} coordinates; "
                             f"problem {spec.id} has dimension {spec.dimension}")
    n_opt = spec.num_global_optima
    if not reported:
        return Score(0, 0.0, 0.0, 0.0, evaluations_used)

    pairs = []  # (fitness error, solution index, optimum index)
    for i, sol in enumerate(reported):
        err = abs(sol.f - spec.optimum_fitness)
        if not (err <= epsilon and np.isfinite(sol.x).all()):
            continue
        dists = np.linalg.norm(spec.known_optima - sol.x, axis=1)
        for j in np.flatnonzero(dists <= spec.niche_radius):
            pairs.append((err, i, int(j)))
    pairs.sort()

    claimed_opt: set[int] = set()
    claimed_sol: set[int] = set()
    for err, i, j in pairs:
        if i in claimed_sol or j in claimed_opt:
            continue
        claimed_sol.add(i)
        claimed_opt.add(j)

    peaks = len(claimed_opt)
    pr = peaks / n_opt
    precision = len(claimed_sol) / len(reported)
    harmonic = (2.0 * pr * precision / (pr + precision)) if (pr + precision) > 0 else 0.0
    return Score(peaks, pr, precision, harmonic, evaluations_used)


def aggregate(scores: list[Score]) -> Summary:
    if not scores:
        raise ValueError("no scores to aggregate")
    return Summary(
        runs=len(scores),
        mean_peak_ratio=float(np.mean([s.peak_ratio for s in scores])),
        mean_static_f1=float(np.mean([s.static_f1 for s in scores])),
        mean_f1_harmonic=float(np.mean([s.f1_harmonic for s in scores])),
        mean_evaluations=float(np.mean([s.evaluations_used for s in scores])),
    )
