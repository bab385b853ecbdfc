"""Peak ratio and static F1 for a reported solution set.

The reported set is one population pair ``(x, f)``: an (n, d) matrix of
coordinates and the (n,) vector of published fitness, as in
``RunReport.solutions``. A reported solution matches a known optimum when
its published fitness is within epsilon of the optimal value and it lies
within the problem's niche radius of that optimum. Matching is greedy by
ascending fitness error with each optimum claimable once. A solution with
a non-finite fitness or coordinate matches no optimum.

``static_f1`` is, despite its name, the precision: the share of reported
solutions that match an optimum. The competition's F1 is ``f1_harmonic``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec

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


def score(reported: tuple[np.ndarray, np.ndarray], spec: ProblemSpec,
          epsilon: float = DEFAULT_EPSILON,
          evaluations_used: int = 0) -> Score:
    """Score a published-orientation population pair ``(x, f)`` against the
    known optima.

    Raises ``ValueError`` when the rows' coordinate count is not the
    problem's dimension.
    """
    x, f = reported
    if not len(f):
        return Score(0, 0.0, 0.0, 0.0, evaluations_used)
    if x.shape[1] != spec.dimension:
        raise ValueError(f"report solutions have {x.shape[1]} coordinates; "
                         f"problem {spec.id} has dimension {spec.dimension}")
    err = np.abs(f - spec.optimum_fitness)
    rows = np.flatnonzero((err <= epsilon) & np.isfinite(x).all(axis=1))
    dists = np.linalg.norm(spec.known_optima - x[rows, None, :], axis=2)
    i, j = np.nonzero(dists <= spec.niche_radius)
    i = rows[i]

    claimed_sol, claimed_opt = set(), set()
    for _, s, o in sorted(zip(err[i].tolist(), i.tolist(), j.tolist())):
        if s not in claimed_sol and o not in claimed_opt:
            claimed_sol.add(s)
            claimed_opt.add(o)

    peaks = len(claimed_opt)
    pr = peaks / spec.num_global_optima
    precision = len(claimed_sol) / len(f)
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
