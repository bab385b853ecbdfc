"""Analytic CEC2013 niching benchmark problems 1-10.

Problems 11-20 (composition functions) need external rotation/shift data
and are cataloged as unavailable. All objectives are vectorized over an
(n, d) array and published in maximization orientation; optimum locations
were refined numerically to full float precision (scripts/refine_optima.py)
and are re-verified by the grid-scan oracle tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec


class UnavailableProblem(Exception):
    pass


# Piece k of the trap, from _TRAP_BREAKS[k - 1] (included) to
# _TRAP_BREAKS[k], the last one up to 30 (included), is
# _TRAP_SLOPE[k] * (x - _TRAP_ANCHOR[k]); past 30 the trap is 0. A piece
# published as c * (a - x) is written (-c) * (x - a): the same bits, as
# x never equals a on it, where only the sign of a zero would differ.
_TRAP_BREAKS = np.array([2.5, 5.0, 7.5, 12.5, 17.5, 22.5, 27.5])
_TRAP_SLOPE = np.array([-80.0, 64.0, -64.0, 28.0, -28.0, 32.0, -32.0, 80.0])
_TRAP_ANCHOR = np.array([2.5, 2.5, 7.5, 7.5, 17.5, 17.5, 27.5, 27.5])


def five_uneven_peak_trap(X: np.ndarray) -> np.ndarray:
    x = X[:, 0]
    k = _TRAP_BREAKS.searchsorted(x, side="right")
    return np.where(x <= 30.0, _TRAP_SLOPE[k] * (x - _TRAP_ANCHOR[k]), 0.0)


def equal_maxima(X: np.ndarray) -> np.ndarray:
    return np.sin(5.0 * np.pi * X[:, 0]) ** 6


def uneven_decreasing_maxima(X: np.ndarray) -> np.ndarray:
    x = X[:, 0]
    envelope = np.exp(-2.0 * np.log(2.0) * ((x - 0.08) / 0.854) ** 2)
    return envelope * np.sin(5.0 * np.pi * (x ** 0.75 - 0.05)) ** 6


def himmelblau(X: np.ndarray) -> np.ndarray:
    x, y = X[:, 0], X[:, 1]
    return 200.0 - (x ** 2 + y - 11.0) ** 2 - (x + y ** 2 - 7.0) ** 2


def six_hump_camel_back(X: np.ndarray) -> np.ndarray:
    x, y = X[:, 0], X[:, 1]
    return -4.0 * ((4.0 - 2.1 * x ** 2 + x ** 4 / 3.0) * x ** 2
                   + x * y + (4.0 * y ** 2 - 4.0) * y ** 2)


_SHUBERT_J = np.arange(1, 6)  # the weights j of the terms j cos((j + 1) x + j)
_SHUBERT_FREQ = _SHUBERT_J + 1


def shubert(X: np.ndarray) -> np.ndarray:
    # np.add/np.multiply.reduce are what np.sum/np.prod run, without their
    # Python dispatch, which costs a third of a single-row call.
    j = _SHUBERT_J
    terms = np.add.reduce(j * np.cos(_SHUBERT_FREQ * X[..., None] + j), axis=-1)
    return -np.multiply.reduce(terms, axis=-1)


def vincent(X: np.ndarray) -> np.ndarray:
    # the reduction and division np.mean runs, without its Python dispatch
    return np.add.reduce(np.sin(10.0 * np.log(X)), axis=-1) / X.shape[-1]


_RASTRIGIN_K = np.array([3.0, 4.0])


def modified_rastrigin(X: np.ndarray) -> np.ndarray:
    k = _RASTRIGIN_K
    return -np.add.reduce(10.0 + 9.0 * np.cos(2.0 * np.pi * k * X), axis=-1)


# 1-D building blocks for the product-structured optima, refined to full
# float precision.
_F3_PEAK = 0.07969977961121305
_F3_FOPT = 0.9999998284544727
_HIMMELBLAU_OPTIMA = [
    (3.0, 2.0),
    (-2.805118086952745, 3.131312518250573),
    (-3.779310253377747, -3.2831859912861696),
    (3.5844283403304917, -1.8481265269644036),
]
_CAMEL_OPTIMUM = (0.08984201310031807, -0.7126564030207396)
_CAMEL_FOPT = 4.12651381395951
_SHUBERT_ARGMIN = [-7.708313735499348, -1.425128428319761, 4.858056878859825]
_SHUBERT_ARGMAX = [-7.0835064076515595, -0.8003211004719731, 5.482864206707613]
_SHUBERT_GMIN = -12.870885497725688
_SHUBERT_GMAX = 14.508007927195035
_VINCENT_PEAKS = [
    0.33301843547196486, 0.6242284336485697, 1.1700887874964219,
    2.1932800507380152, 4.111207142885353, 7.706277256305775,
]


def _shubert_optima(d: int) -> np.ndarray:
    """Global optima of the d-dimensional Shubert product: exactly one
    coordinate at a 1-D argmin, the rest at 1-D argmax points."""
    optima = []
    for pos in range(d):
        pools = [_SHUBERT_ARGMAX] * d
        pools[pos] = _SHUBERT_ARGMIN
        optima.extend(itertools.product(*pools))
    return np.array(sorted(optima))


def _vincent_optima(d: int) -> np.ndarray:
    return np.array(sorted(itertools.product(_VINCENT_PEAKS, repeat=d)))


def _rastrigin_optima() -> np.ndarray:
    xs = [(2 * i + 1) / 6.0 for i in range(3)]   # k1 = 3
    ys = [(2 * i + 1) / 8.0 for i in range(4)]   # k2 = 4
    return np.array(sorted(itertools.product(xs, ys)))


@dataclass(frozen=True)
class CatalogEntry:
    id: int
    name: str
    dimension: int
    num_global_optima: int
    budget: int
    available: bool


def _build_specs() -> dict[int, ProblemSpec]:
    specs = {}

    def add(pid, name, d, lower, upper, budget, optima, fopt, radius, fn):
        """``lower`` and ``upper`` are scalars or per-dimension lists; the
        ``optima`` table is (k, d)."""
        specs[pid] = ProblemSpec(
            id=pid, name=name, dimension=d,
            lower=np.full(d, lower, dtype=float), upper=np.full(d, upper, dtype=float),
            budget=budget, known_optima=optima,
            optimum_fitness=fopt, niche_radius=radius, objective=fn)

    add(1, "Five-Uneven-Peak Trap", 1, 0.0, 30.0, 50_000,
        [[0.0], [30.0]], 200.0, 0.01, five_uneven_peak_trap)
    add(2, "Equal Maxima", 1, 0.0, 1.0, 50_000,
        [[0.1], [0.3], [0.5], [0.7], [0.9]], 1.0, 0.01, equal_maxima)
    add(3, "Uneven Decreasing Maxima", 1, 0.0, 1.0, 50_000,
        [[_F3_PEAK]], _F3_FOPT, 0.01, uneven_decreasing_maxima)
    add(4, "Himmelblau", 2, -6.0, 6.0, 50_000,
        _HIMMELBLAU_OPTIMA, 200.0, 0.01, himmelblau)
    add(5, "Six-Hump Camel Back", 2, [-1.9, -1.1], [1.9, 1.1], 50_000,
        [_CAMEL_OPTIMUM, tuple(-v for v in _CAMEL_OPTIMUM)],
        _CAMEL_FOPT, 0.01, six_hump_camel_back)
    add(6, "Shubert", 2, -10.0, 10.0, 200_000,
        _shubert_optima(2), -_SHUBERT_GMIN * _SHUBERT_GMAX, 0.5, shubert)
    add(7, "Vincent", 2, 0.25, 10.0, 200_000,
        _vincent_optima(2), 1.0, 0.2, vincent)
    add(8, "Shubert", 3, -10.0, 10.0, 400_000,
        _shubert_optima(3), -_SHUBERT_GMIN * _SHUBERT_GMAX ** 2, 0.5, shubert)
    add(9, "Vincent", 3, 0.25, 10.0, 400_000,
        _vincent_optima(3), 1.0, 0.2, vincent)
    add(10, "Modified Rastrigin", 2, 0.0, 1.0, 200_000,
        _rastrigin_optima(), -2.0, 0.01, modified_rastrigin)
    return specs


_SPECS = _build_specs()

# Composition-function rows are kept for listings but cannot be run
# without the external rotation-matrix data.
_UNAVAILABLE = {
    11: ("Composition Function 1", 2, 6, 200_000),
    12: ("Composition Function 2", 2, 8, 200_000),
    13: ("Composition Function 3", 2, 6, 200_000),
    14: ("Composition Function 3", 3, 6, 400_000),
    15: ("Composition Function 4", 3, 8, 400_000),
    16: ("Composition Function 3", 5, 6, 400_000),
    17: ("Composition Function 4", 5, 8, 400_000),
    18: ("Composition Function 3", 10, 6, 400_000),
    19: ("Composition Function 4", 10, 8, 400_000),
    20: ("Composition Function 4", 20, 8, 400_000),
}

ALL_IDS = tuple(range(1, 21))


def get_problem(problem_id: int) -> ProblemSpec:
    if problem_id in _SPECS:
        return _SPECS[problem_id]
    if problem_id in _UNAVAILABLE:
        raise UnavailableProblem(
            f"problem {problem_id} unavailable: composition functions out of scope")
    raise ValueError(f"unknown problem id {problem_id}")


def catalog() -> list[CatalogEntry]:
    entries = []
    for pid in ALL_IDS:
        if pid in _SPECS:
            s = _SPECS[pid]
            entries.append(CatalogEntry(pid, s.name, s.dimension,
                                        s.num_global_optima, s.budget, True))
        else:
            name, d, gopt, budget = _UNAVAILABLE[pid]
            entries.append(CatalogEntry(pid, name, d, gopt, budget, False))
    return entries
