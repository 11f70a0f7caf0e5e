"""Lap numbers and entropy from lap growth.

lap(f^n) counts the maximal monotonicity intervals of the n-th iterate; the
table up to n_max is one walk of ``maps.lap_pieces``, whose cost grows with n
and not with the laps.  Entropy is read off as the table's growth rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .maps import TOL, QuadraticMap, TentMap, UnimodalMap, lap_pieces


@dataclass(frozen=True)
class LapTable:
    """Lap numbers of the iterates f^1 .. f^n_max of one map."""

    map_: UnimodalMap
    counts: tuple[int, ...]

    def lap(self, n: int) -> int:
        if not 1 <= n <= len(self.counts):
            raise DomainError(f"lap table covers 1..{len(self.counts)}, asked for {n}")
        return self.counts[n - 1]

    def __len__(self) -> int:
        return len(self.counts)


def lap_table(map_: UnimodalMap, n_max: int) -> LapTable:
    """Exact lap numbers for n = 1..n_max from the piece images over the domain."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    return LapTable(map_, tuple(sum(p.values()) for p in lap_pieces(map_, *map_.domain, n_max)))


def lap_count(map_: UnimodalMap, n: int) -> int:
    """lap(f^n): number of maximal monotonicity intervals of the n-th iterate."""
    return lap_table(map_, n).counts[-1]


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    method: str
    n_used: int
    residual: float


_METHODS = ("slope", "ratio", "ratio2")


def _estimate_at(counts: tuple[int, ...], n: int, method: str) -> float:
    if method == "slope":
        return math.log(counts[n - 1]) / n
    if method == "ratio":
        return math.log(counts[n - 1] / counts[n - 2])
    # ratio over two steps cancels the period-2 oscillation that the plain
    # ratio shows on renormalizable maps
    return 0.5 * math.log(counts[n - 1] / counts[n - 3])


def _estimate(counts: tuple[int, ...], method: str) -> EntropyEstimate:
    """Estimate at the last n of a lap table; residual over the last three n."""
    n_max = len(counts)
    if n_max < 4:
        raise DomainError("entropy estimation needs n_max >= 4")
    tail = [_estimate_at(counts, n, method) for n in (n_max - 2, n_max - 1, n_max)]
    return EntropyEstimate(
        value=tail[-1], method=method, n_used=n_max, residual=max(tail) - min(tail)
    )


def entropy_lap(map_: UnimodalMap, n_max: int, method: str = "ratio") -> EntropyEstimate:
    """Entropy of the map from lap growth, in nats.

    method "slope" uses log(lap(n_max))/n_max, "ratio" the one-step quotient
    log(lap(n_max)/lap(n_max-1)), "ratio2" the half of the two-step quotient.
    The residual is the spread of the estimate over the last three usable n.
    """
    if method not in _METHODS:
        raise DomainError(f"method must be one of {_METHODS}")
    return _estimate(lap_table(map_, n_max).counts, method)


#: growth below `lap(n) <= _POLY_FACTOR * n**2` is treated as subexponential
_POLY_FACTOR = 4
#: zero-entropy cutoff of the two-step lap ratio in ``tent_slope_of_quadratic``
_ZERO_CUTOFF = 0.05


def zero_or_rate(counts: tuple[int, ...], cutoff: float) -> float:
    """Entropy from a lap sequence, with the zero-entropy regime decided here.

    Returns 0 when the growth is subexponential (``counts[-1] <= 4 n**2``)
    and either the two-step ratio falls below ``cutoff`` or the last three
    differences are equal: an eventually-affine lap sequence is a
    zero-entropy signature that the ratio only reaches asymptotically.
    Otherwise returns the two-step ratio clamped to [0, log 2].
    """
    n = len(counts)
    ratio2 = _estimate(counts, "ratio2").value
    d1, d2, d3 = (b - c for b, c in zip(counts[-3:], counts[-4:-1]))
    if counts[-1] <= _POLY_FACTOR * n * n and (ratio2 < cutoff or d1 == d2 == d3):
        return 0.0
    return min(max(ratio2, 0.0), math.log(2.0))


def tent_slope_of_quadratic(a: float, n_max: int = 24, with_estimate: bool = False):
    """Slope of the tent map with the same entropy as the quadratic map q_a.

    Estimates the entropy of q_a from lap growth (two-step ratio) and returns
    its exponential, in [1, 2].  Where ``zero_or_rate`` with cutoff
    ``_ZERO_CUTOFF`` classifies the map as zero-entropy, the sentinel 1.0 is
    returned: there is no entropy-matching tent map in that regime.
    """
    counts = lap_table(QuadraticMap(a), n_max).counts
    h = zero_or_rate(counts, _ZERO_CUTOFF)
    est = _estimate(counts, "ratio2")
    if h == 0.0:
        est = EntropyEstimate(0.0, est.method, est.n_used, est.residual)
    s = math.exp(h)
    return (s, est) if with_estimate else s


def deep_branch_count(map_: TentMap, k: int, delta: float) -> int:
    """Branches of T^k on [0, top] whose image interval has length >= 2*delta;
    the branches are the monotone pieces that ``maps.lap_pieces`` follows."""
    if not delta >= 0:
        raise DomainError(f"delta must be nonnegative, got {delta}")
    pieces = {(0.0, map_.top): 1}
    for pieces in lap_pieces(map_, 0.0, map_.top, k):
        pass
    return sum(n for (lo, hi), n in pieces.items() if hi - lo >= 2.0 * delta - TOL)
