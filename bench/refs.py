"""Reference answers computed apart from ilim, used to check its outputs.

Nothing here calls into ilim.  Each function rebuilds one answer from its
mathematical definition, so a fast path in the package that drifts from the
definition is caught by comparison rather than by a frozen number.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference or property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# separated sets


def greedy_rescan(rows: np.ndarray, slope: float, depth: int, R: int, n: int, eps: float) -> int:
    """Greedy (n, eps)-separated count for the R-th shift power, by definition.

    Rows are backward orbits, oldest coordinate first, present coordinate in
    column `depth`.  Each row is extended forward with the tent map.  After k
    applications of the R-th power the present coordinate sits in column
    e_k = depth + R*k, and the distance of two points is the weighted sum
    sum_j |x_j - y_j| * 2**(j - e_k) over columns j <= e_k.  Rows are taken
    in the given order; a row is kept when every kept row is more than eps
    away at some k < n.
    """
    ends = [depth + R * k for k in range(n)]
    if min(ends) < 0:
        raise ValueError("the cloud is too shallow for this shift power")
    steps = max(max(ends) - depth, 0)
    ext = np.empty((rows.shape[0], rows.shape[1] + steps))
    ext[:, : rows.shape[1]] = rows
    for c in range(rows.shape[1], ext.shape[1]):
        prev = ext[:, c - 1]
        ext[:, c] = np.minimum(slope * prev, slope * (1.0 - prev))
    cols = np.arange(ext.shape[1])
    weights = np.zeros((ext.shape[1], n))
    for k, e in enumerate(ends):
        weights[: e + 1, k] = 2.0 ** (cols[: e + 1] - e)
    kept: list[int] = []
    for i in range(ext.shape[0]):
        if kept:
            dist = np.abs(ext[kept] - ext[i]) @ weights  # (kept, n)
            if not (dist > eps).any(axis=1).all():
                continue
        kept.append(i)
    return len(kept)


# ---------------------------------------------------------------------------
# fold points of the full-slope tent map


def dyadic_fold_points(n: int) -> dict[Fraction, int]:
    """Fold points of the arc to the n-th salient point at slope 2, exactly.

    At slope 2 the points of [0, 1/2] whose orbit first reaches 1/2 after j
    steps are the dyadics odd/2**(j+1), and such a point has level n - j.
    """
    out = {Fraction(1, 2): n}
    for j in range(1, n + 1):
        den = 2 ** (j + 1)
        for m in range(1, 2**j, 2):
            out[Fraction(m, den)] = n - j
    return out


def dyadic_salient_positions(n: int) -> list[Fraction]:
    """The i-th salient point at slope 2 sits at 2**-(n - i + 1), i = 1..n."""
    return [Fraction(1, 2 ** (n - i + 1)) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# entropy spectra of renormalization towers


def _floor(periods, entropies, j: int, i: int) -> float:
    """Least multiplier N for the pair (j, i): N >= (p_i/p_k)(h_k/h_i), k in j..i."""
    bound = 1.0
    for k in range(j, i + 1):
        if entropies[k] > 0:
            bound = max(bound, (periods[i] / periods[k]) * (entropies[k] / entropies[i]))
    return bound


def spectrum_values(periods, entropies, h_max: float) -> list[float]:
    """0 and every N * (p_j/p_i) * h_i <= h_max with N at least the floor."""
    values = {0.0}
    for i, hi in enumerate(entropies):
        if hi <= 0:
            continue
        for j in range(i + 1):
            unit = Fraction(periods[j], periods[i])
            N = max(1, math.ceil(_floor(periods, entropies, j, i) - 1e-9))
            while float(N * unit) * hi <= h_max + 1e-12:
                values.add(float(N * unit) * hi)
                N += 1
    return sorted(values)


def same_values(got, want, tol: float = 1e-9) -> bool:
    """Two sorted value lists agree once values closer than tol are merged."""

    def merged(vals):
        out: list[float] = []
        for v in sorted(vals):
            if not out or v - out[-1] > tol:
                out.append(v)
        return out

    a, b = merged(got), merged(want)
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def witness_holds(periods, entropies, value: float, witness, tol: float = 1e-9) -> bool:
    """A witness (j, i, N) certifies value = N * (p_j/p_i) * h_i above the floor."""
    j, i, N = witness
    if not 0 <= j <= i < len(periods) or entropies[i] <= 0:
        return False
    if N + 1e-9 < _floor(periods, entropies, j, i):
        return False
    return abs(value - N * (periods[j] / periods[i]) * entropies[i]) <= tol


def block_entropy(periods, entropies, level: int, R: int, powers) -> float:
    """max(R * h_j, best orbit average of the shift powers times h_{j+1}).

    The orbits are the cycles of k -> k + R on the p_{j+1}/p_j subcontinua.
    """
    p_rel = len(powers)
    best = 0.0
    seen = set()
    for start in range(p_rel):
        if start in seen:
            continue
        orbit = []
        k = start
        while k not in seen:
            seen.add(k)
            orbit.append(k)
            k = (k + R) % p_rel
        best = max(best, sum(powers[k] for k in orbit) / len(orbit) * entropies[level + 1])
    return max(R * entropies[level], best)
