"""Tent and quadratic interval maps: evaluation, inverse branches, critical data.

The tent map with slope ``s`` is ``x -> min(s*x, s*(1-x))`` on [0, 1]; its
critical point is 1/2 and the image of the critical point is ``s/2``.  The
quadratic map with parameter ``a`` is ``x -> 1 - a*x**2`` on [-1, 1] with
critical point 0.  Both expose the same small protocol (``critical``,
``domain``, ``top``, scalar ``__call__``, and the array methods ``image`` and
``branches``) so that the kernels below need no type dispatch.  ``image`` and
``branches`` are the only place where each map's array formulas are written.

Other modules read their orbits from three kernels: ``backward_tree`` (the
critical point's preimages, where node positions are needed), ``forward_orbit``
(many points, many steps) and ``lap_pieces`` (piece images, for lap numbers).
Only the tree and the salient points read the period of c (``critical_cycle``),
to snap nodes onto c's orbit; the piece walk sees c in its own images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, Union

import numpy as np

from .errors import DomainError, charge

#: two floats this close are one point (c's period and piece images on c);
#: TOL and MATCH_TOL are the float decisions that several modules share
TOL = 1e-12
#: a computed point this close to the point it stands for matches it
MATCH_TOL = 1e-9


@dataclass(frozen=True)
class TentMap:
    """Symmetric tent map ``x -> min(s*x, s*(1-x))`` with slope in (1, 2]."""

    slope: float

    def __post_init__(self) -> None:
        if not 1.0 < self.slope <= 2.0:
            raise DomainError(f"tent slope must lie in (1, 2], got {self.slope}")

    # -- critical data ------------------------------------------------------

    critical: ClassVar[float] = 0.5

    @property
    def top(self) -> float:
        """Image of the critical point, ``s/2``; the map sends [0,1] onto [0, top]."""
        return self.slope / 2.0

    @property
    def second_image(self) -> float:
        """Second image of the critical point, ``s - s**2/2``."""
        return self.slope - self.slope * self.slope / 2.0

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, 1.0)

    # -- dynamics -----------------------------------------------------------

    def __call__(self, x: float) -> float:
        if not -TOL <= x <= 1.0 + TOL:
            raise DomainError(f"tent map input {x} outside [0, 1]")
        return min(self.slope * x, self.slope * (1.0 - x))

    def image(self, x: np.ndarray) -> np.ndarray:
        """The map on an array, each value as ``__call__`` computes it."""
        return np.minimum(self.slope * x, self.slope * (1.0 - x))

    def branches(self, y: np.ndarray) -> np.ndarray:
        """Both inverse branches of the values ``y``: ``y/s``, then ``1 - y/s``."""
        n = np.size(y)
        out = np.empty(2 * n)
        np.divide(y, self.slope, out=out[:n])
        np.subtract(1.0, out[:n], out=out[n:])
        return out


@dataclass(frozen=True)
class QuadraticMap:
    """Real quadratic map ``x -> 1 - a*x**2`` on [-1, 1], parameter in (0, 2]."""

    parameter: float

    def __post_init__(self) -> None:
        if not 0.0 < self.parameter <= 2.0:
            raise DomainError(
                f"quadratic parameter must lie in (0, 2], got {self.parameter}"
            )

    critical: ClassVar[float] = 0.0

    @property
    def domain(self) -> tuple[float, float]:
        return (-1.0, 1.0)

    @property
    def top(self) -> float:
        """Image of the critical point (always 1)."""
        return 1.0

    def fixed_point_positive(self) -> float:
        """The fixed point in (0, 1]: root of ``a*x**2 + x - 1 = 0``."""
        a = self.parameter
        return (-1.0 + math.sqrt(1.0 + 4.0 * a)) / (2.0 * a)

    def __call__(self, x: float) -> float:
        if not -1.0 - TOL <= x <= 1.0 + TOL:
            raise DomainError(f"quadratic map input {x} outside [-1, 1]")
        return 1.0 - self.parameter * x * x

    def image(self, x: np.ndarray) -> np.ndarray:
        """The map on an array, each value as ``__call__`` computes it."""
        return 1.0 - self.parameter * x * x

    def branches(self, y: np.ndarray) -> np.ndarray:
        """Both inverse branches of the values ``y <= 1``: ``-r``, then ``r``,
        with ``r = sqrt((1 - y)/a)``."""
        n = np.size(y)
        out = np.empty(2 * n)
        r = out[n:]
        np.subtract(1.0, y, out=r)
        with np.errstate(over="ignore"):  # a subnormal a: the overflow leaves the domain
            np.divide(r, self.parameter, out=r)
        np.sqrt(r, out=r)
        np.negative(r, out=out[:n])
        return out


UnimodalMap = Union[TentMap, QuadraticMap]


def forward_orbit(map_: UnimodalMap, x, steps: int) -> np.ndarray:
    """Forward orbits of the points ``x``, one row per point.

    Row i holds x_i, f(x_i), ..., f^steps(x_i), each image computed as the
    scalar ``map_(x)`` computes it, so the values agree bit for bit.  The
    points are not checked against the domain.  The matrix is charged to the
    node budget before it is allocated.
    """
    if steps < 0:
        raise DomainError("orbit steps must be nonnegative")
    x = np.asarray(x, dtype=float).ravel()
    charge(x.size * (steps + 1), 0)
    out = np.empty((x.size, steps + 1), order="F")  # each step writes one contiguous column
    out[:, 0] = x
    for k in range(steps):
        out[:, k + 1] = map_.image(out[:, k])
    return out


def critical_orbit(map_: UnimodalMap, n: int) -> list[float]:
    """The first ``n`` images of the critical point: the ``forward_orbit``
    row of c without c, charged to the node budget before it is built."""
    if n < 1:
        raise DomainError("orbit length must be at least 1")
    return forward_orbit(map_, map_.critical, n)[0, 1:].tolist()


def critical_cycle(map_: UnimodalMap, steps: int) -> list[float]:
    """The images f(c), ..., f^P(c), P the first k <= steps with f^k(c)
    within TOL of c, or [] if none; the search holds one point, and is charged
    before it walks.  For 0 < j < P, ``cycle[-1 - j]`` is a node of layer j of
    the backward tree."""
    charge(steps + 1, 0)
    c = x = map_.critical
    for period in range(1, steps + 1):
        x = map_(x)
        if abs(x - c) <= TOL:
            return critical_orbit(map_, period)
    return []


def _increasing_branches(map_: UnimodalMap, y: np.ndarray) -> np.ndarray:
    """Both inverse branches of the increasing values ``y``, in increasing
    order: the left branch as ``branches`` gives it, then the right one
    reversed.  The left branch of an increasing array increases, the right one
    decreases, and every right preimage lies at or above every left one."""
    out = map_.branches(y)
    right = out[np.size(y) :]
    right[:] = right[::-1]  # numpy copies an overlapping operand first
    return out


def backward_tree(map_: UnimodalMap, depth: int) -> Iterator[np.ndarray]:
    """First-hit preimages of the critical point, yielded layer by layer.

    Layer j = 0..depth holds the points x of [domain start, top] with
    f^j(x) = critical, in increasing order; two words of inverse branches
    meet only at the top, whose one preimage is c, so none is deduplicated.
    At a periodic c, the node of each layer nearest its orbit point (see
    ``critical_cycle``) is snapped to it, so the test against the top is exact;
    the nearest node keeps its place in the order.  Each layer is charged to
    the node budget before it is built.
    """
    if depth < 0:
        raise DomainError("tree depth must be nonnegative")
    lo, hi = map_.domain[0], map_.top
    cycle = critical_cycle(map_, depth + 1)
    x = np.array([map_.critical])
    used = charge(1, 0)
    yield x
    for j in range(1, depth + 1):
        x = x[: np.searchsorted(x, hi)]
        used = charge(2 * x.size, used)
        x = _increasing_branches(map_, x)
        if j < len(cycle):
            x[np.argmin(np.abs(x - cycle[-1 - j]))] = cycle[-1 - j]
        x = x[np.searchsorted(x, lo) : np.searchsorted(x, hi, side="right")]
        yield x


def lap_pieces(map_: UnimodalMap, lo: float, hi: float, steps: int) -> Iterator[dict]:
    """Images of the monotone pieces of f^k on [lo, hi], yielded for k = 1..steps.

    Each image is a (low, high) pair held once with the number of pieces that
    share it, so lap(f^k) is the sum of the counts.  A step cuts each image at
    c when c lies strictly inside it; f is monotone on each half, which maps to
    the hull of its end images under the scalar ``map_(x)`` (J. Milnor and W.
    Thurston, LNM 1342, 1988).  An end image within TOL of c is c, so at a
    periodic c the images that end there are not cut again by rounding; no
    period is searched for.  Each step is charged before it is built: its
    images and the 64-bit words of their counts.
    """
    if steps < 0:
        raise DomainError("iterate count must be nonnegative")
    c = map_.critical
    pieces = {(lo, hi): 1}
    used = 0
    for _ in range(steps):
        used = charge(sum(2 * (2 + (n.bit_length() >> 6)) for n in pieces.values()), used)
        ends = {x: c if abs((y := map_(x)) - c) <= TOL else y for x in {c}.union(*pieces)}
        nxt: dict[tuple[float, float], int] = {}
        for (a, b), n in pieces.items():
            for u, v in ((a, c), (c, b)) if a < c < b else ((a, b),):
                fu, fv = ends[u], ends[v]
                key = (fu, fv) if fu <= fv else (fv, fu)
                nxt[key] = nxt.get(key, 0) + n
        pieces = nxt
        yield pieces


def itinerary(map_: UnimodalMap, x: float, n: int) -> str:
    """Kneading symbols of ``x, f(x), ..., f^(n-1)(x)`` against the critical point.

    ``L`` strictly left, ``R`` strictly right, ``C`` within ``MATCH_TOL`` of
    the critical point (the ``C`` test wins over the strict ones).
    """
    if n < 1:
        raise DomainError("itinerary length must be at least 1")
    syms = []
    for _ in range(n):
        if abs(x - map_.critical) <= MATCH_TOL:
            syms.append("C")
        elif x < map_.critical:
            syms.append("L")
        else:
            syms.append("R")
        x = map_(x)
    return "".join(syms)

