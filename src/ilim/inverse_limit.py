"""Finite-depth points of the tent-map inverse limit and their arc combinatorics.

A point of the inverse limit is a backward orbit: a sequence of coordinates
each of which maps onto the next.  We work with finite truncations (depth D
keeps coordinates D steps into the past) under the weighted metric in which
the coordinate k steps back contributes with weight 2**-k, so truncation at
depth D perturbs distances by at most top * 2**-D.

The ray that starts at the all-zeros point is parametrized by the deepest
coordinate: the point over t has every coordinate equal to a forward image
of t.  Points on that ray whose history hits the critical point are the
fold points of the ray; their levels (how far past the reference depth the
hit occurs) form the folding pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthError, DomainError
from .maps import TentMap, backward_tree

_TOL = 1e-9


@dataclass(frozen=True)
class BackwardPoint:
    """Backward orbit truncated at finite depth.

    ``coords`` is ordered oldest first: ``coords[0]`` lies ``depth`` steps in
    the past and ``coords[-1]`` is the present coordinate.
    """

    slope: float
    coords: tuple[float, ...]

    @property
    def depth(self) -> int:
        return len(self.coords) - 1

    @property
    def current(self) -> float:
        return self.coords[-1]

    @classmethod
    def zeros(cls, slope: float, depth: int) -> "BackwardPoint":
        """The endpoint fixed by the shift: every coordinate 0."""
        return cls(slope, (0.0,) * (depth + 1))

    @classmethod
    def from_deepest(cls, slope: float, t: float, depth: int) -> "BackwardPoint":
        """The ray point over ``t``: coordinates are the forward images of t."""
        tent = TentMap(slope)
        coords = [t]
        for _ in range(depth):
            coords.append(tent(coords[-1]))
        return cls(slope, tuple(coords))


def validate(pt: BackwardPoint, tol: float = _TOL) -> bool:
    """Check the backward-orbit constraints and the coordinate range [0, top]."""
    tent = TentMap(pt.slope)
    top = tent.top
    for x in pt.coords:
        if not -tol <= x <= top + tol:
            return False
    for older, newer in zip(pt.coords, pt.coords[1:]):
        if abs(tent(older) - newer) > tol:
            return False
    return True


def truncate(pt: BackwardPoint, depth: int) -> BackwardPoint:
    """Forget history beyond ``depth`` steps back."""
    if depth > pt.depth:
        raise DepthError(f"cannot truncate depth-{pt.depth} point to depth {depth}")
    return BackwardPoint(pt.slope, pt.coords[pt.depth - depth :])


def metric(x: BackwardPoint, y: BackwardPoint) -> float:
    """Weighted coordinate distance; histories are truncated to the shallower depth.

    The coordinate k steps into the past contributes |x_k - y_k| * 2**-k, so
    the discarded tail of a depth-D truncation is worth at most top * 2**-D.
    """
    if x.slope != y.slope:
        raise DomainError("points live over different slopes")
    d = min(x.depth, y.depth)
    if x.depth != d:
        x = truncate(x, d)
    if y.depth != d:
        y = truncate(y, d)
    total = 0.0
    for k, (a, b) in enumerate(zip(x.coords, y.coords)):
        total += abs(a - b) * 2.0 ** (k - d)
    return total


def shift(x: BackwardPoint) -> BackwardPoint:
    """Apply the induced homeomorphism: append the image of the present coordinate."""
    tent = TentMap(x.slope)
    return BackwardPoint(x.slope, x.coords + (tent(x.current),))


def unshift(x: BackwardPoint) -> BackwardPoint:
    """Inverse of shift: drop the present coordinate (exact, no branch choice)."""
    if x.depth == 0:
        raise DepthError("cannot unshift a depth-0 point")
    return BackwardPoint(x.slope, x.coords[:-1])


def projection(x: BackwardPoint, k: int) -> float:
    """Coordinate k steps into the past."""
    if not 0 <= k <= x.depth:
        raise DepthError(f"projection depth {k} outside 0..{x.depth}")
    return x.coords[x.depth - k]


def p_level(x: BackwardPoint, p: int, tol: float = _TOL):
    """Smallest l >= 0 such that the coordinate p+l steps back is critical.

    Returns math.inf for the all-zeros point, None when no recorded
    coordinate matches.  Points whose history hits the critical point are
    the fold points of their ray at reference depth p.
    """
    if p > x.depth:
        raise DepthError(f"reference depth {p} exceeds point depth {x.depth}")
    if all(abs(c) <= tol for c in x.coords):
        return math.inf
    crit = TentMap(x.slope).critical
    for l in range(x.depth - p + 1):
        if abs(projection(x, p + l) - crit) <= tol:
            return l
    return None


@dataclass(frozen=True)
class PPointRecord:
    """A fold point of the ray: position of its deepest coordinate, level, and
    the number of forward steps from the position to the critical point."""

    position: float
    level: int
    preimage_index: int


@dataclass(frozen=True)
class FoldingPattern:
    """Levels of the fold points along an arc, in arc order.

    The head entry is math.inf when the arc starts at the all-zeros endpoint.
    """

    entries: tuple

    def as_strings(self) -> list[str]:
        return ["inf" if e == math.inf else str(int(e)) for e in self.entries]

    def alternates(self) -> bool:
        """No two consecutive entries equal (folds switch levels)."""
        return all(a != b for a, b in zip(self.entries, self.entries[1:]))

    def __str__(self) -> str:
        return " ".join(self.as_strings())

    def __len__(self) -> int:
        return len(self.entries)


def arc_records(s: float, n: int) -> list[PPointRecord]:
    """Fold points of the arc from the all-zeros endpoint to the n-th salient point.

    Positions are the values of the deepest coordinate, in [0, critical], in
    increasing order: the nodes of layers 0..n of the backward tree of the
    critical point over [0, top].  A node of layer j first reaches the
    critical point after j forward steps, and its level is n - j.
    """
    if n < 1:
        raise DomainError("arc index must be at least 1")
    tent = TentMap(s)
    layers = backward_tree(tent, n, window=(0.0, tent.top))
    pos = np.concatenate(layers)
    steps = np.repeat(np.arange(n + 1), [layer.size for layer in layers])
    on_arc = pos <= tent.critical
    pos, steps = pos[on_arc], steps[on_arc]
    order = np.argsort(pos, kind="stable")
    return [
        PPointRecord(position=x, level=n - j, preimage_index=j)
        for x, j in zip(pos[order].tolist(), steps[order].tolist())
    ]


def arc_to_salient(s: float, n: int) -> FoldingPattern:
    """Folding pattern of the arc ending at the n-th salient point."""
    levels = [r.level for r in arc_records(s, n)]
    return FoldingPattern((math.inf, *levels))


def folding_pattern_prefix(s: float, count: int) -> FoldingPattern:
    """First ``count`` entries of the folding pattern of the full ray.

    Successive arcs extend each other, so the prefix is read off the first
    arc long enough to contain it; we still grow until two arcs agree.
    """
    if count < 1:
        raise DomainError("prefix length must be at least 1")
    prev = None
    for n in range(2, count + 30):
        cur = arc_to_salient(s, n).entries[:count]
        if cur == prev and len(cur) == count:
            return FoldingPattern(cur)
        prev = cur
    raise DomainError("folding-pattern prefix did not stabilize")


def salient_positions(s: float, n: int) -> list[float]:
    """Positions of the first n salient points along the ray.

    The i-th salient point is the first fold point of the arc whose level
    reaches i; scanning in arc order with a running maximum finds them all.
    """
    records = arc_records(s, n)
    out = []
    best = 0
    for r in records:
        if r.level > best and r.level >= 1:
            if r.level != best + 1:
                raise DomainError(
                    f"salient levels skipped from {best} to {r.level}; arc too short"
                )
            out.append(r.position)
            best = r.level
    if best != n:
        raise DomainError(f"arc only reaches salient level {best}, wanted {n}")
    return out
