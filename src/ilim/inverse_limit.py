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

The arcs nest.  Arc n's fold points are the backward-tree nodes in [0, c]
of layers 0..n, a node of layer j at level n - j.  A node x <= c of layer
j + 1 is y/s for a node y < top of layer j, so arc n + 1 is arc n divided
by s, then the layer nodes in (c, top) divided by s, then c at level n + 1:
each arc's folding pattern is a prefix of the next one's.  As f(x) <= s*x,
no node of layers 0..j lies below c/s**j, so the level-i salient point of
arc n (its first fold point of level i) is c/s**(n-i), by repeated division.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DepthError, DomainError, charge
from .maps import MATCH_TOL, TentMap, backward_tree, critical_cycle


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
        """The ray point over ``t``: coordinates are the forward images of t,
        charged to the node budget before they are built."""
        charge(depth + 1, 0)
        tent = TentMap(slope)
        coords = [t]
        for _ in range(depth):
            coords.append(tent(coords[-1]))
        return cls(slope, tuple(coords))


def validate(pt: BackwardPoint) -> bool:
    """Check the backward-orbit constraints and the range [0, top], to MATCH_TOL."""
    tent, c = TentMap(pt.slope), pt.coords
    return all(-MATCH_TOL <= x <= tent.top + MATCH_TOL for x in c) and all(
        abs(tent(older) - newer) <= MATCH_TOL for older, newer in zip(c, c[1:])
    )


def truncate(pt: BackwardPoint, depth: int) -> BackwardPoint:
    """Forget history beyond ``depth`` steps back; a depth in 0..pt.depth, or DepthError."""
    if not 0 <= depth <= pt.depth:
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


def _levels(orbit: np.ndarray, col: int) -> tuple[np.ndarray, np.ndarray]:
    """The level rule on each row of an orbit matrix, oldest coordinate first:
    the distance back from column ``col`` to the latest coordinate within
    MATCH_TOL of the critical point, and whether there is one."""
    dist = orbit[:, col::-1] - TentMap.critical
    hits = np.abs(dist, out=dist) <= MATCH_TOL
    return np.argmax(hits, axis=1), hits.any(axis=1)


def p_level(x: BackwardPoint, p: int):
    """Smallest l >= 0 such that the coordinate p+l steps back is critical, to
    MATCH_TOL: the level of ``_levels``, which the alignment check reads too.

    Returns math.inf for the all-zeros point, None when no recorded
    coordinate matches.  Points whose history hits the critical point are
    the fold points of their ray at reference depth p.
    """
    if not 0 <= p <= x.depth:
        raise DepthError(f"reference depth {p} outside 0..{x.depth}")
    row = np.array([x.coords])
    if row.max() <= MATCH_TOL and row.min() >= -MATCH_TOL:
        return math.inf  # the all-zeros point
    level, found = _levels(row, x.depth - p)
    return int(level[0]) if found[0] else None


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


class Arc(Sequence):
    """Fold points of one arc as read-only ``positions`` and ``levels`` arrays;
    an item is a ``PPointRecord``, a slice an ``Arc``."""

    def __init__(self, n: int, positions: np.ndarray, levels: np.ndarray) -> None:
        positions.flags.writeable = False
        levels.flags.writeable = False
        self.n, self.positions, self.levels = n, positions, levels

    def __len__(self) -> int:
        return self.positions.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Arc(self.n, self.positions[i], self.levels[i])
        level = int(self.levels[i])
        return PPointRecord(float(self.positions[i]), level, self.n - level)

    def __iter__(self):
        # one conversion of each array, not two numpy scalars per item
        n = self.n
        for position, level in zip(self.positions.tolist(), self.levels.tolist()):
            yield PPointRecord(position, level, n - level)


def arc_records(s: float, n: int) -> Arc:
    """Fold points of the arc from the all-zeros endpoint to the n-th salient point.

    Positions are the values of the deepest coordinate, in [0, critical], in
    increasing order: the nodes of layers 0..n of the backward tree of the
    critical point over [0, top].  A node of layer j first reaches the
    critical point after j forward steps, and its level is n - j.  Each layer
    comes in increasing order, so its nodes on the arc are a prefix, and the
    stable sort merges n + 1 sorted runs; a node shared by two layers keeps
    the order of its layers.
    """
    if n < 1:
        raise DomainError("arc index must be at least 1")
    tent = TentMap(s)
    layers = [x[: np.searchsorted(x, tent.critical, side="right")] for x in backward_tree(tent, n)]
    pos = np.concatenate(layers)
    steps = np.repeat(np.arange(n + 1), [layer.size for layer in layers])
    order = np.argsort(pos, kind="stable")
    return Arc(n, pos[order], n - steps[order])


def arc_to_salient(s: float, n: int) -> FoldingPattern:
    """Folding pattern of the arc ending at the n-th salient point."""
    return FoldingPattern((math.inf, *arc_records(s, n).levels.tolist()))


def folding_pattern_prefix(s: float, count: int) -> FoldingPattern:
    """First ``count`` entries of the folding pattern of the full ray, read off
    the first arc long enough (arcs nest, see the module docstring)."""
    if count < 1:
        raise DomainError("prefix length must be at least 1")
    n = 1
    while len(arc := arc_records(s, n)) + 1 < count:
        n += 1
    return FoldingPattern((math.inf, *arc.levels[: count - 1].tolist()))


def salient_positions(s: float, n: int) -> list[float]:
    """Positions of the first n salient points along the ray: c/s**(n-i) for
    level i (see the module docstring).  Where the critical orbit returns to c
    from the left, these nodes are orbit points, snapped as in backward_tree.
    """
    if n < 1:
        raise DomainError("arc index must be at least 1")
    tent = TentMap(s)
    cycle = critical_cycle(tent, n + 1)
    out = [tent.critical]
    left = True
    for j in range(1, n):
        left = left and j < len(cycle) and cycle[-1 - j] < tent.critical
        out.append(cycle[-1 - j] if left else out[-1] / s)
    return out[::-1]
