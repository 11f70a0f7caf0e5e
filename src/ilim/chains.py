"""Chain covers of [0, top] by consecutive half-open links, and their lift
to the inverse limit through the depth-p projection.

A chain at level p is a sorted breakpoint list on [0, top] whose links only
meet their neighbours, whose breakpoints contain every point that reaches
the critical point within p steps, and whose image under the map refines the
chain one level up.  Building the level-0 grid from power-of-two uniform
cells and pulling it back p times gives all three properties by
construction: each pullback divides gaps by the slope, preimages of the
critical point appear automatically, and the image of a pulled-back cell is
a cell of the previous level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthError, DomainError, charge
from .inverse_limit import BackwardPoint, arc_records, projection, salient_positions
from .maps import MATCH_TOL, TOL, TentMap, _increasing_branches, backward_tree, forward_orbit


@dataclass(frozen=True, eq=False)
class IntervalChain:
    """Sorted breakpoints 0 = b_0 < ... < b_m = top at pullback level p, kept
    as a read-only float64 array.  At least two finite breakpoints in
    non-decreasing order, or DomainError."""

    slope: float
    index: int
    breakpoints: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.breakpoints, dtype=float)
        # finite ends and no decreasing step (a NaN fails the step test) make
        # every breakpoint finite, in one pass over the array
        if not (
            b.ndim == 1
            and b.size >= 2
            and math.isfinite(b[0])
            and math.isfinite(b[-1])
            and (b[1:] >= b[:-1]).all()
        ):
            raise DomainError("chain breakpoints must be at least two finite, non-decreasing values")
        b.flags.writeable = False
        object.__setattr__(self, "breakpoints", b)

    @property
    def mesh(self) -> float:
        return float(np.diff(self.breakpoints).max())

    @property
    def n_links(self) -> int:
        return self.breakpoints.size - 1

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "p": self.index,
            "breakpoints": self.breakpoints.tolist(),
            "mesh": self.mesh,
        }


def _dedup(a: np.ndarray) -> np.ndarray:
    """Drop the entries of the non-decreasing ``a`` within TOL of their predecessor."""
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(a), TOL, out=keep[1:])
    return a[keep]


def _base_grid(tent: TentMap, eps: float) -> np.ndarray:
    """Level-0 breakpoints: 0, critical, top, plus a power-of-two uniform grid
    with gap below eps/2.  Power-of-two cell counts nest across eps halvings.
    The count is charged before it is built, and never formed as a float."""
    k = 0
    while math.ldexp(tent.top, 1 - k) >= eps:  # top / 2**k >= eps / 2
        k += 1
    cells = 2**k
    charge(cells + 3, 0)
    grid = np.linspace(0.0, tent.top, cells + 1)
    return _dedup(np.sort(np.concatenate([grid, [tent.critical, tent.top]])))


def _pullback(tent: TentMap, breaks: np.ndarray) -> np.ndarray:
    """Preimages of the increasing breakpoints, which lie in [0, top] and
    include 0.  They come in increasing order (``_increasing_branches``), and
    the clip keeps it, so only near-duplicates are dropped; nothing is sorted.

    Left preimages lie in [0, top/s].  Right ones lie in [1/2, top] up to
    round-off for breakpoints at or above the second image; the rest, and
    the right preimage 1 of 0, lie at or above top.  The clip sends all of
    these onto top, so both ends are in the array, and the extra copies of
    top are dropped with the other duplicates.
    """
    pre = _increasing_branches(tent, breaks)
    return _dedup(np.clip(pre, 0.0, tent.top, out=pre))


def build_chain(s: float, p: int, eps: float) -> IntervalChain:
    """Chain of level p with interval gaps below eps * s**-p / 2.

    The level-0 grid already has gaps below eps/2 and each pullback contracts
    them by the slope, so the projected links on the inverse limit have
    diameter below eps once 2**-p is small against eps (see limit_mesh).
    """
    if p < 0:
        raise DomainError("chain level must be nonnegative")
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps}")
    tent = TentMap(s)
    breaks = _base_grid(tent, eps)
    used = charge(breaks.size, 0)
    for _ in range(p):
        # two preimages per breakpoint plus the two ends, at most
        used = charge(2 * breaks.size + 2, used)
        breaks = _pullback(tent, breaks)
    return IntervalChain(s, p, breaks)


def limit_diameter(chain: IntervalChain, lo: float, hi: float) -> float:
    """Diameter on the inverse limit of the lift of [lo, hi] through depth index.

    A coordinate m steps above the deepest varies by at most s**m * (hi-lo),
    weighted 2**-(p-m); the unconstrained history below depth p adds 2**-p * top.
    """
    coef, tail = _lift_terms(chain)
    return coef * (hi - lo) + tail


def _lift_terms(chain: IntervalChain) -> tuple[float, float]:
    """The width coefficient and the constant of ``limit_diameter``."""
    s, p = chain.slope, chain.index
    return sum(2.0 ** (m - p) * s**m for m in range(p + 1)), 2.0**-p * (s / 2.0)


def limit_mesh(chain: IntervalChain) -> float:
    """Largest lifted-link diameter on the inverse limit."""
    return limit_diameter(chain, 0.0, chain.mesh)


def link_of(chain: IntervalChain, x: BackwardPoint) -> int:
    """Index of the half-open link [b_j, b_{j+1}) containing the depth-p
    coordinate of x; the final link is closed on the right."""
    if chain.index > x.depth:
        raise DepthError(f"chain level {chain.index} exceeds point depth {x.depth}")
    if x.slope != chain.slope:
        raise DomainError("point and chain live over different slopes")
    j = int(np.searchsorted(chain.breakpoints, projection(x, chain.index), side="right")) - 1
    return min(max(j, 0), chain.n_links - 1)


def refines(fine: IntervalChain, coarse: IntervalChain) -> bool:
    """True when every fine link's image lies in one coarse closed link, to TOL."""
    if fine.slope != coarse.slope:
        raise DomainError("chains live over different slopes")
    if fine.index != coarse.index + 1:
        raise DomainError(
            f"refinement compares level p+1 against p, got {fine.index} vs {coarse.index}"
        )
    tent = TentMap(fine.slope)
    fb, cb = fine.breakpoints, coarse.breakpoints
    image = forward_orbit(tent, fb, 1)[:, 1]
    lo = np.minimum(image[:-1], image[1:])
    hi = np.maximum(image[:-1], image[1:])
    # a link straddling the critical point folds; its image tops out at top
    straddles = (fb[:-1] < tent.critical - TOL) & (fb[1:] > tent.critical + TOL)
    hi[straddles] = tent.top
    j = np.searchsorted(cb, 0.5 * (lo + hi)) - 1
    j = np.clip(j, 0, len(cb) - 2)
    ok = (lo >= cb[j] - TOL) & (hi <= cb[j + 1] + TOL)
    return bool(ok.all())


def adjacency_ok(chain: IntervalChain) -> bool:
    """Closed links meet exactly when their indices are adjacent.

    For an interval chain this reduces to the breakpoints being strictly
    increasing: equal neighbours would glue non-adjacent links together.
    """
    return bool((np.diff(chain.breakpoints) > 0).all())


def mandatory_ok(chain: IntervalChain) -> bool:
    """Every point reaching the critical point within p steps is a breakpoint, to MATCH_TOL."""
    tent = TentMap(chain.slope)
    need = np.concatenate(list(backward_tree(tent, chain.index)))
    breaks = chain.breakpoints
    idx = np.searchsorted(breaks, need)
    lo = np.abs(breaks[np.maximum(idx - 1, 0)] - need)
    hi = np.abs(breaks[np.minimum(idx, breaks.size - 1)] - need)
    return bool((np.minimum(lo, hi) <= MATCH_TOL).all())


@dataclass(frozen=True)
class AlignmentReport:
    """Outcome of the level-alignment check for a power of the shift."""

    slope: float
    q: int
    p: int
    R: int
    n: int
    M: int
    checks: int
    passed: int
    failures: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return self.checks > 0 and self.passed == self.checks


def verify_plevel_alignment(s: float, q: int, p: int, R: int, n: int) -> AlignmentReport:
    """Check that R shifts raise fold levels by exactly M = R + q - p.

    Every fold point of level l on the arc (read at reference depth q) must,
    after R shifts, be a fold point of level l + M at reference depth p, and
    its depth-p coordinate must agree with the depth-p coordinate of the
    salient point of level l + M — same value up to MATCH_TOL, hence the same
    link of any level-p chain.

    The check reads one orbit matrix: row i holds the images 0..q+n+R of
    record i's position, its coordinates after R shifts.  Column q+n+R-p is
    the depth-p coordinate, and the level is the distance back from it to the
    latest column within MATCH_TOL of the critical point.
    """
    if not (q >= p >= 0):
        raise DomainError("need q >= p >= 0")
    if R < 0 or n < 1:
        raise DomainError("need R >= 0 and n >= 1")
    M = R + q - p
    tent = TentMap(s)
    arc = arc_records(s, n)
    reference = build_chain(s, p, eps=0.05)
    salients = salient_positions(s, n + M)
    target = arc.levels + M
    col = q + n + R - p
    orbit = forward_orbit(tent, arc.positions, q + n + R)
    value = orbit[:, col]
    dist = orbit[:, col::-1] - tent.critical
    hits = np.abs(dist, out=dist) <= MATCH_TOL
    del dist  # as large as the orbit matrix; freed before the link lookups
    found = hits.any(axis=1)
    level = np.argmax(hits, axis=1)
    # the all-zeros point has level inf
    all_zero = (orbit.max(axis=1) <= MATCH_TOL) & (orbit.min(axis=1) >= -MATCH_TOL)
    level_ok = found & ~all_zero & (level == target)
    # reference of each target level: the critical point at level 0, else the
    # depth-p coordinate of that level's salient point
    ref = np.concatenate([[tent.critical], forward_orbit(tent, salients, n + M)[:, -1]])
    links = np.searchsorted(reference.breakpoints, np.concatenate([value, ref]), side="right")
    link, ref_link = np.split(np.clip(links - 1, 0, reference.n_links - 1), [value.size])
    same_link = (target == 0) | (link == ref_link[target])
    passed = level_ok & ((np.abs(value - ref[target]) <= MATCH_TOL) | same_link)
    failures = []
    for i in np.flatnonzero(~passed).tolist():
        if not level_ok[i]:
            lv = math.inf if all_zero[i] else int(level[i]) if found[i] else None
            failures.append(
                f"position {arc.positions[i]:.12g}: level {lv} after {R} shifts, "
                f"expected {int(target[i])}"
            )
        else:
            failures.append(
                f"position {arc.positions[i]:.12g}: depth-{p} coordinate {value[i]:.12g} "
                f"vs salient {ref[target[i]]:.12g}"
            )
    return AlignmentReport(
        slope=s, q=q, p=p, R=R, n=n, M=M,
        checks=len(arc), passed=int(passed.sum()), failures=tuple(failures),
    )
