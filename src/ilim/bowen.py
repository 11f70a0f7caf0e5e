"""Separated-set entropy estimation for powers of the shift on finite clouds.

The cloud is a matrix of backward orbits (rows, oldest coordinate first).
Forward images of a point only append columns, so the distance between two
points after k applications of the R-th shift power is a weighted prefix sum
of coordinate gaps ending at column depth + R*k.  One cumulative sum per
candidate pair therefore prices all time steps at once, which keeps the
greedy separated-set scan quadratic rather than cubic.

Neither stage loops over points in Python.  `sample_points` grows every
seed's branches in one array.  `_greedy_counts` settles the greedy scan at
every horizon n' <= n in one pass: it tests rows in blocks of `_BLOCK`
against the rows kept at any n', with at most `_SLICE` kept rows and
`_SLICE` distance curves held at once, and keeps a table of the horizons at
which each row is kept.  `separated_count` stores the counts on the cloud,
keyed by (R, eps), so the n_max calls of one separation curve cost one
pass.  The greedy result is the one a row-at-a-time scan at n' gives, bit
for bit: each pair's curve is the same sequential sum over the same columns,
scaled by a power of two, compared with eps in the same way.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .chains import _lift_terms, build_chain, limit_mesh
from .errors import DepthError, DomainError, PartitionError, charge
from .inverse_limit import BackwardPoint
from .lap_entropy import EntropyEstimate
from .maps import TentMap, forward_orbit

DEFAULT_EPS_LIST = (2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)

#: largest mean squared residual per point of a growth-fit window
_FIT_RESIDUAL = 0.02

#: rows that the greedy scan tests against its kept rows at once
_BLOCK = 64
#: most kept rows, and most row pairs, that one step of the scan compares
_SLICE = 512


@dataclass(frozen=True, eq=False)
class PointCloud:
    slope: float
    depth: int
    array: np.ndarray  # (N, depth+1), rows sorted lexicographically; read-only
    #: greedy counts by (R, eps), for n' = 1..len; see separated_count
    _counts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        array = np.array(self.array, dtype=float)  # a copy no one else can write
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    def __len__(self) -> int:
        return self.array.shape[0]

    @property
    def points(self) -> list[BackwardPoint]:
        return [BackwardPoint(self.slope, tuple(row)) for row in self.array]

    def subcloud(self, size: int) -> "PointCloud":
        """Evenly strided subset, for brute-force cross-checks."""
        if size < 1:
            raise DomainError(f"a subcloud needs at least one row, got size {size}")
        n = len(self)
        if size >= n:
            return self
        idx = np.unique((np.arange(size) * n) // size)
        return PointCloud(self.slope, self.depth, self.array[idx])


def sample_points(
    s: float, depth: int, per_branch_cap: int = 4, n_seeds: int = 512
) -> PointCloud:
    """Backward branch enumeration from a uniform seed grid on the core.

    Each backward step doubles the branch count where both preimages exist;
    beyond per_branch_cap branches per seed an evenly strided subset is kept,
    so the result is deterministic in the parameters.  All seeds step
    together in one array, each row tagged with its seed: a seed's rows are
    its left branches, then its right ones, and a seed with m > cap rows
    keeps the ranks (j*m)//cap, j < cap.  Each step is charged to the node
    budget before it is built.  Rows are deduplicated and sorted
    lexicographically (the greedy scan order).
    """
    if not 0 <= depth <= 30:
        raise DomainError(f"cloud depth must lie in 0..30, got {depth}")
    if per_branch_cap < 1 or n_seeds < 1:
        raise DomainError("per_branch_cap and n_seeds must be positive")
    tent = TentMap(s)
    second, top = tent.second_image, tent.top
    used = charge(n_seeds, 0)
    hist = np.linspace(second, top, n_seeds + 2)[1:-1, None]  # newest column last
    seed = np.arange(n_seeds)  # each row's seed; a seed's rows stay contiguous
    for _ in range(depth):
        y = hist[:, -1]
        can_right = y >= second
        used = charge(y.size + int(np.count_nonzero(can_right)), used)
        pre = tent.branches(y)
        right = np.flatnonzero(can_right)
        # each seed's left branches in order, then its right ones
        order = np.argsort(np.concatenate([2 * seed, 2 * seed[right] + 1]), kind="stable")
        parent = np.concatenate([np.arange(y.size), right])[order]
        newest = np.concatenate([pre[: y.size], pre[y.size :][right]])[order]
        seed = seed[parent]
        m = np.bincount(seed, minlength=n_seeds)
        over = np.flatnonzero(m > per_branch_cap)
        if over.size:  # ranks (j*m)//cap, j < cap, of each seed with m > cap rows
            start = np.cumsum(m) - m
            keep = m[seed] <= per_branch_cap
            ranks = (np.arange(per_branch_cap) * m[over, None]) // per_branch_cap
            keep[(start[over, None] + ranks).ravel()] = True
            parent, newest, seed = parent[keep], newest[keep], seed[keep]
        hist = np.hstack([hist[parent], newest[:, None]])
    arr = np.unique(hist[:, ::-1], axis=0)  # oldest column first
    return PointCloud(s, depth, arr)


def _check_cloud(cloud: PointCloud) -> None:
    if len(cloud) == 0:
        raise DomainError("the cloud has no rows")
    if not np.isfinite(cloud.array).all():
        raise DomainError("the cloud has a non-finite coordinate")


def _check_eps(eps: float) -> None:
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps}")


def _extend_forward(cloud: PointCloud, steps: int) -> np.ndarray:
    """Cloud matrix with `steps` forward-image columns appended."""
    ahead = forward_orbit(TentMap(cloud.slope), cloud.array[:, -1], steps)
    return np.hstack([cloud.array[:, :-1], ahead])


def _end_columns(depth: int, R: int, n: int) -> np.ndarray:
    """Index of the newest coordinate of the k-th orbit point, k = 0..n-1."""
    cols = depth + R * np.arange(n)
    if cols.min() < 0:
        raise DepthError(
            f"shift power {R} over {n} steps needs depth >= {-R * (n - 1)}"
        )
    return cols


def _greedy_counts(cloud: PointCloud, R: int, n: int, eps: float) -> np.ndarray:
    """Greedy (n', eps)-separated counts for n' = 1..n, in one pass.

    A pair is held at n' when it is within eps at every time k < n'; the
    greedy scan at n' keeps a row unless a row kept at n' before it holds it.
    So the kept rows differ from n' to n', and the pass keeps a table of
    them: each block of rows is tested once against the rows kept at any n',
    and a pair's distance curve, read once, decides every n' it is held at.
    A pair matters only from the first n' at which its earlier row is kept,
    so only times before that are pruned by the newest-coordinate gap.  The
    kept table and every pair compared are charged to the node budget, as
    one total, before they are built.
    """
    ends = _end_columns(cloud.depth, R, n)
    N = len(cloud)
    used = charge(N * n, 0)  # the kept table
    weighted = _extend_forward(cloud, int(ends.max()) - cloud.depth)
    W = weighted.shape[1]
    present = weighted[:, cloud.depth].copy()  # |gap| here alone decides time k=0 at weight 1
    weighted *= np.power(2.0, np.arange(W) - (W - 1))
    newest = weighted[:, ends].T.copy()  # row k: each point's newest coordinate at time k
    scale = np.power(2.0, (W - 1) - ends.astype(float))
    forward = np.flatnonzero(ends > cloud.depth)  # the times after the present

    def near(rows, cands):
        # a pair this far apart at the present coordinate is separated at k=0
        nonlocal used
        used = charge(rows.size * cands.size, used)
        return np.abs(present[rows, None] - present[cands]) <= eps

    def held(rows, cands, pairs, first):
        """The (i, j) among `pairs` that rows[i] holds at some n' >= first[i],
        with [p, n'-1] true when pair p is held at n'."""
        i, j = np.nonzero(pairs)
        # d_k is a prefix sum of nonnegative gaps that ends in the newest gap
        # at time k, so a pair that gap alone parts at k < first is held at
        # no n' >= first; forward images spread pairs apart, which prunes
        # most pairs before any sum is taken
        for k in forward:
            close = (first[i] <= k) | (
                np.abs(newest[k, rows[i]] - newest[k, cands[j]]) * scale[k] <= eps
            )
            i, j = i[close], j[close]
        out = np.empty((i.size, n), dtype=bool)
        for lo in range(0, i.size, _SLICE):
            a, b = rows[i[lo : lo + _SLICE]], cands[j[lo : lo + _SLICE]]
            pref = np.cumsum(np.abs(weighted[a] - weighted[b]), axis=1)
            out[lo : lo + _SLICE] = pref[:, ends] * scale <= eps
        out = np.logical_and.accumulate(out, axis=1)
        some = out[np.arange(i.size), first[i] - 1]
        return i[some], j[some], out[some]

    kept = np.empty(N, dtype=np.intp)  # rows kept at some n', in scan order
    table = np.empty((N, n), dtype=bool)  # [m, n'-1]: kept[m] is kept at n'
    count = 0
    for lo in range(0, N, _BLOCK):
        free = np.arange(lo, min(lo + _BLOCK, N))
        blocked = np.zeros((free.size, n), dtype=bool)  # [c, n'-1]: held at n'
        # mark the block's rows that some row kept before the block holds
        live = np.arange(free.size)
        for klo in range(0, count, _SLICE):
            if not live.size:
                break
            stop = min(klo + _SLICE, count)
            rows, tab = kept[klo:stop], table[klo:stop]
            first = np.argmax(tab, axis=1) + 1  # the first n' at which each row is kept
            i, j, on = held(rows, free[live], near(rows, free[live]), first)
            hit, t = np.nonzero(on & tab[i])
            blocked[live[j[hit]], t] = True
            live = live[~blocked[live].all(axis=1)]
        # then settle the survivors against each other in scan order; a row's
        # first n' is not known yet, but it is no earlier than its first free n'
        low = np.argmin(blocked[live], axis=1) + 1
        i, j, on = held(free[live], free[live], np.triu(near(free[live], free[live]), 1), low)
        later = np.zeros((live.size, live.size, n), dtype=bool)  # [a, b]: a holds b > a
        later[i, j] = on
        for c in np.unique(i):  # only rows that hold a later row
            blocked[live[c + 1 :]] |= later[c, c + 1 :] & ~blocked[live[c]]
        new = np.flatnonzero(~blocked.all(axis=1))
        kept[count : count + new.size] = free[new]
        table[count : count + new.size] = ~blocked[new]
        count += new.size
    return table[:count].sum(axis=0)


def separated_count(cloud: PointCloud, R: int, n: int, eps: float) -> int:
    """Greedy maximal (n, eps)-separated subset size for the R-th shift power.

    Points are scanned in the fixed lexicographic order; a point is kept iff
    every kept point is more than eps away at some time k < n.  Negative R
    runs the inverse shift (history truncation), which needs depth >= |R|*(n-1).

    One pass gives the counts at every n' <= n (`_greedy_counts`).  They are
    stored on the cloud, keyed by (R, eps), so a later call at n' no larger
    than a stored horizon reads the table and scans nothing; the cloud's
    array is read-only, so the table cannot go stale.  A cloud with no rows,
    or with a non-finite coordinate, is refused.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    _check_eps(eps)
    counts = cloud._counts.get((R, eps))
    if counts is None or counts.size < n:
        _check_cloud(cloud)
        counts = cloud._counts[R, eps] = _greedy_counts(cloud, R, n, eps)
    return int(counts[n - 1])


@dataclass(frozen=True)
class SeparationCurve:
    eps: float
    counts: tuple[tuple[int, int], ...]  # (n, separated count)
    estimate: float
    window: tuple[int, int]
    residual: float


def _fit_growth(counts: list[int]) -> tuple[float, tuple[int, int], float, bool]:
    """Slope of log(count) vs n on the longest window with small residual.

    Windows need at least 4 points and residual below _FIT_RESIDUAL per point; if none
    qualifies the best length-4 window is used and flagged.  The terminal
    plateau — a constant suffix where the greedy count has hit the sample's
    packing capacity — is excluded from the search: it measures the cloud,
    not the orbit growth.
    """
    t = len(counts) - 1
    while t > 0 and counts[t - 1] == counts[-1]:
        t -= 1
    trimmed = counts[: t + 1]  # keeps the first plateau point
    if len(trimmed) < 4:
        trimmed = counts
    logs = np.log(np.asarray(trimmed, dtype=float))
    ns = np.arange(1, len(trimmed) + 1, dtype=float)
    best = fallback = None  # (length, -residual, slope, window, residual)
    for i in range(len(trimmed)):
        for j in range(i + 3, len(trimmed)):
            x = ns[i : j + 1]
            y = logs[i : j + 1]
            slope, icept = np.polyfit(x, y, 1)
            res = float(np.sum((y - (slope * x + icept)) ** 2) / len(x))
            cand = (j - i + 1, -res, slope, (i + 1, j + 1), res)
            if res < _FIT_RESIDUAL and (best is None or cand[:2] > best[:2]):
                best = cand
            if j == i + 3 and (fallback is None or res < fallback[4]):
                fallback = cand
    chosen = best or fallback  # counts has at least 4 points, so a fallback exists
    return chosen[2], chosen[3], chosen[4], best is None


def _scales(eps_list) -> tuple:
    eps_list = tuple(eps_list)
    if not eps_list:
        raise DomainError("the eps list is empty; give at least one scale")
    return eps_list


def separation_curves(
    cloud: PointCloud,
    R: int,
    eps_list=DEFAULT_EPS_LIST,
    n_max: int = 10,
) -> list[SeparationCurve]:
    """Separated-set counts for n = 1..n_max at each eps, with fitted growth;
    warns when the cloud's depth is coarse against the finest eps.

    The whole call is charged to the node budget, and each n checked against
    the cloud's depth, before the first scan.  Each eps then costs one pass,
    at n_max; the other counts are read from its table."""
    if n_max < 4:
        raise DomainError("n_max must be at least 4")
    eps_list = _scales(eps_list)
    _check_cloud(cloud)
    if 2.0**-cloud.depth > min(eps_list) / 4.0:
        warnings.warn(
            "depth truncation is coarse against the finest eps; "
            "counts at that scale may be unreliable",
            stacklevel=2,
        )
    used = 0  # one budget total for the whole call, charged before any scan
    for eps in eps_list:
        for n in range(1, n_max + 1):
            # per point: a row of the scan's extended matrix, and its n distances
            used = charge(len(cloud) * (cloud.depth + 1 + max(R * (n - 1), 0) + n), used)
            # each scan's own refusals, in the order in which the scans would meet them
            _check_eps(eps)
            _end_columns(cloud.depth, R, n)
    curves = []
    for eps in eps_list:
        # n_max first: one pass, whose table the other n read
        counts = [separated_count(cloud, R, n, eps) for n in range(n_max, 0, -1)][::-1]
        if len(set(counts)) == 1:
            curves.append(
                SeparationCurve(eps, tuple(enumerate(counts, 1)), 0.0, (1, n_max), 0.0)
            )
            continue
        slope, window, res, flagged = _fit_growth(counts)
        if flagged:
            warnings.warn(
                f"no linear regime of length >= 4 at eps={eps}; using best short window",
                stacklevel=2,
            )
        curves.append(
            SeparationCurve(eps, tuple(enumerate(counts, 1)), float(slope), window, float(res))
        )
    return curves


def entropy_bowen(
    s: float,
    R: int,
    depth: int = 12,
    eps_list=DEFAULT_EPS_LIST,
    n_max: int = 10,
    per_branch_cap: int = 4,
    n_seeds: int = 4096,
) -> EntropyEstimate:
    """Entropy of the R-th shift power from separated-set growth.

    Builds the standard cloud, fits the growth rate per eps, and returns the
    largest rate over the eps list (the small-eps supremum at desk scale).
    """
    eps_list = _scales(eps_list)  # refused before the cloud is sampled
    cloud = sample_points(s, depth, per_branch_cap, n_seeds)
    curves = separation_curves(cloud, R, eps_list, n_max)
    return estimate_from_curves(curves)


def estimate_from_curves(curves) -> EntropyEstimate:
    """Reduce per-eps growth fits to one estimate: the largest rate wins."""
    best = max(curves, key=lambda c: c.estimate)
    return EntropyEstimate(
        value=max(best.estimate, 0.0),
        method="bowen",
        n_used=best.window[1] - best.window[0] + 1,
        residual=best.residual,
    )


def partition_blocks(s: float, eps0: float) -> tuple[np.ndarray, int]:
    """Block boundaries of the coding partition at scale eps0.

    Consecutive links of a fine chain are merged while the lifted diameter
    stays within 2*eps0; the chain level q is chosen so single links lift to
    diameter well under eps0, making every block (except possibly the last)
    land in (eps0, 2*eps0].  Returns (boundaries, chain level).
    """
    if not 0 < eps0 < math.inf:
        raise PartitionError(f"eps0 must be positive and finite, got {eps0}")
    tent = TentMap(s)
    q = max(1, math.ceil(math.log2(4.0 * tent.top / eps0)))
    chain = build_chain(s, q, eps0 / 4.0)
    breaks = chain.breakpoints
    if limit_mesh(chain) > 2.0 * eps0:  # the widest single link
        raise PartitionError("single link exceeds the block scale")
    # a block [b_i, b_j] ends at the last j whose limit_diameter is within
    # 2*eps0, at least i + 1; the diameter grows with j, so bisect for it
    coef, tail = _lift_terms(chain)
    b = breaks.tolist()
    bounds = [b[0]]
    i = 0
    while i < len(b) - 1:
        bi = b[i]
        k = bisect.bisect_right(b, 2.0 * eps0, i + 1, key=lambda v: coef * (v - bi) + tail)
        i = max(i + 1, k - 1)
        bounds.append(b[i])
    return np.asarray(bounds), q


def itinerary_upper_bound(
    cloud: PointCloud, R: int, m: int, eps0: float, n: int
) -> int:
    """Distinct block itineraries of length n under the (R*m)-th shift power.

    Each orbit point is coded by the partition block of its depth-q
    coordinate; two points (n, 2*eps0)-separated under the same power must
    differ in some symbol, so this count dominates separated_count at the
    matched scale.
    """
    if n < 1 or m < 1:
        raise DomainError("need n >= 1 and m >= 1")
    _check_cloud(cloud)
    bounds, q = partition_blocks(cloud.slope, eps0)
    if q > cloud.depth:
        raise DepthError(
            f"coding needs depth >= {q} for eps0 ={eps0}, cloud has {cloud.depth}"
        )
    step = R * m
    ends = _end_columns(cloud.depth, step, n)
    ext = _extend_forward(cloud, int(ends.max()) - cloud.depth)
    cols = ends - q
    codes = np.searchsorted(bounds, ext[:, cols], side="right")
    return len({tuple(row) for row in codes})
