"""Renormalization towers of quadratic maps and the entropy values that
self-maps of the associated inverse limits can realize.

A map is renormalizable with period p when an interval around the critical
point, bounded by an orientation-preserving fixed point of the p-th iterate
and its mirror image, maps into itself under the p-th iterate while its
first p images stay pairwise disjoint in the interior.  Its critical
itinerary then repeats with period p away from the multiples of p.  That
kneading test is symbolic and cheap, so it gates the search: only a period
that passes it is tested numerically for such an interval, whose images
are read off two forward orbits; the return map's laps then come from the
piece images of [-z, z], read every p-th step.

The admissible entropy values of a tower are 0 together with all numbers
N * (p_j / p_i) * log s_i where N is an integer at least
(p_i / p_k) * (log s_k / log s_i) for every level k between j and i.  Block
models — rotate the level-(j+1) subcontinua by R and act on each orbit by
powers of the shift — realize exactly such values through the orbit-average
formula implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TowerError, charge
from .lap_entropy import lap_table, zero_or_rate
from .maps import MATCH_TOL, TOL, QuadraticMap, forward_orbit, itinerary, lap_pieces

#: zero-entropy cutoff of the two-step lap ratio (see ``zero_or_rate``)
_ZERO_RATIO = 0.08
#: a fixed point of f^p this close to the critical point bounds no interval
_FIXED_POINT_FLOOR = 1e-7
#: how far a tower's estimated entropies may fall below their bounds
_TOWER_SLACK = 5e-3
#: every float decision of ``detect_renormalization``, by what it decides
DETECT_TOLERANCES = {
    "critical_period": TOL, "fixed_point_root": TOL, "fixed_point_scan_margin": TOL,
    "fixed_point_merge": MATCH_TOL, "kneading_critical": MATCH_TOL, "containment": MATCH_TOL,
    "disjointness": MATCH_TOL, "fixed_point_floor": _FIXED_POINT_FLOOR,
    "zero_entropy_ratio": _ZERO_RATIO, "tower_slack": _TOWER_SLACK,
}


@dataclass(frozen=True)
class RenormTower:
    """Nested periodic-interval periods with the entropy of each return map."""

    periods: tuple[int, ...]
    entropies: tuple[float, ...]
    notes: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        p, h = self.periods, self.entropies
        if not p or p[0] != 1:
            raise TowerError("tower must start with period 1")
        if len(p) != len(h):
            raise TowerError("periods and entropies must pair up")
        for pa, pb in zip(p, p[1:]):
            if pb % pa != 0 or pb <= pa:
                raise TowerError(f"period {pb} must be a proper multiple of {pa}")
        for hi in h:
            if not math.isfinite(hi):
                raise TowerError(f"entropy {hi} must be finite")
            if hi < -_TOWER_SLACK:
                raise TowerError(f"entropy {hi} is negative")
        for pa, ha, pb, hb in zip(p, h, p[1:], h[1:]):
            if ha < (pa / pb) * hb - _TOWER_SLACK:
                raise TowerError(
                    f"entropy {ha} at period {pa} cannot fall below "
                    f"{pa}/{pb} of the next level's {hb}"
                )

    def __len__(self) -> int:
        return len(self.periods)


# ---------------------------------------------------------------------------
# detection


def _fixed_points(quad: QuadraticMap, p: int, bound: float) -> list[float]:
    """Fixed points of the p-th iterate in [-bound, bound], by scan + bisection."""
    xs = np.linspace(-bound, bound, 4001)
    g = forward_orbit(quad, xs, p)[:, -1] - xs
    roots = [float(xs[i]) for i in np.flatnonzero(np.abs(g) <= TOL)]
    sign_change = np.flatnonzero(g[:-1] * g[1:] < 0)
    if sign_change.size:
        lo = xs[sign_change].copy()
        hi = xs[sign_change + 1].copy()
        glo = g[sign_change].copy()
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            gm = forward_orbit(quad, mid, p)[:, -1] - mid
            same = (gm > 0) == (glo > 0)
            lo = np.where(same, mid, lo)
            glo = np.where(same, gm, glo)
            hi = np.where(same, hi, mid)
        roots.extend(float(r) for r in 0.5 * (lo + hi))
    dedup: list[float] = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > MATCH_TOL:
            dedup.append(r)
    return dedup


def _images(quad: QuadraticMap, w: float, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The images f^m([-z, z]), m = 0..p, z = |w|, as (lo, hi) arrays, and the orbit of w.

    While images 1..m-1 avoid the critical point c, f^(m-1) is monotone on
    f([-z, z]) = [f(z), f(c)], so image m is the hull of f^m(c) and f^m(w)
    (W. de Melo and S. van Strien, One-Dimensional Dynamics, 1993, ch. VI).
    The first image to meet c is still exact and overlaps [-z, z], so the
    disjointness test refuses the candidate whatever later hulls read.
    """
    orbit = forward_orbit(quad, [quad.critical, w], p)
    lo, hi = orbit.min(axis=0), orbit.max(axis=0)
    lo[0], hi[0] = -abs(w), abs(w)
    return lo, hi, orbit[1]


def _restrictive_bound(
    quad: QuadraticMap, p: int, z_cur: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Images f^m([-z, z]), m = 0..p, of the smallest period-p restrictive
    interval inside [-z_cur, z_cur] (see ``_images``), or None."""
    candidates = [w for w in _fixed_points(quad, p, z_cur + TOL) if abs(w) > _FIXED_POINT_FLOOR]
    for w in sorted(candidates, key=abs):
        lo, hi, orbit = _images(quad, w, p)
        if np.prod(-2.0 * quad.parameter * orbit[:p]) <= 0:
            continue
        z = hi[0]
        if lo[p] < -z - MATCH_TOL or hi[p] > z + MATCH_TOL:
            continue
        overlap = np.minimum.outer(hi[:p], hi[:p]) - np.maximum.outer(lo[:p], lo[:p])
        if not (np.triu(overlap, 1) > MATCH_TOL).any():
            return lo, hi
    return None


def _kneading_periodic(syms: str, p: int) -> bool:
    """Necessary symbolic condition: the critical itinerary ``syms`` (whose
    symbol k - 1 codes iterate k) repeats with period p away from the
    multiples of p, over its first 6p symbols (critical hits are wildcards)."""
    for k in range(1, min(6 * p, len(syms)) + 1):
        if k % p == 0:
            continue
        s1, s2 = syms[k - 1], syms[(k % p) - 1]
        if "C" in (s1, s2):
            continue
        if s1 != s2:
            return False
    return True


def _return_map_laps(quad: QuadraticMap, p: int, z: float) -> tuple:
    """Lap numbers of the p-th-iterate return map on [-z, z] for its iterates
    j = 1..n_ret: those of f^(p*j), read off ``maps.lap_pieces``."""
    n_ret = max(5, min(12, 22 // p + 1))
    walk = enumerate(lap_pieces(quad, -z, z, p * n_ret), 1)
    return tuple(sum(pieces.values()) for k, pieces in walk if k % p == 0)


def detect_renormalization(a: float, max_period: int = 16) -> RenormTower:
    """Renormalization tower of the quadratic map with parameter ``a``.

    Candidate periods are multiples of the last accepted period, tried in
    increasing order.  A candidate is tested numerically for a restrictive
    interval only when its kneading test passes; one that passes the kneading
    test but has no such interval is noted.  Each accepted level shrinks the
    search interval to the new restrictive interval.  Every level's entropy
    comes from lap growth, classified by ``zero_or_rate``.  Every float
    decision is listed in ``DETECT_TOLERANCES``; the bisection that finds z
    runs a fixed 80 steps.
    """
    if max_period > 64:
        raise DomainError("max_period capped at 64")
    quad = QuadraticMap(a)
    syms = itinerary(quad, quad(quad.critical), 48)
    periods = [1]
    entropies = [zero_or_rate(lap_table(quad, 20).counts, _ZERO_RATIO)]
    notes: list[str] = []
    z_cur = quad.fixed_point_positive()
    while True:
        for p in range(2 * periods[-1], max_period + 1, periods[-1]):
            if not _kneading_periodic(syms, p):
                continue
            images = _restrictive_bound(quad, p, z_cur)
            if images is not None:
                break
            notes.append(f"period {p}: symbolic periodicity without a restrictive interval")
        else:
            break
        periods.append(p)
        z_cur = float(images[1][0])
        entropies.append(zero_or_rate(_return_map_laps(quad, p, z_cur), _ZERO_RATIO))
    return RenormTower(tuple(periods), tuple(entropies), tuple(notes))


# ---------------------------------------------------------------------------
# admissible entropy values


def _level_pairs(tower: RenormTower):
    """Yield (j, i, unit, floor) for each level pair j <= i with log s_i > 0.

    The pair contributes the values N * unit, unit = (p_j / p_i) * log s_i,
    for integers N at least ``floor``, the level-consistency bound.
    """
    p, h = tower.periods, tower.entropies
    for i in range(len(tower)):
        if h[i] <= 0:
            continue
        for j in range(i + 1):
            floor = 1.0
            for k in range(j, i + 1):
                if h[k] > 0:
                    floor = max(floor, (p[i] / p[k]) * (h[k] / h[i]))
            yield j, i, (p[j] / p[i]) * h[i], floor


def entropy_spectrum(tower: RenormTower, h_max: float) -> list[float]:
    """All admissible entropy values up to h_max, sorted and deduplicated."""
    if not 0 < h_max < math.inf:
        raise DomainError(f"h_max must be positive and finite, got {h_max}")
    values = [0.0]
    used = 0
    for _, _, unit, floor in _level_pairs(tower):
        n = max(1, math.ceil(floor - MATCH_TOL))
        # at most (h_max + TOL) / unit - n + 1 values; a unit that underflowed is endless
        used = charge(max((h_max + TOL) / unit - n + 1, 0.0) if unit > 0 else math.inf, used)
        v = n * unit
        while v <= h_max + TOL:
            values.append(v)
            n += 1
            v = n * unit
    values.sort()
    out = [values[0]]
    for v in values[1:]:
        if v - out[-1] > TOL:
            out.append(v)
    return out


@dataclass(frozen=True)
class BlockModel:
    """Self-map model on one tower step: rotate the level+1 subcontinua by R,
    act along each rotation orbit by the given shift powers."""

    R: int
    powers: tuple[int, ...]
    level: int = 0

    def orbit_partition(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of k -> k + R on the residues mod len(powers): the classes
        mod gcd(R, len(powers)), each listed from its smallest member."""
        p_rel = len(self.powers)
        if not p_rel:
            return ()
        g = math.gcd(self.R, p_rel)
        return tuple(tuple((s + k * self.R) % p_rel for k in range(p_rel // g)) for s in range(g))


def block_model_entropy(tower: RenormTower, model: BlockModel) -> float:
    """Entropy of a block model: the base rotation cost R * log s_j against
    the best orbit-averaged shift power on the level above."""
    j = model.level
    if j + 1 >= len(tower):
        raise TowerError(f"tower has no level {j + 1} for the permuted layer")
    p_rel = tower.periods[j + 1] // tower.periods[j]
    if len(model.powers) != p_rel:
        raise TowerError(
            f"model needs {p_rel} shift powers for the level-{j + 1} layer, "
            f"got {len(model.powers)}"
        )
    if model.R < 0 or any(n < 0 for n in model.powers):
        raise TowerError("rotation and shift powers must be nonnegative")
    base = model.R * tower.entropies[j]
    best_orbit = 0.0
    for orb in model.orbit_partition():
        avg = sum(model.powers[l] for l in orb) / len(orb) * tower.entropies[j + 1]
        best_orbit = max(best_orbit, avg)
    return max(base, best_orbit)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    witness: tuple[int, int, int] | None = None


def spectrum_membership(
    tower: RenormTower, value: float, tol: float = MATCH_TOL
) -> MembershipResult:
    """Decide whether ``value`` is an admissible entropy, with a witness.

    Zero is always admissible.  Otherwise a witness (j, i, N) certifies
    value = N * (p_j/p_i) * log s_i with N above the level-consistency floor.
    """
    if not math.isfinite(value):
        raise DomainError(f"entropy value must be finite, got {value}")
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be nonnegative and finite, got {tol}")
    if value < -tol:
        raise DomainError("entropy values are nonnegative")
    if abs(value) <= tol:
        return MembershipResult(True, None)
    for j, i, unit, floor in _level_pairs(tower):
        ratio = value / unit if unit > 0 else math.inf
        if not math.isfinite(ratio):
            raise DomainError(f"value {value} is out of float range against the unit {unit}")
        for n in {math.floor(ratio), math.ceil(ratio)}:
            if n < 1 or n + MATCH_TOL < floor:
                continue
            if abs(value - n * unit) <= tol:
                return MembershipResult(True, (j, i, int(n)))
    return MembershipResult(False, None)
