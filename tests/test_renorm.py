"""Renormalization towers, admissible entropy values, and block models."""

import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ilim
from ilim import (
    BlockModel,
    DomainError,
    RenormTower,
    ResourceCapError,
    TowerError,
    block_model_entropy,
    detect_renormalization,
    entropy_spectrum,
    spectrum_membership,
)
from ilim import renorm
from ilim.maps import QuadraticMap, backward_tree, forward_orbit, lap_pieces
from ilim.renorm import _restrictive_bound
from test_maps import _hex_steps, _period_lap_pieces

LOG2 = math.log(2.0)
A_STAR = 1.5436890126920764  # smallest parameter whose square is full-height

EXAMPLE_TOWER = RenormTower((1, 2), (0.5, 0.8))


# ---------------------------------------------------------------------------
# tower validation


def test_valid_towers_pass():
    EXAMPLE_TOWER.validate()
    RenormTower((1,), (LOG2,)).validate()
    RenormTower((1, 2, 4), (0.0, 0.0, 0.0)).validate()


def test_tower_entropies_may_exceed_log_two():
    # return maps act on shrunken intervals, so their rates are not capped
    # by the base map's maximum
    RenormTower((1, 2, 4), (0.5, 0.8, 1.4)).validate()


def test_tower_must_start_at_period_one():
    with pytest.raises(TowerError):
        RenormTower((2, 4), (0.1, 0.2)).validate()


def test_tower_periods_must_be_proper_multiples():
    with pytest.raises(TowerError):
        RenormTower((1, 3, 4), (0.1, 0.2, 0.3)).validate()
    with pytest.raises(TowerError):
        RenormTower((1, 2, 2), (0.1, 0.2, 0.2)).validate()


def test_tower_rejects_negative_entropy():
    with pytest.raises(TowerError):
        RenormTower((1, 2), (-0.01, 0.1)).validate()
    with pytest.raises(TowerError, match="finite"):
        RenormTower((1, 2), (math.nan, 0.1))


def test_tower_rejects_entropy_collapse():
    # period-1 entropy 0.2 cannot sit below half of the period-2 level's 0.8
    with pytest.raises(TowerError):
        RenormTower((1, 2), (0.2, 0.8)).validate()


def test_tower_pairs_periods_with_entropies():
    with pytest.raises(TowerError):
        RenormTower((1, 2), (0.5,)).validate()


# ---------------------------------------------------------------------------
# detection


def test_full_height_map_is_not_renormalizable():
    tower = detect_renormalization(2.0, max_period=4)
    assert tower.periods == (1,)
    assert tower.entropies[0] == pytest.approx(LOG2, abs=0.02)


def test_low_parameter_doubles_once_at_small_horizon():
    tower = detect_renormalization(1.3, max_period=2)
    assert tower.periods == (1, 2)
    assert all(abs(h) < 0.02 for h in tower.entropies)


def test_low_parameter_doubles_again_at_larger_horizon():
    tower = detect_renormalization(1.3, max_period=4)
    assert tower.periods == (1, 2, 4)
    assert all(abs(h) < 0.02 for h in tower.entropies)


def test_once_renormalizable_parameter_splits_the_entropy():
    tower = detect_renormalization(A_STAR, max_period=2)
    assert tower.periods == (1, 2)
    assert tower.entropies[0] == pytest.approx(LOG2 / 2, abs=0.02)
    assert tower.entropies[1] == pytest.approx(LOG2, abs=0.02)


def test_doubling_cascade_parameter_stacks_periods():
    # near the accumulation of period doubling the tower keeps doubling;
    # the return-map entropy estimates are unreliable this close to the
    # accumulation point, so only the periods are pinned here
    tower = detect_renormalization(1.401155, max_period=8)
    assert tower.periods == (1, 2, 4, 8)


def test_detection_is_deterministic():
    t1 = detect_renormalization(1.3, max_period=4)
    t2 = detect_renormalization(1.3, max_period=4)
    assert t1.periods == t2.periods
    assert t1.entropies == t2.entropies


def test_detection_rejects_huge_horizons_and_bad_parameters():
    with pytest.raises(DomainError):
        detect_renormalization(1.3, max_period=128)
    for max_period in (0, -3):
        with pytest.raises(DomainError, match="max_period"):
            detect_renormalization(1.3, max_period)
    with pytest.raises(DomainError):
        detect_renormalization(2.5)


def test_detected_towers_validate():
    for a in (2.0, 1.3, A_STAR):
        detect_renormalization(a, max_period=4).validate()


def _tower_images(a, max_period):
    """(p, lo, hi, laps) for each level above the base: the images f^m([-z, z]),
    m = 0..p, and the return map's laps."""
    quad = QuadraticMap(a)
    z = quad.fixed_point_positive()
    out = []
    for p in detect_renormalization(a, max_period).periods[1:]:
        lo, hi, laps = _restrictive_bound(quad, p, z)
        out.append((p, lo, hi, laps))
        z = float(hi[0])
    return out


def _iterate_range(quad, lo, hi, k, layers):
    """Oracle: the range of f^k over [lo, hi] from its endpoints and the
    critical preimages of layers 0..k-1 inside it, read off the tree."""
    pts = [lo, hi]
    for j in range(min(k, len(layers))):
        inside = layers[j][(layers[j] > lo) & (layers[j] < hi)]
        pts.extend(float(v) for v in inside)
    vals = forward_orbit(quad, pts, k)[:, -1]
    return float(vals.min()), float(vals.max())


def _full_tree_laps(quad, p, z, n_ret):
    """Oracle: return-map laps counted on the whole tree to depth p * (n_ret - 1)."""
    layers = list(backward_tree(quad, p * (n_ret - 1)))
    total, counts = 0, []
    for j in range(n_ret):
        layer = layers[p * j]
        total += int(np.count_nonzero((layer > -z + 1e-12) & (layer < z - 1e-12)))
        counts.append(1 + total)
    return tuple(counts)


@pytest.mark.parametrize("a,max_period", [(A_STAR, 2), (1.3, 4), (1.401155, 8), (1.63, 5)])
def test_orbit_images_equal_the_tree_ranges(a, max_period):
    quad = QuadraticMap(a)
    for p, lo, hi, _ in _tower_images(a, max_period):
        layers = list(backward_tree(quad, p - 1))
        z = float(hi[0])
        assert float(lo[0]) == -z
        for m in range(1, p + 1):
            got = (float(lo[m]).hex(), float(hi[m]).hex())
            assert got == tuple(v.hex() for v in _iterate_range(quad, -z, z, m, layers))


@pytest.mark.parametrize(
    "a,max_period,periods",
    [
        (A_STAR, 2, (2,)),
        (1.3, 4, (2, 4)),
        (1.401155, 8, (2, 4, 8)),
        (1.7548776662466927, 3, (3,)),  # superstable period 3: snapped nodes
        (1.3107026413368328, 4, (2, 4)),  # superstable period 4
        (1.63, 5, (5,)),
    ],
)
def test_windowed_return_map_laps_equal_the_full_tree(a, max_period, periods):
    quad = QuadraticMap(a)
    levels = _tower_images(a, max_period)
    assert tuple(p for p, _, _, _ in levels) == periods
    for p, lo, hi, laps in levels:
        assert laps == _full_tree_laps(quad, p, float(hi[0]), len(laps))


#: detect_renormalization on the grid, frozen: a -> (periods, float.hex entropies,
#: periods noted as symbolic periodicity without a restrictive interval)
TOWER_GRID = {
    1.30: ((1, 2, 4), ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"), (8, 12, 16)),
    1.31: ((1, 2, 4), ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"), (8, 12, 16)),
    1.32: (
        (1, 2, 4, 8),
        ("0x1.aace48ea39980p-4", "0x1.8113925feff78p-3", "0x0.0p+0", "0x0.0p+0"),
        (16,),
    ),
    1.33: (
        (1, 2, 4, 8),
        ("0x1.aace48ea39980p-4", "0x1.8113925feff78p-3", "0x0.0p+0", "0x0.0p+0"),
        (16,),
    ),
    1.34: (
        (1, 2, 4, 8),
        ("0x1.aace48ea39980p-4", "0x1.8113925feff78p-3", "0x0.0p+0", "0x0.0p+0"),
        (16,),
    ),
    1.35: (
        (1, 2, 4, 8),
        ("0x1.aace48ea39980p-4", "0x1.8113925feff78p-3", "0x0.0p+0", "0x0.0p+0"),
        (16,),
    ),
    1.36: (
        (1, 2, 4, 8),
        ("0x1.aace48ea39980p-4", "0x1.8113925feff78p-3", "0x0.0p+0", "0x0.0p+0"),
        (16,),
    ),
    1.37: (
        (1, 2, 4, 8),
        ("0x1.aace48ea39980p-4", "0x1.8113925feff78p-3", "0x0.0p+0", "0x0.0p+0"),
        (16,),
    ),
    1.38: (
        (1, 2, 4, 8),
        ("0x1.aace48ea39980p-4", "0x1.8113925feff78p-3", "0x0.0p+0", "0x0.0p+0"),
        (16,),
    ),
    1.39: (
        (1, 2, 4, 8, 16),
        (
            "0x1.2c22f7a56532ep-3",
            "0x1.136ebeae802c2p-2",
            "0x1.a74269f84330ep-2",
            "0x0.0p+0",
            "0x0.0p+0",
        ),
        (),
    ),
    1.40: (
        (1, 2, 4, 8, 16),
        (
            "0x1.44c8de3b4c312p-3",
            "0x1.2effb68f350c5p-2",
            "0x1.ff3f2bbae1804p-2",
            "0x1.02f84700434a8p-1",
            "0x0.0p+0",
        ),
        (),
    ),
    1.41: (
        (1, 2, 4),
        ("0x1.44c8de3b4c312p-3", "0x1.2effb68f350c5p-2", "0x1.ff3f2bbae1804p-2"),
        (),
    ),
    1.42: (
        (1, 2, 4),
        ("0x1.6fc2aaf88a808p-3", "0x1.5d87b16aaf947p-2", "0x1.3765af18fb239p-1"),
        (),
    ),
    1.43: (
        (1, 2, 4),
        ("0x1.8a6cbd8ecec93p-3", "0x1.7e92e2d5ec088p-2", "0x1.62e42fefa39efp-1"),
        (),
    ),
    1.44: ((1, 2), ("0x1.a8cb1874356dep-3", "0x1.a1d9064f9b972p-2"), ()),
    1.45: ((1, 2), ("0x1.c7d953f690034p-3", "0x1.c137565dd982dp-2"), ()),
    1.46: ((1, 2), ("0x1.db94372147770p-3", "0x1.d5e0841ce19dcp-2"), ()),
    1.47: ((1, 2), ("0x1.f1d83fd89e1dep-3", "0x1.ed9c13a2846d7p-2"), ()),
    1.48: (
        (1, 2, 6, 12),
        ("0x1.009d8c6e40966p-2", "0x1.fa7da14d9134dp-2", "0x0.0p+0", "0x0.0p+0"),
        (),
    ),
    1.49: ((1, 2), ("0x1.0c336852b1101p-2", "0x1.086a73e4b186bp-1"), (16,)),
    1.50: ((1, 2), ("0x1.18fae81967dcep-2", "0x1.178d802da5b60p-1"), ()),
    1.51: ((1, 2), ("0x1.2a1b55e8b8640p-2", "0x1.28d961429953dp-1"), ()),
    1.52: ((1, 2), ("0x1.38ee5eb020abfp-2", "0x1.3809484a1776ep-1"), ()),
    1.53: ((1, 2), ("0x1.452212021347cp-2", "0x1.4484d063122a7p-1"), ()),
    1.54: ((1, 2), ("0x1.587218bb8d2d5p-2", "0x1.57e70d3066700p-1"), ()),
    1.55: ((1,), ("0x1.6fd8b0ae8535dp-2",), ()),
    1.56: ((1,), ("0x1.7a41f3c6176f1p-2",), ()),
    1.57: ((1,), ("0x1.838b70943d0d5p-2",), ()),
    1.58: ((1,), ("0x1.896648d80c2a2p-2",), ()),
    1.59: ((1,), ("0x1.923a533d4787ap-2",), ()),
    1.60: ((1,), ("0x1.9967c3ab18eeep-2",), ()),
    1.61: ((1,), ("0x1.a25149fe395e4p-2",), ()),
    1.62: ((1,), ("0x1.a771e1420e1ecp-2",), ()),
    1.63: ((1, 5, 10), ("0x1.a85c51b792f90p-2", "0x1.02f84700434a8p-1", "0x0.0p+0"), ()),
    1.64: ((1,), ("0x1.ab9ea867d9e2ep-2",), ()),
    1.65: ((1,), ("0x1.b41b373beb566p-2",), ()),
    1.66: ((1,), ("0x1.bbce9bd68dd5bp-2",), ()),
    1.67: ((1,), ("0x1.c3b1ad47c22d3p-2",), ()),
    1.68: ((1,), ("0x1.c6eaadd485b0fp-2",), ()),
    1.69: ((1,), ("0x1.cf753a5168095p-2",), ()),
    1.70: ((1,), ("0x1.d8af4bcbe869ap-2",), ()),
    1.71: ((1,), ("0x1.df68b3f082fd3p-2",), ()),
    1.72: ((1,), ("0x1.e3f456d9286fep-2",), ()),
    1.73: ((1,), ("0x1.e91d74c02f1c0p-2",), ()),
    1.74: ((1,), ("0x1.ec1a0d0bd0d9bp-2",), ()),
    1.75: ((1,), ("0x1.ecc2ca9860b93p-2",), (3, 6, 9, 12, 15)),
    1.76: ((1, 3, 6), ("0x1.eccec4d021db2p-2", "0x0.0p+0", "0x0.0p+0"), (12,)),
    1.77: ((1, 3, 6), ("0x1.eccec4d021db2p-2", "0x0.0p+0", "0x0.0p+0"), (12,)),
    1.78: (
        (1, 3, 6, 12),
        (
            "0x1.ed29440e36d76p-2",
            "0x1.9622538a62802p-2",
            "0x1.193ea7aad030bp-1",
            "0x1.193ea7aad030bp-1",
        ),
        (),
    ),
    1.79: ((1, 3), ("0x1.eddab8c344091p-2", "0x1.51d180573df79p-1"), ()),
    1.80: ((1,), ("0x1.f672eb9fc88e6p-2",), ()),
    1.81: ((1, 8), ("0x1.ffac69ddb3c7ep-2", "0x0.0p+0"), ()),
    1.82: ((1,), ("0x1.05a5ac0751cd2p-1",), ()),
    1.83: ((1,), ("0x1.0aec83e5890fap-1",), ()),
    1.84: ((1,), ("0x1.0eeb753bd43f2p-1",), ()),
    1.85: ((1,), ("0x1.1405cabe43ce4p-1",), ()),
    1.86: ((1,), ("0x1.164a80e4e5842p-1",), ()),
    1.87: ((1, 8), ("0x1.18606d15f86bfp-1", "0x0.0p+0"), ()),
    1.88: ((1,), ("0x1.1dcccc6e8b06fp-1",), ()),
    1.89: ((1,), ("0x1.22843c77d752cp-1",), ()),
    1.90: ((1,), ("0x1.27c87e8b72717p-1",), ()),
    1.91: ((1,), ("0x1.2b7e60270acf8p-1",), ()),
    1.92: ((1,), ("0x1.305e16b630fb1p-1",), ()),
    1.93: ((1,), ("0x1.34b0d2be7769fp-1",), ()),
    1.94: ((1,), ("0x1.38006009c1a9fp-1",), ()),
    1.95: ((1,), ("0x1.3ab756a30eaf4p-1",), ()),
    1.96: ((1,), ("0x1.405b0fbdc0c29p-1",), ()),
    1.97: ((1,), ("0x1.45c48d7315bdep-1",), ()),
    1.98: ((1,), ("0x1.4c82fcb9d6f89p-1",), ()),
    1.99: ((1,), ("0x1.536c0af7d66c4p-1",), ()),
}


def test_tower_grid_is_frozen(monkeypatch):
    # entropies on [1.32, 1.40] are frozen as computed: the base level there
    # still reads the short lap tables as positive entropy
    monkeypatch.setenv("ILIM_MAX_NODES", "20000000")
    for a, (periods, entropies, noted) in TOWER_GRID.items():
        tower = detect_renormalization(a, 16 if a < 1.8 else 8)
        assert tower.periods == periods, a
        assert tuple(h.hex() for h in tower.entropies) == entropies, a
        assert tower.notes == tuple(
            f"period {q}: symbolic periodicity without a restrictive interval" for q in noted
        ), a


def test_tower_walks_are_the_period_based_walks(monkeypatch):
    # every [-z, z] walk of the frozen grid, one per candidate interval, against
    # the walk that searched for the period of c first: each step as detection
    # reads it, all of an accepted walk and the first p of a rejected one
    monkeypatch.setenv("ILIM_MAX_NODES", "20000000")
    walks = []

    def both(map_, lo, hi, steps):
        walks.append(0)
        oracle = _period_lap_pieces(map_, lo, hi, steps)
        for want, got in zip(oracle, lap_pieces(map_, lo, hi, steps)):
            assert _hex_steps([got]) == _hex_steps([want])
            walks[-1] += 1
            yield got

    monkeypatch.setattr(renorm, "lap_pieces", both)
    for a in TOWER_GRID:
        detect_renormalization(a, 16 if a < 1.8 else 8)
    assert (len(walks), sum(walks)) == (981, 14477)


#: superstable parameters -> the period of c, at which the walk reads f^p(c) as c
SUPERSTABLE = {
    1.7548776662466927: 3,
    1.9407998065294845: 4,
    1.6254137251233036: 5,
    1.9997740486937274: 8,
}


def _grid():
    """(a, max_period) for every frozen grid parameter and every superstable one."""
    return [*((a, 16 if a < 1.8 else 8) for a in TOWER_GRID), *((a, 16) for a in SUPERSTABLE)]


def _two_orbit_images(quad, w, p):
    """Oracle: the images f^m([-z, z]), m = 0..p, z = |w|, as (lo, hi) arrays,
    each the hull of f^m(c) and f^m(w), the rule that holds while images
    1..m-1 avoid c; detection read them so before it walked the pieces."""
    orbit = forward_orbit(quad, [quad.critical, w], p)
    lo, hi = orbit.min(axis=0), orbit.max(axis=0)
    lo[0], hi[0] = -abs(w), abs(w)
    return lo, hi


def _bisected_fixed_points(quad, p, bound):
    """Oracle: the fixed points of f^p in [-bound, bound], bisected a fixed 80 steps."""
    xs = np.linspace(-bound, bound, 4001)
    g = forward_orbit(quad, xs, p)[:, -1] - xs
    roots = [float(xs[i]) for i in np.flatnonzero(np.abs(g) <= 1e-12)]
    sign_change = np.flatnonzero(g[:-1] * g[1:] < 0)
    if sign_change.size:
        lo, hi, glo = xs[sign_change], xs[sign_change + 1], g[sign_change]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            gm = forward_orbit(quad, mid, p)[:, -1] - mid
            same = (gm > 0) == (glo > 0)
            lo = np.where(same, mid, lo)
            glo = np.where(same, gm, glo)
            hi = np.where(same, hi, mid)
        roots.extend(float(r) for r in 0.5 * (lo + hi))
    dedup = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > 1e-9:
            dedup.append(r)
    return dedup


def test_walk_images_are_the_two_orbit_hulls(monkeypatch):
    # every accepted level; at a superstable level the walk reads the end
    # f^p(c) of image p as c itself, where the orbit keeps its rounding
    monkeypatch.setenv("ILIM_MAX_NODES", "20000000")
    levels = []

    def record(quad, p, z_cur):
        found = _restrictive_bound(quad, p, z_cur)
        if found is not None:
            levels.append((quad, p, *found[:2]))
        return found

    monkeypatch.setattr(renorm, "_restrictive_bound", record)
    for a, max_period in _grid():
        detect_renormalization(a, max_period)
    assert len(levels) == sum(len(periods) - 1 for periods, _, _ in TOWER_GRID.values()) + 4
    snapped = set()
    for quad, p, lo, hi in levels:
        # f(-z) = f(z) bit for bit, so the orbit of z stands for that of w
        want_lo, want_hi = _two_orbit_images(quad, float(hi[0]), p)
        assert [v.hex() for v in hi] == [v.hex() for v in want_hi], (quad, p)
        if SUPERSTABLE.get(quad.parameter) == p:
            assert lo[p] == quad.critical and abs(want_lo[p]) <= 1e-12
            snapped.add(quad.parameter)
            lo, want_lo = lo[:p], want_lo[:p]
        assert [v.hex() for v in lo] == [v.hex() for v in want_lo], (quad, p)
    assert snapped == set(SUPERSTABLE)


def test_orientation_from_sides_is_the_derivative_sign(monkeypatch):
    # every candidate that detection tests for orientation (each passed
    # containment and disjointness), then every candidate whose images 1..p-1
    # avoid c, orientation-reversing ones included
    monkeypatch.setenv("ILIM_MAX_NODES", "20000000")
    root_sets, tested = [], []
    bisect, sides = renorm._fixed_points, renorm._preserves_orientation

    def derivative_sign(quad, w, p):
        return np.prod(-2.0 * quad.parameter * forward_orbit(quad, w, p)[0, :p]) > 0

    def record(quad, p, bound):
        root_sets.append((quad, p, bisect(quad, p, bound)))
        return root_sets[-1][2]

    def both(w, lo, hi):
        got = sides(w, lo, hi)
        assert got == derivative_sign(root_sets[-1][0], w, len(lo) - 1), (root_sets[-1], w)
        tested.append(got)
        return got

    monkeypatch.setattr(renorm, "_fixed_points", record)
    monkeypatch.setattr(renorm, "_preserves_orientation", both)
    for a, max_period in _grid():
        detect_renormalization(a, max_period)
    assert len(tested) == 68
    decided = {True: 0, False: 0}
    for quad, p, roots in root_sets:
        for w in (w for w in roots if abs(w) > renorm._FIXED_POINT_FLOOR):
            steps = list(lap_pieces(quad, -abs(w), abs(w), p))
            lo = np.array([-abs(w), *(min(u for u, _ in s) for s in steps)])
            hi = np.array([abs(w), *(max(v for _, v in s) for s in steps)])
            if ((lo[1:p] <= 0) & (hi[1:p] >= 0)).any():
                continue
            want = derivative_sign(quad, w, p)
            assert sides(w, lo, hi) == want, (quad, p, w)
            decided[bool(want)] += 1
    assert decided == {True: 98, False: 50}


def test_fixed_points_are_the_80_step_roots(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "20000000")
    calls = []
    bisect = renorm._fixed_points

    def both(quad, p, bound):
        got = bisect(quad, p, bound)
        assert [r.hex() for r in got] == [r.hex() for r in _bisected_fixed_points(quad, p, bound)]
        calls.append(p)
        return got

    monkeypatch.setattr(renorm, "_fixed_points", both)
    for a, max_period in _grid():
        detect_renormalization(a, max_period)
    assert len(calls) == 99


def test_renorm_detect_at_a_deep_period_stays_small():
    # the return map's laps, not the whole tree to depth 8 * 11, set the cost.
    # The child reads its peak from VmHWM: Linux carries ru_maxrss across
    # fork and exec, so there it would report this test process's own peak.
    code = (
        f"import sys; sys.path.insert(0, {str(Path(ilim.__file__).parents[1])!r})\n"
        "from ilim.cli import main\n"
        "rc = main(['renorm-detect', '--a', '1.87', '--max-period', '8'])\n"
        "hwm = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')]\n"
        "print(rc, *hwm)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    rc, peak_kb = run.stdout.split()[-2:]
    assert rc == "0", run.stdout + run.stderr
    assert int(peak_kb) / 1024 < 200


# ---------------------------------------------------------------------------
# admissible entropy values


def test_spectrum_of_example_tower():
    values = entropy_spectrum(EXAMPLE_TOWER, 1.3)
    assert values == pytest.approx([0.0, 0.5, 0.8, 1.0, 1.2])


def test_spectrum_of_pure_doubling_tower_is_half_log_two_grid():
    tower = RenormTower((1, 2), (LOG2 / 2, LOG2))
    values = entropy_spectrum(tower, 2.2)
    assert values == pytest.approx([k * LOG2 / 2 for k in range(7)])


def test_spectrum_always_contains_zero_and_is_sorted():
    values = entropy_spectrum(EXAMPLE_TOWER, 3.0)
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values, values[1:]))


def test_spectrum_needs_positive_ceiling():
    with pytest.raises(DomainError):
        entropy_spectrum(EXAMPLE_TOWER, 0.0)


def test_spectrum_is_charged_before_its_values_are_built(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "1000")
    tower = RenormTower((1,), (1e-4,))  # 10,000 multiples of 1e-4 up to 1
    with pytest.raises(ResourceCapError):
        entropy_spectrum(tower, 1.0)
    assert len(entropy_spectrum(tower, 0.05)) == 501


def test_spectrum_values_pass_membership():
    for v in entropy_spectrum(EXAMPLE_TOWER, 2.0):
        assert spectrum_membership(EXAMPLE_TOWER, v).member


# ---------------------------------------------------------------------------
# membership


def test_zero_is_always_admissible():
    res = spectrum_membership(EXAMPLE_TOWER, 0.0)
    assert res.member and res.witness is None


def test_membership_witness_certifies_the_value():
    res = spectrum_membership(EXAMPLE_TOWER, 1.2)
    assert res.member
    j, i, n = res.witness
    unit = (EXAMPLE_TOWER.periods[j] / EXAMPLE_TOWER.periods[i]) * EXAMPLE_TOWER.entropies[i]
    assert n * unit == pytest.approx(1.2, abs=1e-9)


def test_below_floor_values_are_rejected():
    # 0.4 is one unit of the fine level seen from the base, but a single
    # copy cannot dominate the base map's own rate 0.5
    assert not spectrum_membership(EXAMPLE_TOWER, 0.4).member


def test_membership_rejects_negative_values():
    with pytest.raises(DomainError):
        spectrum_membership(EXAMPLE_TOWER, -0.2)


def test_membership_rejects_a_negative_tolerance():
    with pytest.raises(DomainError, match="tol"):
        spectrum_membership(EXAMPLE_TOWER, 0.5, tol=-1.0)


def test_membership_rejects_values_beyond_float_range_of_a_unit():
    # 1e308 / 0.5 overflows, so no multiplier can be checked in floats
    with pytest.raises(DomainError):
        spectrum_membership(EXAMPLE_TOWER, 1e308)


# ---------------------------------------------------------------------------
# block models


def test_orbit_partition_of_coprime_rotation_is_one_cycle():
    model = BlockModel(R=1, powers=(0, 0, 0, 0))
    assert model.orbit_partition() == ((0, 1, 2, 3),)


def test_orbit_partition_splits_by_common_divisor():
    assert BlockModel(R=2, powers=(0, 0)).orbit_partition() == ((0,), (1,))
    assert BlockModel(R=2, powers=(0, 0, 0, 0)).orbit_partition() == ((0, 2), (1, 3))


def _seen_flag_orbits(R, p_rel):
    """Oracle: the orbits of k -> k + R mod p_rel, walked with seen flags."""
    seen = [False] * p_rel
    orbits = []
    for start in range(p_rel):
        orb, k = [], start
        while not seen[k]:
            seen[k] = True
            orb.append(k)
            k = (k + R) % p_rel
        if orb:
            orbits.append(tuple(orb))
    return tuple(orbits)


def test_orbit_partition_is_the_seen_flag_walk():
    for R in range(-25, 26):
        for p_rel in range(13):
            got = BlockModel(R=R, powers=(0,) * p_rel).orbit_partition()
            assert got == _seen_flag_orbits(R, p_rel), (R, p_rel)
    assert BlockModel(R=3, powers=()).orbit_partition() == ()


def test_block_model_entropy_takes_the_best_orbit():
    value = block_model_entropy(EXAMPLE_TOWER, BlockModel(R=2, powers=(1, 3)))
    assert value == pytest.approx(2.4)  # fixed block with power 3 wins: 3 * 0.8


def test_block_model_entropy_base_rotation_can_win():
    value = block_model_entropy(EXAMPLE_TOWER, BlockModel(R=4, powers=(1, 1)))
    assert value == pytest.approx(2.0)  # 4 * 0.5 beats the averaged 0.8


def test_frozen_rotation_uses_the_largest_power():
    value = block_model_entropy(EXAMPLE_TOWER, BlockModel(R=0, powers=(2, 1)))
    assert value == pytest.approx(1.6)


def test_block_model_guards():
    with pytest.raises(TowerError):
        block_model_entropy(EXAMPLE_TOWER, BlockModel(R=1, powers=(1,), level=1))
    with pytest.raises(TowerError):
        block_model_entropy(EXAMPLE_TOWER, BlockModel(R=1, powers=(1, 2, 3)))
    with pytest.raises(TowerError):
        block_model_entropy(EXAMPLE_TOWER, BlockModel(R=-1, powers=(1, 1)))
    with pytest.raises(TowerError):
        block_model_entropy(EXAMPLE_TOWER, BlockModel(R=1, powers=(1, -2)))


def _random_tower(rng):
    depth = rng.randint(2, 4)
    periods = [1]
    for _ in range(depth - 1):
        periods.append(periods[-1] * rng.choice((2, 2, 3)))
    hs = [0.0] * depth
    hs[-1] = rng.uniform(0.1, 1.5)
    for i in range(depth - 2, -1, -1):
        lo = (periods[i] / periods[i + 1]) * hs[i + 1]
        hs[i] = lo if rng.random() < 0.3 else rng.uniform(lo, hs[i + 1] + 0.3)
    return RenormTower(tuple(periods), tuple(hs))


def test_every_block_model_entropy_is_admissible():
    rng = random.Random(20260816)
    for _ in range(300):
        tower = _random_tower(rng)
        tower.validate()
        j = rng.randint(0, len(tower) - 2)
        p_rel = tower.periods[j + 1] // tower.periods[j]
        model = BlockModel(
            R=rng.randint(0, 6),
            powers=tuple(rng.randint(0, 5) for _ in range(p_rel)),
            level=j,
        )
        value = block_model_entropy(tower, model)
        assert spectrum_membership(tower, value, tol=1e-9).member


def test_random_spectra_are_self_consistent():
    rng = random.Random(7)
    for _ in range(50):
        tower = _random_tower(rng)
        for v in entropy_spectrum(tower, 2.0):
            assert spectrum_membership(tower, v).member
