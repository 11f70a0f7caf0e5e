import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilim.errors import DomainError, ResourceCapError
from ilim.lap_entropy import entropy_lap, lap_table, tent_slope_of_quadratic
from ilim.maps import QuadraticMap, TentMap

A_STAR = 1.5436890126920764  # parameter whose doubled-up map is entropy log 2
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0  # tent slope where the critical point has period 3
SUPERSTABLE_4 = 1.3107026413368328  # quadratic parameter where 0 has period 4


def grid_scan_laps(map_, n, grid=1_000_000):
    """Independent oracle: count monotone runs of map^n on a dense grid."""
    lo, hi = map_.domain
    xs = np.linspace(lo, hi, grid)
    ys = xs.copy()
    for _ in range(n):
        if isinstance(map_, TentMap):
            ys = np.minimum(map_.slope * ys, map_.slope * (1.0 - ys))
        else:
            ys = 1.0 - map_.parameter * ys * ys
    d = np.sign(np.diff(ys))
    d = d[d != 0]
    return 1 + int(np.sum(d[1:] != d[:-1]))


def tree_laps(kind, p0, n, period=0, digits=60):
    """Independent oracle: lap numbers of f^1..f^n counted on the whole backward
    tree of the critical point over the domain, held at `digits` decimal digits.
    ``kind`` is "tent" (slope p0) or "quad" (parameter p0).  Given a period,
    the parameter is first moved, by the secant method, to the one nearest p0
    at which the critical point has that period."""
    tent = kind == "tent"
    with localcontext() as ctx:
        ctx.prec = digits
        c = Decimal("0.5") if tent else Decimal(0)
        lo, hi = (Decimal(0), Decimal(1)) if tent else (Decimal(-1), Decimal(1))

        def f(p, x):
            return p * min(x, 1 - x) if tent else 1 - p * x * x

        def returns(p):  # f^period(c) - c
            x = c
            for _ in range(period):
                x = f(p, x)
            return x - c

        p = Decimal(p0)
        if period:
            q = p * (1 + Decimal("1e-9"))
            for _ in range(40):
                gp, gq = returns(p), returns(q)
                if gp == gq:
                    break
                p, q = q, q - gq * (q - p) / (gq - gp)
        top = f(p, c) - Decimal(10) ** (20 - digits)  # the top's one preimage is c
        layer, total, counts = [c], 1, []
        for _ in range(n):
            total += sum(1 for x in layer if lo < x < hi)
            counts.append(total)
            if tent:
                layer = [x for y in layer if y < top for x in (y / p, 1 - y / p)]
            else:
                roots = [((1 - y) / p).sqrt() for y in layer if y < top]
                layer = [x for r in roots if r <= 1 for x in (-r, r)]
    return tuple(counts)


def superstable_laps(a0, period, n, digits=60):
    """Independent oracle: laps of the quadratic map whose critical point has
    the given period, the parameter nearest a0 (see ``tree_laps``)."""
    return tree_laps("quad", a0, n, period, digits)


def test_full_tent_powers_of_two():
    t = TentMap(2.0)
    assert lap_table(t, 3).counts[-1] == 8
    for n in range(1, 15):
        assert lap_table(t, n).counts[-1] == 2**n


def test_lap_outside_the_table_is_refused():
    table = lap_table(TentMap(1.8), 5)
    assert table.lap(1) == 2 and table.lap(5) == table.counts[-1]
    for n in (0, -1, 6):
        with pytest.raises(DomainError):
            table.lap(n)


def test_single_fold():
    assert lap_table(TentMap(1.7), 1).counts[-1] == 2
    assert lap_table(QuadraticMap(1.7), 1).counts[-1] == 2


def test_lap_against_grid_scan():
    t = TentMap(1.8)
    assert lap_table(t, 10).counts[-1] == grid_scan_laps(t, 10)


@pytest.mark.parametrize("map_", [TentMap(GOLDEN), QuadraticMap(SUPERSTABLE_4)])
def test_lap_against_grid_scan_with_periodic_critical_point(map_):
    # the top is a node of the backward tree here; its one preimage is the
    # critical point, which must neither be counted twice nor lose its siblings
    counts = lap_table(map_, 14).counts
    assert counts == tuple(grid_scan_laps(map_, n) for n in range(1, 15))


@pytest.mark.parametrize(
    "a,period",
    [(SUPERSTABLE_4, 4), (1.7548776662466927, 3), (1.9997740486937274, 8)],
)
def test_lap_at_superstable_parameter(a, period):
    # at 1.9997740486937274 the top, computed backwards, falls an ulp below 1
    assert lap_table(QuadraticMap(a), 12).counts == superstable_laps(a, period, 12)


TREE_GRID = [
    ("tent", 1.3, 0), ("tent", 1.5, 0), ("tent", 1.7, 0), ("tent", 1.9, 0), ("tent", 2.0, 0),
    ("tent", GOLDEN, 3), ("tent", 1.839286755214161, 4),
    ("quad", 1.3, 0), ("quad", 1.5, 0), ("quad", 1.9, 0), ("quad", 2.0, 0),
    ("quad", SUPERSTABLE_4, 4), ("quad", 1.7548776662466927, 3),
    ("quad", 1.9997740486937274, 8),
]


@pytest.mark.parametrize("kind,p,period", TREE_GRID)
def test_lap_table_counts_the_whole_preimage_tree(kind, p, period):
    map_ = TentMap(p) if kind == "tent" else QuadraticMap(p)
    assert lap_table(map_, 12).counts == tree_laps(kind, p, 12, period)


@pytest.mark.parametrize("s", [1.5, 1.8, GOLDEN])
def test_deep_lap_tables_give_log_slope(s):
    # 200 steps hold at most 200 piece images, not the 1.8**200 laps
    assert abs(entropy_lap(TentMap(s), 200, "ratio2").value - math.log(s)) <= 1e-4


def test_quadratic_full_parameter():
    q = QuadraticMap(2.0)
    for n in range(1, 13):
        assert lap_table(q, n).counts[-1] == 2**n
    # preimages near +-1 lie closer together than 1e-12 from n = 20 on
    assert lap_table(q, 24).counts == tuple(2**n for n in range(1, 25))


def test_lap_table_monotone():
    tab = lap_table(TentMap(1.8), 14)
    assert all(c > 0 for c in tab.counts)
    assert all(b >= a for a, b in zip(tab.counts, tab.counts[1:]))
    assert tab.lap(3) == tab.counts[2]


@pytest.mark.parametrize("map_", [TentMap(1.5), TentMap(1.9), QuadraticMap(1.9)])
def test_lap_submultiplicative(map_):
    counts = lap_table(map_, 14).counts
    lap = lambda n: counts[n - 1]
    for m in range(1, 14):
        for n in range(1, 14 - m + 1):
            assert lap(m + n) <= lap(m) * lap(n)


def test_entropy_exact_at_full_slope():
    est = entropy_lap(TentMap(2.0), 16, "ratio")
    assert est.value == math.log(2.0)
    assert est.n_used == 16


@pytest.mark.parametrize("s", [1.5, 1.8])
def test_entropy_close_to_log_slope(s):
    est = entropy_lap(TentMap(s), 14, "ratio")
    assert abs(est.value - math.log(s)) < 0.02
    assert 0.0 <= est.value <= math.log(2.0) + 1e-12


def test_entropy_methods_agree_roughly():
    t = TentMap(1.8)
    r = entropy_lap(t, 14, "ratio").value
    r2 = entropy_lap(t, 14, "ratio2").value
    sl = entropy_lap(t, 14, "slope").value
    assert abs(r - r2) < 0.02
    # the Cesaro-style slope estimate converges from above much more slowly
    assert abs(sl - math.log(1.8)) < 0.2


def test_entropy_needs_four_iterates():
    with pytest.raises(DomainError):
        entropy_lap(TentMap(1.8), 3, "ratio")
    with pytest.raises(DomainError):
        entropy_lap(TentMap(1.8), 10, "nonsense")


def test_ratio_error_shrinks_with_depth():
    # |ratio(n) - log s| nonincreasing over n in {8, 16, 24}
    for s in (1.5, 1.8, 2.0):
        counts = lap_table(TentMap(s), 24).counts
        errs = [
            abs(math.log(counts[n - 1] / counts[n - 2]) - math.log(s))
            for n in (8, 16, 24)
        ]
        assert errs[0] >= errs[1] - 1e-12
        assert errs[1] >= errs[2] - 1e-12


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "10")
    with pytest.raises(ResourceCapError):
        lap_table(TentMap(2.0), 12).counts[-1]


def _lap_table_peak(n_max):
    tracemalloc.start()
    try:
        lap_table(QuadraticMap(2.0), n_max)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lap_table_keeps_one_array_per_tree_layer():
    # the bound is that of a tree walk whose newest layer, 2**21 nodes or
    # 16 MiB, is built from the 8 MiB layer before it; the piece walk builds
    # no layer, and at a = 2 it holds the one image [-1, 1]
    assert _lap_table_peak(22) <= 48 * 2**20


def test_lap_table_holds_no_counted_layer():
    # the bound is that of a tree walk that holds only its newest layers, of
    # 32 and 64 MiB; the piece walk holds one step's images and no layer
    assert _lap_table_peak(24) <= 128 * 2**20


def test_lap_table_peak_does_not_grow_with_the_laps():
    # 2**24 laps from one image held with its count, not from 2**24 nodes
    assert _lap_table_peak(24) < 2**20


# -- tent slope of quadratic maps --------------------------------------------


def test_slope_of_full_quadratic():
    assert tent_slope_of_quadratic(2.0, n_max=16) == pytest.approx(2.0, abs=0.02)
    assert tent_slope_of_quadratic(2.0) == 2.0


def test_slope_of_superattracting_cycle():
    assert tent_slope_of_quadratic(1.0, n_max=16) == 1.0
    # affine lap tails (laps 34, 36, 38, 40 at a = 1.3) are zero-entropy too
    assert tent_slope_of_quadratic(1.3, n_max=20) == 1.0
    assert tent_slope_of_quadratic(1.2, n_max=16) == 1.0


def test_slope_of_doubled_full_map():
    s = tent_slope_of_quadratic(A_STAR, n_max=20)
    assert s == pytest.approx(math.sqrt(2.0), abs=0.02)
