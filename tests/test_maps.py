import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilim.errors import DomainError, ResourceCapError
from ilim.lap_entropy import lap_table
from ilim.maps import (
    TOL,
    QuadraticMap,
    TentMap,
    _increasing_branches,
    backward_tree,
    critical_cycle,
    critical_orbit,
    forward_orbit,
    itinerary,
    lap_pieces,
)
from ilim.renorm import detect_renormalization

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0  # the critical point has period 3
PERIOD_4 = 1.839286755214161  # the critical point has period 4
slopes = st.floats(min_value=1.0, max_value=2.0, exclude_min=True, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_tent_eval_values():
    assert TentMap(2.0)(0.25) == 0.5
    assert TentMap(2.0)(0.5) == 1.0
    assert TentMap(1.8)(0.9) == pytest.approx(0.18, abs=1e-15)


def test_tent_eval_domain():
    with pytest.raises(DomainError):
        TentMap(1.8)(1.5)
    with pytest.raises(DomainError):
        TentMap(1.8)(-0.2)


def test_tent_slope_validation():
    with pytest.raises(DomainError):
        TentMap(1.0)
    with pytest.raises(DomainError):
        TentMap(2.5)


def test_critical_point_is_fixed_by_the_family():
    with pytest.raises(TypeError):
        TentMap(1.8, 0.3)
    with pytest.raises(TypeError):
        QuadraticMap(1.5, 0.2)
    assert TentMap(1.8).critical == 0.5 and QuadraticMap(1.5).critical == 0.0


def test_quad_eval_values():
    assert QuadraticMap(2.0)(0.0) == 1.0
    assert QuadraticMap(2.0)(1.0) == -1.0
    assert QuadraticMap(1.5)(0.5) == 0.625


def test_quad_eval_domain():
    with pytest.raises(DomainError):
        QuadraticMap(1.5)(1.5)


def test_quad_fixed_points():
    q = QuadraticMap(2.0)
    fp = q.fixed_point_positive()
    assert q(fp) == pytest.approx(fp, abs=1e-12)
    assert fp == pytest.approx(0.5)


def test_critical_orbit_values():
    assert critical_orbit(TentMap(2.0), 3) == [1.0, 0.0, 0.0]
    orb = critical_orbit(TentMap(1.8), 2)
    assert orb[0] == pytest.approx(0.9)
    assert orb[1] == pytest.approx(0.18)
    assert critical_orbit(QuadraticMap(1.0), 4) == [1.0, 0.0, 1.0, 0.0]


def test_itinerary_values():
    assert itinerary(TentMap(2.0), 0.5, 4) == "CRLL"
    assert itinerary(TentMap(1.8), 0.9, 1) == "R"
    assert itinerary(QuadraticMap(2.0), 0.0, 3) == "CRL"


@pytest.mark.parametrize("map_", [TentMap(1.8), QuadraticMap(1.5)])
def test_orbits_trees_and_itineraries_refuse_an_empty_length(map_):
    with pytest.raises(DomainError):
        critical_orbit(map_, 0)
    with pytest.raises(DomainError):
        next(backward_tree(map_, -1))
    with pytest.raises(DomainError):
        itinerary(map_, map_.critical, 0)


def test_core_interval_values():
    t = TentMap(2.0)
    lo, hi = t.second_image, t.top
    assert (lo, hi) == (0.0, 1.0)
    t = TentMap(1.8)
    lo, hi = t.second_image, t.top
    assert lo == pytest.approx(0.18)
    assert hi == pytest.approx(0.9)
    # s = sqrt(2): [s - s^2/2, s/2] = [sqrt(2) - 1, sqrt(2)/2]
    t = TentMap(math.sqrt(2.0))
    lo, hi = t.second_image, t.top
    assert lo == pytest.approx(math.sqrt(2.0) - 1.0)
    assert hi == pytest.approx(math.sqrt(2.0) / 2.0)


@given(slopes, unit)
def test_tent_symmetry(s, x):
    t = TentMap(s)
    assert t(x) == pytest.approx(t(1.0 - x), abs=1e-12)


@given(slopes, unit)
def test_tent_preimages_map_back(s, y):
    t = TentMap(s)
    y = y * t.top  # keep the value reachable
    for x in t.branches(np.array([y])).tolist():
        assert t(x) == pytest.approx(y, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=2.0, exclude_min=True), st.floats(-1.0, 1.0))
def test_quad_preimages_map_back(a, y):
    q = QuadraticMap(a)
    for x in q.branches(np.array([y])).tolist():
        if -1.0 <= x <= 1.0:  # a small a sends far values past the domain
            assert q(x) == pytest.approx(y, abs=1e-9)


@pytest.mark.parametrize("map_", [TentMap(1.8), TentMap(2.0), QuadraticMap(1.5), QuadraticMap(2.0)])
def test_branches_map_back_under_image_and_call(map_):
    y = map_.image(np.linspace(*map_.domain, 41))
    x = map_.branches(y)
    assert x.shape == (82,)
    # left block, then right block, each on its side of the critical point
    assert (x[:41] <= map_.critical).all() and (x[41:] >= map_.critical).all()
    back = map_.image(x)
    assert np.allclose(back, np.concatenate([y, y]), rtol=0.0, atol=1e-12)
    assert [v.hex() for v in back.tolist()] == [map_(v).hex() for v in x.tolist()]
    assert map_.branches(np.empty(0)).shape == (0,)
    assert map_.image(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("s", [1.5, 1.8, 2.0])
def test_core_is_invariant(s):
    t = TentMap(s)
    lo, hi = t.second_image, t.top
    for i in range(10_000):
        x = lo + (hi - lo) * i / 9_999
        assert lo - 1e-12 <= t(x) <= hi + 1e-12


@pytest.mark.parametrize("s", [1.5, 1.8, 2.0])
def test_critical_orbit_stays_below_top(s):
    t = TentMap(s)
    for v in critical_orbit(t, 50):
        assert -1e-12 <= v <= t.top + 1e-12


@given(slopes)
def test_top_and_second_image_consistent(s):
    t = TentMap(s)
    assert t(t.critical) == pytest.approx(t.top, abs=1e-12)
    assert t(t.top) == pytest.approx(t.second_image, abs=1e-12)


# -- the forward kernel ----------------------------------------------------------


def _scalar_orbits(map_, xs, steps):
    rows = []
    for x in xs:
        row = [x]
        for _ in range(steps):
            row.append(map_(row[-1]))
        rows.append([v.hex() for v in row])
    return rows


def _hex_rows(orbit):
    return [[v.hex() for v in row] for row in orbit.tolist()]


@settings(max_examples=60, deadline=None)
@given(slopes, st.lists(unit, min_size=1, max_size=6), st.integers(0, 40))
def test_forward_orbit_is_the_scalar_tent_orbit(s, xs, steps):
    t = TentMap(s)
    orbit = forward_orbit(t, xs, steps)
    assert orbit.shape == (len(xs), steps + 1)
    assert _hex_rows(orbit) == _scalar_orbits(t, xs, steps)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    st.integers(0, 40),
)
def test_forward_orbit_is_the_scalar_quadratic_orbit(a, xs, steps):
    q = QuadraticMap(a)
    assert _hex_rows(forward_orbit(q, xs, steps)) == _scalar_orbits(q, xs, steps)


def test_forward_orbit_of_one_point_is_one_row():
    orbit = forward_orbit(TentMap(2.0), 0.25, 3)
    assert orbit.tolist() == [[0.25, 0.5, 1.0, 0.0]]
    with pytest.raises(DomainError):
        forward_orbit(TentMap(2.0), 0.25, -1)


def test_forward_orbit_is_charged_to_the_node_budget(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "100")
    assert forward_orbit(QuadraticMap(1.5), [0.1] * 10, 9).shape == (10, 10)
    with pytest.raises(ResourceCapError):
        forward_orbit(QuadraticMap(1.5), [0.1] * 10, 10)


def test_itinerary_is_charged_before_it_walks(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "1000")
    assert len(itinerary(QuadraticMap(1.9), 0.3, 1000)) == 1000
    with pytest.raises(ResourceCapError):
        itinerary(QuadraticMap(1.9), 0.3, 10**6)


# -- the tree and the piece walk ----------------------------------------------


@pytest.mark.parametrize("map_", [TentMap(1.5), TentMap(1.9), QuadraticMap(1.7)])
def test_backward_tree_keeps_domain_start_to_top(map_):
    lo, hi = map_.domain[0], map_.top
    for j, x in enumerate(backward_tree(map_, 8)):
        assert x.size and ((x >= lo) & (x <= hi)).all()
        assert np.allclose(forward_orbit(map_, x, j)[:, -1], map_.critical, atol=1e-9)


def _unordered_tree(map_, depth):
    """Oracle: the tree as it was built before its layers were ordered, each
    layer filtered by masks in the order ``branches`` gives."""
    lo, hi = map_.domain[0], map_.top
    cycle = critical_cycle(map_, depth + 1)
    x = np.array([map_.critical])
    layers = [x]
    for j in range(1, depth + 1):
        x = map_.branches(x[x < hi])
        if j < len(cycle):
            x[np.argmin(np.abs(x - cycle[-1 - j]))] = cycle[-1 - j]
        x = x[(x >= lo) & (x <= hi)]
        layers.append(x)
    return layers


# at slopes GOLDEN and PERIOD_4, and at the superstable quadratic parameters of
# periods 3, 4 and 8, c is periodic and the tree snaps its layers to c's orbit
TREE_MAPS = [
    (TentMap(1.5), 20),
    (TentMap(1.8), 16),
    (TentMap(2.0), 14),
    (TentMap(GOLDEN), 20),
    (TentMap(PERIOD_4), 16),
    (QuadraticMap(1.401155), 16),
    (QuadraticMap(1.7548776662466927), 16),
    (QuadraticMap(1.3107026413368328), 16),
    (QuadraticMap(1.9407998065294845), 14),
    (QuadraticMap(1.9997740486937274), 14),
    (QuadraticMap(2.0), 14),
]


@pytest.mark.parametrize("map_,depth", TREE_MAPS)
def test_backward_tree_layers_increase(map_, depth):
    for x in backward_tree(map_, depth):
        assert (np.diff(x) > 0).all()


@pytest.mark.parametrize("map_,depth", TREE_MAPS)
def test_backward_tree_layers_are_the_unordered_layers_sorted(map_, depth):
    got = [x.tobytes() for x in backward_tree(map_, depth)]
    assert got == [np.sort(x).tobytes() for x in _unordered_tree(map_, depth)]


@pytest.mark.parametrize("map_", [TentMap(1.7), TentMap(2.0), QuadraticMap(1.5)])
def test_increasing_branches_reverse_the_right_branch(map_):
    y = np.sort(forward_orbit(map_, np.linspace(*map_.domain, 9), 3)[:, -1])
    got = _increasing_branches(map_, y)
    left, right = np.split(map_.branches(y), 2)
    assert got.tobytes() == np.concatenate([left, right[::-1]]).tobytes()
    assert (np.diff(got) >= 0).all()
    assert _increasing_branches(map_, np.empty(0)).shape == (0,)


def test_full_tent_pieces_share_one_image():
    steps = list(lap_pieces(TentMap(2.0), 0.0, 1.0, 6))
    assert steps == [{(0.0, 1.0): 2**k} for k in range(1, 7)]


def test_pieces_that_end_at_a_periodic_critical_point_are_not_cut():
    # the golden-mean slope: c has period 3, and f^2(c) maps to c exactly, so
    # after the first steps the images stay [0, top], [f(top), top] and [c, top]
    t = TentMap((1.0 + math.sqrt(5.0)) / 2.0)
    *_, last = lap_pieces(t, 0.0, 1.0, 30)
    assert sorted(last) == [(0.0, t.top), (t(t.top), t.top), (t.critical, t.top)]


@pytest.mark.parametrize(
    "map_",
    [TentMap(1.8), TentMap(GOLDEN), TentMap(2.0), QuadraticMap(1.9), QuadraticMap(1.401155)],
)
def test_critical_orbit_walk_equals_the_orbit_row(map_):
    # critical_cycle finds the period with the scalar map and returns this row
    x, walk = map_.critical, []
    for _ in range(2000):
        x = map_(x)
        walk.append(x.hex())
    assert [v.hex() for v in critical_orbit(map_, 2000)] == walk


def test_critical_cycle_stops_at_the_first_return():
    golden = TentMap(GOLDEN)
    cycle = critical_cycle(golden, 50)
    assert cycle == critical_orbit(golden, 3)
    assert abs(cycle[-1] - golden.critical) <= TOL
    assert critical_cycle(golden, 2) == []
    assert critical_cycle(TentMap(1.8), 1000) == []


def test_first_piece_step_holds_no_critical_orbit():
    # the period of c is searched one point at a time: a 10**5-step search
    # that finds no return allocates nothing for the orbit
    walk = lap_pieces(TentMap(1.8), 0.0, 1.0, 10**5)
    tracemalloc.start()
    try:
        next(walk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_lap_pieces_are_charged_to_the_node_budget(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "100")
    assert len(list(lap_pieces(TentMap(1.8), 0.0, 1.0, 6))) == 6
    with pytest.raises(ResourceCapError):
        list(lap_pieces(TentMap(1.8), 0.0, 1.0, 20))
    with pytest.raises(DomainError):
        list(lap_pieces(TentMap(1.8), 0.0, 1.0, -1))


def _period_lap_pieces(map_, lo, hi, steps):
    """Oracle: the piece walk as it was when it searched for the period of c
    first and sent the orbit point before c onto c."""
    c = map_.critical
    cycle = critical_cycle(map_, max(steps, 1) + 1)
    before_c = cycle[-2] if len(cycle) > 1 else None
    pieces = {(lo, hi): 1}
    for _ in range(steps):
        ends = {x: c if x == before_c else map_(x) for x in {c}.union(*pieces)}
        nxt = {}
        for (a, b), n in pieces.items():
            for u, v in ((a, c), (c, b)) if a < c < b else ((a, b),):
                fu, fv = ends[u], ends[v]
                key = (fu, fv) if fu <= fv else (fv, fu)
                nxt[key] = nxt.get(key, 0) + n
        pieces = nxt
        yield pieces


def _hex_steps(walk):
    """Every step of a piece walk, in order, with its floats as hex."""
    return [[(a.hex(), b.hex(), n) for (a, b), n in step.items()] for step in walk]


# c has period 3, 4, 5, 7, 7 and 14 at these tent slopes, and period 3, 4, 4,
# 5 and 8 at these quadratic parameters; 1.401155, a* and 2.0 are not periodic
PERIODIC_MAPS = [
    TentMap(GOLDEN),
    TentMap(PERIOD_4),
    TentMap(1.9275619754829254),
    TentMap(1.4655712318767682),
    TentMap(1.7548776662466927),
    TentMap(1.324717957244746),
    QuadraticMap(1.7548776662466927),
    QuadraticMap(1.3107026413368328),
    QuadraticMap(1.9407998065294845),
    QuadraticMap(1.6254137251233036),
    QuadraticMap(1.9997740486937274),
    QuadraticMap(1.401155),
    QuadraticMap(1.5436890126920764),
    QuadraticMap(2.0),
]


@pytest.mark.parametrize("map_", PERIODIC_MAPS)
def test_piece_walk_is_the_period_based_walk(map_):
    lo, hi = map_.domain
    got = _hex_steps(lap_pieces(map_, lo, hi, 200))
    assert got == _hex_steps(_period_lap_pieces(map_, lo, hi, 200))


def test_piece_walk_searches_for_no_period(monkeypatch):
    # the walk sees c in its own images, so it never calls critical_cycle
    maps = [TentMap(GOLDEN), TentMap(1.8), QuadraticMap(1.9997740486937274)]
    want = [tuple(sum(p.values()) for p in _period_lap_pieces(m, *m.domain, 40)) for m in maps]

    def refuse(*args):
        raise AssertionError("critical_cycle called")

    monkeypatch.setattr("ilim.maps.critical_cycle", refuse)
    assert [lap_table(m, 40).counts for m in maps] == want
    tower = detect_renormalization(1.5436890126920764, 2)
    assert tower.periods == (1, 2)
