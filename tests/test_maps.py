import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilim.errors import DomainError, ResourceCapError
from ilim.maps import (
    TOL,
    QuadraticMap,
    TentMap,
    backward_tree,
    core_interval,
    critical_cycle,
    critical_orbit,
    forward_orbit,
    itinerary,
    lap_pieces,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0  # the critical point has period 3
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


def test_quad_fixed_points():
    q = QuadraticMap(2.0)
    for fp in (q.fixed_point_positive(), q.fixed_point_negative()):
        assert q(fp) == pytest.approx(fp, abs=1e-12)
    assert q.fixed_point_positive() == pytest.approx(0.5)
    assert q.fixed_point_negative() == pytest.approx(-1.0)


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


def test_core_interval_values():
    lo, hi = core_interval(TentMap(2.0))
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = core_interval(TentMap(1.8))
    assert lo == pytest.approx(0.18)
    assert hi == pytest.approx(0.9)
    # s = sqrt(2): [s - s^2/2, s/2] = [sqrt(2) - 1, sqrt(2)/2]
    lo, hi = core_interval(TentMap(math.sqrt(2.0)))
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
    lo, hi = core_interval(t)
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


# -- the tree and the piece walk ----------------------------------------------


@pytest.mark.parametrize("map_", [TentMap(1.5), TentMap(1.9), QuadraticMap(1.7)])
def test_backward_tree_keeps_domain_start_to_top(map_):
    lo, hi = map_.domain[0], map_.top
    for j, x in enumerate(backward_tree(map_, 8)):
        assert x.size and ((x >= lo) & (x <= hi)).all()
        assert np.allclose(forward_orbit(map_, x, j)[:, -1], map_.critical, atol=1e-9)


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
    row = forward_orbit(map_, map_.critical, 2000)[0, 1:].tolist()
    assert [v.hex() for v in critical_orbit(map_, 2000)] == [v.hex() for v in row]


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
