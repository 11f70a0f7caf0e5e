"""Backward-orbit points, the weighted metric, and arc fold combinatorics.

The heavier structural checks (fold-pattern growth rules, level cohesion)
work on exact preimage enumerations, so everything here is deterministic
up to float round-off.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ilim.errors import DepthError, DomainError, ResourceCapError
from ilim.inverse_limit import (
    Arc,
    BackwardPoint,
    FoldingPattern,
    PPointRecord,
    arc_records,
    arc_to_salient,
    folding_pattern_prefix,
    metric,
    p_level,
    projection,
    salient_positions,
    shift,
    truncate,
    unshift,
    validate,
)
from ilim.maps import TentMap, critical_cycle

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0  # the critical point has period 3
PERIOD_4 = 1.839286755214161  # the critical point has period 4

slopes = st.floats(min_value=1.05, max_value=2.0, allow_nan=False)


def ray_point(s, t, depth):
    """A depth-`depth` point whose coordinates are the forward orbit of t."""
    return BackwardPoint.from_deepest(s, t, depth)


def tent_inverse(t, y):
    """Scalar solutions of T(x) = y, written apart from TentMap.branches."""
    lo, hi = y / t.slope, 1.0 - y / t.slope
    return [] if y > t.top + 1e-12 else [t.critical] if hi - lo <= 1e-12 else [lo, hi]


# -- validation ---------------------------------------------------------------


def test_validate_zero_point():
    for d in (0, 1, 5, 30):
        assert validate(BackwardPoint.zeros(1.8, d))


def test_validate_explicit_orbit():
    assert validate(BackwardPoint(1.8, (0.25, 0.45, 0.81)))


def test_validate_rejects_broken_orbit():
    # T(0.9) = 0.18, not 0.3
    assert not validate(BackwardPoint(1.8, (0.3, 0.9, 0.3)))


@given(slopes, st.floats(min_value=0.0, max_value=0.5), st.integers(0, 20))
def test_validate_ray_points(s, t, d):
    assert validate(ray_point(s, t, d))


# -- metric --------------------------------------------------------------------


def test_metric_identical_points():
    x = ray_point(1.8, 0.3, 10)
    assert metric(x, x) == 0.0


def test_metric_geometric_series():
    # y sits on the left branch all the way down: y_{-k} = 0.4 / 1.8^k
    d = 20
    y = ray_point(1.8, 0.4 * 1.8**-d, d)
    zero = BackwardPoint.zeros(1.8, d)
    expected = 0.4 * sum((1.0 / 3.6) ** k for k in range(d + 1))
    assert metric(zero, y) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.5538, abs=1e-4)


def test_metric_across_two_depths_truncates_the_deeper_point():
    deep, shallow = ray_point(1.8, 0.07, 12), ray_point(1.8, 0.41, 5)
    want = metric(truncate(deep, 5), shallow)
    assert want > 0
    assert metric(deep, shallow) == metric(shallow, deep) == want


@pytest.mark.parametrize("depth", [-1, -6, 8])
def test_truncate_refuses_a_depth_outside_the_point(depth):
    # a negative depth used to return a point with no coordinates
    with pytest.raises(DepthError):
        truncate(ray_point(1.8, 0.3, 7), depth)


def test_metric_slope_mismatch():
    with pytest.raises(DomainError):
        metric(BackwardPoint.zeros(1.8, 3), BackwardPoint.zeros(2.0, 3))


def test_metric_truncation_bound():
    s = 1.8
    x = ray_point(s, 0.41, 24)
    y = ray_point(s, 0.07, 24)
    full = metric(x, y)
    for d in (6, 10, 16):
        short = metric(truncate(x, d), truncate(y, d))
        assert abs(full - short) <= TentMap(s).top * 2.0**-d + 1e-15


@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_metric_triangle(t1, t2, t3):
    s = 1.9
    x, y, z = (ray_point(s, t, 12) for t in (t1, t2, t3))
    assert metric(x, z) <= metric(x, y) + metric(y, z) + 1e-12


# -- shift / unshift / projection ----------------------------------------------


def test_shift_of_zero_point():
    z = BackwardPoint.zeros(2.0, 4)
    sz = shift(z)
    assert sz.depth == 5
    assert sz.coords == (0.0,) * 6


def test_shift_appends_image():
    x = BackwardPoint(2.0, (0.25, 0.5, 1.0))
    assert shift(x).coords == (0.25, 0.5, 1.0, 0.0)


def test_unshift_drops_present():
    x = BackwardPoint(2.0, (0.25, 0.5, 1.0))
    assert unshift(x).coords == (0.25, 0.5)


def test_unshift_at_depth_zero():
    with pytest.raises(DepthError):
        unshift(BackwardPoint(1.8, (0.3,)))


@given(slopes, st.floats(min_value=0.0, max_value=0.5), st.integers(0, 15))
def test_shift_unshift_roundtrip(s, t, d):
    x = ray_point(s, t, d)
    assert unshift(shift(x)).coords == x.coords


def test_projection_values():
    x = BackwardPoint(2.0, (0.25, 0.5, 1.0))
    assert projection(x, 0) == 1.0
    assert projection(x, 1) == 0.5
    assert projection(BackwardPoint.zeros(1.8, 7), 3) == 0.0
    with pytest.raises(DepthError):
        projection(x, 5)


# -- p-levels -------------------------------------------------------------------


def test_p_level_explicit():
    # x_{-3} = c with p = 1 -> level 2
    x = BackwardPoint(2.0, (0.25, 0.5, 1.0, 0.0, 0.0))
    assert p_level(x, 1) == 2
    assert p_level(x, 3) == 0


def test_p_level_zero_point_is_infinite():
    assert p_level(BackwardPoint.zeros(1.8, 9), 2) == math.inf


def test_p_level_absent():
    x = ray_point(1.8, 0.31, 6)
    assert p_level(x, 0) is None


def test_p_level_needs_depth():
    with pytest.raises(DepthError):
        p_level(BackwardPoint(1.8, (0.3, 0.54)), 4)


@given(
    st.sampled_from([1.6, 1.8, 2.0]),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=63),
)
@settings(max_examples=300)
def test_shift_raises_level(s, k, p, extra, bits):
    """Appending one image pushes every c-hit one coordinate deeper."""
    tm = TentMap(s)
    t = tm.critical
    for i in range(k):  # descend a preimage ladder, branch chosen by a bit
        pre = [x for x in tent_inverse(tm, t) if x <= tm.top]
        t = pre[(bits >> i) & 1] if len(pre) > 1 else pre[0]
    pt = ray_point(s, t, k + p + extra)  # c planted at backward index p + extra
    lvl = p_level(pt, p)
    assert lvl is not None and lvl != math.inf
    assume(p == 0 or abs(projection(pt, p - 1) - tm.critical) > 1e-9)
    assume(abs(tm(pt.current) - tm.critical) > 1e-9)
    assert p_level(shift(pt), p) == lvl + 1


# -- arcs and folding patterns ---------------------------------------------------


def test_arc_records_refuses_index_zero():
    with pytest.raises(DomainError):
        arc_records(1.8, 0)


def test_arc_pattern_smallest_cases():
    assert arc_to_salient(2.0, 1).entries == (math.inf, 0, 1)
    assert arc_to_salient(1.8, 2).entries == (math.inf, 0, 1, 0, 2)


@pytest.mark.parametrize("s", [1.6, 1.8, 2.0])
def test_arc_pattern_ends_at_n(s):
    for n in range(1, 11):
        assert arc_to_salient(s, n).entries[-1] == n


@pytest.mark.parametrize("s", [1.6, 1.8, 2.0, GOLDEN])
def test_folding_pattern_prefix_universal(s):
    assert folding_pattern_prefix(s, 7).entries == (math.inf, 0, 1, 0, 2, 0, 1)
    assert folding_pattern_prefix(s, 2).entries == (math.inf, 0)


def test_arc_records_distinct_when_critical_point_is_periodic():
    # the top is a node of the backward tree at the golden mean; its one
    # preimage is the critical point, which must not reappear as a fold point
    recs = arc_records(GOLDEN, 20)
    pos = [r.position for r in recs]
    assert all(a < b for a, b in zip(pos, pos[1:]))
    assert (math.inf, *(r.level for r in recs[:6])) == (math.inf, 0, 1, 0, 2, 0, 1)
    assert recs[-1].position == 0.5 and recs[-1].level == 20


def test_pattern_strings():
    fp = folding_pattern_prefix(2.0, 4)
    assert fp.as_strings() == ["inf", "0", "1", "0"]
    assert str(fp) == "inf 0 1 0"


@pytest.mark.parametrize("s", [1.6, 1.8, 2.0])
def test_pattern_alternates(s):
    for n in range(1, 9):
        fp = arc_to_salient(s, n)
        assert fp.alternates()
        assert all(a != b for a, b in zip(fp.entries, fp.entries[1:]))


@pytest.mark.parametrize("s", [1.6, 1.8, 2.0])
def test_pattern_prefix_stable(s):
    # FP of the longer arc extends FP of the shorter one; this is what makes
    # the infinite pattern well-defined
    for n in range(1, 9):
        a = arc_to_salient(s, n).entries
        b = arc_to_salient(s, n + 1).entries
        assert b[: len(a)] == a


def test_full_slope_interleave_growth():
    # at s = 2 the new half is the mirrored interior plus the next salient
    for n in range(1, 9):
        a = arc_to_salient(2.0, n).entries
        b = arc_to_salient(2.0, n + 1).entries
        assert b == a + tuple(reversed(a[1:-1])) + (n + 1,)


def test_full_slope_palindromic_interior():
    # equivalent positional form: strictly between s_n and the endpoint the
    # levels replay the reversed interior of the previous arc
    for n in range(1, 9):
        recs = arc_records(2.0, n + 1)
        pos_sn = salient_positions(2.0, n + 1)[n - 1]
        inner = tuple(r.level for r in recs if pos_sn < r.position < 0.5)
        prev = arc_to_salient(2.0, n).entries
        assert inner == tuple(reversed(prev[1:-1]))


def test_arc_is_a_read_only_sequence_of_records():
    arc = arc_records(1.8, 6)
    assert isinstance(arc, Arc) and len(arc) == arc.positions.size == arc.levels.size
    assert arc.positions.dtype == np.float64 and arc.levels.dtype.kind == "i"
    with pytest.raises(ValueError):
        arc.positions[0] = 1.0
    with pytest.raises(ValueError):
        arc.levels[0] = 1
    rec = arc[-1]
    assert rec == PPointRecord(0.5, 6, 0)
    assert type(rec.position) is float and type(rec.level) is int
    assert type(rec.preimage_index) is int
    records = list(arc)
    assert len(records) == len(arc) and records[-1] == rec
    assert records == [arc[i] for i in range(len(arc))]
    assert all(type(r.position) is float and type(r.level) is int for r in records)
    assert all(type(r.preimage_index) is int for r in records)
    assert [r.position for r in arc] == arc.positions.tolist()
    assert all(r.level + r.preimage_index == 6 for r in records)
    head = arc[:6]
    assert isinstance(head, Arc) and list(head) == records[:6]
    assert list(arc[::-2]) == records[::-2]
    assert dataclasses.replace(arc[2], level=9).level == 9
    with pytest.raises(IndexError):
        arc[len(arc)]


def _salient_by_scan(s, n):
    """First occurrence of each level along the arc, scanned with a running maximum."""
    arc = arc_records(s, n)
    out, best = [], 0
    for x, level in zip(arc.positions.tolist(), arc.levels.tolist()):
        if level > best:
            assert level == best + 1
            out.append(x)
            best = level
    assert best == n
    return out


def _prefix_by_agreement(s, count):
    """Grow the arc until two consecutive arcs agree on the first count entries."""
    prev = None
    for n in range(2, count + 30):
        cur = arc_to_salient(s, n).entries[:count]
        if cur == prev and len(cur) == count:
            return cur
        prev = cur
    raise AssertionError("prefix did not stabilize")


REFERENCE_SLOPES = [2.0, 1.9, 1.8, 1.5, 1.4143, 1.3, GOLDEN, PERIOD_4]


@pytest.mark.parametrize("s", REFERENCE_SLOPES)
@pytest.mark.parametrize("n", [1, 5, 12, 18])
def test_closed_form_salient_points_match_the_scan(s, n):
    assert [x.hex() for x in salient_positions(s, n)] == [
        x.hex() for x in _salient_by_scan(s, n)
    ]


@pytest.mark.parametrize("s", [*REFERENCE_SLOPES, 1.9275619754829254])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 14])
def test_first_record_of_each_level_is_its_salient_point(s, n):
    # the alignment check reads its references here.  Where c has period P
    # with n + 1 < P, arc n's tree has not snapped the salient points onto
    # c's orbit, so they differ from those of a longer arc by a few ulps
    arc = arc_records(s, n)
    levels, first = np.unique(arc.levels, return_index=True)
    assert levels.tolist() == list(range(n + 1))
    longer = salient_positions(s, n + 5)[4:]
    assert np.allclose(arc.positions[first], longer, rtol=0.0, atol=1e-15)
    if not 1 + n < len(critical_cycle(TentMap(s), n + 6)):
        assert arc.positions[first].tobytes() == np.array(longer).tobytes()


def test_closed_form_salient_points_carry_the_tree_snap():
    # at the period-4 slope the layer-1 node c/s, the salient point one level
    # below c, is snapped to the orbit value f^3(c)
    assert (0.5 / PERIOD_4).hex() == "0x1.165e680169fb8p-2"
    assert salient_positions(PERIOD_4, 5)[-2].hex() == "0x1.165e680169fbcp-2"


@pytest.mark.parametrize("s", [1.45, 1.5, 1.6, 1.8, 2.0, GOLDEN, PERIOD_4])
@pytest.mark.parametrize("count", [1, 2, 3, 7, 12, 20])
def test_prefix_from_one_arc_matches_the_agreement_loop(s, count):
    assert folding_pattern_prefix(s, count).entries == _prefix_by_agreement(s, count)


def test_ray_point_is_charged_before_it_walks(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "1000")
    assert BackwardPoint.from_deepest(1.8, 0.3, 999).depth == 999
    with pytest.raises(ResourceCapError):
        BackwardPoint.from_deepest(1.8, 0.3, 10**6)


def test_salient_points_build_no_tree(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "1000")
    pos = salient_positions(1.8, 60)
    assert len(pos) == 60 and all(a < b for a, b in zip(pos, pos[1:]))
    assert pos[-1] == 0.5


# -- salient points ----------------------------------------------------------------


@pytest.mark.parametrize("s", [1.6, 1.8, 2.0])
def test_salient_levels_count_up(s):
    n = 10
    recs = {round(r.position, 11): r.level for r in arc_records(s, n)}
    pos = salient_positions(s, n)
    assert [recs[round(t, 11)] for t in pos] == list(range(1, n + 1))
    assert pos[-1] == pytest.approx(0.5)


def test_salient_positions_full_slope():
    # at s = 2 the climb is by halving: c/2^{n-i}
    assert salient_positions(2.0, 4) == pytest.approx([0.0625, 0.125, 0.25, 0.5])


@pytest.mark.parametrize("s", [1.6, 1.8, 2.0])
def test_salient_first_occurrence(s):
    recs = arc_records(s, 8)
    pos = salient_positions(s, 8)
    for i, t in enumerate(pos, start=1):
        before = [r.level for r in recs if r.position < t - 1e-12]
        assert all(lvl < i for lvl in before)


@pytest.mark.parametrize("s", [1.6, 1.8, 2.0])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_equal_levels_project_equally(s, p):
    """Any two records of the same level sit over the same p-th coordinate."""
    n = 8
    tm = TentMap(s)
    by_level = {}
    for r in arc_records(s, n):
        by_level.setdefault(r.level, []).append(r.position)
    for level, group in by_level.items():
        if level < p or len(group) < 2:
            continue
        projs = []
        for t in group:
            x = t
            for _ in range(n - p):  # walk forward to the p-th coordinate
                x = tm(x)
            projs.append(x)
        ref = projs[0]
        assert all(abs(v - ref) < 1e-9 for v in projs)


# -- shift geometry -----------------------------------------------------------------


@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
    st.sampled_from([1.5, 1.8, 2.0]),
)
@settings(max_examples=200)
def test_shift_lipschitz(t1, t2, s):
    x, y = ray_point(s, t1, 16), ray_point(s, t2, 16)
    tm = TentMap(s)
    d = metric(x, y)
    ds = metric(shift(x), shift(y))
    # exact decomposition, then the (s + 1/2) coarse bound
    assert ds == pytest.approx(abs(tm(x.current) - tm(y.current)) + 0.5 * d, abs=1e-12)
    assert ds <= (s + 0.5) * d + 1e-12


# (records, positions digest, levels digest) of arc_records(s, n): the first
# 16 hex digits of the sha256 of each array's bytes, taken before the arcs
# came from ordered layers
FROZEN_ARCS = {
    (1.5, 1): (2, "c007d180acbbc5f8", "9d34149fbd1fe777"),
    (1.5, 2): (4, "6f9ae6c307dbe820", "4cea01406733b6dd"),
    (1.5, 5): (19, "ffe3cddd6dcc8c56", "5df2d03ba721053a"),
    (1.5, 12): (379, "6d9ebb4c41ee5b8d", "ecfa8f783819a105"),
    (1.5, 20): (9857, "5c7e412890b7b5a7", "f7258666cd79ac03"),
    (1.8, 1): (2, "ff086fde9b989006", "9d34149fbd1fe777"),
    (1.8, 2): (4, "a580fcfa9d5b6666", "4cea01406733b6dd"),
    (1.8, 5): (28, "d80b5d3d821a30a6", "091ec93d03c712f9"),
    (1.8, 12): (1847, "bdd02c8045c0c340", "877c887683c9f19e"),
    (1.8, 20): (204045, "f3abd7f2d96c3a8f", "225493b0a87f2a32"),
    (2.0, 1): (2, "f4350073466748fc", "9d34149fbd1fe777"),
    (2.0, 2): (4, "4702aa4a03324690", "4cea01406733b6dd"),
    (2.0, 5): (32, "4d5b7a7f17d3aee1", "20d21b6547dbed2d"),
    (2.0, 12): (4096, "083d827bd3cf7274", "78a431737174a4ab"),
    (2.0, 20): (1048576, "16ee2c05babfce2d", "8cb3f199c6ed9bbc"),
    (GOLDEN, 1): (2, "7d0444cab365285d", "9d34149fbd1fe777"),
    (GOLDEN, 2): (4, "775ec1b975c4884e", "4cea01406733b6dd"),
    (GOLDEN, 5): (20, "9be16609cfda7b0f", "2de5392ca439be42"),
    (GOLDEN, 12): (609, "fc51c70d07000d93", "66f06d405911fb98"),
    (GOLDEN, 20): (28656, "2cfca7d04398e69f", "4d262abe9d475cd0"),
    (PERIOD_4, 1): (2, "7d31bcb08fd474fe", "9d34149fbd1fe777"),
    (PERIOD_4, 2): (4, "6f26827f22b1134a", "4cea01406733b6dd"),
    (PERIOD_4, 5): (28, "e6a819c43ef4d41e", "091ec93d03c712f9"),
    (PERIOD_4, 12): (2031, "1ff3ff2ea5359d64", "4ebbb5bc4d222f84"),
    (PERIOD_4, 20): (266079, "97e289745d03f829", "c3a2e98ad5f7331a"),
}


@pytest.mark.parametrize("s,n", list(FROZEN_ARCS))
def test_arc_is_frozen(s, n):
    arc = arc_records(s, n)
    assert arc.levels.dtype == np.int64
    got = [len(arc)] + [hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (arc.positions, arc.levels)]
    assert tuple(got) == FROZEN_ARCS[s, n]
