import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from ilim import chains
from ilim.chains import (
    AlignmentReport,
    IntervalChain,
    _dedup,
    _pullback,
    adjacency_ok,
    build_chain,
    limit_diameter,
    limit_mesh,
    link_of,
    mandatory_ok,
    refines,
    verify_plevel_alignment,
)
from ilim.errors import DepthError, DomainError, ResourceCapError
from ilim.inverse_limit import (
    Arc,
    BackwardPoint,
    arc_records,
    p_level,
    projection,
    salient_positions,
    shift,
)
from ilim.maps import MATCH_TOL, TentMap, critical_orbit, forward_orbit

SLOPES = [1.6, 1.8, 2.0]
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0  # the critical point has period 3
PERIOD_4 = 1.839286755214161  # the critical point has period 4


def test_breakpoints_contain_critical():
    ch = build_chain(2.0, 0, 1.0)
    assert any(abs(b - 0.5) < 1e-12 for b in ch.breakpoints)


def test_breakpoints_contain_first_preimages():
    ch = build_chain(2.0, 1, 1.0)
    for want in (0.25, 0.5, 0.75):
        assert any(abs(b - want) < 1e-12 for b in ch.breakpoints)


def test_endpoints_and_monotonicity():
    for s in SLOPES:
        ch = build_chain(s, 2, 0.2)
        assert ch.breakpoints[0] == 0.0
        assert ch.breakpoints[-1] == pytest.approx(s / 2.0, abs=1e-12)
        assert adjacency_ok(ch)
        assert ch.mesh > 0


def test_build_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_chain(1.8, -1, 0.1)
    with pytest.raises(DomainError):
        build_chain(1.8, 2, 0.0)


@pytest.mark.parametrize("s", SLOPES)
@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_chain_axioms(s, p):
    ch = build_chain(s, p, 0.25)
    assert adjacency_ok(ch)
    assert mandatory_ok(ch)
    gaps = np.diff(ch.breakpoints)
    assert gaps.max() < 0.25 * s**-p / 2.0


@pytest.mark.parametrize("s", SLOPES)
@pytest.mark.parametrize("p,eps", [(4, 0.25), (5, 0.25), (7, 0.1)])
def test_lifted_mesh_below_eps_at_sufficient_depth(s, p, eps):
    # the unconstrained-history term 2^-p * top must be small against eps
    # before the lifted mesh can drop below eps; these depths clear it
    assert limit_mesh(build_chain(s, p, eps)) < eps


def test_base_grid_is_charged_before_it_is_allocated(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "1000")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            build_chain(1.8, 0, 1e-5)  # 262,144 cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_huge_base_grid_is_refused_before_its_size_is_formed():
    # 2**1064 cells: the count is charged as an integer and never enters a float
    with pytest.raises(ResourceCapError):
        build_chain(1.8, 2, 1e-320)
    with pytest.raises(ResourceCapError):
        build_chain(1.8, 0, 5e-324)  # eps / 2 underflows to 0


def test_pullbacks_are_charged_before_they_are_allocated(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "100000")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            build_chain(2.0, 20, 0.05)  # 64 * 2**20 + 1 breakpoints
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100000 * 8


def test_breakpoints_are_a_read_only_array():
    ch = IntervalChain(1.8, 0, (0.0, 0.3, 0.6, 0.9))
    assert ch.breakpoints.dtype == np.float64 and ch.n_links == 3
    with pytest.raises(ValueError):
        ch.breakpoints[1] = 0.2
    assert ch.mesh == pytest.approx(0.3) and adjacency_ok(ch)
    assert not adjacency_ok(IntervalChain(1.8, 0, (0.0, 0.3, 0.3, 0.9)))


@pytest.mark.parametrize(
    "breaks",
    [(0.0, math.nan, 0.9), (0.0, 0.3, math.inf), (-math.inf, 0.3, 0.9), (math.nan, math.nan)],
)
def test_chain_refuses_non_finite_breakpoints(breaks):
    with pytest.raises(DomainError, match="finite"):
        IntervalChain(1.8, 0, breaks)


def test_chain_refuses_a_decreasing_step():
    with pytest.raises(DomainError, match="non-decreasing"):
        IntervalChain(1.8, 0, (0.0, 0.6, 0.3, 0.9))


@pytest.mark.parametrize("breaks", [(), (0.5,), [[0.0, 0.9], [0.0, 0.9]]])
def test_chain_refuses_fewer_than_two_breakpoints(breaks):
    with pytest.raises(DomainError, match="at least two"):
        IntervalChain(1.8, 0, breaks)


def test_chain_refuses_a_negative_level():
    # limit_mesh read 1.8 here: an empty coefficient sum and a tail of 2 * s/2
    with pytest.raises(DomainError, match="level"):
        IntervalChain(1.8, -1, (0.0, 0.9))


@pytest.mark.parametrize("s", [math.nan, 1.0, 2.5])
def test_chain_refuses_a_slope_outside_the_tent_family(s):
    with pytest.raises(DomainError, match="slope"):
        IntervalChain(s, 2, (0.0, 0.9))


def test_limit_diameter_monotone_in_width():
    ch = build_chain(1.8, 3, 0.2)
    assert limit_diameter(ch, 0.1, 0.2) < limit_diameter(ch, 0.1, 0.4)
    # zero-width interval still carries the free-history diameter
    assert limit_diameter(ch, 0.3, 0.3) == pytest.approx(2.0**-3 * 0.9)


@pytest.mark.parametrize(
    "lo,hi", [(0.4, 0.1), (math.nan, 0.5), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.2)]
)
def test_limit_diameter_refuses_a_reversed_or_non_finite_interval(lo, hi):
    # (0.4, 0.1) used to read -2.2956, and a NaN end nan
    with pytest.raises(DomainError):
        limit_diameter(build_chain(1.8, 3, 0.2), lo, hi)


@pytest.mark.parametrize("s", SLOPES)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_refinement_ladder(s, p):
    eps = 0.2
    coarse = build_chain(s, p, eps)
    fine = build_chain(s, p + 1, eps / 2.0)
    assert refines(fine, coarse)


def test_refines_counterexample():
    fine = build_chain(1.8, 1, 0.5)
    b1 = fine.breakpoints[1]
    # plant a coarse breakpoint strictly inside the image of the first fine link
    coarse = IntervalChain(1.8, 0, (0.0, 0.9 * 1.8 * b1, 0.9))
    assert not refines(fine, coarse)


def test_refines_same_level_is_vacuous():
    ch = build_chain(1.8, 2, 0.2)
    with pytest.raises(DomainError):
        refines(ch, ch)


def test_refines_slope_mismatch():
    with pytest.raises(DomainError):
        refines(build_chain(1.8, 1, 0.2), build_chain(1.6, 0, 0.2))


# -- link lookup ----------------------------------------------------------------


def test_link_of_zero_point():
    ch = build_chain(1.8, 2, 0.2)
    assert link_of(ch, BackwardPoint.zeros(1.8, 5)) == 0


def test_link_of_top_is_last():
    ch = build_chain(1.8, 0, 0.2)
    x = BackwardPoint(1.8, (0.5, 0.9))  # present coordinate at the top
    assert link_of(ch, x) == ch.n_links - 1


def test_link_of_breakpoint_goes_right():
    ch = IntervalChain(1.8, 0, (0.0, 0.3, 0.6, 0.9))
    x = BackwardPoint(1.8, (0.3,))
    assert link_of(ch, x) == 1


def test_link_of_depth_check():
    ch = build_chain(1.8, 4, 0.2)
    with pytest.raises(DepthError):
        link_of(ch, BackwardPoint(1.8, (0.2, 0.36)))
    with pytest.raises(DomainError):
        link_of(build_chain(1.6, 0, 0.2), BackwardPoint.zeros(1.8, 2))


@pytest.mark.parametrize("s", SLOPES)
@pytest.mark.parametrize("p", [0, 1, 2])
def test_equal_levels_share_links(s, p):
    """Fold points of one level lift to the same chain link.

    In exact arithmetic the shared depth-p coordinate forces one link; in
    floats that coordinate is itself a breakpoint when level == p (it is the
    critical point), so round-off may spread copies across the two links
    meeting there.  Anything wider than that is a real failure.
    """
    n = 8
    ch = build_chain(s, p, 0.1)
    by_level = {}
    for r in arc_records(s, n):
        pt = BackwardPoint.from_deepest(s, r.position, n)
        by_level.setdefault(r.level, []).append(link_of(ch, pt))
    for level, links in by_level.items():
        if level < p:
            continue
        distinct = sorted(set(links))
        if len(distinct) == 1:
            continue
        assert len(distinct) == 2 and distinct[1] - distinct[0] == 1, (
            f"level {level} split across links {distinct}"
        )
        boundary = ch.breakpoints[distinct[1]]
        pts = [
            BackwardPoint.from_deepest(s, r.position, n)
            for r in arc_records(s, n)
            if r.level == level
        ]
        assert all(abs(projection(q, p) - boundary) < 1e-9 for q in pts)


# -- shift-power alignment --------------------------------------------------------


def test_alignment_full_slope():
    rep = verify_plevel_alignment(2.0, 6, 3, 1, 8)
    assert rep.M == 4
    assert rep.all_pass
    assert rep.checks > 0 and rep.passed == rep.checks
    assert rep.failures == ()


def test_alignment_shallow_slope():
    rep = verify_plevel_alignment(1.8, 8, 4, 2, 8)
    assert rep.M == 6
    assert rep.all_pass


def test_alignment_identity_case():
    rep = verify_plevel_alignment(1.8, 4, 4, 0, 6)
    assert rep.M == 0
    assert rep.all_pass


def _alignment_by_points(s, q, p, R, n):
    """The alignment check read record by record through the point API."""
    M = R + q - p
    reference = build_chain(s, p, eps=0.05)
    salients = salient_positions(s, n + M)
    records = arc_records(s, n)
    passed, failures = 0, []
    for rec in records:
        image = BackwardPoint.from_deepest(s, rec.position, q + n)
        for _ in range(R):
            image = shift(image)
        target = rec.level + M
        level = p_level(image, p)
        if level != target:
            failures.append(
                f"position {rec.position:.12g}: level {level} after {R} shifts, "
                f"expected {target}"
            )
            continue
        if target == 0:
            passed += 1
            continue
        salient = BackwardPoint.from_deepest(s, salients[target - 1], p + n + M)
        value, ref = projection(image, p), projection(salient, p)
        same_link = link_of(reference, salient) == link_of(reference, image)
        if abs(value - ref) <= MATCH_TOL or same_link:
            passed += 1
        else:
            failures.append(
                f"position {rec.position:.12g}: depth-{p} coordinate {value:.12g} "
                f"vs salient {ref:.12g}"
            )
    return AlignmentReport(s, q, p, R, n, M, len(records), passed, tuple(failures))


@pytest.mark.parametrize(
    "args", [(2.0, 6, 3, 1, 8), (1.8, 8, 4, 2, 8), (GOLDEN, 4, 2, 1, 10)]
)
def test_alignment_matches_the_point_api(args):
    assert verify_plevel_alignment(*args) == _alignment_by_points(*args)


def test_alignment_failures_at_a_periodic_critical_point():
    rep = verify_plevel_alignment(GOLDEN, 4, 2, 1, 10)
    assert (rep.checks, rep.passed) == (232, 0)
    assert rep.failures[0] == "position 0.00406530937789: level 0 after 1 shifts, expected 3"


def _digest(a):
    """First 16 hex digits of the sha256 of an array's bytes."""
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def _sorted_pullback(tent, breaks):
    """Oracle: the pullback as it was, sorting the clipped preimages before
    dropping near-duplicates."""
    return _dedup(np.sort(np.clip(tent.branches(breaks), 0.0, tent.top)))


@pytest.mark.parametrize("s", [1.3, 1.5, 1.8, 2.0, GOLDEN, PERIOD_4])
@pytest.mark.parametrize("eps", [0.3, 0.04])
def test_pullback_is_the_sorted_pullback(s, eps):
    tent = TentMap(s)
    breaks = build_chain(s, 0, eps).breakpoints
    for _ in range(9):
        got = _pullback(tent, breaks)
        assert got.tobytes() == _sorted_pullback(tent, breaks).tobytes()
        breaks = got


# links and breakpoint digests of build_chain(s, p, eps), taken before the
# pullbacks came in order; every one holds its mandatory points
FROZEN_CHAINS = {
    (1.5, 0, 0.3): (9, "c9b134623506fc3d"),
    (1.5, 1, 0.05): (50, "58d9c3ccf6957726"),
    (1.5, 6, 0.1): (200, "6c04dd377d21a804"),
    (1.5, 7, 0.1): (302, "24558223ed9d1a0d"),
    (1.5, 13, 0.04): (12773, "79ac80ad98c8037d"),
    (1.5, 14, 0.02): (37822, "4748ae0491604c49"),
    (1.8, 0, 0.3): (9, "128ece36926d4ff3"),
    (1.8, 1, 0.05): (118, "f23fe508d32a4a79"),
    (1.8, 6, 0.1): (1159, "a2c04f4ca4754798"),
    (1.8, 7, 0.1): (2089, "83fb60875b0272e4"),
    (1.8, 13, 0.04): (137963, "52eb9774579ed4ca"),
    (1.8, 14, 0.02): (487824, "a348216a2c1e88c9"),
    (2.0, 0, 0.3): (8, "84c85f60d85e1785"),
    (2.0, 1, 0.05): (128, "d7b1fd07f63d583f"),
    (2.0, 6, 0.1): (2048, "5e4be67d7eea46d3"),
    (2.0, 7, 0.1): (4096, "818e307fee696baa"),
    (2.0, 13, 0.04): (524288, "c4253d3201418248"),
    (2.0, 14, 0.02): (2097152, "d6f9794036fa93e6"),
    (GOLDEN, 0, 0.3): (9, "365a98c856292b43"),
    (GOLDEN, 1, 0.05): (106, "ce7213f3e26b450c"),
    (GOLDEN, 6, 0.1): (609, "ee6440a325396ffd"),
    (GOLDEN, 7, 0.1): (986, "9d13dee022f19254"),
    (GOLDEN, 13, 0.04): (34434, "de8096e7dfab5b99"),
    (GOLDEN, 14, 0.02): (109836, "995bebba239d7864"),
    (PERIOD_4, 0, 0.3): (9, "75c671c7d3d510b3"),
    (PERIOD_4, 1, 0.05): (120, "d8c4cc3c198c732c"),
    (PERIOD_4, 6, 0.1): (1297, "c17abef50979ecd1"),
    (PERIOD_4, 7, 0.1): (2386, "02bcc07e7b9fb537"),
    (PERIOD_4, 13, 0.04): (181658, "90d0c5b55378d4eb"),
    (PERIOD_4, 14, 0.02): (659341, "29a207e8559bc383"),
}


@pytest.mark.parametrize("s,p,eps", list(FROZEN_CHAINS))
def test_chain_is_frozen(s, p, eps):
    ch = build_chain(s, p, eps)
    assert (ch.n_links, _digest(ch.breakpoints)) == FROZEN_CHAINS[s, p, eps]
    assert mandatory_ok(ch)


@pytest.mark.parametrize("s", [1.5, 1.8, 2.0, GOLDEN, PERIOD_4])
def test_frozen_chains_refine(s):
    assert refines(build_chain(s, 7, 0.1), build_chain(s, 6, 0.1))
    assert refines(build_chain(s, 14, 0.02), build_chain(s, 13, 0.04))


# (M, checks, passed, digest of the failure lines) of verify_plevel_alignment,
# taken before the arcs came from ordered layers.  The GOLDEN and PERIOD_4
# reports fail: where c recurs, the check reads the level from the latest
# critical hit and the arc from the first
FROZEN_ALIGNMENTS = {
    (GOLDEN, 4, 2, 1, 14): (3, 1596, 0, "1e7093c9f8bda931"),
    (PERIOD_4, 4, 2, 1, 12): (3, 2031, 927, "c7494d549e0db0be"),
    (1.5, 3, 3, 1, 21): (1, 14793, 14793, "e3b0c44298fc1c14"),
    (1.5, 4, 3, 0, 21): (1, 14793, 14793, "e3b0c44298fc1c14"),
    (1.5, 4, 4, 1, 21): (1, 14793, 14793, "e3b0c44298fc1c14"),
    (1.5, 5, 4, 0, 21): (1, 14793, 14793, "e3b0c44298fc1c14"),
    (1.8, 4, 2, 1, 14): (3, 5994, 5994, "e3b0c44298fc1c14"),
    (2.0, 5, 3, 2, 12): (4, 4096, 4096, "e3b0c44298fc1c14"),
}


@pytest.mark.parametrize("args", list(FROZEN_ALIGNMENTS))
def test_alignment_report_is_frozen(args):
    rep = verify_plevel_alignment(*args)
    failures = hashlib.sha256("\n".join(rep.failures).encode()).hexdigest()[:16]
    assert (rep.M, rep.checks, rep.passed, failures) == FROZEN_ALIGNMENTS[args]


def _salient_alignment(s, q, p, R, n):
    """Oracle: the alignment as it was when it took its references from
    ``salient_positions(s, n + M)``, iterated n + M steps in a second orbit."""
    M = R + q - p
    tent = TentMap(s)
    arc = arc_records(s, n)
    reference = build_chain(s, p, eps=0.05)
    target = arc.levels + M
    orbit = forward_orbit(tent, arc.positions, q + n + R)
    value = orbit[:, q + n + R - p]
    hits = np.abs(orbit[:, q + n + R - p :: -1] - tent.critical) <= MATCH_TOL
    found, level = hits.any(axis=1), np.argmax(hits, axis=1)
    all_zero = (orbit.max(axis=1) <= MATCH_TOL) & (orbit.min(axis=1) >= -MATCH_TOL)
    level_ok = found & ~all_zero & (level == target)
    salients = salient_positions(s, n + M)
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
    return AlignmentReport(s, q, p, R, n, M, len(arc), int(passed.sum()), tuple(failures))


SHAPES = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 0), (3, 3, 1), (4, 2, 1), (5, 3, 2), (6, 3, 1)]


@pytest.mark.parametrize(
    "s", [1.3, 1.5, GOLDEN, 1.7548776662466927, 1.8, PERIOD_4, 1.9275619754829254, 2.0]
)
def test_alignment_is_the_salient_based_alignment(s):
    # the frozen reports, and shapes with M from 0 to 4.  At the period-4 and
    # period-5 slopes some small n take references a few ulps off the old ones
    # (see test_first_record_of_each_level_is_its_salient_point); no report moves
    cases = [args for args in FROZEN_ALIGNMENTS if args[0] == s]
    cases += [(s, q, p, R, n) for q, p, R in SHAPES for n in (1, 2, 3, 8)]
    for args in cases:
        assert repr(verify_plevel_alignment(*args)) == repr(_salient_alignment(*args)), args


@pytest.mark.parametrize("s", [1.3, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("q,p,R", [(0, 0, 0), (3, 1, 0), (4, 2, 1), (6, 3, 1)])
def test_aligned_coordinates_are_the_critical_orbit(s, q, p, R):
    # where c is not periodic every record passes, and the depth-p coordinate
    # of a record of level l is f^(l+M)(c)
    n, M = 8, R + q - p
    assert verify_plevel_alignment(s, q, p, R, n).all_pass
    tent = TentMap(s)
    orbit = [tent.critical, *critical_orbit(tent, n + M)]
    for rec in arc_records(s, n):
        image = BackwardPoint.from_deepest(s, rec.position, q + n)
        for _ in range(R):
            image = shift(image)
        assert abs(projection(image, p) - orbit[rec.level + M]) <= MATCH_TOL


@pytest.mark.parametrize("s", [1.5, GOLDEN, PERIOD_4, 2.0])
@pytest.mark.parametrize("n", [3, 8])
def test_alignment_counts_depend_on_the_shape_only_through_M(s, n):
    counts = {}
    for q in range(6):
        for p in range(q + 1):
            for R in range(4):
                rep = verify_plevel_alignment(s, q, p, R, n)
                counts.setdefault(rep.M, set()).add((rep.checks, rep.passed))
    assert all(len(seen) == 1 for seen in counts.values()), counts


@pytest.mark.parametrize("args", [
    (1.8, 25, 0, 0, 4), (1.9, 23, 0, 0, 4), (1.99, 22, 0, 0, 4), (1.99, 20, 0, 0, 14),
])
def test_deep_lifts_pass(args):
    # near n + M = 27, s**(n+M) times the rounding of a position passes
    # MATCH_TOL, and the float orbits of one level's records drift about 1e-9
    # apart; their coordinates come from c's orbit, so the drift fails no record
    assert verify_plevel_alignment(*args).all_pass


def test_a_misaligned_salient_point_fails_its_level(monkeypatch):
    # the first record of level 1 is given a point of level 2: it fails its
    # level test, and the other records of level 1 fail against it
    arc = arc_records(1.5, 6)
    positions = arc.positions.copy()
    positions[1] = positions[3]
    assert arc.levels[1] == 1 and arc.levels[3] == 2
    monkeypatch.setattr(chains, "arc_records", lambda s, n: Arc(n, positions, arc.levels.copy()))
    rep = verify_plevel_alignment(1.5, 1, 0, 0, 6)
    others = np.flatnonzero(arc.levels == 1)[1:]
    assert rep.passed == len(arc) - 1 - others.size
    assert rep.failures[0] == f"position {positions[1]:.12g}: level 3 after 0 shifts, expected 2"
    assert rep.failures[1:] == tuple(
        f"position {positions[i]:.12g}: depth-0 coordinate 0.375 vs salient 0.5625" for i in others
    )


def test_alignment_charges_one_orbit_of_n_plus_M_steps(monkeypatch):
    # its largest charge is the arc's orbit: n + M + 1 images per record
    s, q, p, R, n = 1.8, 4, 2, 1, 8
    need = len(arc_records(s, n)) * (n + R + q - p + 1)
    monkeypatch.setenv("ILIM_MAX_NODES", str(need))
    assert verify_plevel_alignment(s, q, p, R, n).all_pass
    monkeypatch.setenv("ILIM_MAX_NODES", str(need - 1))
    with pytest.raises(ResourceCapError):
        verify_plevel_alignment(s, q, p, R, n)


def test_alignment_builds_no_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the alignment built a chain")

    monkeypatch.setattr(chains, "build_chain", refuse)
    for args in FROZEN_ALIGNMENTS:
        test_alignment_report_is_frozen(args)


def test_alignment_rejects_bad_shape():
    with pytest.raises(DomainError):
        verify_plevel_alignment(1.8, 3, 4, 1, 6)
    with pytest.raises(DomainError):
        verify_plevel_alignment(1.8, 6, 3, -1, 6)


def test_chain_json_roundtrip():
    ch = build_chain(1.8, 2, 0.3)
    blob = ch.to_json()
    assert blob["slope"] == 1.8
    assert blob["p"] == 2
    assert blob["mesh"] == pytest.approx(ch.mesh)
    assert blob["breakpoints"] == list(ch.breakpoints)
