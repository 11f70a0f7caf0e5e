import math
import tracemalloc

import numpy as np
import pytest

from ilim.chains import (
    AlignmentReport,
    IntervalChain,
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
    BackwardPoint,
    arc_records,
    p_level,
    projection,
    salient_positions,
    shift,
)
from ilim.maps import MATCH_TOL, TentMap

SLOPES = [1.6, 1.8, 2.0]
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0  # the critical point has period 3


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


def test_limit_diameter_monotone_in_width():
    ch = build_chain(1.8, 3, 0.2)
    assert limit_diameter(ch, 0.1, 0.2) < limit_diameter(ch, 0.1, 0.4)
    # zero-width interval still carries the free-history diameter
    assert limit_diameter(ch, 0.3, 0.3) == pytest.approx(2.0**-3 * 0.9)


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


def test_alignment_rejects_bad_shape():
    with pytest.raises(DomainError):
        verify_plevel_alignment(1.8, 3, 4, 1, 6)
    with pytest.raises(DomainError):
        verify_plevel_alignment(1.8, 6, 3, -1, 6)


def test_alignment_report_json():
    rep = verify_plevel_alignment(2.0, 4, 2, 1, 4)
    blob = rep.to_json()
    assert blob["M"] == rep.M == 3
    assert blob["all_pass"] is True
    assert blob["checks"] == rep.checks


def test_chain_json_roundtrip():
    ch = build_chain(1.8, 2, 0.3)
    blob = ch.to_json()
    assert blob["slope"] == 1.8
    assert blob["p"] == 2
    assert blob["mesh"] == pytest.approx(ch.mesh)
    assert blob["breakpoints"] == list(ch.breakpoints)
