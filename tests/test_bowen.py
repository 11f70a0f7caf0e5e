"""Separated-set entropy: sampling, greedy counts, growth fits, coding bound.

The greedy counter is cross-checked two independent ways: against a
straight-from-the-definition rescan built on the backward-point metric, and
against an exact maximum-independent-set solver (bitset branch and bound) on
small subclouds, where the greedy answer must sit within a factor two.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilim import bowen
from ilim import (
    BackwardPoint,
    DepthError,
    DomainError,
    PartitionError,
    PointCloud,
    ResourceCapError,
    SeparationCurve,
    TentMap,
    build_chain,
    entropy_bowen,
    estimate_from_curves,
    itinerary_upper_bound,
    limit_diameter,
    metric,
    partition_blocks,
    sample_points,
    separated_count,
    separation_curves,
    validate,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0  # the critical point has period 3
PERIOD_4 = 1.839286755214161  # the critical point has period 4

# ---------------------------------------------------------------------------
# independent oracles


def greedy_by_definition(sub, R, n, eps):
    """Rescan the greedy separated-set construction straight from the metric.

    Forward images are appended with the tent map itself and every step
    distance is evaluated through BackwardPoint/metric, so nothing here
    shares code with the vectorised prefix-sum path under test.
    """
    arr = sub.array
    ends = sub.depth + R * np.arange(n)
    steps = int(ends.max()) - sub.depth
    tm = TentMap(sub.slope)
    rows = []
    for row in arr:
        coords = list(row)
        x = coords[-1]
        for _ in range(max(steps, 0)):
            x = tm(x)
            coords.append(x)
        rows.append(coords)
    kept = []
    for i, coords in enumerate(rows):
        ok = True
        for j in kept:
            other = rows[j]
            dmax = 0.0
            for e in ends:
                a = BackwardPoint(sub.slope, tuple(coords[: e + 1]))
                b = BackwardPoint(sub.slope, tuple(other[: e + 1]))
                dmax = max(dmax, metric(a, b))
            if dmax <= eps:
                ok = False
                break
        if ok:
            kept.append(i)
    return len(kept)


def sample_by_seed(s, depth, per_branch_cap, n_seeds):
    """The sampler one seed at a time, as it was written before it was batched.

    Each seed's rows grow left branches first, then right ones, and are cut
    to the ranks (j*m)//cap once a seed holds m > cap rows.
    """
    tent = TentMap(s)
    second, top = tent.second_image, tent.top
    blocks = []
    for x0 in np.linspace(second, top, n_seeds + 2)[1:-1]:
        hist = np.array([[x0]])  # newest column last while growing
        for _ in range(depth):
            y = hist[:, -1]
            can_right = y >= second
            pre = tent.branches(y)
            left = np.hstack([hist, pre[: y.size, None]])
            right = np.hstack([hist[can_right], pre[y.size :][can_right][:, None]])
            hist = np.vstack([left, right])
            if hist.shape[0] > per_branch_cap:
                sel = np.unique((np.arange(per_branch_cap) * hist.shape[0]) // per_branch_cap)
                hist = hist[sel]
        blocks.append(hist[:, ::-1])
    return np.unique(np.vstack(blocks), axis=0)


def scan_row_by_row(cloud, R, n, eps):
    """The greedy scan one row at a time, as it was written before blocks.

    Each candidate's distance curves to the kept rows are the same
    sequential prefix sums over the same weighted columns, so the counts
    must agree exactly, ties at eps included.  Also returns every pair's
    largest distance over k < n, from which the tests draw tied scales.
    """
    ends = cloud.depth + R * np.arange(n)
    ext = bowen._extend_forward(cloud, int(ends.max()) - cloud.depth)
    W = ext.shape[1]
    weighted = ext * np.power(2.0, np.arange(W) - (W - 1))
    scale = np.power(2.0, (W - 1) - ends.astype(float))
    present = ext[:, cloud.depth]
    kept = []
    for i in range(ext.shape[0]):
        rows = np.asarray(kept, dtype=np.intp)
        close = np.abs(present[rows] - present[i]) <= eps
        if close.any():
            pref = np.cumsum(np.abs(weighted[rows[close]] - weighted[i]), axis=1)
            if not (pref[:, ends] * scale > eps).any(axis=1).all():
                continue
        kept.append(i)
    a, b = np.triu_indices(ext.shape[0], 1)
    pref = np.cumsum(np.abs(weighted[a] - weighted[b]), axis=1)
    return len(kept), (pref[:, ends] * scale).max(axis=1)


def _block_scan(cloud, R, n, eps):
    """The greedy scan in row blocks at one horizon n, as it was written
    before one pass settled every n' <= n.

    Each block is tested against the rows kept before it and then settled
    against itself, with pairs pruned by their newest-coordinate gap at every
    forward time k < n.
    """
    B, S = bowen._BLOCK, bowen._SLICE
    ends = bowen._end_columns(cloud.depth, R, n)
    weighted = bowen._extend_forward(cloud, int(ends.max()) - cloud.depth)
    N, W = weighted.shape
    present = weighted[:, cloud.depth].copy()
    weighted *= np.power(2.0, np.arange(W) - (W - 1))
    newest = weighted[:, ends].T.copy()
    scale = np.power(2.0, (W - 1) - ends.astype(float))
    forward = np.flatnonzero(ends > cloud.depth)

    def near(rows, cands):
        return np.abs(present[rows, None] - present[cands]) <= eps

    def held(rows, cands, pairs):
        i, j = np.nonzero(pairs)
        for k in forward:
            close = np.abs(newest[k, rows[i]] - newest[k, cands[j]]) * scale[k] <= eps
            i, j = i[close], j[close]
        out = np.empty(i.size, dtype=bool)
        for lo in range(0, i.size, S):
            a, b = rows[i[lo : lo + S]], cands[j[lo : lo + S]]
            pref = np.cumsum(np.abs(weighted[a] - weighted[b]), axis=1)
            out[lo : lo + S] = (pref[:, ends] * scale <= eps).all(axis=1)
        return i[out], j[out]

    kept = np.empty(N, dtype=np.intp)
    count = 0
    for lo in range(0, N, B):
        free = np.arange(lo, min(lo + B, N))
        for klo in range(0, count, S):
            if not free.size:
                break
            rows = kept[klo : min(klo + S, count)]
            free = np.delete(free, held(rows, free, near(rows, free))[1])
        later = np.zeros((free.size, free.size), dtype=bool)
        later[held(free, free, np.triu(near(free, free), 1))] = True
        alive = np.ones(free.size, dtype=bool)
        for c in range(free.size):
            if alive[c]:
                alive[c + 1 :] &= ~later[c, c + 1 :]
        new = free[alive]
        kept[count : count + new.size] = new
        count += new.size
    return count


def conflict_masks(sub, R, n, eps):
    """Bitmask adjacency of the closeness graph: edge when eps-close at all k < n."""
    arr = sub.array
    N, W = arr.shape
    ends = sub.depth + R * np.arange(n)
    steps = int(ends.max()) - sub.depth
    s = sub.slope
    ext = np.empty((N, W + max(steps, 0)))
    ext[:, :W] = arr
    x = arr[:, -1].copy()
    for k in range(max(steps, 0)):
        x = np.minimum(s * x, s * (1.0 - x))
        ext[:, W + k] = x
    neigh = [0] * N
    for i in range(N):
        close = np.ones(N, dtype=bool)
        for e in ends:
            w = 2.0 ** (np.arange(e + 1) - e)
            dk = np.abs(ext[:, : e + 1] - ext[i, : e + 1]) @ w
            close &= dk <= eps
        close[i] = False
        m = 0
        for j in np.nonzero(close)[0]:
            m |= 1 << int(j)
        neigh[i] = m
    return neigh


def mis_size(neigh):
    """Exact maximum independent set size, branch and bound on bitsets."""

    def component(avail):
        start = avail & -avail
        reach, frontier = start, start
        while frontier:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= neigh[v]
            nxt &= avail & ~reach
            reach |= nxt
            frontier = nxt
        return reach

    def solve(avail):
        total = 0
        changed = True
        while changed:  # degree-0/1 vertices are always safe to take
            changed = False
            a = avail
            while a:
                v = (a & -a).bit_length() - 1
                a &= a - 1
                if not (avail >> v) & 1:
                    continue
                nb = neigh[v] & avail
                if nb == 0:
                    avail &= ~(1 << v)
                    total += 1
                    changed = True
                elif nb & (nb - 1) == 0:
                    avail &= ~((1 << v) | nb)
                    total += 1
                    changed = True
        if avail == 0:
            return total
        comp = component(avail)
        if comp != avail:
            return total + solve(comp) + solve(avail & ~comp)
        best_v, best_deg = -1, -1
        a = avail
        while a:
            v = (a & -a).bit_length() - 1
            a &= a - 1
            deg = bin(neigh[v] & avail).count("1")
            if deg > best_deg:
                best_v, best_deg = v, deg
        inc = 1 + solve(avail & ~(neigh[best_v] | (1 << best_v)))
        exc = solve(avail & ~(1 << best_v))
        return total + max(inc, exc)

    return solve((1 << len(neigh)) - 1)


# ---------------------------------------------------------------------------
# sampling


def test_small_cloud_is_the_full_backward_tree():
    # at s=2 both preimage branches exist everywhere, so depth 3 with a roomy
    # cap gives all 2^3 branches for each of the 3 seeds
    cloud = sample_points(2.0, 3, per_branch_cap=8, n_seeds=3)
    assert len(cloud) == 3 * 8
    assert cloud.array.shape == (24, 4)


def test_sampled_rows_are_genuine_backward_orbits():
    cloud = sample_points(1.8, 7, per_branch_cap=4, n_seeds=16)
    assert all(validate(p) for p in cloud.points)


def test_sampled_rows_stay_in_the_invariant_interval():
    for s in (1.5, 1.8, 2.0):
        cloud = sample_points(s, 6, per_branch_cap=8, n_seeds=20)
        assert cloud.array.min() >= 0.0
        assert cloud.array.max() <= TentMap(s).top + 1e-12


def test_sampling_is_deterministic_and_deduplicated():
    a = sample_points(2.0, 5, per_branch_cap=6, n_seeds=40)
    b = sample_points(2.0, 5, per_branch_cap=6, n_seeds=40)
    assert np.array_equal(a.array, b.array)
    uniq = np.unique(a.array, axis=0)
    assert uniq.shape == a.array.shape


def test_branch_cap_limits_cloud_size():
    cloud = sample_points(2.0, 10, per_branch_cap=4, n_seeds=32)
    assert len(cloud) <= 32 * 4


def test_sampling_rejects_bad_parameters():
    with pytest.raises(DomainError):
        sample_points(2.0, 31)
    with pytest.raises(DomainError):
        sample_points(2.0, 5, per_branch_cap=0)
    with pytest.raises(DomainError):
        sample_points(2.0, 5, n_seeds=0)


def test_sampling_rejects_a_negative_depth():
    with pytest.raises(DomainError, match="cloud depth"):
        sample_points(1.9, -2, 1, 8)


def test_sampling_respects_node_budget(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "50")
    with pytest.raises(ResourceCapError):
        sample_points(2.0, 12, per_branch_cap=64, n_seeds=64)


def test_sampling_is_charged_before_it_allocates(monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "1000")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            sample_points(2.0, 4, 1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("s", [1.5, 1.6, 1.8, 1.9, 2.0])
def test_batched_sampler_equals_the_per_seed_loop(s):
    for cap in (1, 3, 4, 16, 128):
        for n_seeds in (1, 7, 33):
            for depth in (0, 1, 6, 12):
                got = sample_points(s, depth, cap, n_seeds).array
                want = sample_by_seed(s, depth, cap, n_seeds)
                assert got.shape == want.shape, (cap, n_seeds, depth)
                assert got.tobytes() == want.tobytes(), (cap, n_seeds, depth)


def test_benchmark_clouds_are_frozen():
    # the bowen_sweep clouds, as the per-seed loop built them
    cloud = sample_points(2.0, 12, 1, 2048)
    rich = sample_points(2.0, 12, 128, 24)
    assert cloud.array.shape == (2048, 13)
    assert rich.array.shape == (3072, 13)
    assert hashlib.sha256(cloud.array.tobytes()).hexdigest() == (
        "82a7d3fab5eb6ada70017baf975967c040c6343bb7557eeb766f0107bf837096"
    )
    assert hashlib.sha256(rich.array.tobytes()).hexdigest() == (
        "82cb8fc67d639419bbb7600c8c6aff43811e09cebd814bbf501b421df502c339"
    )


def test_subcloud_identity_when_large_enough():
    cloud = sample_points(1.8, 5, per_branch_cap=4, n_seeds=10)
    assert cloud.subcloud(10 * 4) is cloud


@pytest.mark.parametrize("size", [0, -3])
def test_subcloud_refuses_fewer_than_one_row(size):
    cloud = sample_points(1.8, 5, per_branch_cap=4, n_seeds=10)
    with pytest.raises(DomainError, match="at least one row"):
        cloud.subcloud(size)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10_000))
def test_subcloud_size_and_membership(k):
    cloud = sample_points(1.8, 6, per_branch_cap=4, n_seeds=24)
    size = 1 + k % len(cloud)
    sub = cloud.subcloud(size)
    assert len(sub) == size
    rows = {tuple(r) for r in cloud.array}
    assert all(tuple(r) in rows for r in sub.array)


# ---------------------------------------------------------------------------
# separated counts


def test_huge_eps_separates_nothing():
    cloud = sample_points(2.0, 6, per_branch_cap=4, n_seeds=32)
    # the whole space has diameter below 2, so one point dominates everything
    assert separated_count(cloud, 1, 1, 3.0) == 1


def test_identity_power_gives_constant_counts():
    cloud = sample_points(2.0, 8, per_branch_cap=4, n_seeds=64)
    for eps in (2.0**-3, 2.0**-4):
        counts = [separated_count(cloud, 0, n, eps) for n in range(1, 7)]
        assert len(set(counts)) == 1


def test_counts_do_not_drop_as_eps_shrinks():
    cloud = sample_points(2.0, 10, per_branch_cap=4, n_seeds=512)
    vals = [separated_count(cloud, 1, 6, e) for e in (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_counts_grow_with_time_horizon_then_saturate():
    cloud = sample_points(2.0, 10, per_branch_cap=4, n_seeds=512)
    counts = [separated_count(cloud, 1, n, 2.0**-5) for n in range(1, 9)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[0] < counts[4]  # genuine growth before saturation
    assert all(c <= len(cloud) for c in counts)


def test_greedy_count_matches_definition_rescan():
    cloud = sample_points(1.8, 6, per_branch_cap=4, n_seeds=32)
    sub = cloud.subcloud(25)
    for R, n, eps in ((1, 3, 0.1), (-1, 3, 0.1), (2, 2, 0.05), (1, 4, 0.02)):
        assert separated_count(sub, R, n, eps) == greedy_by_definition(sub, R, n, eps)


def test_inverse_power_needs_enough_history():
    cloud = sample_points(2.0, 5, per_branch_cap=4, n_seeds=16)
    with pytest.raises(DepthError):
        separated_count(cloud, -2, 4, 0.1)
    # the same horizon is fine one step shallower in time
    assert separated_count(cloud, -1, 4, 0.1) >= 1


def test_separated_count_rejects_bad_parameters():
    cloud = sample_points(2.0, 5, per_branch_cap=4, n_seeds=16)
    with pytest.raises(DomainError):
        separated_count(cloud, 1, 0, 0.1)
    with pytest.raises(DomainError):
        separated_count(cloud, 1, 3, 0.0)


@pytest.mark.parametrize(
    "array",
    [np.empty((0, 11)), np.where(np.eye(3, 11, dtype=bool), math.nan, 0.5)],
    ids=["no rows", "nan"],
)
def test_scans_refuse_an_empty_or_non_finite_cloud(array):
    cloud = PointCloud(2.0, 10, array)
    with pytest.raises(DomainError, match="cloud has"):
        separated_count(cloud, 1, 3, 0.1)
    with pytest.raises(DomainError, match="cloud has"):
        separation_curves(cloud, 1, (0.1,), n_max=4)
    with pytest.raises(DomainError, match="cloud has"):
        itinerary_upper_bound(cloud, 1, 1, 2.0**-3, 3)


BOWEN_SWEEP_COUNTS = {
    (0, 2.0**-3): (11, 11, 11, 11, 11, 11, 11, 11),
    (0, 2.0**-4): (22, 22, 22, 22, 22, 22, 22, 22),
    (1, 2.0**-3): (11, 21, 40, 76, 132, 244, 399, 730),
    (1, 2.0**-4): (22, 41, 80, 148, 273, 466, 893, 1712),
    (2, 2.0**-3): (11, 38, 123, 349, 1102, 1435, 1505, 1571),
    (2, 2.0**-4): (22, 78, 264, 846, 1760, 1906, 1920, 1934),
}


@pytest.mark.parametrize("R", [0, 1, 2])
def test_benchmark_scans_are_frozen(R):
    # the bowen_sweep curves, as the row-at-a-time scan counted them
    cloud = sample_points(2.0, 12, 1, 2048)
    curves = separation_curves(cloud, R, (2.0**-3, 2.0**-4), n_max=8)
    for curve in curves:
        assert tuple(c for _, c in curve.counts) == BOWEN_SWEEP_COUNTS[R, curve.eps]


def test_benchmark_inverse_scan_is_frozen():
    rich = sample_points(2.0, 12, 128, 24)
    (curve,) = separation_curves(rich, -1, (2.0**-3,), n_max=9)
    assert tuple(c for _, c in curve.counts) == (9, 9, 9, 16, 24, 40, 60, 98, 178)


@pytest.mark.parametrize("R", [-1, 0, 1, 2])
def test_scan_blocks_match_the_definition_at_their_edges(R):
    # subclouds that end just before, on and just after a block boundary
    B = bowen._BLOCK
    cloud = sample_points(1.9, 6, per_branch_cap=4, n_seeds=96)
    assert len(cloud) > 2 * B + 1
    for size in (B - 1, B, B + 1, 2 * B + 1):
        sub = cloud.subcloud(size)
        assert len(sub) == size
        for n, eps in ((3, 0.1), (2, 0.05), (4, 0.25)):
            assert separated_count(sub, R, n, eps) == greedy_by_definition(sub, R, n, eps)


@pytest.mark.parametrize("R,n", [(-1, 4), (0, 2), (1, 4), (2, 3)])
def test_pairs_exactly_eps_apart_count_as_close(R, n):
    # scales drawn from the pairs' own distances put ties exactly at eps
    cloud = sample_points(2.0, 8, per_branch_cap=8, n_seeds=24).subcloud(150)
    _, dist = scan_row_by_row(cloud, R, n, 1.0)
    for eps in np.quantile(dist, [0.02, 0.1, 0.3], method="lower"):
        assert (dist == eps).any()
        assert separated_count(cloud, R, n, eps) == scan_row_by_row(cloud, R, n, eps)[0]
        below = np.nextafter(eps, 0.0)
        assert separated_count(cloud, R, n, below) == scan_row_by_row(cloud, R, n, below)[0]


@pytest.mark.parametrize("R", [-2, -1, 0, 1, 2, 3])
def test_one_pass_table_equals_the_block_scan_at_every_horizon(R):
    # subclouds that end just before, on and just after a block boundary,
    # at scales drawn from the pairs' own distances, so ties sit exactly at eps
    B = bowen._BLOCK
    cloud = sample_points(1.9, 7, per_branch_cap=4, n_seeds=96)
    n = 4
    for size in (B - 1, B, B + 1, 2 * B + 1):
        sub = cloud.subcloud(size)
        assert len(sub) == size
        _, dist = scan_row_by_row(sub, R, n, 1.0)
        for eps in (*np.quantile(dist, [0.05, 0.3], method="lower"), 0.1):
            table = bowen._greedy_counts(sub, R, n, eps)
            want = [_block_scan(sub, R, k, eps) for k in range(1, n + 1)]
            assert table.tolist() == want, (size, eps)


def _count_passes(monkeypatch):
    calls = []
    engine = bowen._greedy_counts

    def counted(cloud, R, n, eps):
        calls.append((R, n, eps))
        return engine(cloud, R, n, eps)

    monkeypatch.setattr(bowen, "_greedy_counts", counted)
    return calls


def test_a_second_call_reads_the_table(monkeypatch):
    calls = _count_passes(monkeypatch)
    cloud = sample_points(2.0, 8, per_branch_cap=4, n_seeds=64)
    first = separated_count(cloud, 1, 5, 0.1)
    assert separated_count(cloud, 1, 5, 0.1) == first
    assert [separated_count(cloud, 1, n, 0.1) for n in range(1, 5)] == [
        _block_scan(cloud, 1, n, 0.1) for n in range(1, 5)
    ]
    assert calls == [(1, 5, 0.1)]


def test_a_longer_horizon_scans_again(monkeypatch):
    calls = _count_passes(monkeypatch)
    cloud = sample_points(2.0, 8, per_branch_cap=4, n_seeds=64)
    separated_count(cloud, 1, 3, 0.1)
    assert separated_count(cloud, 1, 6, 0.1) == _block_scan(cloud, 1, 6, 0.1)
    separated_count(cloud, 1, 4, 0.1)
    assert calls == [(1, 3, 0.1), (1, 6, 0.1)]


def test_each_power_and_scale_has_its_own_table(monkeypatch):
    calls = _count_passes(monkeypatch)
    cloud = sample_points(2.0, 8, per_branch_cap=4, n_seeds=64)
    for R, eps in ((1, 0.1), (2, 0.1), (1, 0.05), (-1, 0.1)):
        assert separated_count(cloud, R, 4, eps) == _block_scan(cloud, R, 4, eps)
    for R, eps in ((1, 0.1), (2, 0.1), (1, 0.05), (-1, 0.1)):
        separated_count(cloud, R, 4, eps)
    assert calls == [(1, 4, 0.1), (2, 4, 0.1), (1, 4, 0.05), (-1, 4, 0.1)]


def test_a_cloud_array_cannot_be_written():
    source = sample_points(2.0, 6, per_branch_cap=4, n_seeds=16).array.copy()
    cloud = PointCloud(2.0, 6, source)
    with pytest.raises(ValueError, match="read-only"):
        cloud.array[0, 0] = 0.5
    source[0, 0] = 0.5  # the caller's array is not the cloud's
    assert cloud.array[0, 0] != 0.5
    with pytest.raises(AttributeError):
        cloud.array = source


def test_scan_charges_the_pairs_it_compares(monkeypatch):
    # one block settled against itself compares 64 * 64 pairs, on top of a
    # kept table of 16,384 rows at one horizon
    cloud = sample_points(2.0, 12, 4, 4096)
    monkeypatch.setenv("ILIM_MAX_NODES", "20000")
    with pytest.raises(ResourceCapError):
        separated_count(cloud, -1, 1, 2**-12)


def test_curves_refuse_a_shallow_cloud_before_any_scan(monkeypatch):
    calls = _count_passes(monkeypatch)
    cloud = sample_points(2.0, 4, per_branch_cap=4, n_seeds=16)
    with pytest.raises(DepthError, match="shift power -2 over 4 steps needs depth >= 6"):
        separation_curves(cloud, -2, (0.5, 0.25), n_max=6)
    assert calls == []


def test_two_close_rows_in_one_block_keep_only_the_first():
    # nothing is kept before the first block, so only the settling of the
    # block against itself can drop the second of two close rows
    cloud = sample_points(2.0, 8, per_branch_cap=4, n_seeds=64)
    pair = PointCloud(2.0, 8, cloud.array[:2])
    gap = metric(*pair.points)
    assert 0 < gap < 0.1
    assert separated_count(pair, 1, 1, 0.1) == 1 == greedy_by_definition(pair, 1, 1, 0.1)
    assert separated_count(pair, 1, 1, gap / 2) == 2 == greedy_by_definition(pair, 1, 1, gap / 2)


def test_scan_memory_stays_bounded():
    # the scan works in blocks and slices of bounded size, not in one
    # matrix over all pairs
    cloud = sample_points(2.0, 12, 1, 2048)
    tracemalloc.start()
    try:
        separated_count(cloud, 2, 8, 2.0**-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_greedy_sits_within_factor_two_of_exact_maximum():
    cloud = sample_points(1.9, 8, per_branch_cap=4, n_seeds=128)
    for size, eps in ((80, 2.0**-2), (80, 2.0**-3), (200, 2.0**-4)):
        sub = cloud.subcloud(size)
        greedy = separated_count(sub, 1, 4, eps)
        exact = mis_size(conflict_masks(sub, 1, 4, eps))
        assert greedy <= exact
        assert 2 * greedy >= exact


# ---------------------------------------------------------------------------
# growth fits


def test_growth_rate_near_log_two_at_full_slope():
    cloud = sample_points(2.0, 10, per_branch_cap=4, n_seeds=512)
    (curve,) = separation_curves(cloud, 1, (2.0**-5,), n_max=5)
    assert curve.window == (1, 5)
    assert 0.55 <= curve.estimate <= 0.70


def test_saturated_tail_does_not_swallow_the_growth_window():
    # once the greedy count hits the sample's packing capacity the curve goes
    # flat; that plateau would otherwise be the longest "linear" window and
    # drag the rate to zero
    cloud = sample_points(2.0, 10, per_branch_cap=4, n_seeds=512)
    (curve,) = separation_curves(cloud, 1, (2.0**-5,), n_max=10)
    counts = [c for _, c in curve.counts]
    assert counts[-1] == counts[-2]  # the plateau is really there
    assert 0.55 <= curve.estimate <= 0.70
    assert curve.window[1] <= 6


def test_constant_counts_give_estimate_exactly_zero():
    cloud = sample_points(2.0, 8, per_branch_cap=4, n_seeds=64)
    (curve,) = separation_curves(cloud, 0, (2.0**-4,), n_max=6)
    assert curve.estimate == 0.0
    assert curve.window == (1, 6)
    assert curve.residual == 0.0


def test_kinked_counts_flag_a_warning():
    # saturation right inside the only 4-point window leaves no clean regime
    cloud = sample_points(2.0, 8, per_branch_cap=4, n_seeds=128)
    sub = cloud.subcloud(11)
    with pytest.warns(UserWarning, match="no linear regime"):
        separation_curves(sub, 1, (0.25,), n_max=4)


def test_curves_need_four_points():
    cloud = sample_points(2.0, 5, per_branch_cap=4, n_seeds=16)
    with pytest.raises(DomainError):
        separation_curves(cloud, 1, (0.1,), n_max=3)


def test_curves_need_at_least_one_scale():
    cloud = sample_points(2.0, 5, per_branch_cap=4, n_seeds=16)
    with pytest.raises(DomainError, match="eps list is empty"):
        separation_curves(cloud, 1, (), n_max=4)


def test_forward_and_inverse_growth_rates_agree():
    # the shift and its inverse generate the same orbit structure; a cloud
    # rich in both seeds and branches sees matching growth within ten percent
    cloud = sample_points(2.0, 12, per_branch_cap=128, n_seeds=192)
    (fwd,) = separation_curves(cloud, 1, (2.0**-3,), n_max=9)
    (bwd,) = separation_curves(cloud, -1, (2.0**-3,), n_max=9)
    assert 0.35 <= fwd.estimate <= 0.65
    assert 0.35 <= bwd.estimate <= 0.65
    rel = abs(fwd.estimate - bwd.estimate) / max(fwd.estimate, bwd.estimate)
    assert rel <= 0.10


def test_estimate_reduction_takes_largest_rate():
    curves = [
        SeparationCurve(0.25, ((1, 2), (2, 3)), 0.31, (2, 7), 0.004),
        SeparationCurve(0.125, ((1, 2), (2, 5)), 0.62, (1, 5), 0.001),
    ]
    est = estimate_from_curves(curves)
    assert est.value == 0.62
    assert est.method == "bowen"
    assert est.n_used == 5
    assert est.residual == 0.001


def test_estimate_reduction_clamps_negative_rates():
    curves = [SeparationCurve(0.25, ((1, 5), (2, 4)), -0.02, (1, 4), 0.002)]
    assert estimate_from_curves(curves).value == 0.0


def test_entropy_of_identity_power_is_zero():
    est = entropy_bowen(1.7, 0, depth=8, eps_list=(2.0**-3, 2.0**-4), n_max=5, n_seeds=128)
    assert est.value == 0.0
    assert est.method == "bowen"


def test_entropy_needs_at_least_one_scale():
    with pytest.raises(DomainError, match="eps list is empty"):
        entropy_bowen(1.8, 1, depth=6, eps_list=(), n_max=5, n_seeds=64)


def test_shallow_cloud_against_fine_eps_warns():
    with pytest.warns(UserWarning, match="truncation"):
        entropy_bowen(1.8, 1, depth=6, eps_list=(2.0**-5, 2.0**-4), n_max=5, n_seeds=64)


# ---------------------------------------------------------------------------
# coding partition and itinerary bound


@pytest.mark.parametrize("s,eps0", [(2.0, 2.0**-5), (1.7, 2.0**-4)])
def test_partition_blocks_land_on_the_target_scale(s, eps0):
    bounds, q = partition_blocks(s, eps0)
    tent = TentMap(s)
    assert bounds[0] == 0.0
    assert bounds[-1] == pytest.approx(tent.top)
    assert np.all(np.diff(bounds) > 0)
    chain = build_chain(s, q, eps0 / 4.0)
    diams = [limit_diameter(chain, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    for d in diams[:-1]:
        assert eps0 < d <= 2.0 * eps0
    assert diams[-1] <= 2.0 * eps0


# (level q, boundaries, first 16 hex digits of the sha256 of their bytes) of
# partition_blocks(s, eps0), taken while each block was grown one link at a time
FROZEN_PARTITIONS = {
    (1.5, 2.0**-3): (5, 42, "04cc88a8c6f42de0"),
    (1.5, 2.0**-4): (6, 123, "4c784197a4e852d9"),
    (1.5, 0.1): (5, 50, "8a5053266a7b44d7"),
    (1.5, 0.045): (7, 232, "7d5d81814598bde0"),
    (1.8, 2.0**-3): (5, 111, "f6d905eb5063b51f"),
    (1.8, 2.0**-4): (6, 398, "ab622d5f838e1f37"),
    (1.8, 0.1): (6, 231, "f3b779e8406dba83"),
    (1.8, 0.045): (7, 925, "c638e61b9c51ecb0"),
    (2.0, 2.0**-3): (5, 197, "992fae982c258557"),
    (2.0, 2.0**-4): (6, 782, "77d64ee35785202a"),
    (2.0, 0.1): (6, 483, "e2bdad6b0cc5255e"),
    (2.0, 0.045): (7, 2186, "9fbed746ea2e9b4d"),
    (GOLDEN, 2.0**-3): (5, 61, "01202f50518e84dc"),
    (GOLDEN, 2.0**-4): (6, 193, "28e9777a357319f2"),
    (GOLDEN, 0.1): (6, 116, "698f6ba971ee2150"),
    (GOLDEN, 0.045): (7, 415, "249cecf20aa7bce7"),
    (PERIOD_4, 2.0**-3): (5, 124, "060d5748ce0261b9"),
    (PERIOD_4, 2.0**-4): (6, 453, "09c2fe9fcfeab958"),
    (PERIOD_4, 0.1): (6, 277, "e63bc16423474b35"),
    (PERIOD_4, 0.045): (7, 1139, "b721204ab7566f9c"),
}


@pytest.mark.parametrize("s,eps0", list(FROZEN_PARTITIONS))
def test_partition_is_frozen(s, eps0):
    bounds, q = partition_blocks(s, eps0)
    digest = hashlib.sha256(bounds.tobytes()).hexdigest()[:16]
    assert (q, bounds.size, digest) == FROZEN_PARTITIONS[s, eps0]


def test_partition_level_resolves_the_scale():
    _, q = partition_blocks(2.0, 2.0**-5)
    assert q == 7  # 2^-q must come in under eps0 / (4 top)


def test_partition_rejects_nonpositive_scale():
    with pytest.raises(PartitionError):
        partition_blocks(2.0, 0.0)


@pytest.mark.parametrize("eps0", [math.nan, math.inf, -math.inf])
def test_partition_rejects_a_non_finite_scale(eps0):
    with pytest.raises(PartitionError, match="finite"):
        partition_blocks(2.0, eps0)


def test_itinerary_bound_rejects_a_non_finite_scale():
    cloud = sample_points(2.0, 10, per_branch_cap=4, n_seeds=16)
    with pytest.raises(PartitionError, match="finite"):
        itinerary_upper_bound(cloud, 1, 1, math.nan, 3)


def test_itinerary_count_dominates_separated_count():
    cloud = sample_points(2.0, 14, per_branch_cap=4, n_seeds=256)
    eps0 = 2.0**-5
    for R, m in ((1, 1), (1, 2)):
        for n in (2, 4, 6, 8):
            ub = itinerary_upper_bound(cloud, R, m, eps0, n)
            assert ub >= separated_count(cloud, R * m, n, 2.0 * eps0)


def test_single_symbol_itineraries_fit_in_the_partition():
    cloud = sample_points(2.0, 10, per_branch_cap=4, n_seeds=64)
    eps0 = 2.0**-4
    bounds, _ = partition_blocks(2.0, eps0)
    count = itinerary_upper_bound(cloud, 1, 1, eps0, 1)
    assert 1 <= count <= len(bounds) - 1


def test_itinerary_bound_needs_coding_depth():
    cloud = sample_points(2.0, 5, per_branch_cap=4, n_seeds=16)
    with pytest.raises(DepthError):
        itinerary_upper_bound(cloud, 1, 1, 2.0**-5, 3)  # wants depth 7


def test_itinerary_bound_rejects_bad_parameters():
    cloud = sample_points(2.0, 10, per_branch_cap=4, n_seeds=16)
    with pytest.raises(DomainError):
        itinerary_upper_bound(cloud, 1, 0, 2.0**-3, 3)
    with pytest.raises(DomainError):
        itinerary_upper_bound(cloud, 1, 1, 2.0**-3, 0)
