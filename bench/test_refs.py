"""The benchmark's checks accept ilim's answers and reject corrupted ones.

    python3 -m pytest bench/test_refs.py -q

Each check is run once on real outputs, where it must pass, and once on a
deliberately corrupted copy, where it must raise CheckFailed.
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from ilim import bowen, inverse_limit  # noqa: E402

import refs  # noqa: E402
import workloads  # noqa: E402
from refs import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def clouds():
    return {
        "cloud": bowen.sample_points(2.0, 12, 1, 96),
        "rich": bowen.sample_points(2.0, 12, 128, 2),
    }


def test_rescan_agrees_with_the_greedy_scan(clouds):
    cloud = clouds["cloud"]
    for R, n, eps in ((0, 3, 2.0**-3), (1, 4, 2.0**-3), (2, 3, 2.0**-4)):
        want = bowen.separated_count(cloud, R, n, eps)
        assert refs.greedy_rescan(cloud.array, 2.0, 12, R, n, eps) == want


def test_rescan_rejects_a_wrong_separated_count(clouds, monkeypatch):
    wl = workloads.bowen_sweep(0)
    wl.reference(clouds)
    real = bowen.separated_count
    monkeypatch.setattr(bowen, "separated_count", lambda *a: real(*a) + 1)
    with pytest.raises(CheckFailed):
        wl.reference(clouds)


def test_bowen_properties_reject_a_drop_in_counts(clouds):
    wl = workloads.bowen_sweep(0)
    curves = bowen.separation_curves(clouds["cloud"], 1, (2.0**-3, 2.0**-4), 6)
    c = curves[0]
    dropped = dataclasses.replace(c, counts=(c.counts[0], (2, c.counts[0][1] - 1), *c.counts[2:]))
    out = {
        "cloud": clouds["cloud"],
        "curves_R0": bowen.separation_curves(clouds["cloud"], 0, (2.0**-3,), 4),
        "curves_R1": [dropped, curves[1]],
        "curves_R2": curves,
        "curves_Rinv": curves,
        "itinerary_bound": 10**9,
    }
    with pytest.raises(CheckFailed, match="drop"):
        wl.check(out)


@pytest.fixture(scope="module")
def full_slope_arc():
    return inverse_limit.arc_records(2.0, 16)


def test_dyadic_enumeration_matches_the_fold_points(full_slope_arc):
    workloads.fold_tree(0).reference({"arc_tent2": full_slope_arc})


@pytest.mark.parametrize("corrupt", ["position", "level", "missing"])
def test_dyadic_enumeration_rejects_wrong_fold_points(full_slope_arc, corrupt):
    recs = list(full_slope_arc)
    r = recs[100]
    if corrupt == "position":
        recs[100] = dataclasses.replace(r, position=r.position * (1 + 2**-40))
    elif corrupt == "level":
        recs[100] = dataclasses.replace(r, level=r.level + 1)
    else:
        del recs[100]
    with pytest.raises(CheckFailed):
        workloads.fold_tree(0).reference({"arc_tent2": recs})


def test_quadratic_lap_fault_is_recognised():
    class Table:
        def __init__(self, counts):
            self.counts = tuple(counts)

        def __len__(self):
            return len(self.counts)

    exact = [2**n for n in range(1, 25)]
    assert workloads._laps_are_powers_of_two(Table(exact))
    seen = exact[:21] + [2**22 - 2, 2**23 - 12, 2**24 - 54]
    assert not workloads._laps_are_powers_of_two(Table(seen))


@pytest.fixture(scope="module")
def cli_pass():
    wl = workloads.cli_mix(7)
    out = {op.name: op.call({}) for op in wl.ops}
    return wl, out


def test_cli_checks_accept_real_outputs(cli_pass):
    wl, out = cli_pass
    errs = wl.check(out)
    assert errs and all(e >= 0 for e in errs)


def _edit(out, command, edit):
    """Copy of `out` with the first report of `command` passed through `edit`."""
    out = dict(out)
    for name, (code, text) in out.items():
        if name.endswith(":" + command):
            rep = json.loads(text)
            edit(rep["outputs"])
            out[name] = (code, json.dumps(rep))
            return out
    raise KeyError(command)


def _drop_last_value(o):
    o["spectrum"].pop()


def _scale_witness(o):
    j, i, n = o["witness"]
    o["witness"] = [j, i, n + 1]


def _bump_block(o):
    o["value"] += 1e-9


@pytest.mark.parametrize(
    "command, edit",
    [("spectrum", _drop_last_value), ("spectrum-member", _scale_witness), ("block-entropy", _bump_block)],
)
def test_tower_rebuilds_reject_corrupted_answers(cli_pass, command, edit):
    wl, out = cli_pass
    with pytest.raises(CheckFailed):
        wl.check(_edit(out, command, edit))


def test_cli_rerun_must_repeat(cli_pass):
    wl, out = cli_pass
    assert wl.rerun_key(out) == wl.rerun_key(dict(out))
    assert wl.rerun_key(_edit(out, "block-entropy", _bump_block)) != wl.rerun_key(out)


def test_spectrum_rebuild_by_hand():
    # tower (1, 2) with entropies (0.5, 0.8): units 0.5 (j=i=0), 0.4 and 0.8 for i=1,
    # where N >= 2 * 0.5 / 0.8 = 1.25 at j=0, so 0.4 itself is excluded
    assert refs.same_values(refs.spectrum_values([1, 2], [0.5, 0.8], 1.3), [0.0, 0.5, 0.8, 1.0, 1.2])
    assert refs.witness_holds([1, 2], [0.5, 0.8], 1.2, (0, 1, 3))
    assert not refs.witness_holds([1, 2], [0.5, 0.8], 0.4, (0, 1, 1))
    assert refs.block_entropy([1, 2], [0.5, 0.8], 0, 2, [1, 3]) == pytest.approx(2.4)
