"""The summary of `scripts/bench_pairs.py`, on a fixture of three pairs; no
benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(base, head):
    """Correct runs of pairs 0, 1, 2 from per-pair (ops_per_s, slowest_op_s)
    values, each with 20 operations attempted and 2 failed."""
    runs = []
    for i, (b, h) in enumerate(zip(base, head)):
        for side, (ops, slowest) in (("base", b), ("head", h)):
            runs.append({"pair": i, "side": side, "correct": True, "attempted": 20, "failed": 2,
                         "metrics": {"ops_per_s": ops, "slowest_op_s": slowest}})
    return runs


BETTER = {"ops_per_s": "higher", "slowest_op_s": "lower"}
BASE = [(100, 0.03), (110, 0.02), (90, 0.025)]
HEAD = [(120, 0.02), (110, 0.03), (95, 0.01)]


def _counts(stats):
    return stats["wins"], stats["ties"], stats["losses"], stats["unscored"]


def test_summary_counts_wins_in_the_metric_direction(bench_pairs):
    got = bench_pairs.summarize(_runs(BASE, HEAD), BETTER)
    ops, slowest = got["metrics"]["ops_per_s"], got["metrics"]["slowest_op_s"]
    assert _counts(ops) == (2, 1, 0, 0)
    assert _counts(slowest) == (2, 0, 1, 0)
    assert ops["base"] == {"median": 100, "q1": 95, "q3": 105}
    assert ops["head"] == {"median": 110, "q1": 102.5, "q3": 115}
    assert ops["head_over_base"] == pytest.approx(1.1)
    assert slowest["head"]["median"] == 0.02 and slowest["better"] == "lower"
    side = {"runs": 3, "usable": 3, "attempted": 60, "failed": 6}
    assert got["sides"] == {"base": side, "head": side}


def test_summary_leaves_a_failed_base_run_and_its_pair_unscored(bench_pairs):
    runs = _runs(BASE, HEAD)
    runs[2]["metrics"] = None  # pair 1's base run failed
    ops = bench_pairs.summarize(runs, BETTER)["metrics"]["ops_per_s"]
    assert _counts(ops) == (2, 0, 0, 1)
    assert ops["base"] == {"median": 95, "q1": 92.5, "q3": 97.5}
    assert ops["head"]["median"] == 110


def test_summary_leaves_out_incorrect_runs_and_scores_them_against_the_head(bench_pairs):
    runs = _runs(BASE, HEAD)
    runs[1]["correct"] = False  # pair 0's head run, the fastest, checked wrong
    runs[4]["correct"] = False  # pair 2's base run checked wrong
    got = bench_pairs.summarize(runs, BETTER)
    ops = got["metrics"]["ops_per_s"]
    assert _counts(ops) == (0, 1, 1, 1)
    assert ops["base"]["median"] == 105 and ops["head"]["median"] == 102.5
    assert got["sides"]["base"]["usable"] == got["sides"]["head"]["usable"] == 2


def test_summary_scores_a_head_run_that_failed_more_operations_as_a_loss(bench_pairs):
    runs = _runs(BASE, HEAD)
    runs[5]["failed"] = 3  # pair 2's head run, faster, failed one operation more
    got = bench_pairs.summarize(runs, BETTER)
    assert _counts(got["metrics"]["ops_per_s"]) == (1, 1, 1, 0)
    assert _counts(got["metrics"]["slowest_op_s"]) == (1, 0, 2, 0)
    assert got["metrics"]["ops_per_s"]["head"]["median"] == 110  # still a usable run
    assert got["sides"]["head"]["failed"] == 7


def test_summary_of_one_pair_and_an_unmeasured_metric(bench_pairs):
    got = bench_pairs.summarize(_runs([(100, 0.03)], [(80, 0.02)]),
                                {**BETTER, "peak_rss_mb": "lower"})["metrics"]
    assert "peak_rss_mb" not in got
    assert got["ops_per_s"]["base"] == {"median": 100, "q1": 100, "q3": 100}
    assert (got["ops_per_s"]["losses"], got["slowest_op_s"]["wins"]) == (1, 1)
