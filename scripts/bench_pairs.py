"""Paired benchmark runs of a change against its parent commit.

    python3 scripts/bench_pairs.py --pr 25 --base PARENT [--head HEAD] [--first-seed 101]

Run from a git checkout of the project.  Both commits are extracted with
``git archive`` into one temporary directory, so each side runs from its own
clean copy and uncommitted edits are never measured.  The command, the run
length, the workloads and the direction of each end-to-end metric are read
from the parent's ``BENCHMARK.json``; the change must declare the same
command, run length and workloads.  For every workload, pair i of ``PAIRS``
runs the benchmark command with ``--workload W --seed S --seconds T --trace
0`` once on each side, seed S = first seed + i, the base side first in even
pairs and the head side first in odd ones, one run at a time.

Writes ``BENCH_<pr>.json`` at the repository root: every run's result and
per-operation medians, and per workload each side's run and failure counts
and, per metric, each side's median and quartiles, the ratio of the medians
and the pairs the head won, tied and lost.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
#: pairs run per workload
PAIRS = 10


def spread(values: list[float]) -> dict:
    """Median and quartiles of one side's values (inclusive quartiles)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def usable(run: dict) -> bool:
    """A run that finished and checked its outputs correct; only these are scored."""
    return bool(run.get("metrics")) and run.get("correct") is True


def _failed_share(run: dict) -> float:
    return run["failed"] / run["attempted"] if run["attempted"] else 0.0


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Each side's run and failure counts, and per metric each side's spread,
    the head's median over the base's, and the pairs the head won, tied, lost
    or could not be scored in.

    ``runs`` holds dicts with ``pair``, ``side`` ("base" or "head"),
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value);
    a run that failed has no metrics.  Only usable runs enter a side's
    spread.  A pair whose base run is not usable is unscored.  Otherwise the
    head loses it outright when its own run is not usable or failed a larger
    share of its operations than the base run, and else the metric decides.
    ``better`` maps each metric to "higher" or "lower".
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    sides = {}
    for side in SIDES:
        mine = [run for run in runs if run["side"] == side]
        sides[side] = {
            "runs": len(mine),
            "usable": sum(map(usable, mine)),
            "attempted": sum(run.get("attempted", 0) for run in mine),
            "failed": sum(run.get("failed", 0) for run in mine),
        }
    metrics = {}
    for name, direction in better.items():
        values = {side: [run["metrics"][name] for run in runs
                         if run["side"] == side and usable(run) and name in run["metrics"]]
                  for side in SIDES}
        if not all(values.values()):
            continue
        sign = 1 if direction == "higher" else -1
        counts = dict.fromkeys(("wins", "ties", "losses", "unscored"), 0)
        for pair in by_pair.values():
            base, head = pair.get("base", {}), pair.get("head", {})
            if not usable(base) or name not in base["metrics"]:
                counts["unscored"] += 1
            elif (not usable(head) or name not in head["metrics"]
                  or _failed_share(head) > _failed_share(base)):
                counts["losses"] += 1
            else:
                gain = sign * (head["metrics"][name] - base["metrics"][name])
                counts["wins" if gain > 0 else "ties" if gain == 0 else "losses"] += 1
        lo, hi = spread(values["base"]), spread(values["head"])
        metrics[name] = {
            "better": direction,
            "base": lo,
            "head": hi,
            "head_over_base": hi["median"] / lo["median"] if lo["median"] else None,
            **counts,
        }
    return {"sides": sides, "metrics": metrics}


def extract(rev: str, into: str) -> str:
    """The tree of ``rev`` unpacked under ``into``; returns its full sha."""
    sha = subprocess.run(["git", "rev-parse", rev], capture_output=True, text=True,
                         check=True, cwd=ROOT).stdout.strip()
    os.makedirs(into)
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE, cwd=ROOT)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return sha


def run_once(tree: str, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its result line and per-operation medians."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    with open(os.path.join(tree, "bench", "results", f"{workload}-seed{seed}-trace0.json")) as fh:
        detail = json.load(fh)
    return {
        "exit": 0,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "op_median_s": detail["op_median_s"],
    }


def _benchmark(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--base", required=True, help="the parent commit")
    ap.add_argument("--head", default="HEAD", help="the change's commit")
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        shas = {side: extract(getattr(args, side), trees[side]) for side in SIDES}
        bench = _benchmark(trees["base"])
        fixed = ("command", "run_seconds", "workloads")
        if any(_benchmark(trees["head"])[key] != bench[key] for key in fixed):
            raise SystemExit("the two commits declare different benchmarks")
        seconds = bench["run_seconds"]
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        report = {
            "pr": args.pr,
            "command": " ".join(bench["command"])
            + f" --workload W --seed S --seconds {seconds:g} --trace 0",
            "pairs": PAIRS,
            "first_seed": args.first_seed,
            "order": "base first in even pairs, head first in odd pairs",
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            **shas,
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for i in range(PAIRS):
                seed = args.first_seed + i
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    run = {"pair": i, "seed": seed, "side": side,
                           **run_once(trees[side], bench["command"], workload, seed, seconds)}
                    runs.append(run)
                    shown = {k: round(v, 6) for k, v in run.get("metrics", {}).items()}
                    print(f"{workload} pair {i} {side}: {shown or run}", flush=True)
            report["workloads"][workload] = {"runs": runs, "summary": summarize(runs, better)}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
