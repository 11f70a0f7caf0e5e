"""Benchmark of ilim: one closed-loop workload per run, end-to-end or traced.

    python3 bench/run.py --workload {bowen_sweep,fold_tree,cli_mix} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory.  One process and one caller: each operation waits for the
previous one.  The run repeats its workload's fixed operation list (a pass)
until the next pass would end past --seconds, checks every pass's outputs,
and prints the metrics, with the JSON result as the last line of stdout.
The result, and with --trace 1 the spans, are also written under
bench/results/.  Exit code 0 on a completed run, 2 when the package cannot
be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: fresh interpreters timed from launch to inputs ready, half of them before
#: the passes and half after, so that setup_s, their median, spans the run
SETUP_PROBES = 10
#: fewest untraced passes a run makes, whatever --seconds says
MIN_PASSES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("bowen_sweep", "fold_tree", "cli_mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_workloads():
    """Import ilim from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401

    import ilim

    if os.path.dirname(os.path.abspath(ilim.__file__)) != os.path.join(SRC, "ilim"):
        raise ImportError(f"ilim imported from {ilim.__file__}, not from {SRC}")
    import workloads

    return workloads


def measure_setup(args, count: int) -> list[float]:
    """Wall times from launching a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return times


class Runner:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fault_notes: set[str] = set()
        self.entropy_errs: list[float] = []
        self.pass_times = {"untraced": [], "traced": []}
        self.slowest = {"untraced": [], "traced": []}
        self.op_times: dict[str, list[float]] = {op.name: [] for op in workload.ops}
        self.first_rerun = None
        self.passes = 0

    def run_pass(self, traced: bool) -> None:
        out = {}
        times = []
        failed = set()
        kind = "traced" if traced else "untraced"
        if traced:
            self.tracer.phase = "workload"
            self.tracer.install()
        try:
            for op in self.wl.ops:
                t0 = time.perf_counter()
                try:
                    out[op.name] = op.call(out)
                except Exception as exc:  # a raising operation counts as failed
                    failed.add(op.name)
                    self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                    traceback.print_exc(file=sys.stderr)
                dt = time.perf_counter() - t0
                times.append(dt)
                if not traced:
                    self.op_times[op.name].append(dt)
        finally:
            if traced:
                self.tracer.uninstall()
        self.pass_times[kind].append(sum(times))
        self.slowest[kind].append(max(times))
        self.passes += 1
        self.attempted += len(self.wl.ops)
        for op in self.wl.ops:
            if op.known_fault is not None and op.name in out and not op.known_fault(out[op.name]):
                failed.add(op.name)
                self.fault_notes.add(op.name)
        self.failed += len(failed)
        self.verify(out, first=self.passes == 1)

    def verify(self, out, first: bool) -> None:
        """Check one pass; any exception here is a wrong output, not a crash."""
        try:
            errs = self.wl.check(out)
            if first:
                self.entropy_errs = errs
                self.wl.reference(out)
            if self.wl.rerun_key is not None:
                key = self.wl.rerun_key(out)
                if first:
                    self.first_rerun = key
                elif key != self.first_rerun:
                    self.errors.append(f"pass {self.passes}: outputs differ from the first pass")
        except Exception as exc:
            self.errors.append(f"pass {self.passes}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)


def run(args, wl_mod) -> int:
    warnings.simplefilter("ignore", UserWarning)  # ilim's fit warnings go to stderr otherwise
    workload = wl_mod.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    setup_times = measure_setup(args, SETUP_PROBES // 2)

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    runner = Runner(workload, tracer)
    t_loop = time.perf_counter()
    while True:
        traced = bool(args.trace) and runner.passes % 2 == 1
        runner.run_pass(traced)
        elapsed = time.perf_counter() - t_loop
        done_untraced = len(runner.pass_times["untraced"])
        done_traced = len(runner.pass_times["traced"])
        enough = done_untraced >= MIN_PASSES and (not args.trace or done_traced >= MIN_PASSES - 1)
        per_pass = statistics.median(runner.pass_times["untraced"] + runner.pass_times["traced"])
        if enough and elapsed + per_pass > args.seconds:
            break
    measured = time.perf_counter() - t_loop
    setup_times += measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)

    untraced = runner.pass_times["untraced"]
    n_ops = len(workload.ops)
    unit_metrics = {
        "ops_per_s": (n_ops / statistics.median(untraced), "1/s"),
        "slowest_op_s": (statistics.median(runner.slowest["untraced"]), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # 0 only when the first pass failed its checks, and then correct is false
        "entropy_err": (statistics.fmean(runner.entropy_errs or [0.0]), "nats"),
    }
    if args.trace:
        tracer.phase = "probe"
        tracer.install()
        try:
            probe_out: dict = {}
            for op in wl_mod.probe_ops():
                probe_out[op.name] = op.call(probe_out)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, len(runner.pass_times["traced"]))
        metrics["trace.overhead_ratio"] = (
            statistics.median(runner.pass_times["traced"]) / statistics.median(untraced), "ratio")
    else:
        metrics = unit_metrics

    correct = not runner.errors
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured,
        "passes": runner.pass_times,
        "slowest_op_s": runner.slowest,
        "op_median_s": {k: statistics.median(v) for k, v in runner.op_times.items() if v},
        "setup_probes_s": setup_times,
        "known_faults": sorted(runner.fault_notes),
        "errors": runner.errors[:50],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in unit_metrics.items()},
        "result": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        with open(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump(tracer.to_json(), fh)

    for err in runner.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {runner.passes} passes in {measured:.1f} s, "
          f"{runner.attempted} operations attempted, {runner.failed} failed "
          f"({', '.join(sorted(runner.fault_notes)) or 'none'}), correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        wl_mod = import_workloads()
    except ImportError as exc:
        print(f"cannot import ilim from {SRC}: {exc}", file=sys.stderr)
        return 2
    return run(args, wl_mod)


if __name__ == "__main__":
    sys.exit(main())
