"""Command-line front end.

Every command prints one report to stdout: json (default) is a versioned
envelope with inputs, outputs, tolerances and wall-clock time; csv flattens
the tabular part of the output; plain prints key/value lines.  Exit codes:
0 success, 1 unknown command, 2 malformed parameters or failed
preconditions, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import bowen, chains, inverse_limit, lap_entropy, renorm
from .errors import ResourceCapError
from .maps import TOL, QuadraticMap, TentMap

SCHEMA = "ilim/1"


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # malformed parameters exit 2, not argparse's default
        raise _ArgError(message)


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _ArgError(f"expected comma-separated numbers, got {text!r}") from exc


def _ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _ArgError(f"expected comma-separated integers, got {text!r}") from exc


def _sanitize(obj):
    """Make values JSON-portable: non-finite floats become strings."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _tower(args) -> renorm.RenormTower:
    periods = _ints(args.periods)
    entropies = _floats(args.entropies)
    return renorm.RenormTower(tuple(periods), tuple(entropies))


# ---------------------------------------------------------------------------
# command implementations: each returns (outputs, tolerances, rows)
# rows is an optional (header, list-of-tuples) pair used by the csv format.


def _cmd_entropy_lap(args):
    if (args.a is None) == (args.slope is None):
        raise _ArgError("give exactly one of --slope (tent) or --a (quadratic)")
    map_ = QuadraticMap(args.a) if args.a is not None else TentMap(args.slope)
    est = lap_entropy.entropy_lap(map_, args.n_max, args.method)
    out = {
        "value": est.value,
        "method": est.method,
        "n_used": est.n_used,
        "residual": est.residual,
    }
    return out, {"critical_period": TOL}, None


def _separation(args):
    """Shared body of entropy-bowen and separated: the sampled cloud, its
    separation curves, their json and their csv rows."""
    cloud = bowen.sample_points(args.slope, args.depth, args.branch_cap, args.seeds)
    curves = bowen.separation_curves(cloud, args.R, tuple(_floats(args.eps)), args.n_max)
    as_json = [
        {"eps": c.eps, "estimate": c.estimate, "counts": [list(t) for t in c.counts]}
        for c in curves
    ]
    rows = [(c.eps, n, count, math.log(count)) for c in curves for n, count in c.counts]
    return cloud, curves, as_json, (("eps", "n", "count", "log_count"), rows)


def _cmd_entropy_bowen(args):
    _, curves, as_json, rows = _separation(args)
    est = bowen.estimate_from_curves(curves)
    out = {"value": est.value, "n_used": est.n_used, "residual": est.residual, "curves": as_json}
    return out, {"fit_residual_per_point": 0.02}, rows


def _cmd_slope_of_quadratic(args):
    s, est = lap_entropy.tent_slope_of_quadratic(
        args.a, tol=args.tol, n_max=args.n_max, with_estimate=True
    )
    out = {"slope": s, "entropy": est.value, "residual": est.residual}
    return out, {"zero_entropy_cutoff": args.tol}, None


def _cmd_folding_pattern(args):
    fp = inverse_limit.folding_pattern_prefix(args.slope, args.count)
    return {"pattern": fp.as_strings()}, {}, (("entry",), [(e,) for e in fp.as_strings()])


def _cmd_salient(args):
    pos = inverse_limit.salient_positions(args.slope, args.n)
    levels = list(range(1, args.n + 1))
    rows = list(zip(pos, levels))
    return {"positions": pos, "levels": levels}, {}, (("position", "level"), rows)


def _cmd_chain_build(args):
    chain = chains.build_chain(args.slope, args.p, args.eps)
    out = chain.to_json()
    out["limit_mesh"] = chains.limit_mesh(chain)
    return out, {"edge": 1e-12}, (("breakpoint",), [(b,) for b in chain.breakpoints.tolist()])


def _cmd_chain_verify(args):
    coarse = chains.build_chain(args.slope, args.p, args.eps)
    fine = chains.build_chain(args.slope, args.p + 1, args.eps / 2.0)
    out = {
        "adjacency": chains.adjacency_ok(coarse),
        "mandatory": chains.mandatory_ok(coarse),
        "refines": chains.refines(fine, coarse),
        "mesh": coarse.mesh,
        "limit_mesh": chains.limit_mesh(coarse),
        "links": coarse.n_links,
    }
    return out, {"closure": 1e-12, "mandatory": 1e-9}, None


def _cmd_plevel_align(args):
    report = chains.verify_plevel_alignment(args.slope, args.q, args.p, args.R, args.n)
    return report.to_json(), {"match": 1e-9}, None


def _cmd_separated(args):
    cloud, _, as_json, rows = _separation(args)
    return {"cloud_size": len(cloud), "curves": as_json}, {}, rows


def _cmd_renorm_detect(args):
    tower = renorm.detect_renormalization(args.a, args.max_period, args.tol)
    out = {
        "periods": list(tower.periods),
        "entropies": list(tower.entropies),
        "notes": list(tower.notes),
    }
    rows = list(zip(tower.periods, tower.entropies))
    return out, {"bisection": args.tol}, (("period", "entropy"), rows)


def _cmd_spectrum(args):
    tower = _tower(args)
    values = renorm.entropy_spectrum(tower, args.h_max)
    out = {
        "periods": list(tower.periods),
        "entropies": list(tower.entropies),
        "h_max": args.h_max,
        "spectrum": values,
    }
    return out, {"dedup": 1e-12}, (("value",), [(v,) for v in values])


def _cmd_spectrum_member(args):
    tower = _tower(args)
    res = renorm.spectrum_membership(tower, args.value, args.tol)
    out = {
        "value": args.value,
        "member": res.member,
        "witness": list(res.witness) if res.witness else None,
    }
    return out, {"match": args.tol}, None


def _cmd_block_entropy(args):
    tower = _tower(args)
    model = renorm.BlockModel(R=args.R, powers=tuple(_ints(args.powers)), level=args.level)
    value = renorm.block_model_entropy(tower, model)
    out = {
        "value": value,
        "orbits": [list(o) for o in model.orbit_partition()],
    }
    return out, {}, None


@functools.cache
def _build_parsers() -> dict:
    """The parser of every command, built on the first call and then reused."""
    table = {}

    def cmd(name, fn, configure):
        parser = _Parser(prog=f"ilim {name}", add_help=True)
        configure(parser)
        parser.add_argument("--format", choices=("json", "csv", "plain"), default="json")
        table[name] = (parser, fn)

    def slope_arg(p, required=True):
        p.add_argument("--slope", type=float, required=required)

    cmd("entropy-lap", _cmd_entropy_lap, lambda p: (
        p.add_argument("--slope", type=float),
        p.add_argument("--a", type=float),
        p.add_argument("--n-max", type=int, default=24),
        p.add_argument("--method", choices=lap_entropy._METHODS, default="ratio"),
    ))
    cmd("entropy-bowen", _cmd_entropy_bowen, lambda p: (
        slope_arg(p),
        p.add_argument("--R", type=int, required=True),
        p.add_argument("--depth", type=int, default=12),
        p.add_argument("--n-max", type=int, default=10),
        p.add_argument("--eps", default="0.0625,0.03125,0.015625,0.0078125"),
        p.add_argument("--seeds", type=int, default=4096),
        p.add_argument("--branch-cap", type=int, default=4),
    ))
    cmd("slope-of-quadratic", _cmd_slope_of_quadratic, lambda p: (
        p.add_argument("--a", type=float, required=True),
        p.add_argument("--tol", type=float, default=0.05),
        p.add_argument("--n-max", type=int, default=24),
    ))
    cmd("folding-pattern", _cmd_folding_pattern, lambda p: (
        slope_arg(p),
        p.add_argument("--count", type=int, required=True),
    ))
    cmd("salient", _cmd_salient, lambda p: (
        slope_arg(p),
        p.add_argument("--n", type=int, required=True),
    ))
    cmd("chain-build", _cmd_chain_build, lambda p: (
        slope_arg(p),
        p.add_argument("--p", type=int, required=True),
        p.add_argument("--eps", type=float, required=True),
    ))
    cmd("chain-verify", _cmd_chain_verify, lambda p: (
        slope_arg(p),
        p.add_argument("--p", type=int, required=True),
        p.add_argument("--eps", type=float, required=True),
    ))
    cmd("plevel-align", _cmd_plevel_align, lambda p: (
        slope_arg(p),
        p.add_argument("--q", type=int, required=True),
        p.add_argument("--p", type=int, required=True),
        p.add_argument("--R", type=int, required=True),
        p.add_argument("--n", type=int, required=True),
    ))
    cmd("separated", _cmd_separated, lambda p: (
        slope_arg(p),
        p.add_argument("--R", type=int, required=True),
        p.add_argument("--n-max", type=int, default=10),
        p.add_argument("--eps", default="0.015625"),
        p.add_argument("--depth", type=int, default=12),
        p.add_argument("--seeds", type=int, default=1024),
        p.add_argument("--branch-cap", type=int, default=4),
    ))
    cmd("renorm-detect", _cmd_renorm_detect, lambda p: (
        p.add_argument("--a", type=float, required=True),
        p.add_argument("--max-period", type=int, default=16),
        p.add_argument("--tol", type=float, default=1e-9),
    ))
    cmd("spectrum", _cmd_spectrum, lambda p: (
        p.add_argument("--periods", required=True),
        p.add_argument("--entropies", required=True),
        p.add_argument("--h-max", type=float, required=True),
    ))
    cmd("spectrum-member", _cmd_spectrum_member, lambda p: (
        p.add_argument("--periods", required=True),
        p.add_argument("--entropies", required=True),
        p.add_argument("--value", type=float, required=True),
        p.add_argument("--tol", type=float, default=1e-9),
    ))
    cmd("block-entropy", _cmd_block_entropy, lambda p: (
        p.add_argument("--periods", required=True),
        p.add_argument("--entropies", required=True),
        p.add_argument("--R", type=int, required=True),
        p.add_argument("--powers", required=True),
        p.add_argument("--level", type=int, default=0),
    ))
    return table


def _emit(report: dict, fmt: str, rows) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
        return
    if fmt == "csv":
        if rows is not None:
            header, data = rows
            print(",".join(header))
            for row in data:
                print(",".join(str(v) for v in row))
        else:
            keys = sorted(report["outputs"])
            print(",".join(keys))
            print(",".join(str(report["outputs"][k]) for k in keys))
        return
    for key, value in report["outputs"].items():
        if isinstance(value, list):
            print(f"{key}: " + " ".join(str(v) for v in value))
        else:
            print(f"{key}: {value}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    table = _build_parsers()
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: ilim <command> [options]\ncommands: " + " ".join(sorted(table)))
        return 0
    name, rest = argv[0], argv[1:]
    if name not in table:
        print(f"unknown command: {name}", file=sys.stderr)
        return 1
    parser, fn = table[name]
    start = time.perf_counter()
    try:
        args = parser.parse_args(rest)
        outputs, tolerances, rows = fn(args)
    except _ArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:  # domain/depth/tower/partition errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = {k: v for k, v in vars(args).items() if k != "format"}
    report = _sanitize({
        "schema": SCHEMA,
        "command": name,
        "inputs": inputs,
        "outputs": outputs,
        "tolerances": tolerances,
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    })
    _emit(report, args.format, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
