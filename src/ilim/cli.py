"""Command-line front end.

Every command prints one report to stdout: json (default) is a versioned
envelope with inputs, outputs, tolerances and wall-clock time; csv flattens
the tabular part of the output; plain prints key/value lines.  Exit codes:
0 success, 1 unknown command, 2 malformed parameters or failed
preconditions, 3 resource cap exceeded.

``COMMANDS`` is the whole interface: each command's handler and its flags in
order.  A flag is (flag, type, default), or (flag, type) when it is required;
a tuple in place of the type lists the choices.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict

from . import bowen, chains, inverse_limit, lap_entropy, renorm
from .errors import ResourceCapError
from .maps import MATCH_TOL, TOL, QuadraticMap, TentMap

SCHEMA = "ilim/1"

_CYCLE_TOL = {"critical_period": TOL}  # backward trees, lap pieces, salient points
_TOWER_TOL = {"tower_slack": renorm._TOWER_SLACK}  # every command that checks a tower


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # malformed parameters exit 2, not argparse's default
        raise _ArgError(message)


def _numbers(text: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise _ArgError(f"expected comma-separated {what}, got {text!r}") from exc


def _sanitize(obj):
    """Make values JSON-portable: non-finite floats become strings, tuples lists."""
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
    return renorm.RenormTower(tuple(_numbers(args.periods, int)), tuple(_numbers(args.entropies)))


def _column(name: str, values) -> tuple:
    return (name,), [(v,) for v in values]


# ---------------------------------------------------------------------------
# handlers: each returns (outputs, tolerances, rows); tolerances names every
# constant that the command's path decides with, rows is an optional
# (header, list-of-tuples) pair used by the csv format.


def _entropy_lap(args):
    if (args.a is None) == (args.slope is None):
        raise _ArgError("give exactly one of --slope (tent) or --a (quadratic)")
    map_ = QuadraticMap(args.a) if args.a is not None else TentMap(args.slope)
    est = lap_entropy.entropy_lap(map_, args.n_max, args.method)
    return asdict(est), _CYCLE_TOL, None


def _separation(args):
    """Shared body of entropy-bowen and separated: the sampled cloud, its
    separation curves, their json and their csv rows."""
    cloud = bowen.sample_points(args.slope, args.depth, args.branch_cap, args.seeds)
    curves = bowen.separation_curves(cloud, args.R, tuple(_numbers(args.eps)), args.n_max)
    as_json = [{"eps": c.eps, "estimate": c.estimate, "counts": c.counts} for c in curves]
    rows = [(c.eps, n, count, math.log(count)) for c in curves for n, count in c.counts]
    return cloud, curves, as_json, (("eps", "n", "count", "log_count"), rows)


def _entropy_bowen(args):
    _, curves, as_json, rows = _separation(args)
    est = bowen.estimate_from_curves(curves)
    out = {"value": est.value, "n_used": est.n_used, "residual": est.residual, "curves": as_json}
    return out, {"fit_residual_per_point": bowen._FIT_RESIDUAL}, rows


def _slope_of_quadratic(args):
    s, est = lap_entropy.tent_slope_of_quadratic(args.a, n_max=args.n_max, with_estimate=True)
    out = {"slope": s, "entropy": est.value, "residual": est.residual}
    return out, {"zero_entropy_cutoff": lap_entropy._ZERO_CUTOFF, **_CYCLE_TOL}, None


def _folding_pattern(args):
    pattern = inverse_limit.folding_pattern_prefix(args.slope, args.count).as_strings()
    return {"pattern": pattern}, _CYCLE_TOL, _column("entry", pattern)


def _salient(args):
    pos = inverse_limit.salient_positions(args.slope, args.n)
    levels = list(range(1, args.n + 1))
    rows = (("position", "level"), list(zip(pos, levels)))
    return {"positions": pos, "levels": levels}, _CYCLE_TOL, rows


def _chain_build(args):
    chain = chains.build_chain(args.slope, args.p, args.eps)
    out = {**chain.to_json(), "limit_mesh": chains.limit_mesh(chain)}
    return out, {"edge": TOL}, _column("breakpoint", out["breakpoints"])


def _chain_verify(args):
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
    return out, {"closure": TOL, "mandatory": MATCH_TOL, "edge": TOL, **_CYCLE_TOL}, None


def _plevel_align(args):
    report = chains.verify_plevel_alignment(args.slope, args.q, args.p, args.R, args.n)
    out = {**asdict(report), "all_pass": report.all_pass}
    return out, {"match": MATCH_TOL, "edge": TOL, **_CYCLE_TOL}, None


def _separated(args):
    cloud, _, as_json, rows = _separation(args)
    return {"cloud_size": len(cloud), "curves": as_json}, {}, rows


def _renorm_detect(args):
    tower = renorm.detect_renormalization(args.a, args.max_period)
    rows = list(zip(tower.periods, tower.entropies))
    return asdict(tower), renorm.DETECT_TOLERANCES, (("period", "entropy"), rows)


def _spectrum(args):
    tower = _tower(args)
    values = renorm.entropy_spectrum(tower, args.h_max)
    out = {"periods": tower.periods, "entropies": tower.entropies, "h_max": args.h_max,
           "spectrum": values}
    tolerances = {"dedup": TOL, "h_max_slack": TOL, "level_floor": MATCH_TOL, **_TOWER_TOL}
    return out, tolerances, _column("value", values)


def _spectrum_member(args):
    res = renorm.spectrum_membership(_tower(args), args.value, args.tol)
    out = {"value": args.value, "member": res.member, "witness": res.witness}
    return out, {"match": args.tol, "level_floor": MATCH_TOL, **_TOWER_TOL}, None


def _block_entropy(args):
    tower = _tower(args)
    model = renorm.BlockModel(R=args.R, powers=tuple(_numbers(args.powers, int)), level=args.level)
    value = renorm.block_model_entropy(tower, model)
    return {"value": value, "orbits": model.orbit_partition()}, _TOWER_TOL, None


_TOWER = (("--periods", str), ("--entropies", str))

COMMANDS = {
    "entropy-lap": (_entropy_lap, (
        ("--slope", float, None), ("--a", float, None), ("--n-max", int, 24),
        ("--method", lap_entropy._METHODS, "ratio"))),
    "entropy-bowen": (_entropy_bowen, (
        ("--slope", float), ("--R", int), ("--depth", int, 12), ("--n-max", int, 10),
        ("--eps", str, ",".join(map(str, bowen.DEFAULT_EPS_LIST))), ("--seeds", int, 4096),
        ("--branch-cap", int, 4))),
    "slope-of-quadratic": (_slope_of_quadratic, (
        ("--a", float), ("--n-max", int, 24))),
    "folding-pattern": (_folding_pattern, (("--slope", float), ("--count", int))),
    "salient": (_salient, (("--slope", float), ("--n", int))),
    "chain-build": (_chain_build, (("--slope", float), ("--p", int), ("--eps", float))),
    "chain-verify": (_chain_verify, (("--slope", float), ("--p", int), ("--eps", float))),
    "plevel-align": (_plevel_align, (
        ("--slope", float), ("--q", int), ("--p", int), ("--R", int), ("--n", int))),
    "separated": (_separated, (
        ("--slope", float), ("--R", int), ("--n-max", int, 10), ("--eps", str, "0.015625"),
        ("--depth", int, 12), ("--seeds", int, 1024), ("--branch-cap", int, 4))),
    "renorm-detect": (_renorm_detect, (
        ("--a", float), ("--max-period", int, 16))),
    "spectrum": (_spectrum, (*_TOWER, ("--h-max", float))),
    "spectrum-member": (_spectrum_member, (
        *_TOWER, ("--value", float), ("--tol", float, MATCH_TOL))),
    "block-entropy": (_block_entropy, (
        *_TOWER, ("--R", int), ("--powers", str), ("--level", int, 0))),
}


@functools.cache
def _parser(name: str) -> _Parser:
    """The parser of one command, built from its ``COMMANDS`` row on first use."""
    parser = _Parser(prog=f"ilim {name}")
    for flag, kind, *default in COMMANDS[name][1]:
        opts = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        if default:
            opts["default"] = default[0]
        else:
            opts["required"] = True
        parser.add_argument(flag, **opts)
    parser.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    return parser


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
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: ilim <command> [options]\ncommands: " + " ".join(sorted(COMMANDS)))
        return 0
    name, rest = argv[0], argv[1:]
    if name not in COMMANDS:
        print(f"unknown command: {name}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    try:
        args = _parser(name).parse_args(rest)
        outputs, tolerances, rows = COMMANDS[name][0](args)
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
