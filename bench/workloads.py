"""The three workloads: their inputs, operation lists and output checks.

A workload is a fixed list of operations (one pass).  Every operation calls
one public function of ilim through its module, looked up at call time, so
that the tracer's wrappers see it.  `check` tests a pass's outputs against
properties the method must have and returns the entropy errors the pass
made; `reference` compares outputs against the independent computations in
refs.py and runs once per run, because outputs repeat exactly across passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from ilim import bowen, chains, cli, inverse_limit, lap_entropy

from refs import (
    CheckFailed,
    block_entropy,
    dyadic_fold_points,
    dyadic_salient_positions,
    greedy_rescan,
    require,
    same_values,
    spectrum_values,
    witness_holds,
)

LOG2 = math.log(2.0)
A_STAR = 1.5436890126920764
PATTERN = (math.inf, 0, 1, 0, 2, 0, 1)


@dataclass
class Op:
    name: str
    call: Callable[[dict], Any]
    #: for an operation with a known fault: True when its output is right.
    #: Such an operation is counted failed, not incorrect, when it is wrong.
    known_fault: Callable[[Any], bool] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable[[dict], list[float]]
    reference: Callable[[dict], None]
    #: outputs that must be the same in every pass
    rerun_key: Callable[[dict], Any] | None = None


def _submultiplicative(counts) -> bool:
    n = len(counts)
    return all(
        counts[m + k - 1] <= counts[m - 1] * counts[k - 1]
        for m in range(1, n)
        for k in range(1, n - m + 1)
    )


def _nondecreasing(seq) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# bowen_sweep


def bowen_sweep(seed: int) -> Workload:
    """Separated-set growth of shift powers R = 0, 1, 2 and of the inverse shift.

    The clouds are fixed and the seed only orders the scans.  Moving the seed
    grid instead (N = 2048..2055) moves the R = 2 growth fit by up to 0.07
    nats, which would put the seed rather than the code into entropy_err.
    """
    rng = random.Random(seed)
    s, depth, n_max = 2.0, 12, 8
    eps_list = (2.0**-3, 2.0**-4)
    n_seeds = 2048

    def curves(R):
        return lambda out: bowen.separation_curves(out["cloud"], R, eps_list, n_max)

    scans = [
        Op("curves_R0", curves(0)),
        Op("curves_R1", curves(1)),
        Op("curves_R2", curves(2)),
        # eps0 = 2^-4 codes at the matched scale 2*eps0 = eps_list[0], n = 6
        Op("itinerary_bound", lambda out: bowen.itinerary_upper_bound(out["cloud"], 1, 1, eps_list[1], 6)),
        Op("curves_Rinv", lambda out: bowen.separation_curves(out["rich"], -1, (2.0**-3,), 9)),
    ]
    rng.shuffle(scans)
    ops = [
        Op("cloud", lambda out: bowen.sample_points(s, depth, 1, n_seeds)),
        # a cloud rich in branches, as in test_forward_and_inverse_growth_rates_agree
        Op("rich", lambda out: bowen.sample_points(s, depth, 128, 24)),
        *scans,
    ]

    def check(out):
        require(0 < len(out["cloud"]) <= n_seeds, "cloud size out of range")
        est = {}
        for R, key in ((0, "curves_R0"), (1, "curves_R1"), (2, "curves_R2"), (-1, "curves_Rinv")):
            cs = out[key]
            for c in cs:
                counts = [k for _, k in c.counts]
                require(_nondecreasing(counts), f"R={R} eps={c.eps}: counts drop as n grows")
            for coarse, fine in zip(cs, cs[1:]):
                require(
                    all(a[1] <= b[1] for a, b in zip(coarse.counts, fine.counts)),
                    f"R={R}: counts drop as eps shrinks",
                )
            est[R] = bowen.estimate_from_curves(cs).value
        require(est[0] == 0.0, f"R=0 estimate {est[0]} is not exactly 0")
        require(
            abs(est[2] - 2.0 * est[1]) <= 0.15 * 2.0 * est[1],
            f"R=2 estimate {est[2]} not within 15% of twice R=1 ({est[1]})",
        )
        matched = dict(out["curves_R1"][0].counts)[6]
        require(out["itinerary_bound"] >= matched, "itinerary bound below the separated count")
        return [abs(est[R] - abs(R) * math.log(s)) for R in (0, 1, 2, -1)]

    def reference(out):
        for cloud, R, n, eps in (
            (out["cloud"], 0, 4, eps_list[0]),
            (out["cloud"], 1, 5, eps_list[0]),
            (out["cloud"], 2, 4, eps_list[1]),
            (out["rich"], -1, 5, eps_list[0]),
        ):
            sub = cloud.subcloud(160)
            got = bowen.separated_count(sub, R, n, eps)
            want = greedy_rescan(sub.array, cloud.slope, cloud.depth, R, n, eps)
            require(got == want, f"R={R} n={n} eps={eps}: greedy count {got}, rescan {want}")

    return Workload("bowen_sweep", ops, check, reference)


# ---------------------------------------------------------------------------
# fold_tree


def _laps_are_powers_of_two(table) -> bool:
    return table.counts == tuple(2**n for n in range(1, len(table) + 1))


def fold_tree(seed: int) -> Workload:
    """Deep backward trees of the critical point: lap tables, arcs, chains.

    The seed draws the chain scale (within one power-of-two grid, so the
    chains keep their size) and the alignment's (q, p, R) among settings with
    the same lift M = R + q - p = 1.
    """
    rng = random.Random(seed)
    eps = rng.uniform(0.03, 0.055)
    q, p, R = rng.choice(((3, 3, 1), (4, 3, 0), (4, 4, 1), (5, 4, 0)))
    tent, quad = lap_entropy.TentMap, lap_entropy.QuadraticMap

    ops = [
        Op("lap_tent2", lambda out: lap_entropy.lap_table(tent(2.0), 21)),
        Op("lap_tent18", lambda out: lap_entropy.lap_table(tent(1.8), 24)),
        Op("h_tent18", lambda out: lap_entropy.entropy_lap(tent(1.8), 24)),
        Op("h_quad2", lambda out: lap_entropy.entropy_lap(quad(2.0), 21)),
        Op(
            "lap_quad2_24",
            lambda out: lap_entropy.lap_table(quad(2.0), 24),
            known_fault=_laps_are_powers_of_two,
        ),
        Op("slope_quad2", lambda out: lap_entropy.tent_slope_of_quadratic(2.0, n_max=20, with_estimate=True)),
        Op("arc_tent18", lambda out: inverse_limit.arc_records(1.8, 20)),
        Op("arc_tent2", lambda out: inverse_limit.arc_records(2.0, 16)),
        Op("salient_tent18", lambda out: inverse_limit.salient_positions(1.8, 18)),
        Op("chain_coarse", lambda out: chains.build_chain(1.8, 13, eps)),
        Op("chain_fine", lambda out: chains.build_chain(1.8, 14, eps / 2.0)),
        Op("adjacency", lambda out: chains.adjacency_ok(out["chain_fine"])),
        Op("mandatory", lambda out: chains.mandatory_ok(out["chain_fine"])),
        Op("refines", lambda out: chains.refines(out["chain_fine"], out["chain_coarse"])),
        Op("alignment", lambda out: chains.verify_plevel_alignment(1.5, q, p, R, 21)),
    ]

    def check(out):
        t2 = out["lap_tent2"]
        require(_laps_are_powers_of_two(t2), "lap(n) != 2^n at s = 2")
        for key in ("lap_tent2", "lap_tent18"):
            require(_submultiplicative(out[key].counts), f"{key}: laps not submultiplicative")
            require(_nondecreasing(out[key].counts), f"{key}: laps decrease")
        errs = [
            abs(out["h_tent18"].value - math.log(1.8)),
            abs(out["h_quad2"].value - LOG2),
            abs(out["slope_quad2"][1].value - LOG2),
        ]
        require(max(errs) < 0.02, f"lap entropy errors {errs} exceed 0.02")
        require(out["slope_quad2"][0] == 2.0, "conjugate tent slope of q_2 is not 2")
        for key, n in (("arc_tent18", 20), ("arc_tent2", 16)):
            recs = out[key]
            pos = [r.position for r in recs]
            require(all(a < b for a, b in zip(pos, pos[1:])), f"{key}: positions not increasing")
            require(0.0 <= pos[0] and pos[-1] <= 0.5, f"{key}: positions outside [0, 1/2]")
            pattern = (math.inf, *(r.level for r in recs))
            require(pattern[:7] == PATTERN, f"{key}: folding pattern prefix {pattern[:7]}")
            require(recs[-1].level == n, f"{key}: arc does not end at salient level {n}")
        level_at = {r.position: r.level for r in out["arc_tent18"]}
        sal = out["salient_tent18"]
        require(len(sal) == 18 and all(a < b for a, b in zip(sal, sal[1:])), "salient positions")
        # the i-th salient point of the level-18 arc lies on the level-20 arc at level i + 2
        require(
            all(level_at.get(x) == i + 2 for i, x in enumerate(sal, 1)),
            "salient points disagree with the longer arc",
        )
        fine, coarse = out["chain_fine"], out["chain_coarse"]
        require(fine.index == 14 and coarse.index == 13, "chain levels")
        require(out["adjacency"] and out["mandatory"] and out["refines"], "chain axioms fail")
        rep = out["alignment"]
        require(rep.all_pass and rep.checks > 10000, f"alignment: {rep.passed}/{rep.checks}")
        return errs

    def reference(out):
        want = dyadic_fold_points(16)
        got = {Fraction(r.position): r.level for r in out["arc_tent2"]}
        require(len(out["arc_tent2"]) == len(want) and got == want, "fold points at s = 2 are not the dyadics")

    return Workload("fold_tree", ops, check, reference)


# ---------------------------------------------------------------------------
# cli_mix


def _cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _random_tower(rng: random.Random):
    depth = rng.randint(2, 4)
    periods = [1]
    for _ in range(depth - 1):
        periods.append(periods[-1] * rng.choice((2, 2, 3)))
    hs = [0.0] * depth
    hs[-1] = rng.uniform(0.1, 1.5)
    for i in range(depth - 2, -1, -1):
        lo = (periods[i] / periods[i + 1]) * hs[i + 1]
        hs[i] = lo if rng.random() < 0.3 else rng.uniform(lo, hs[i + 1] + 0.3)
    return periods, hs


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


def cli_mix(seed: int) -> Workload:
    """Hundreds of short commands through ilim.cli.main in one process.

    The README examples at small sizes and a grid of renorm-detect parameters
    are fixed; the seed draws 40 random towers, each asked for its spectrum,
    one member with its witness, one random value, and one block model.
    """
    rng = random.Random(seed)
    commands: list[tuple[str, Callable[[dict], list[float]]]] = []

    def add(line: str, checker):
        commands.append((line, checker))

    def close_to(ref):
        return lambda o: [abs(o["value"] - ref)]

    def pattern(o):
        require(o["pattern"] == ["inf", "0", "1", "0", "2", "0", "1"], "folding pattern")
        return []

    def salient(o):
        require([Fraction(x) for x in o["positions"]] == dyadic_salient_positions(4), "salient")
        return []

    def chain(o):
        b = o["breakpoints"]
        require(b[0] == 0.0 and b[-1] == 1.0 and all(x < y for x, y in zip(b, b[1:])), "chain")
        return []

    def verify(o):
        require(o["adjacency"] and o["mandatory"] and o["refines"], "chain axioms")
        return []

    def aligned(o):
        require(o["all_pass"] and o["checks"] > 0, "alignment")
        return []

    def growing(R, s, est=False):
        def f(o):
            for c in o["curves"]:
                require(_nondecreasing([k for _, k in c["counts"]]), "counts drop as n grows")
            return [abs(o["value"] - R * math.log(s))] if est else []
        return f

    def tower_is(periods, zero=False):
        def f(o):
            require(o["periods"] == periods, f"periods {o['periods']}")
            if zero:
                require(all(h == 0.0 for h in o["entropies"]), "entropies not 0")
            else:
                require(all(0.0 < h <= LOG2 + 1e-9 for h in o["entropies"]), "entropy range")
            return []
        return f

    def cascade(o):
        # below the Feigenbaum point only the periods are reliable (see CHANGES.md)
        require(o["periods"] == [1, 2, 4, 8, 16], f"periods {o['periods']}")
        return []

    def a_star(o):
        require(o["periods"] == [1, 2], f"periods {o['periods']}")
        errs = [abs(h - r) for h, r in zip(o["entropies"], (LOG2 / 2, LOG2))]
        require(max(errs) <= 0.03, f"tower entropies {o['entropies']}")
        return errs

    def full(o):
        require(o["periods"] == [1], f"periods {o['periods']}")
        return [abs(o["entropies"][0] - LOG2)]

    def slope2(o):
        require(o["slope"] == 2.0, f"slope {o['slope']}")
        return [abs(o["entropy"] - LOG2)]

    def spectrum_of(periods, hs, h_max):
        def f(o):
            require(same_values(o["spectrum"], spectrum_values(periods, hs, h_max)), "spectrum")
            return []
        return f

    def member_of(periods, hs, value, expected=None):
        def f(o):
            if expected is not None:
                require(o["member"] == expected, f"membership of {value}")
            if o["member"] and o["witness"] is not None:
                require(witness_holds(periods, hs, value, o["witness"]), f"witness {o['witness']}")
            elif o["member"]:
                require(abs(value) <= 1e-9, "member without a witness")
            return []
        return f

    def block_of(periods, hs, level, R, powers):
        def f(o):
            want = block_entropy(periods, hs, level, R, powers)
            require(abs(o["value"] - want) <= 1e-12, f"block entropy {o['value']} vs {want}")
            return []
        return f

    # README examples at small sizes
    add("entropy-lap --slope 1.8 --n-max 14", close_to(math.log(1.8)))
    add("entropy-lap --a 2.0 --n-max 16", close_to(LOG2))
    add("folding-pattern --slope 1.8 --count 7", pattern)
    add("salient --slope 2.0 --n 4", salient)
    add("chain-build --slope 2.0 --p 1 --eps 0.1", chain)
    add("chain-verify --slope 1.8 --p 2 --eps 0.05", verify)
    add("plevel-align --slope 2.0 --q 6 --p 3 --R 1 --n 8", aligned)
    add("separated --slope 1.9 --R 1 --depth 8 --n-max 6 --seeds 64", growing(1, 1.9))
    add("entropy-bowen --slope 2.0 --R 1 --depth 8 --n-max 6 --seeds 64", growing(1, 2.0, est=True))
    add("spectrum --periods 1,2 --entropies 0.5,0.8 --h-max 1.3", spectrum_of([1, 2], [0.5, 0.8], 1.3))
    add("spectrum-member --periods 1,2 --entropies 0.5,0.8 --value 1.2",
        member_of([1, 2], [0.5, 0.8], 1.2, True))
    add("block-entropy --periods 1,2 --entropies 0.5,0.8 --level 0 --R 2 --powers 1,3",
        block_of([1, 2], [0.5, 0.8], 0, 2, [1, 3]))
    add("slope-of-quadratic --a 2.0 --n-max 16", slope2)
    # renormalization over a grid of parameters
    add("renorm-detect --a 1.3 --max-period 2", tower_is([1, 2], zero=True))
    add("renorm-detect --a 1.3 --max-period 4", tower_is([1, 2, 4], zero=True))
    add("renorm-detect --a 1.401155 --max-period 16", cascade)
    add(f"renorm-detect --a {A_STAR!r} --max-period 2", a_star)
    add("renorm-detect --a 1.75 --max-period 4", tower_is([1]))
    add("renorm-detect --a 1.9 --max-period 4", tower_is([1]))
    # the same answer, found after searching periods 5 to 12 as well
    add("renorm-detect --a 1.9 --max-period 12", tower_is([1]))
    add("renorm-detect --a 2.0 --max-period 4", full)
    # seeded random towers
    for _ in range(40):
        periods, hs = _random_tower(rng)
        tower = f"--periods {_join(periods)} --entropies {_join(hs)}"
        h_max = rng.uniform(1.0, 2.5)
        values = spectrum_values(periods, hs, h_max)
        add(f"spectrum {tower} --h-max {h_max!r}", spectrum_of(periods, hs, h_max))
        v = rng.choice(values[1:] or values)
        add(f"spectrum-member {tower} --value {v!r}", member_of(periods, hs, v, True))
        w = rng.uniform(0.05, h_max)
        add(f"spectrum-member {tower} --value {w!r}",
            member_of(periods, hs, w, any(abs(w - x) <= 1e-9 for x in values)))
        level = rng.randint(0, len(periods) - 2)
        powers = [rng.randint(0, 5) for _ in range(periods[level + 1] // periods[level])]
        R = rng.randint(0, 6)
        add(f"block-entropy {tower} --level {level} --R {R} --powers {_join(powers)}",
            block_of(periods, hs, level, R, powers))

    ops = []
    for i, (line, _) in enumerate(commands):
        argv = line.split()
        ops.append(Op(f"{i:03d}:{argv[0]}", lambda out, argv=argv: _cli(argv)))

    def reports(out):
        parsed = []
        for op, (line, _) in zip(ops, commands):
            code, text = out[op.name]
            require(code == 0, f"`{line}` exited {code}")
            rep = json.loads(text)
            require(rep["schema"] == "ilim/1" and rep["command"] == line.split()[0], f"`{line}` envelope")
            rep.pop("elapsed_seconds")
            parsed.append(rep)
        return parsed

    def check(out):
        errs: list[float] = []
        for rep, (line, checker) in zip(reports(out), commands):
            try:
                errs.extend(checker(rep["outputs"]))
            except CheckFailed as exc:
                raise CheckFailed(f"`{line}`: {exc}") from None
        return errs

    return Workload("cli_mix", ops, check, lambda out: None, rerun_key=reports)


WORKLOADS = {"bowen_sweep": bowen_sweep, "fold_tree": fold_tree, "cli_mix": cli_mix}


def probe_ops() -> list[Op]:
    """A small call into every layer, for traced runs of workloads that skip some.

    A per-layer metric is read from the workload's own spans when it has any,
    and from these calls otherwise, so every traced run reports every layer.
    """
    lines = (
        "entropy-lap --slope 1.8 --n-max 14",
        "slope-of-quadratic --a 2.0 --n-max 16",
        "salient --slope 2.0 --n 8",
        "chain-verify --slope 1.8 --p 2 --eps 0.05",
        "plevel-align --slope 2.0 --q 6 --p 3 --R 1 --n 8",
        "separated --slope 1.9 --R 1 --depth 8 --n-max 6 --seeds 32",
        f"renorm-detect --a {A_STAR!r} --max-period 2",
        "spectrum --periods 1,2 --entropies 0.5,0.8 --h-max 1.3",
        "spectrum-member --periods 1,2 --entropies 0.5,0.8 --value 1.2",
        "block-entropy --periods 1,2 --entropies 0.5,0.8 --level 0 --R 2 --powers 1,3",
    )
    ops = [Op(line, lambda out, argv=line.split(): _cli(argv)) for line in lines]
    ops.append(Op("itinerary", lambda out: bowen.itinerary_upper_bound(
        bowen.sample_points(2.0, 8, 1, 64), 1, 1, 2.0**-4, 4)))
    return ops
