"""Every command, fed odd numbers, either answers finitely or exits with a code.

Each argv draws one of the 13 commands and fills its options with small
integers and with floats among which are 0, negatives, subnormals, huge
values, nan and inf.  Under a small node budget the command must exit 0
with finite outputs, or exit 1, 2 or 3; it must never raise, and a numpy
RuntimeWarning (an overflow, say) counts as raising.  The argvs in
``OVER_BUDGET`` would run for minutes without a budget, and must exit 3.
"""

import contextlib
import io
import json
import math
import os
import warnings
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ilim import cli

ODD_FLOATS = (0.0, -0.0, -1.0, -1e308, 1e-320, 5e-324, 1e308, math.nan, math.inf, -math.inf)

ints = st.integers(min_value=-2, max_value=12)
floats = st.one_of(
    st.sampled_from(ODD_FLOATS),
    st.floats(min_value=-0.5, max_value=2.5, allow_nan=False),
    st.sampled_from((1.8, 2.0, 1.5, 0.05, 0.1, 1e-9)),
)
float_lists = st.lists(floats, min_size=0, max_size=3)
int_lists = st.lists(ints, min_size=0, max_size=3)

#: option -> value kind, per command; a kind with a "?" may be left out
COMMANDS = {
    "entropy-lap": {"--slope": "float?", "--a": "float?", "--n-max": "int?",
                    "--method": "method?"},
    "entropy-bowen": {"--slope": "float", "--R": "int", "--depth": "int?", "--n-max": "int?",
                      "--eps": "floats?", "--seeds": "int?", "--branch-cap": "int?"},
    "slope-of-quadratic": {"--a": "float", "--n-max": "int?"},
    "folding-pattern": {"--slope": "float", "--count": "int"},
    "salient": {"--slope": "float", "--n": "int"},
    "chain-build": {"--slope": "float", "--p": "int", "--eps": "float"},
    "chain-verify": {"--slope": "float", "--p": "int", "--eps": "float"},
    "plevel-align": {"--slope": "float", "--q": "int", "--p": "int", "--R": "int", "--n": "int"},
    "separated": {"--slope": "float", "--R": "int", "--n-max": "int?", "--eps": "floats?",
                  "--depth": "int?", "--seeds": "int?", "--branch-cap": "int?"},
    "renorm-detect": {"--a": "float", "--max-period": "int?"},
    "spectrum": {"--periods": "ints", "--entropies": "floats", "--h-max": "float"},
    "spectrum-member": {"--periods": "ints", "--entropies": "floats", "--value": "float",
                        "--tol": "float?"},
    "block-entropy": {"--periods": "ints", "--entropies": "floats", "--R": "int",
                      "--powers": "ints", "--level": "int?"},
}


def test_option_map_follows_the_cli_table():
    # a table flag is (flag, type, default), or (flag, type) when required
    table = {name: {flag[0]: len(flag) == 2 for flag in flags}
             for name, (_, flags) in cli.COMMANDS.items()}
    ours = {name: {flag: not kind.endswith("?") for flag, kind in opts.items()}
            for name, opts in COMMANDS.items()}
    assert ours == table


KINDS = {
    "int": ints.map(str),
    "float": floats.map(repr),
    "ints": int_lists.map(lambda xs: ",".join(map(str, xs))),
    "floats": float_lists.map(lambda xs: ",".join(map(repr, xs))),
    "method": st.sampled_from(("ratio", "fit")),
}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for flag, kind in COMMANDS[name].items():
        if kind.endswith("?") and draw(st.booleans()):
            continue
        argv.append(f"{flag}={draw(KINDS[kind.rstrip('?')])}")
    return argv


def _finite(value, path=()) -> bool:
    """No float in the outputs is non-finite, and no string stands for one;
    the one exception is the 'inf' head of a folding pattern."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, str):
        return value not in ("nan", "inf", "-inf") or path == ("pattern", 0)
    if isinstance(value, dict):
        return all(_finite(v, (*path, k)) for k, v in value.items())
    if isinstance(value, list):
        return all(_finite(v, (*path, i)) for i, v in enumerate(value))
    return True


def check_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"ILIM_MAX_NODES": "20000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 0:
        outputs = json.loads(out.getvalue())["outputs"]
        assert _finite(outputs), (argv, outputs)
    else:
        assert out.getvalue() == "" and err.getvalue(), argv
    return code


#: argvs whose work the budget must stop, not a wall clock
OVER_BUDGET = (
    ["entropy-lap", "--slope", "1.8", "--n-max", "1000000"],
    ["separated", "--slope", "1.8", "--R", "0", "--n-max", "1000000", "--seeds", "8",
     "--depth", "4", "--eps", "0.1"],
)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(["chain-build", "--slope", "1.8", "--p", "2", "--eps", "1e-320"])
@example(["spectrum-member", "--periods", "1,2", "--entropies", "0.5,0.8", "--value", "1e308"])
@example(["slope-of-quadratic", "--a=1e-320"])
@example(OVER_BUDGET[0])
@example(OVER_BUDGET[1])
@given(argvs())
def test_every_argv_answers_finitely_or_exits_with_a_code(argv):
    check_argv(argv)


def test_long_runs_exit_three_under_the_budget():
    assert [check_argv(argv) for argv in OVER_BUDGET] == [3, 3]
