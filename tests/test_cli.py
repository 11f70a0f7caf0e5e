"""Command-line interface: envelope schema, formats, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ilim
from ilim import bowen, cli, lap_entropy, maps, renorm


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# envelope


def test_json_envelope_shape(capsys):
    report = run_json(capsys, "entropy-lap", "--slope", "2", "--n-max", "12")
    assert report["schema"] == "ilim/1"
    assert report["command"] == "entropy-lap"
    assert report["inputs"]["slope"] == 2.0
    assert "format" not in report["inputs"]
    assert report["outputs"]["value"] == pytest.approx(math.log(2.0), abs=1e-6)
    assert report["elapsed_seconds"] >= 0.0
    assert isinstance(report["tolerances"], dict)


def test_json_keys_are_sorted_and_stable(capsys):
    code, out, _ = run(capsys, "salient", "--slope", "2", "--n", "4")
    assert code == 0
    assert out.strip() == json.dumps(json.loads(out), sort_keys=True)


#: one small argv per command
SMALL_ARGVS = (
    ("entropy-lap", "--slope", "1.8", "--n-max", "12"),
    ("entropy-bowen", "--slope", "2", "--R", "1", "--depth", "8", "--seeds", "32",
     "--eps", "0.125,0.0625", "--n-max", "5"),
    ("slope-of-quadratic", "--a", "1.9", "--n-max", "12"),
    ("folding-pattern", "--slope", "1.8", "--count", "7"),
    ("salient", "--slope", "2", "--n", "4"),
    ("chain-build", "--slope", "1.8", "--p", "2", "--eps", "0.2"),
    ("chain-verify", "--slope", "1.8", "--p", "2", "--eps", "0.2"),
    ("plevel-align", "--slope", "2", "--q", "6", "--p", "3", "--R", "1", "--n", "4"),
    ("separated", "--slope", "1.9", "--R", "1", "--depth", "8", "--seeds", "32",
     "--n-max", "5"),
    ("renorm-detect", "--a", "1.3", "--max-period", "4"),
    ("spectrum", "--periods", "1,2", "--entropies", "0.5,0.8", "--h-max", "1.3"),
    ("spectrum-member", "--periods", "1,2", "--entropies", "0.5,0.8", "--value", "1.2"),
    ("block-entropy", "--periods", "1,2", "--entropies", "0.5,0.8", "--R", "2",
     "--powers", "1,3"),
)


def test_reports_are_deterministic_up_to_timing(capsys):
    assert sorted(argv[0] for argv in SMALL_ARGVS) == sorted(cli.COMMANDS)
    timing = re.compile(r'"elapsed_seconds": [^,}]+')
    for argv in SMALL_ARGVS:
        for fmt in ("json", "csv", "plain"):
            outs = []
            for _ in range(2):
                code, out, err = run(capsys, *argv, "--format", fmt)
                assert code == 0, err
                outs.append(timing.sub('"elapsed_seconds": _', out))
            assert outs[0] == outs[1], (argv, fmt)
            assert outs[0].strip()


#: each command with only its required flags, and the inputs block it reports
REQUIRED_ONLY = {
    "entropy-lap": ((), {"slope": None, "a": None, "n_max": 24, "method": "ratio"}),
    "entropy-bowen": (("--slope", "2", "--R", "1"), {
        "slope": 2.0, "R": 1, "depth": 12, "n_max": 10,
        "eps": "0.0625,0.03125,0.015625,0.0078125", "seeds": 4096, "branch_cap": 4}),
    "slope-of-quadratic": (("--a", "1.9"), {"a": 1.9, "n_max": 24}),
    "folding-pattern": (("--slope", "1.8", "--count", "7"), {"slope": 1.8, "count": 7}),
    "salient": (("--slope", "2", "--n", "4"), {"slope": 2.0, "n": 4}),
    "chain-build": (("--slope", "1.8", "--p", "2", "--eps", "0.2"),
                    {"slope": 1.8, "p": 2, "eps": 0.2}),
    "chain-verify": (("--slope", "1.8", "--p", "2", "--eps", "0.2"),
                     {"slope": 1.8, "p": 2, "eps": 0.2}),
    "plevel-align": (("--slope", "2", "--q", "6", "--p", "3", "--R", "1", "--n", "4"),
                     {"slope": 2.0, "q": 6, "p": 3, "R": 1, "n": 4}),
    "separated": (("--slope", "1.9", "--R", "1"), {
        "slope": 1.9, "R": 1, "n_max": 10, "eps": "0.015625", "depth": 12, "seeds": 1024,
        "branch_cap": 4}),
    "renorm-detect": (("--a", "1.3"), {"a": 1.3, "max_period": 16}),
    "spectrum": (("--periods", "1,2", "--entropies", "0.5,0.8", "--h-max", "1.3"),
                 {"periods": "1,2", "entropies": "0.5,0.8", "h_max": 1.3}),
    "spectrum-member": (("--periods", "1,2", "--entropies", "0.5,0.8", "--value", "1.2"),
                        {"periods": "1,2", "entropies": "0.5,0.8", "value": 1.2, "tol": 1e-9}),
    "block-entropy": (("--periods", "1,2", "--entropies", "0.5,0.8", "--R", "2",
                       "--powers", "1,3"),
                      {"periods": "1,2", "entropies": "0.5,0.8", "R": 2, "powers": "1,3",
                       "level": 0}),
}


def test_defaults_are_frozen(capsys, monkeypatch):
    # the handler is stubbed, so the defaults are read without running the library
    assert sorted(REQUIRED_ONLY) == sorted(cli.COMMANDS)
    for name, (argv, inputs) in REQUIRED_ONLY.items():
        stub = (lambda args: ({}, {}, None), cli.COMMANDS[name][1])
        monkeypatch.setitem(cli.COMMANDS, name, stub)
        assert run_json(capsys, name, *argv)["inputs"] == inputs, name


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_lists_every_command():
    block = README.split("Commands:\n\n```\n", 1)[1].split("```", 1)[0]
    assert sorted(block.split()) == sorted(cli.COMMANDS)


def test_readme_examples_parse():
    examples = re.findall(r"^(?:\$ )?ilim (\S+)(.*)$", README, re.M)
    assert len(examples) >= 13
    for name, rest in examples:
        assert name in cli.COMMANDS, name
        cli._parser(name).parse_args(rest.split())


def test_readme_examples_run(capsys):
    # every command line of the README answers, and its json parses
    examples = re.findall(r"^(?:\$ )?ilim (.*)$", README, re.M)
    assert len(examples) >= 17
    for line in examples:
        code, out, err = run(capsys, *line.split())
        assert code == 0, (line, err)
        if "--format" not in line or "--format json" in line:
            assert json.loads(out)["command"] == line.split()[0], line


# ---------------------------------------------------------------------------
# per-command outputs


def test_folding_pattern_json_and_plain(capsys):
    report = run_json(capsys, "folding-pattern", "--slope", "2", "--count", "7")
    assert report["outputs"]["pattern"] == ["inf", "0", "1", "0", "2", "0", "1"]
    code, out, _ = run(capsys, "folding-pattern", "--slope", "2", "--count", "7",
                       "--format", "plain")
    assert code == 0
    assert "pattern: inf 0 1 0 2 0 1" in out


def test_salient_positions_at_full_slope(capsys):
    report = run_json(capsys, "salient", "--slope", "2", "--n", "4")
    assert report["outputs"]["levels"] == [1, 2, 3, 4]
    assert report["outputs"]["positions"] == pytest.approx([0.0625, 0.125, 0.25, 0.5])


def test_spectrum_csv_rows(capsys):
    code, out, _ = run(capsys, "spectrum", "--periods", "1,2", "--entropies", "0.5,0.8",
                       "--h-max", "1.3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value"
    assert [float(v) for v in lines[1:]] == pytest.approx([0.0, 0.5, 0.8, 1.0, 1.2])


def test_spectrum_membership_verdicts(capsys):
    rej = run_json(capsys, "spectrum-member", "--periods", "1,2", "--entropies", "0.5,0.8",
                   "--value", "0.4")
    assert rej["outputs"]["member"] is False
    acc = run_json(capsys, "spectrum-member", "--periods", "1,2", "--entropies", "0.5,0.8",
                   "--value", "1.2")
    assert acc["outputs"]["member"] is True
    assert acc["outputs"]["witness"] is not None


def test_block_entropy_reports_orbits(capsys):
    report = run_json(capsys, "block-entropy", "--periods", "1,2", "--entropies", "0.5,0.8",
                      "--R", "2", "--powers", "1,3")
    assert report["outputs"]["value"] == pytest.approx(2.4)
    assert report["outputs"]["orbits"] == [[0], [1]]


def test_renorm_detect_small_horizon(capsys):
    report = run_json(capsys, "renorm-detect", "--a", "1.3", "--max-period", "2")
    assert report["tolerances"]["containment"] == 1e-9
    assert report["tolerances"] == renorm.DETECT_TOLERANCES
    assert report["outputs"]["periods"] == [1, 2]
    assert all(abs(h) < 0.02 for h in report["outputs"]["entropies"])


@pytest.mark.parametrize("max_period", ["0", "-3"])
def test_renorm_detect_refuses_a_max_period_below_one(capsys, max_period):
    code, out, err = run(capsys, "renorm-detect", "--a", "1.3", "--max-period", max_period)
    assert (code, out) == (2, "")
    assert "max_period" in err


def test_chain_verify_booleans(capsys):
    report = run_json(capsys, "chain-verify", "--slope", "1.8", "--p", "2", "--eps", "0.2")
    checks = report["outputs"]
    assert checks["adjacency"] is True
    assert checks["mandatory"] is True
    assert checks["refines"] is True
    assert checks["links"] > 0
    assert 0.0 < checks["mesh"] < checks["limit_mesh"]


def test_plevel_align_all_pass(capsys):
    report = run_json(capsys, "plevel-align", "--slope", "2", "--q", "6", "--p", "3",
                      "--R", "1", "--n", "4")
    assert report["outputs"]["all_pass"] is True
    assert report["outputs"]["M"] == 4


def test_plevel_align_reads_no_chain_tolerance(capsys):
    report = run_json(capsys, "plevel-align", "--slope", "2", "--q", "6", "--p", "3",
                      "--R", "1", "--n", "4")
    assert report["tolerances"] == {"match": maps.MATCH_TOL, "critical_period": maps.TOL}


def test_spectrum_skips_a_zero_entropy_level(capsys):
    out = run_json(capsys, "spectrum", "--periods", "1,2", "--entropies", "0.5,0",
                   "--h-max", "1.3")["outputs"]
    assert out["spectrum"] == [0.0, 0.5, 1.0]


def test_plevel_align_report_in_every_format(capsys):
    argv = ("plevel-align", "--slope", "2.0", "--q", "4", "--p", "2", "--R", "1", "--n", "4")
    out = run_json(capsys, *argv)["outputs"]
    assert out == {"slope": 2.0, "q": 4, "p": 2, "R": 1, "n": 4, "M": 3, "checks": 16,
                   "passed": 16, "failures": [], "all_pass": True}
    code, csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert csv == "M,R,all_pass,checks,failures,n,p,passed,q,slope\n3,1,True,16,[],4,2,16,4,2.0\n"
    code, plain, _ = run(capsys, *argv, "--format", "plain")
    assert code == 0
    assert plain.splitlines() == ["slope: 2.0", "q: 4", "p: 2", "R: 1", "n: 4", "M: 3",
                                  "checks: 16", "passed: 16", "failures: ", "all_pass: True"]


def test_separated_csv_table(capsys):
    code, out, _ = run(capsys, "separated", "--slope", "2", "--R", "1", "--n-max", "5",
                       "--depth", "8", "--seeds", "64", "--eps", "0.125", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,n,count,log_count"
    assert len(lines) == 1 + 5
    for row in lines[1:]:
        eps, n, count, log_count = row.split(",")
        assert float(log_count) == pytest.approx(math.log(int(count)))


def test_readme_separated_example_is_frozen(capsys):
    # README's example, byte for byte as the row-at-a-time scan printed it;
    # its counts reach 3,984 kept rows, so the scan crosses many blocks
    code, out, err = run(capsys, "separated", "--slope", "1.9", "--R", "1", "--depth", "8",
                         "--n-max", "6", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == (
        "eps,n,count,log_count\n"
        "0.015625,1,298,5.697093486505405\n"
        "0.015625,2,514,6.2422232654551655\n"
        "0.015625,3,1016,6.923628628138427\n"
        "0.015625,4,1352,7.20934025660291\n"
        "0.015625,5,2009,7.605392364814935\n"
        "0.015625,6,3984,8.290041618704489\n"
    )


@pytest.mark.parametrize("name", ["entropy-bowen", "separated"])
def test_bowen_commands_name_their_fit_tolerance(capsys, name):
    # both report fitted estimates, so both name the residual bound of the fit
    report = run_json(capsys, name, "--slope", "1.9", "--R", "1", "--depth", "8",
                      "--seeds", "32", "--eps", "0.125,0.0625", "--n-max", "5")
    assert all("estimate" in curve for curve in report["outputs"]["curves"])
    assert report["tolerances"] == {"fit_residual_per_point": bowen._FIT_RESIDUAL}


def test_entropy_bowen_identity_power_is_zero(capsys):
    report = run_json(capsys, "entropy-bowen", "--slope", "2", "--R", "0", "--depth", "8",
                      "--seeds", "32", "--eps", "0.03125", "--n-max", "5")
    assert report["outputs"]["value"] == 0.0


def test_slope_of_quadratic_full_height(capsys):
    report = run_json(capsys, "slope-of-quadratic", "--a", "2", "--n-max", "16")
    assert report["outputs"]["slope"] == pytest.approx(2.0, abs=0.05)
    # the default n_max = 24 reaches preimages within 1e-12 of +-1
    code, out, _ = run(capsys, "slope-of-quadratic", "--a", "2.0", "--format", "plain")
    assert code == 0
    assert "slope: 2.0\n" in out


def test_csv_falls_back_to_flat_outputs(capsys):
    code, out, _ = run(capsys, "entropy-lap", "--slope", "2", "--n-max", "12",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,n_used,residual,value"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# exit codes


def test_no_arguments_prints_usage(capsys):
    code, out, _ = run(capsys)
    assert code == 0
    assert out.startswith("usage:")


def test_unknown_command_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "unknown command" in err


def test_missing_required_flag_exits_two(capsys):
    code, _, err = run(capsys, "salient", "--slope", "2")
    assert code == 2
    assert "error" in err


def test_malformed_number_exits_two(capsys):
    code, _, _ = run(capsys, "entropy-lap", "--slope", "abc")
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (("spectrum", "--periods", "1,x", "--entropies", "0.5,0.8", "--h-max", "1"),
         "error: expected comma-separated integers, got '1,x'\n"),
        (("spectrum", "--periods", "1,2", "--entropies", "0.5,x", "--h-max", "1"),
         "error: expected comma-separated numbers, got '0.5,x'\n"),
    ],
)
def test_malformed_list_names_its_kind(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)


def test_entropy_lap_needs_exactly_one_map(capsys):
    code, _, err = run(capsys, "entropy-lap", "--n-max", "12")
    assert code == 2
    assert "exactly one" in err
    code, _, _ = run(capsys, "entropy-lap", "--slope", "2", "--a", "2")
    assert code == 2


def test_domain_violation_exits_two(capsys):
    code, _, err = run(capsys, "entropy-lap", "--slope", "2.5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("separated", "--slope", "1.8", "--R", "1", "--depth", "4", "--seeds", "8",
         "--n-max", "4", "--eps", "nan"),
        ("chain-build", "--slope", "1.8", "--p", "2", "--eps", "nan"),
        ("chain-build", "--slope", "1.8", "--p", "2", "--eps", "inf"),
        ("spectrum", "--periods", "1,2", "--entropies", "0.5,0.8", "--h-max", "nan"),
        ("spectrum-member", "--periods", "1,2", "--entropies", "0.5,0.8", "--value", "nan"),
        ("block-entropy", "--periods", "1,2", "--entropies", "nan,0.8", "--R", "2",
         "--powers", "1,3"),
        ("spectrum", "--periods", "1,2", "--entropies", "0.5,nan", "--h-max", "1.3"),
        ("spectrum-member", "--periods", "1,2", "--entropies", "0.5,0.8", "--value", "0.5",
         "--tol", "nan"),
    ],
)
def test_non_finite_input_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("renorm-detect", "--a", "1.3", "--max-period", "2", "--tol", "1e-9"),
        ("slope-of-quadratic", "--a", "1.5", "--n-max", "8", "--tol", "0.05"),
    ],
)
def test_removed_tolerance_flags_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_reported_tolerances_are_named_constants(capsys):
    # a module-level float constant of the package is a named tolerance
    named = {
        value
        for module in (maps, bowen, lap_entropy, renorm)
        for name, value in vars(module).items()
        if name.lstrip("_").isupper() and isinstance(value, float)
    }
    for argv in SMALL_ARGVS:
        tolerances = run_json(capsys, *argv)["tolerances"]
        assert set(tolerances.values()) <= named, (argv, tolerances)


@pytest.mark.parametrize("raw,message", [
    ("abc", "must be an integer"), ("1.5", "must be an integer"),
    ("0", "must be positive"), ("-3", "must be positive"),
])
def test_malformed_node_budget_exits_two(capsys, monkeypatch, raw, message):
    monkeypatch.setenv("ILIM_MAX_NODES", raw)
    code, out, err = run(capsys, "salient", "--slope", "2.0", "--n", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: ILIM_MAX_NODES") and message in err


def _module_run(*argv):
    """``python3 -m ilim`` in a child, with the package's source directory on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(ilim.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "ilim", *argv], capture_output=True,
                          text=True, timeout=120, env=env)


def test_module_entry_point_exit_codes():
    ok = _module_run("salient", "--slope", "2.0", "--n", "4")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["command"] == "salient"
    assert _module_run("no-such-command").returncode == 1
    bad = _module_run("salient", "--slope", "2.0", "--n", "four")
    assert bad.returncode == 2
    assert (bad.stdout, bad.stderr.startswith("error:")) == ("", True)


def test_coarse_depth_warning_reaches_the_cli():
    # a depth-6 cloud against eps 2^-5: the library's warning, on the command's stderr
    for name in ("entropy-bowen", "separated"):
        run_ = _module_run(name, "--slope", "1.8", "--R", "1", "--depth", "6", "--seeds", "64",
                           "--n-max", "5", "--eps", "0.03125")
        assert run_.returncode == 0, run_.stderr
        assert "truncation" in run_.stderr


def test_resource_cap_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("ILIM_MAX_NODES", "100")
    code, _, err = run(capsys, "entropy-lap", "--slope", "1.8", "--n-max", "20")
    assert code == 3
    assert "resource cap" in err


def test_separated_scans_share_one_budget(capsys, monkeypatch):
    # at R = 0 no scan extends the cloud, yet a million of them add up
    monkeypatch.setenv("ILIM_MAX_NODES", "20000")
    code, out, err = run(capsys, "separated", "--slope", "1.8", "--R", "0", "--n-max",
                         "1000000", "--seeds", "8", "--depth", "4", "--eps", "0.1")
    assert (code, out) == (3, "")
    assert "resource cap" in err
