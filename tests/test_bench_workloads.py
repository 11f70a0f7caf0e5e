"""One pass of each benchmark workload passes the workload's own checks.

`bench/run.py` runs every operation of a workload, then `check` on the
pass's outputs and, once per run, `reference` against the independent
computations in `bench/refs.py`.  A change that breaks those checks fails
here, without a timed run.
"""

import pytest

from test_bench_trace import BENCH


@pytest.mark.parametrize("name", ["bowen_sweep", "fold_tree", "cli_mix"])
def test_one_pass_passes_the_workload_checks(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    wl = workloads.WORKLOADS[name](101)
    out = {}
    for op in wl.ops:
        out[op.name] = op.call(out)
    errs = wl.check(out)
    assert errs and all(err >= 0.0 for err in errs)
    wl.reference(out)
    if wl.rerun_key is not None:
        assert wl.rerun_key(out)
