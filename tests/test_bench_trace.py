"""The traced benchmark run reads every per-layer metric from its probe.

`bench/run.py --trace 1` wraps the functions listed in `spans.TARGETS`, runs
`workloads.probe_ops()` at the end and reads `spans.layer_metrics` from the
spans.  A wrapped function that no probe reaches, or a result that a record
hook cannot read, makes that run fail; this test finds it without the run.
"""

import math
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_probe_reaches_every_traced_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.phase = "probe"
    tracer.install()
    try:
        out = {}
        for op in workloads.probe_ops():
            out[op.name] = op.call(out)
    finally:
        tracer.uninstall()
    exit_codes = {name: res[0] for name, res in out.items() if isinstance(res, tuple)}
    assert set(exit_codes.values()) == {0}, exit_codes
    traced = {span.name for span in tracer.spans}
    assert [f"{m}.{f}" for m, f, _ in spans.TARGETS if f"{m}.{f}" not in traced] == []
    metrics = spans.layer_metrics(tracer, 1)
    assert len(metrics) == 33
    assert all(math.isfinite(value) for value, _ in metrics.values())
