"""Spans around the calls into each ilim layer, kept in memory.

`Tracer.install` replaces public functions in the `ilim.*` module
namespaces with timing wrappers and `uninstall` puts the originals back; no
file under src/ changes.  A function is replaced under every name that
refers to it, so a call made inside the package (verify_plevel_alignment
calling arc_records, cli.main calling detect_renormalization) gets its own
span, nested under its caller.  Self time is a span's duration less the
durations of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    phase: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _rows(args, kwargs, out):
    return {"rows": len(out)}


def _scan(args, kwargs, out):
    cloud = args[0] if args else kwargs["cloud"]
    return {"rows": len(cloud), "kept": out}


def _lap_nodes(args, kwargs, out):
    return {"nodes": out.counts[-1]}


def _records(args, kwargs, out):
    return {"records": len(out)}


def _links(args, kwargs, out):
    return {"links": out.n_links}


def _alignment(args, kwargs, out):
    # each record costs one from_deepest, R shifts and one p_level
    return {"checks": out.checks, "point_ops": out.checks * (out.R + 2)}


def _values(args, kwargs, out):
    return {"values": len(out)}


#: (module, function, what to record from the call's result)
TARGETS = (
    ("bowen", "sample_points", _rows),
    ("bowen", "separated_count", _scan),
    ("bowen", "separation_curves", None),
    ("bowen", "itinerary_upper_bound", None),
    ("lap_entropy", "lap_table", _lap_nodes),
    ("lap_entropy", "entropy_lap", None),
    ("lap_entropy", "tent_slope_of_quadratic", None),
    ("inverse_limit", "arc_records", _records),
    ("inverse_limit", "salient_positions", None),
    ("chains", "build_chain", _links),
    ("chains", "mandatory_ok", None),
    ("chains", "refines", None),
    ("chains", "verify_plevel_alignment", _alignment),
    ("renorm", "detect_renormalization", None),
    ("renorm", "entropy_spectrum", _values),
    ("renorm", "spectrum_membership", None),
    ("renorm", "block_model_entropy", None),
    ("cli", "main", None),
)


class Tracer:
    """Records one span per wrapped call; spans stay in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "workload"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, record):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = Span(name, tracer.phase, parent)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child_time += span.duration
            if record is not None:
                span.info = record(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "ilim" or k.startswith("ilim.")]
        for mod_name, fn_name, record in TARGETS:
            orig = getattr(sys.modules[f"ilim.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", orig, record)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- reading the spans --------------------------------------------------

    def select(self, name: str) -> list[Span]:
        """Spans of `name` from the workload's own passes, or else from the probe."""
        own = [s for s in self.spans if s.name == name and s.phase == "workload"]
        return own or [s for s in self.spans if s.name == name and s.phase == "probe"]

    def median(self, name: str, attr: str = "duration") -> float:
        return statistics.median(getattr(s, attr) for s in self.select(name))

    def median_info(self, name: str, key: str) -> float:
        return statistics.median(s.info[key] for s in self.select(name))

    def rate(self, name: str, key: str, per: str = "duration") -> float:
        spans = self.select(name)
        return sum(s.info[key] for s in spans) / sum(getattr(s, per) for s in spans)

    def ratio(self, name: str, num: str, den: str) -> float:
        spans = self.select(name)
        return sum(s.info[num] for s in spans) / sum(s.info[den] for s in spans)

    def count_per_pass(self, name: str, passes: int) -> float:
        spans = self.select(name)
        if spans and spans[0].phase == "probe":
            return float(len(spans))
        return len(spans) / passes

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "phase": s.phase,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self": s.self_time,
                **s.info,
            }
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as (value, unit)."""
    t = tracer
    return {
        "bowen.sample_points_s": (t.median("bowen.sample_points"), "s"),
        "bowen.separated_count_s": (t.median("bowen.separated_count"), "s"),
        "bowen.separation_curves_s": (t.median("bowen.separation_curves"), "s"),
        "bowen.fit_self_s": (t.median("bowen.separation_curves", "self_time"), "s"),
        "bowen.itinerary_upper_bound_s": (t.median("bowen.itinerary_upper_bound"), "s"),
        "bowen.cloud_rows": (t.median_info("bowen.sample_points", "rows"), "count"),
        "bowen.rows_scanned_per_s": (t.rate("bowen.separated_count", "rows"), "1/s"),
        "bowen.kept_ratio": (t.ratio("bowen.separated_count", "kept", "rows"), "ratio"),
        "lap_entropy.lap_table_s": (t.median("lap_entropy.lap_table"), "s"),
        "lap_entropy.tree_nodes": (t.median_info("lap_entropy.lap_table", "nodes"), "count"),
        "lap_entropy.nodes_per_s": (t.rate("lap_entropy.lap_table", "nodes"), "1/s"),
        "lap_entropy.entropy_lap_s": (t.median("lap_entropy.entropy_lap"), "s"),
        "lap_entropy.slope_of_quadratic_s": (t.median("lap_entropy.tent_slope_of_quadratic"), "s"),
        "inverse_limit.arc_records_s": (t.median("inverse_limit.arc_records"), "s"),
        "inverse_limit.records": (t.median_info("inverse_limit.arc_records", "records"), "count"),
        "inverse_limit.records_per_s": (t.rate("inverse_limit.arc_records", "records"), "1/s"),
        "inverse_limit.salient_positions_s": (t.median("inverse_limit.salient_positions"), "s"),
        "inverse_limit.point_ops_per_s": (
            t.rate("chains.verify_plevel_alignment", "point_ops", per="self_time"), "1/s"),
        "chains.build_chain_s": (t.median("chains.build_chain"), "s"),
        "chains.links": (t.median_info("chains.build_chain", "links"), "count"),
        "chains.mandatory_ok_s": (t.median("chains.mandatory_ok"), "s"),
        "chains.refines_s": (t.median("chains.refines"), "s"),
        "chains.verify_plevel_alignment_s": (t.median("chains.verify_plevel_alignment"), "s"),
        "chains.alignment_self_s": (t.median("chains.verify_plevel_alignment", "self_time"), "s"),
        "chains.checks_per_s": (t.rate("chains.verify_plevel_alignment", "checks"), "1/s"),
        "renorm.detect_renormalization_s": (t.median("renorm.detect_renormalization"), "s"),
        "renorm.entropy_spectrum_s": (t.median("renorm.entropy_spectrum"), "s"),
        "renorm.spectrum_membership_s": (t.median("renorm.spectrum_membership"), "s"),
        "renorm.block_model_entropy_s": (t.median("renorm.block_model_entropy"), "s"),
        "renorm.spectrum_values": (t.median_info("renorm.entropy_spectrum", "values"), "count"),
        "cli.main_s": (t.median("cli.main"), "s"),
        "cli.overhead_s": (t.median("cli.main", "self_time"), "s"),
        "cli.commands": (t.count_per_pass("cli.main", passes), "count"),
    }
