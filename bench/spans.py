"""Spans around the benchmark's calls into gallaikit, and the per-layer metrics they give.

Every call an item makes into the program goes through a caller: `direct`
for the untraced passes that end-to-end timings come from, or a `Recorder`
that keeps one span per call (name, start, end, parent span, item id and
the counts read off the result at that boundary) in memory.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple


class Fn(NamedTuple):
    """A program function and its span name, `<layer>.<function>`."""

    name: str
    fn: Callable[..., Any]


class Direct:
    """The untraced caller, which every end-to-end timing uses."""

    def run_item(self, item_id: str, run: Callable[["Direct"], Any]) -> Any:
        return run(self)

    def __call__(self, f: Fn, *args: Any) -> Any:
        return f.fn(*args)


direct = Direct()


def _verdict(out: Any) -> dict[str, int]:
    return {"nodes": out.nodes_visited, out.kind.value: 1}


# Counts read off a call's result where the call returns: (args, result) -> counts.
COUNTERS: dict[str, Callable[[tuple, Any], dict[str, float]]] = {
    "search.search_good_coloring": lambda a, out: _verdict(out),
    "graphs.search_good_edge_coloring": lambda a, out: _verdict(out),
    "grid.verify_good": lambda a, out: {"hit": int(not out.is_good)},
    "grid.find_mono_rectangle": lambda a, out: {"hit": int(out is not None)},
    "grid.find_rainbow_rectangle": lambda a, out: {"hit": int(out is not None)},
    "sat.encode_grid_cnf": lambda a, out: {"vars": out.num_vars, "clauses": len(out.clauses), "r": a[2]},
    "sat.format_dimacs": lambda a, out: {"bytes": len(out.encode())},
    "euclid.verify_triangle_gadget": lambda a, out: {"colorings": out.colorings_checked},
    "euclid.falsify_strip": lambda a, out: {"trials": out.trials},
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str
    counts: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """A caller that records a span around each call; items get a parent span of their own."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._parent: Span | None = None

    def run_item(self, item_id: str, run: Callable[["Recorder"], Any]) -> Any:
        span = Span(len(self.spans), "item", 0.0, 0.0, None, item_id)
        self.spans.append(span)
        self._parent = span
        span.start = time.perf_counter()
        try:
            return run(self)
        finally:
            span.end = time.perf_counter()
            self._parent = None

    def __call__(self, f: Fn, *args: Any) -> Any:
        parent = self._parent
        span = Span(len(self.spans), f.name, 0.0, 0.0, parent.sid if parent else None, parent.item if parent else "")
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = f.fn(*args)
        except Exception as exc:
            span.end = time.perf_counter()
            span.error = type(exc).__name__
            raise
        span.end = time.perf_counter()
        counter = COUNTERS.get(f.name)
        if counter is not None:
            span.counts = counter(args, result)
        return result


def write_spans(path: Path, passes: list[tuple[str, int, list[Span]]]) -> None:
    """Every recorded span as one JSON line, tagged with its workload and traced pass."""
    with path.open("w") as out:
        for workload, index, recorded in passes:
            for span in recorded:
                out.write(json.dumps({"workload": workload, "pass": index, **asdict(span)}) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    own = {s.sid: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the cli.* and trace.* entries come from run.py)."""
    own = self_seconds(spans)
    by_name: dict[str, list[Span]] = {}
    busy: dict[str, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        busy[s.layer] = busy.get(s.layer, 0.0) + own[s.sid]

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str, key: str | None = None) -> float:
        return sum(s.counts.get(key, 0) if key else s.seconds for s in named(name))

    def us(name: str, q: float = 0.5) -> float:
        return percentile([s.seconds * 1e6 for s in named(name)], q)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def rejected(*names: str) -> int:
        return sum(s.error == "CertificateError" for name in names for s in named(name))

    m: dict[str, float] = {}
    for layer, engine, driver in (
        ("search", "search.search_good_coloring", "search.minimal_forcing_m"),
        ("graphs", "graphs.search_good_edge_coloring", "graphs.gallai_ramsey_number"),
    ):
        nodes = total(engine, "nodes")
        m[f"{layer}.calls"] = len(named(engine)) + len(named(driver))
        m[f"{layer}.nodes"] = nodes
        m[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        m[f"{layer}.nodes_per_s"] = rate(nodes, total(engine))
        for verdict in ("found", "exhausted", "budget"):
            m[f"{layer}.{verdict}"] = total(engine, verdict)
    for name in ("find_rainbow_triangle", "find_mono_subgraph", "format_edge_coloring", "parse_edge_coloring"):
        m[f"graphs.{name}.p50_us"] = us(f"graphs.{name}")
    m["graphs.rejected"] = rejected("graphs.parse_edge_coloring")

    detectors = ("grid.verify_good", "grid.find_mono_rectangle", "grid.find_rainbow_rectangle")
    detector_calls = sum(len(named(name)) for name in detectors)
    m["grid.verify_good.calls"] = len(named("grid.verify_good"))
    m["grid.verify_good.p50_us"] = us("grid.verify_good")
    m["grid.verify_good.p99_us"] = us("grid.verify_good", 0.99)
    m["grid.find_mono_rectangle.p50_us"] = us("grid.find_mono_rectangle")
    m["grid.find_rainbow_rectangle.p50_us"] = us("grid.find_rainbow_rectangle")
    m["grid.detector_hit_ratio"] = rate(sum(total(name, "hit") for name in detectors), detector_calls)
    m["grid.format_grid_certificate.p50_us"] = us("grid.format_grid_certificate")
    m["grid.parse_grid_certificate.p50_us"] = us("grid.parse_grid_certificate")
    m["grid.rejected"] = rejected("grid.parse_grid_certificate")
    m["grid.busy_s"] = busy.get("grid", 0.0)

    encodes = named("sat.encode_grid_cnf")
    clauses = total("sat.encode_grid_cnf", "clauses")
    m["sat.encode_grid_cnf.busy_s"] = total("sat.encode_grid_cnf")
    for suffix, wanted in (("r_lt4", lambda r: r < 4), ("r_ge4", lambda r: r >= 4)):
        m[f"sat.vars.{suffix}"] = sum(s.counts["vars"] for s in encodes if wanted(s.counts["r"]))
        m[f"sat.clauses.{suffix}"] = sum(s.counts["clauses"] for s in encodes if wanted(s.counts["r"]))
    m["sat.clauses_per_s"] = rate(clauses, total("sat.encode_grid_cnf"))
    m["sat.format_dimacs.busy_s"] = total("sat.format_dimacs")
    m["sat.dimacs_bytes"] = total("sat.format_dimacs", "bytes")
    m["sat.parse_dimacs.busy_s"] = total("sat.parse_dimacs")
    m["sat.check_model_against_cnf.busy_s"] = total("sat.check_model_against_cnf")
    m["sat.decode_model.busy_s"] = total("sat.decode_model")
    m["sat.rejected"] = rejected("sat.parse_dimacs")

    colorings = total("euclid.verify_triangle_gadget", "colorings")
    trials = total("euclid.falsify_strip", "trials")
    m["euclid.verify_triangle_gadget.busy_s"] = total("euclid.verify_triangle_gadget")
    m["euclid.gadget.colorings"] = colorings
    m["euclid.gadget.colorings_per_s"] = rate(colorings, total("euclid.verify_triangle_gadget"))
    m["euclid.falsify_strip.busy_s"] = total("euclid.falsify_strip")
    m["euclid.strip.trials"] = trials
    m["euclid.strip.trials_per_s"] = rate(trials, total("euclid.falsify_strip"))
    m["euclid.congruent.calls"] = len(named("euclid.congruent"))
    m["euclid.congruent.p50_us"] = us("euclid.congruent")
    m["euclid.grid_lattice_embedding.busy_s"] = total("euclid.grid_lattice_embedding")
    m["euclid.affine_rank.busy_s"] = total("euclid.affine_rank")
    m["euclid.rainbow_segment.p50_us"] = us("euclid.rainbow_segment")
    m["euclid.parse_configuration.busy_s"] = total("euclid.parse_configuration")

    m["trace.spans"] = len(spans)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
