"""The four workloads: their items, their CLI commands and the truth each is checked against.

An item is a closed sequence of calls into gallaikit (the timed part) plus
an independent check of what those calls returned.  Inputs come from the
seed alone; anything the program could answer for itself (witnesses,
truth, models, malformed files) is prepared by this file and `oracle`.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import oracle
from oracle import Cells
from spans import Fn

Call = Callable[..., Any]
Check = Callable[[Any], "str | None"]

LAYERS = ("grid", "search", "sat", "graphs", "euclid")


class Api(SimpleNamespace):
    """The program's layer modules as attributes; `fn` names a function for spans."""

    def fn(self, name: str) -> Fn:
        layer, attr = name.split(".")
        return Fn(name, getattr(getattr(self, layer), attr))


@dataclass
class Item:
    id: str
    run: Callable[[Call], Any]
    check: Check


@dataclass
class Command:
    """One CLI invocation; `check` judges (exit code, stdout) and any file it wrote."""

    args: list[str]
    check: Callable[[int, str], "str | None"]


@dataclass
class Workload:
    items: list[Item]
    commands: list[Command]
    reference: str = "python"  # the loop solve time is counted in: a key of timing.REFERENCES

    @property
    def setup_args(self) -> list[str]:
        return [self.commands[0].args[0], "--version"]


def expect(pattern: str, then: Callable[[], "str | None"] | None = None) -> Callable[[int, str], "str | None"]:
    """A command check: exit code 0, stdout matching pattern, then an optional file check."""

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if not re.fullmatch(pattern, stdout.strip()):
            return f"stdout {stdout.strip()!r} does not match {pattern!r}"
        return then() if then else None

    return check


def good_grid_problem(n: int, m: int, r: int, cells: Cells) -> str | None:
    if len(cells) != n or any(len(row) != m or not all(1 <= c <= r for c in row) for row in cells):
        return f"witness is not an {n}x{m} {r}-coloring"
    if any(oracle.grid_defects(cells)):
        return "witness has a monochromatic or rainbow rectangle"
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------ grid-search


def forcing_item(api: Api, n: int, r: int, m_max: int) -> Item:
    f = api.fn("search.minimal_forcing_m")
    want = oracle.minimal_forcing_r2(n, m_max)
    return Item(
        f"minimal_forcing_m({n},{r},{m_max})",
        lambda call: call(f, n, r, m_max),
        lambda got: None if got == want else f"got {got}, OBS_2 gives {want}",
    )


def grid_search_item(api: Api, n: int, m: int, r: int, budget: int | None, known) -> Item:
    f = api.fn("search.search_good_coloring")
    opts = api.search.SearchOptions(node_budget=budget)
    exists = oracle.good_grid_exists(n, m, r, known)

    def check(out: Any) -> str | None:
        kind = out.kind.value
        if kind == "found":
            return good_grid_problem(n, m, r, out.witness.cells)
        if kind == "exhausted":
            return None if exists is False else f"exhausted, but a good {n}x{m} {r}-coloring exists"
        if kind == "budget":
            return None if budget else "budget verdict without a node budget"
        return f"unknown verdict {kind!r}"

    return Item(f"grid {n}x{m} r={r} budget={budget}", lambda call: call(f, n, m, r, opts), check)


def grid_search(api: Api, rng: random.Random, seed: int, quick: bool, workdir: Path) -> Workload:
    known = oracle.load_good_grids()
    forcing = (3,) if quick else (3, 5)
    instances = (
        [(4, 6, 2, None), (4, 5, 4, None), (4, 10, 3, 2_000)]
        if quick
        else [(5, 7, 3, None), (4, 9, 3, None), (5, 10, 4, None), (4, 10, 3, 500_000)]
    )
    items = [forcing_item(api, n, 2, 10) for n in forcing]
    items += [grid_search_item(api, n, m, r, budget, known) for n, m, r, budget in instances]
    rng.shuffle(items)

    n, m, r = (4, 5, 4) if quick else (5, 10, 4)
    out = workdir / "found.cert"

    def witness_in_file() -> str | None:
        try:
            fn, fm, fr, cells = oracle.read_grid_text(out.read_text())
        except (OSError, ValueError) as exc:
            return f"{out.name}: {exc}"
        return good_grid_problem(n, m, r, cells) if (fn, fm, fr) == (n, m, r) else "witness shape"

    commands = [
        Command(["grid-search", "3", "7", "2"], expect(r"outcome exhausted 3 7 2 nodes=\d+")),
        Command(
            ["grid-search", str(n), str(m), str(r), "--out", str(out)],
            expect(rf"outcome found {n} {m} {r} nodes=\d+", witness_in_file),
        ),
    ]
    return Workload(items, commands)


# ------------------------------------------------------------ edge-search


def edge_colors(ec: Any) -> dict[tuple[int, int], int]:
    return {(u, v): c for u, v, c in ec.pairs()}


def edge_search_item(api: Api, target: str, t: int, r: int, budget: int | None) -> Item:
    f = api.fn("graphs.search_good_edge_coloring")
    opts = api.search.SearchOptions(node_budget=budget, worker_hint=nproc())
    gr = oracle.gr_number(target, r)

    def check(out: Any) -> str | None:
        kind = out.kind.value
        if kind == "found":
            w = out.witness
            colors = edge_colors(w)
            if (w.t, w.r) != (t, r) or len(colors) != t * (t - 1) // 2:
                return f"witness is not an {r}-coloring of K{t}"
            rainbow, c4, p4 = oracle.edge_defects(t, colors)
            if rainbow or (c4 if target == "C4" else p4):
                return f"witness has a rainbow triangle or a monochromatic {target}"
            return None
        if kind == "exhausted":
            return None if t >= gr else f"exhausted K{t}, below gr={gr}"
        if kind == "budget":
            return None if budget else "budget verdict without a node budget"
        return f"unknown verdict {kind!r}"

    return Item(f"K{t} {target} r={r} budget={budget}", lambda call: call(f, t, r, target, opts), check)


def gr_item(api: Api, target: str, k: int, t_max: int) -> Item:
    f = api.fn("graphs.gallai_ramsey_number")
    opts = api.search.SearchOptions(worker_hint=nproc())
    want = oracle.gr_number(target, k)
    return Item(
        f"gallai_ramsey_number({target},{k},{t_max})",
        lambda call: call(f, target, k, t_max, opts),
        lambda got: None if got == want else f"got {got}, the closed form gives {want}",
    )


def edge_search(api: Api, rng: random.Random, seed: int, quick: bool, workdir: Path) -> Workload:
    if quick:
        instances = [("P4", 6, 3, None), ("C4", 6, 3, None), ("C4", 7, 3, 3_000)]
        gr_args, c4_k, p4_k = ("C4", 2, 8), 2, 2
    else:
        instances = [("P4", 9, 6, None), ("C4", 8, 5, None), ("C4", 8, 4, 500_000)]
        gr_args, c4_k, p4_k = ("C4", 3, 8), 3, 5
    items = [edge_search_item(api, *spec) for spec in instances] + [gr_item(api, *gr_args)]
    rng.shuffle(items)
    commands = [
        Command(["gr-search", "c4", str(c4_k)], expect(f"gr={oracle.gr_number('C4', c4_k)}")),
        Command(
            ["gr-search", "p4", str(p4_k), "--tmax", "8", "--workers", "2"],
            expect(f"gr={oracle.gr_number('P4', p4_k)}"),
        ),
    ]
    return Workload(items, commands)


# ---------------------------------------------------------------- certify


def rect_problem(cells: Cells, rect: Any, exists: bool, test: Callable[[tuple], bool], what: str) -> str | None:
    if rect is None:
        return f"missed a {what} rectangle" if exists else None
    if not exists:
        return f"reported a {what} rectangle where there is none"
    if not test(oracle.corner_colors(cells, rect.i, rect.i2, rect.j, rect.j2)):
        return f"reported rectangle {rect} is not {what}"
    return None


def grid_item(api: Api, item_id: str, n: int, m: int, r: int, cells: Cells) -> Item:
    g = api.grid.GridColoring(n, m, r, [list(row) for row in cells])
    verify, mono_f, rainbow_f = (api.fn(f"grid.{x}") for x in ("verify_good", "find_mono_rectangle", "find_rainbow_rectangle"))
    fmt, parse = api.fn("grid.format_grid_certificate"), api.fn("grid.parse_grid_certificate")
    mono, rainbow = oracle.grid_defects(cells)

    def run(call: Call) -> tuple:
        text = call(fmt, g)
        return call(verify, g), call(mono_f, g), call(rainbow_f, g), text, call(parse, text)

    def check(got: tuple) -> str | None:
        report, mono_rect, rainbow_rect, text, parsed = got
        problems = (
            None if report.is_good == (not mono and not rainbow) else "verify_good verdict",
            rect_problem(cells, report.mono_witness, mono, oracle.is_mono, "monochromatic"),
            rect_problem(cells, report.rainbow_witness, rainbow, oracle.is_rainbow, "rainbow"),
            rect_problem(cells, mono_rect, mono, oracle.is_mono, "monochromatic"),
            rect_problem(cells, rainbow_rect, rainbow, oracle.is_rainbow, "rainbow"),
            None if text == oracle.grid_text(n, m, r, cells) else "formatted certificate",
            None if (parsed.n, parsed.m, parsed.r, parsed.cells) == (n, m, r, cells) else "parsed certificate",
        )
        return next((p for p in problems if p), None)

    return Item(item_id, run, check)


def kgraph_item(api: Api, item_id: str, t: int, r: int, colors: oracle.EdgeColors) -> Item:
    ec = api.graphs.EdgeColoring(t, r, colors)
    tri, sub = api.fn("graphs.find_rainbow_triangle"), api.fn("graphs.find_mono_subgraph")
    fmt, parse = api.fn("graphs.format_edge_coloring"), api.fn("graphs.parse_edge_coloring")
    rainbow, c4, p4 = oracle.edge_defects(t, colors)

    def run(call: Call) -> tuple:
        text = call(fmt, ec)
        return call(tri, ec), call(sub, ec, "C4"), call(sub, ec, "P4"), text, call(parse, text)

    def found_problem(w: Any, exists: bool, test: Callable[..., bool], what: str) -> str | None:
        if w is None:
            return f"missed a {what}" if exists else None
        if not exists or not test(colors, *w.vertices):
            return f"reported {what} {w.vertices} is not one"
        return None

    def check(got: tuple) -> str | None:
        tri_w, c4_w, p4_w, text, parsed = got
        problems = (
            found_problem(tri_w, rainbow, oracle.rainbow_triangle, "rainbow triangle"),
            found_problem(c4_w, c4, lambda cs, *v: oracle.mono_cycle(cs, v), "monochromatic C4"),
            found_problem(p4_w, p4, lambda cs, *v: oracle.mono_path(cs, v), "monochromatic P4"),
            None if text == oracle.kgraph_text(t, r, colors) else "formatted certificate",
            None if (parsed.t, parsed.r, edge_colors(parsed)) == (t, r, colors) else "parsed certificate",
        )
        return next((p for p in problems if p), None)

    return Item(item_id, run, check)


def grid_model(api: Api, n: int, m: int, r: int, cells: Cells) -> dict[int, bool]:
    """The assignment that encodes cells: color variables, and selectors true on equal cells."""
    color_var, selector_var = api.sat.color_var, api.sat.selector_var
    flat = [c for row in cells for c in row]
    model = {
        color_var(m, r, i + 1, j + 1, c): cells[i][j] == c
        for i in range(n)
        for j in range(m)
        for c in range(1, r + 1)
    }
    for p, q in combinations(range(1, n * m + 1), 2):
        model[selector_var(n, m, r, p, q)] = flat[p - 1] == flat[q - 1]
    return model


def cnf_item(api: Api, n: int, m: int, r: int, cells: Cells, bad: Cells) -> Item:
    encode, fmt, parse = (api.fn(f"sat.{x}") for x in ("encode_grid_cnf", "format_dimacs", "parse_dimacs"))
    check_f, decode = api.fn("sat.check_model_against_cnf"), api.fn("sat.decode_model")
    good_model, bad_model = grid_model(api, n, m, r, cells), grid_model(api, n, m, r, bad)

    def run(call: Call) -> tuple:
        cnf = call(encode, n, m, r)
        text = call(fmt, cnf)
        parsed = call(parse, text)
        ok = call(check_f, parsed, good_model)
        rejected = call(check_f, parsed, bad_model)
        return cnf, text, parsed, ok, rejected, call(decode, n, m, r, good_model)

    def check(got: tuple) -> str | None:
        cnf, text, parsed, ok, rejected, decoded = got
        try:
            own = oracle.read_dimacs(text)
            good_sat = oracle.satisfies(parsed.clauses, good_model)
            bad_sat = oracle.satisfies(parsed.clauses, bad_model)
        except (KeyError, ValueError) as exc:
            return f"DIMACS text or variables out of range: {exc!r}"
        problems = (
            None if own == (cnf.num_vars, cnf.clauses) else "formatted DIMACS",
            None if (parsed.num_vars, parsed.clauses) == own else "parsed DIMACS",
            None if ok is True and good_sat else "model of a good coloring rejected",
            None if rejected is False and not bad_sat else "model of a bad coloring accepted",
            None if decoded.cells == cells else "decoded coloring",
        )
        return next((p for p in problems if p), None)

    return Item(f"cnf {n}x{m} r={r}", run, check)


def malformed_item(api: Api, item_id: str, parser: str, text: str) -> Item:
    f = api.fn(parser)
    error = api.grid.CertificateError

    def run(call: Call) -> Any:
        try:
            return call(f, text)
        except error:
            return error

    return Item(item_id, run, lambda got: None if got is error else "malformed file accepted")


def malformed_texts(rng: random.Random, known: dict) -> list[tuple[str, str, str]]:
    """(id, parser, text): truncated, out of order, and headers promising more than the file holds."""
    (n, m, r), cells = rng.choice(sorted(known.items()))
    grid_lines = oracle.grid_text(n, m, r, oracle.shuffle_grid(rng, cells, r)).splitlines(keepends=True)
    t = rng.randint(5, 8)
    k_lines = oracle.kgraph_text(t, 3, oracle.random_edge_coloring(rng, t, 3)).splitlines(keepends=True)
    swap = rng.randrange(1, len(k_lines) - 1)
    k_swapped = k_lines[:swap] + [k_lines[swap + 1], k_lines[swap]] + k_lines[swap + 2 :]
    nvars = rng.randint(5, 12)
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, nvars) for _ in range(3)] for _ in range(rng.randint(4, 9))]
    body = ["".join(f"{lit} " for lit in c) + "0\n" for c in clauses]
    return [
        ("grid truncated", "grid.parse_grid_certificate", "".join(grid_lines[:-1])),
        ("grid header n+1", "grid.parse_grid_certificate", f"grid {n + 1} {m} {r}\n" + "".join(grid_lines[1:])),
        ("kgraph truncated", "graphs.parse_edge_coloring", "".join(k_lines[:-1])),
        ("kgraph out of order", "graphs.parse_edge_coloring", "".join(k_swapped)),
        ("kgraph header t+1", "graphs.parse_edge_coloring", f"kgraph {t + 1} 3\n" + "".join(k_lines[1:])),
        ("dimacs truncated", "sat.parse_dimacs", f"p cnf {nvars} {len(clauses)}\n" + "".join(body[:-1])),
        ("dimacs header +3", "sat.parse_dimacs", f"p cnf {nvars} {len(clauses) + 3}\n" + "".join(body)),
    ]


def certify(api: Api, rng: random.Random, seed: int, quick: bool, workdir: Path) -> Workload:
    known = oracle.load_good_grids()
    random_sizes = [(6, 6, 4), (8, 8, 3)] if quick else [(6, 6, 4), (8, 8, 3), (5, 10, 4), (7, 7, 2)]
    per_size, images = (3, 2) if quick else (24, 8)
    items = []
    for n, m, r in random_sizes:
        for k in range(per_size):
            items.append(grid_item(api, f"random grid {n}x{m} r={r} #{k}", n, m, r, oracle.random_grid(rng, n, m, r)))
    for (n, m, r), cells in sorted(known.items())[: 2 if quick else None]:
        for k in range(images):
            items.append(grid_item(api, f"good grid {n}x{m} r={r} #{k}", n, m, r, oracle.shuffle_grid(rng, cells, r)))

    for t in range(6, 8 if quick else 13):
        for k in range(2):
            items.append(kgraph_item(api, f"random K{t} #{k}", t, 3, oracle.random_edge_coloring(rng, t, 3)))
            items.append(kgraph_item(api, f"gallai K{t} #{k}", t, 4, oracle.gallai_edge_coloring(rng, t, 4)))

    cnf_sizes = [(4, 6, 2), (4, 5, 4)] if quick else [(4, 6, 2), (5, 7, 3), (4, 9, 3), (6, 6, 4), (5, 10, 4)]
    for n, m, r in cnf_sizes:
        bad = oracle.random_grid(rng, n, m, r)
        while not any(oracle.grid_defects(bad)):
            bad = oracle.random_grid(rng, n, m, r)
        items.append(cnf_item(api, n, m, r, oracle.shuffle_grid(rng, known[(n, m, r)], r), bad))

    items += [malformed_item(api, *spec) for spec in malformed_texts(rng, known)]
    rng.shuffle(items)

    n, m, r = (4, 6, 2) if quick else (6, 6, 4)
    cnf_file, model_file, cert_file = workdir / "grid.cnf", workdir / "grid.model", workdir / "good.cert"
    model = grid_model(api, n, m, r, oracle.shuffle_grid(rng, known[(n, m, r)], r))
    model_file.write_text(oracle.model_text(model))
    vn, vm, vr = (4, 6, 2) if quick else (5, 10, 4)
    cert_file.write_text(oracle.grid_text(vn, vm, vr, oracle.shuffle_grid(rng, known[(vn, vm, vr)], vr)))

    def exported_cnf_holds_model() -> str | None:
        try:
            _, clauses = oracle.read_dimacs(cnf_file.read_text())
            return None if oracle.satisfies(clauses, model) else "the model of a good coloring violates the export"
        except (OSError, KeyError, ValueError) as exc:
            return f"{cnf_file.name}: {exc!r}"

    commands = [
        Command(
            ["sat-export", str(n), str(m), str(r), "--out", str(cnf_file)],
            expect(rf"cnf {n} {m} {r} vars=\d+ clauses=\d+", exported_cnf_holds_model),
        ),
        Command(["sat-check", str(cnf_file), "--model", str(model_file)], expect(r"model ok vars=\d+ clauses=\d+")),
        Command(["grid-verify", str(cert_file)], expect(f"good {vn} {vm} {vr}")),
    ]
    return Workload(items, commands)


# --------------------------------------------------------------- geometry


def close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)


def gadget_item(api: Api) -> Item:
    f = api.fn("euclid.verify_triangle_gadget")

    def check(rep: Any) -> str | None:
        if (rep.holds, rep.colorings_checked, rep.triple_count, rep.first_uncovered) == (
            True, oracle.GADGET_COLORINGS, oracle.GADGET_TRIPLES, None,
        ):
            return None
        return f"gadget report {rep}"

    return Item("verify_triangle_gadget", lambda call: call(f), check)


def strip_item(api: Api, b: float, trials: int, seed: int) -> Item:
    f = api.fn("euclid.falsify_strip")

    def check(rep: Any) -> str | None:
        ok = (rep.trials, rep.mono_hits, rep.rainbow_hits) == (trials, 0, 0)
        return None if ok else f"strip 3x1x{b}: {rep}"

    return Item(f"falsify_strip(3,1,{b})", lambda call: call(f, 3, 1.0, b, trials, seed), check)


def lattice_item(api: Api, r: int, a: float, b: float) -> Item:
    build, rank = api.fn("euclid.grid_lattice_embedding"), api.fn("euclid.affine_rank")

    def run(call: Call) -> tuple:
        emb = call(build, r, a, b)
        config = call(Fn("euclid.LatticeEmbedding.configuration", emb.configuration))
        return emb, config, call(rank, config)

    def check(got: tuple) -> str | None:
        emb, config, got_rank = got
        rows, cols = 2 * r + 5, 11 * r + 1
        if (emb.rows, emb.cols, len(config), got_rank) != (rows, cols, rows * cols, 13 * r + 4):
            return f"lattice r={r}: {emb.rows}x{emb.cols}, {len(config)} points, affine rank {got_rank}"
        origin = emb.point(1, 1).coords
        for i in range(1, rows + 1):
            for j in range(1, cols + 1):
                want = math.hypot(a if i > 1 else 0.0, b if j > 1 else 0.0)
                if not close(math.dist(origin, emb.point(i, j).coords), want):
                    return f"lattice r={r}: point ({i},{j}) is not at distance {want} from (1,1)"
        return None

    return Item(f"lattice r={r}", run, check)


def congruent_item(api: Api, item_id: str, rect: Any, ref: Any, wrong: Any) -> Item:
    f = api.fn("euclid.congruent")
    coords = {p.label: p.coords for p in (*rect.points, *ref.points)}

    def check(got: tuple) -> str | None:
        mapping, none = got
        if none is not None:
            return "matched a rectangle of other shape"
        if mapping is None or sorted(mapping.values()) != sorted(p.label for p in ref.points):
            return "missed a congruent rectangle"
        for x, y in combinations(mapping, 2):
            if not close(math.dist(coords[x], coords[y]), math.dist(coords[mapping[x]], coords[mapping[y]])):
                return f"mapping {mapping} does not preserve distances"
        return None

    return Item(item_id, lambda call: (call(f, rect, ref), call(f, rect, wrong)), check)


def segment_item(api: Api, item_id: str, color: Callable, d: float, c: tuple, dpt: tuple) -> Item:
    f = api.fn("euclid.rainbow_segment")

    def check(res: Any) -> str | None:
        if not close(math.dist(res.p, res.q), d):
            return f"segment length {math.dist(res.p, res.q)}, wanted {d}"
        return None if color(*res.p) != color(*res.q) else "segment ends share a color"

    return Item(item_id, lambda call: call(f, color, d, c, dpt), check)


def config_item(api: Api, rng: random.Random, count: int, dim: int) -> Item:
    fmt, parse = api.fn("euclid.format_configuration"), api.fn("euclid.parse_configuration")
    points = [(f"p{k}", tuple(rng.uniform(-10, 10) for _ in range(dim))) for k in range(count)]
    config = api.euclid.Configuration(api.euclid.LabeledPoint(label, xs) for label, xs in points)

    def check(parsed: Any) -> str | None:
        got = [(p.label, p.coords) for p in parsed.points]
        return None if got == points else "configuration round trip changed the points"

    return Item(f"configuration {count}x{dim}", lambda call: call(parse, call(fmt, config)), check)


def geometry(api: Api, rng: random.Random, seed: int, quick: bool, workdir: Path) -> Workload:
    trials = 10_000 if quick else 1_000_000
    items = [gadget_item(api), strip_item(api, rng.uniform(1.0, math.sqrt(3)), trials, seed)]
    for r in (1,) if quick else (1, 2, 3):
        items.append(lattice_item(api, r, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)))

    a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    emb = api.euclid.grid_lattice_embedding(2, a, b)
    ref, wrong = api.euclid.planar_rectangle(a, b), api.euclid.planar_rectangle(a, 1.25 * b)
    for k in range(10 if quick else 200):
        i, i2 = sorted(rng.sample(range(1, emb.rows + 1), 2))
        j, j2 = sorted(rng.sample(range(1, emb.cols + 1), 2))
        rect = emb.rectangle_configuration(i, i2, j, j2)
        items.append(congruent_item(api, f"congruent ({i},{i2},{j},{j2}) #{k}", rect, ref, wrong))

    for k in range(10 if quick else 300):
        width = rng.uniform(0.5, 2.0)
        color = oracle.strip_oracle(3, width) if k % 2 else (lambda x, y: 1 if x < 0.0 else 2)
        c = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        dpt = c
        while color(*dpt) == color(*c):
            dpt = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        items.append(segment_item(api, f"rainbow_segment #{k}", color, rng.uniform(0.2, 1.5), c, dpt))

    items.append(config_item(api, rng, 20 if quick else 400, 8 if quick else 40))
    rng.shuffle(items)
    commands = [
        Command(["gadget-verify"], expect(f"gadget holds=true colorings={oracle.GADGET_COLORINGS} triples={oracle.GADGET_TRIPLES}")),
        Command(["strip-falsify", "3", "1", "1.7", "--trials", str(trials), "--seed", str(seed)], expect("mono=0 rainbow=0")),
    ]
    return Workload(items, commands, reference="numpy")


BUILDERS = {"grid-search": grid_search, "edge-search": edge_search, "certify": certify, "geometry": geometry}


def build(name: str, api: Api, seed: int, quick: bool, workdir: Path) -> Workload:
    return BUILDERS[name](api, random.Random(f"{name}/{seed}"), seed, quick, workdir)
