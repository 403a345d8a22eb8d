"""Command-line front end.

Every capability is exposed as a subcommand with a deterministic one-line
stdout summary; machine-readable artifacts are written only through --out
files.  Exit codes: 0 for verified/found-as-expected, 1 when a property is
violated or a sought object is not determined, 2 for usage and format
errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import __version__

if TYPE_CHECKING:
    from .search import SearchOptions


class CommandResult(NamedTuple):
    """Outcome of one CLI invocation."""

    exit_code: int
    summary: str


# Each handler imports the layers it runs when it runs, so a command loads only
# those layers: --version and --help load none, the combinatorial commands never
# load euclid or numpy, and only the geometry commands do.
def _options(args: argparse.Namespace) -> SearchOptions:
    from .search import SearchOptions

    return SearchOptions(node_budget=args.budget, worker_hint=args.workers)


def _cmd_grid_search(args: argparse.Namespace) -> CommandResult:
    from .search import Outcome, format_search_certificate, search_good_coloring

    out = search_good_coloring(args.n, args.m, args.r, _options(args))
    text = format_search_certificate(out, args.n, args.m, args.r)
    if args.out:
        Path(args.out).write_text(text)
    code = 0 if out.kind in (Outcome.FOUND, Outcome.EXHAUSTED) else 1
    return CommandResult(code, text.partition("\n")[0])


def _cmd_grid_verify(args: argparse.Namespace) -> CommandResult:
    from .grid import CertificateError, parse_grid_certificate, verify_good
    from .search import Outcome, parse_search_certificate

    text = Path(args.file).read_text()
    first = text.split(None, 1)[0] if text.strip() else ""
    if first == "outcome":
        out, _, _, _ = parse_search_certificate(text)
        if out.kind is not Outcome.FOUND:
            return CommandResult(2, f"error: certificate outcome is {out.kind.value}; no coloring to verify")
        coloring = out.witness
    elif first == "grid":
        coloring = parse_grid_certificate(text)
    else:
        raise CertificateError("unrecognized certificate header")
    assert coloring is not None
    report = verify_good(coloring)
    if report.is_good:
        return CommandResult(0, f"good {coloring.n} {coloring.m} {coloring.r}")
    parts = []
    if report.mono_witness is not None:
        w = report.mono_witness
        parts.append(f"mono={w.i},{w.i2},{w.j},{w.j2}")
    if report.rainbow_witness is not None:
        w = report.rainbow_witness
        parts.append(f"rainbow={w.i},{w.i2},{w.j},{w.j2}")
    return CommandResult(1, "bad " + " ".join(parts))


def _cmd_sat_export(args: argparse.Namespace) -> CommandResult:
    from .sat import encode_grid_cnf, format_dimacs

    cnf = encode_grid_cnf(args.n, args.m, args.r)
    Path(args.out).write_text(format_dimacs(cnf))
    summary = f"cnf {args.n} {args.m} {args.r} vars={cnf.num_vars} clauses={len(cnf.clauses)}"
    return CommandResult(0, summary)


def _cmd_sat_check(args: argparse.Namespace) -> CommandResult:
    from .sat import check_model_against_cnf, parse_dimacs, parse_model_text

    cnf = parse_dimacs(Path(args.file).read_text())
    assignment = parse_model_text(Path(args.model).read_text())
    if check_model_against_cnf(cnf, assignment):
        return CommandResult(0, f"model ok vars={cnf.num_vars} clauses={len(cnf.clauses)}")
    return CommandResult(1, "model violates formula")


def _cmd_gr_search(args: argparse.Namespace) -> CommandResult:
    from .graphs import format_edge_coloring, gallai_ramsey_scan
    from .search import Undecided

    target = args.target.upper()
    tmax = args.tmax if args.tmax is not None else args.r + 5
    try:
        value, good = gallai_ramsey_scan(target, args.r, tmax, _options(args))
    except Undecided as exc:
        return CommandResult(1, f"gr=undecided t={exc.size}")
    if value is None:
        return CommandResult(1, f"gr=none tmax={tmax}")
    if args.out:
        # the good K_{gr-1} coloring that shows gr is not smaller
        Path(args.out).write_text(format_edge_coloring(good))
    return CommandResult(0, f"gr={value}")


def _cmd_embed_lattice(args: argparse.Namespace) -> CommandResult:
    from .euclid import affine_rank, format_configuration, grid_lattice_embedding

    emb = grid_lattice_embedding(args.r, args.a, args.b)
    config = emb.configuration()
    rank = affine_rank(config)
    summary = (
        f"lattice r={args.r} rows={emb.rows} cols={emb.cols} "
        f"points={len(config)} ambient={config.dim} affine_rank={rank}"
    )
    if args.out:
        Path(args.out).write_text(format_configuration(config))
    return CommandResult(0, summary)


def _cmd_embed_simplex(args: argparse.Namespace) -> CommandResult:
    from .euclid import format_configuration, simplex_midpoint_embedding

    emb = simplex_midpoint_embedding(args.t)
    config = emb.configuration()
    summary = f"simplex t={args.t} points={len(config)} dim={config.dim}"
    if args.out:
        Path(args.out).write_text(format_configuration(config))
    return CommandResult(0, summary)


def _cmd_gadget_verify(args: argparse.Namespace) -> CommandResult:
    from .euclid import verify_triangle_gadget

    report = verify_triangle_gadget()
    summary = (
        f"gadget holds={'true' if report.holds else 'false'} "
        f"colorings={report.colorings_checked} triples={report.triple_count}"
    )
    return CommandResult(0 if report.holds else 1, summary)


def _cmd_strip_falsify(args: argparse.Namespace) -> CommandResult:
    from .euclid import falsify_strip

    report = falsify_strip(args.r, args.a, args.b, args.trials, args.seed)
    summary = f"mono={report.mono_hits} rainbow={report.rainbow_hits}"
    code = 0 if report.mono_hits == 0 and report.rainbow_hits == 0 else 1
    return CommandResult(code, summary)


def _cmd_rainbow_segment(args: argparse.Namespace) -> CommandResult:
    from .euclid import halfplane_oracle, rainbow_segment, strip_oracle

    if args.oracle == "halfplane":
        oracle = halfplane_oracle
    else:
        oracle = strip_oracle(args.strip_r, args.strip_a)
    res = rainbow_segment(oracle, args.d, (args.cx, args.cy), (args.dx, args.dy))
    ca, cb = oracle(*res.p), oracle(*res.q)
    dist = math.dist(res.p, res.q)
    summary = (
        f"p=({res.p[0]!r},{res.p[1]!r}) q=({res.q[0]!r},{res.q[1]!r}) "
        f"d={dist!r} colors=({ca},{cb}) iterations={res.iterations}"
    )
    return CommandResult(0, summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gallaikit",
        description="Search and verify colorings avoiding monochromatic and rainbow configurations.",
    )
    parser.add_argument("--version", action="version", version=f"gallaikit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_version(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--version", action="version", version=f"gallaikit {__version__}")
        return p

    # the search options shared by grid-search and gr-search
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--budget", type=int, default=None, help="max decision nodes per search")
    search.add_argument(
        "--workers",
        type=int,
        default=None,
        help="accepted and ignored: every search runs in one process",
    )

    p = with_version(sub.add_parser("grid-search", parents=[search], help="search for a good n x m r-coloring"))
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--out", default=None, help="write a search certificate here")
    p.set_defaults(handler=_cmd_grid_search)

    p = with_version(sub.add_parser("grid-verify", help="verify a grid or search certificate"))
    p.add_argument("file")
    p.set_defaults(handler=_cmd_grid_verify)

    p = with_version(sub.add_parser("sat-export", help="emit a DIMACS encoding of the instance"))
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--out", required=True, help="output DIMACS file")
    p.set_defaults(handler=_cmd_sat_export)

    p = with_version(sub.add_parser("sat-check", help="check a solver model against a DIMACS file"))
    p.add_argument("file")
    p.add_argument("--model", required=True, help="model file (v-line style signed integers)")
    p.set_defaults(handler=_cmd_sat_check)

    p = with_version(sub.add_parser("gr-search", parents=[search], help="compute a small Gallai-Ramsey number"))
    p.add_argument("target", choices=["c4", "p4"])
    p.add_argument("r", type=int)
    p.add_argument("--tmax", type=int, default=None, help="largest t to try (default r+5)")
    p.add_argument("--out", default=None, help="write the good K_{gr-1} coloring here (kgraph format)")
    p.set_defaults(handler=_cmd_gr_search)

    p = with_version(sub.add_parser("embed", help="build one of the point-family embeddings"))
    emb_sub = p.add_subparsers(dest="embedding", required=True)
    pl = with_version(emb_sub.add_parser("lattice", help="grid points in 13r+6 ambient coordinates"))
    pl.add_argument("r", type=int)
    pl.add_argument("a", type=float)
    pl.add_argument("b", type=float)
    pl.add_argument("--out", default=None, help="write the configuration file here")
    pl.set_defaults(handler=_cmd_embed_lattice)
    ps = with_version(emb_sub.add_parser("simplex", help="vertex-pair midpoint family for K_t"))
    ps.add_argument("t", type=int)
    ps.add_argument("--out", default=None, help="write the configuration file here")
    ps.set_defaults(handler=_cmd_embed_simplex)

    p = with_version(sub.add_parser("gadget-verify", help="enumerate the nine-point gadget colorings"))
    p.set_defaults(handler=_cmd_gadget_verify)

    p = with_version(sub.add_parser("strip-falsify", help="Monte-Carlo attack on the strip coloring"))
    p.add_argument("r", type=int)
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_strip_falsify)

    p = with_version(sub.add_parser("rainbow-segment", help="find a rainbow pair at distance d"))
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--cx", type=float, required=True)
    p.add_argument("--cy", type=float, required=True)
    p.add_argument("--dx", type=float, required=True)
    p.add_argument("--dy", type=float, required=True)
    p.add_argument("--oracle", choices=["halfplane", "strip"], default="halfplane")
    p.add_argument("--strip-r", type=int, default=3, help="strip oracle color count")
    p.add_argument("--strip-a", type=float, default=1.0, help="strip oracle strip width")
    p.set_defaults(handler=_cmd_rainbow_segment)

    return parser


def run(argv: Sequence[str]) -> CommandResult:
    """Dispatch one argument vector and return its result without exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
        return CommandResult(code, "")
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        return CommandResult(2, f"error: {exc}")


def main(argv: Sequence[str] | None = None) -> int:
    # numpy's OpenBLAS starts a thread per core when it is imported, each with
    # about 42 MB of address space, and no command gains from them
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    result = run(sys.argv[1:] if argv is None else argv)
    if result.summary:
        stream = sys.stderr if result.exit_code == 2 else sys.stdout
        print(result.summary, file=stream)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
