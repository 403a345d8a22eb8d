"""gallaikit benchmark: four workloads, end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout:

    python3 bench/run.py --workload grid-search --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `--trace 0` reports the end_to_end metrics
of BENCHMARK.json, `--trace 1` the per_layer ones.  The exit code is 0 only
when every item and CLI command passed its independent check; it is 2 when
there is no gallaikit source tree to measure.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import spans
from spawner import Spawner
from timing import Pass, Plan, in_references
from workloads import BUILDERS, LAYERS, Api, Workload, build, nproc

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 120.0
# Past this much wall time a run stops repeating, even below its minimum counts,
# so that it ends well inside the 180 s a run may take.
HARD_STOP_S = 140.0
SETUP_PER_ROUND = 2  # --version children per round, for setup_s
SOLVE_PER_CLI = 2.0  # seconds of solve passes in a round per second of the first CLI set


class ProgramMissing(Exception):
    pass


def load_program(root: Path) -> Api:
    """Import gallaikit from the checkout's own src/, never from an installed copy."""
    src = root / "src"
    if not (src / "gallaikit" / "__init__.py").is_file():
        raise ProgramMissing(f"no gallaikit package under {src}")
    sys.path.insert(0, str(src))
    modules = {layer: importlib.import_module(f"gallaikit.{layer}") for layer in LAYERS}
    loaded = Path(sys.modules["gallaikit"].__file__).resolve().parent
    if loaded != (src / "gallaikit").resolve():
        raise ProgramMissing(f"gallaikit was imported from {loaded}, not from {src}")
    return Api(**modules)


def declared_metrics(root: Path) -> dict[str, dict[str, str]]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def environment(root: Path, seed: int) -> dict[str, Any]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gallaikit").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "cpu": cpu,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else "not loaded",
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


@dataclass
class Ledger:
    """Checks attempted and failed, which feed fail_frac and the exit code, and samples taken."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, int] = field(default_factory=dict)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(f"{what}: {problem}")


class Clock:
    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def more(self, done: int, minimum: int, until: float) -> bool:
        """Repeat until both `minimum` repetitions and `until` seconds are reached."""
        if self.elapsed() > HARD_STOP_S:
            return False
        return done < minimum or self.elapsed() < until


def run_pass(
    wl: Workload, caller: spans.Direct | spans.Recorder, plan: Plan
) -> tuple[Pass, list[Any]]:
    """One pass, cut into segments by `plan`; an exception from the program is that item's result."""
    gc.collect()
    timed, results = Pass([], [plan.time_reference(plan.repeats[0])]), []
    for end, repeat in zip(plan.ends, plan.repeats[1:]):
        start = time.perf_counter()
        for item in wl.items[len(results) : end]:
            try:
                results.append(caller.run_item(item.id, item.run))
            except Exception as exc:  # a crash is a failed item, reported by check_pass
                results.append(exc)
        timed.seconds.append(time.perf_counter() - start)
        timed.refs.append(plan.time_reference(repeat))
    return timed, results


def check_pass(wl: Workload, results: list[Any], ledger: Ledger) -> None:
    for item, got in zip(wl.items, results):
        if isinstance(got, Exception):
            ledger.record(item.id, f"raised {got!r}")
            continue
        try:
            ledger.record(item.id, item.check(got))
        except Exception as exc:  # a malformed result must fail the item, not stop the run
            ledger.record(item.id, f"check raised {exc!r} on the result")


def measure(
    name: str, api: Api, spawner: Spawner, seed: int, seconds: float, trace: bool, quick: bool, kept: list
) -> tuple[dict[str, float], Ledger]:
    """Run one workload; spans of its traced passes are appended to `kept`."""
    ledger = Ledger()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    python = [sys.executable]
    cli = [*python, "-m", "gallaikit.cli"]
    minimum = 1 if quick else 3
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        wl = build(name, api, seed, quick, workdir)

        def cli_set() -> tuple[float, float, int]:
            total, heaviest, nodes = 0.0, 0.0, 0
            for cmd in wl.commands:
                child = spawner.run([*cli, *cmd.args], env, workdir, CHILD_TIMEOUT_S)
                ledger.record(" ".join(cmd.args), cmd.check(child.code, child.stdout))
                total += child.seconds
                heaviest = max(heaviest, child.rss_mb)
                nodes += sum(int(x) for x in re.findall(r"nodes=(\d+)", child.stdout))
            return total, heaviest, nodes

        def child_seconds(argv: list[str]) -> float:
            return spawner.run(argv, env, workdir, CHILD_TIMEOUT_S).seconds

        # Warm-up: compile bytecode, fill caches, check every item once, and fix the
        # segments every later pass is timed in.
        warm, results = run_pass(wl, spans.direct, Plan.per_item(len(wl.items), wl.reference))
        check_pass(wl, results, ledger)
        plan = Plan.from_warm_up(warm.seconds, wl.reference)
        child_seconds([*cli, *wl.setup_args])

        # Rounds interleave every measurement, so that each median samples the whole
        # run rather than one stretch of it while the machine's speed drifts.
        clock = Clock()
        setups, floors, imports, sets = [], [], [], []
        untraced: list[Pass] = []
        traced: list[Pass] = []
        layer_passes = []
        rounds = 0
        while clock.more(rounds, minimum, seconds):
            rounds += 1
            for _ in range(SETUP_PER_ROUND):
                setups.append(child_seconds([*cli, *wl.setup_args]))
                if trace:
                    floors.append(child_seconds([*python, "-c", "pass"]))
                    imports.append(child_seconds([*python, "-c", "import gallaikit.cli"]))
            # CLI time is per-layer only, and peak RSS repeats exactly, so untraced runs
            # spend every round but the first on solve passes.
            if trace or not sets:
                sets.append(cli_set())
            solve_until = clock.elapsed() + SOLVE_PER_CLI * sets[0][0]
            while True:
                timed, results = run_pass(wl, spans.direct, plan)
                check_pass(wl, results, ledger)
                untraced.append(timed)
                if trace:
                    recorder = spans.Recorder()
                    timed, results = run_pass(wl, recorder, plan)
                    check_pass(wl, results, ledger)
                    traced.append(timed)
                    layer_passes.append(spans.pass_metrics(recorder.spans))
                    kept.append((name, len(traced), recorder.spans))
                if clock.elapsed() >= solve_until:
                    break

    ledger.samples = {"setup": len(setups), "cli": len(sets), "solve": len(untraced), "traced": len(traced)}
    setup_s = statistics.median(setups)
    solve_ref = in_references(untraced)
    if not trace:
        return {
            "setup_s": setup_s,
            "solve_ref": solve_ref,
            "peak_rss_mb": statistics.median(s[1] for s in sets),
        }, ledger
    cli_s = statistics.median(s[0] for s in sets)
    floor_s = statistics.median(floors)
    metrics = {
        "cli.interpreter_s": floor_s,
        "cli.import_s": statistics.median(imports) - floor_s,
        "cli.work_s": (cli_s - len(wl.commands) * setup_s) / len(wl.commands),
        "cli.stdout_nodes": sets[0][2],
        "wall.cli_s": cli_s,
        "wall.solve_s": statistics.median(sum(p.seconds) for p in untraced),
        "wall.reference_us": 1e6 * statistics.median(r for p in untraced for r in p.refs),
    }
    metrics.update(spans.median_metrics(layer_passes))
    metrics["trace.overhead_frac"] = in_references(traced) / solve_ref - 1.0
    return metrics, ledger


def report(name: str, metrics: dict[str, float], units: dict[str, str]) -> dict[str, dict[str, Any]]:
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        raise RuntimeError(f"{name}: metrics differ from BENCHMARK.json; missing {missing}, undeclared {extra}")
    return {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced inputs, for the benchmark's own tests")
    parser.add_argument("--spans", type=Path, default=None, help="with --trace 1, write every span here at the end")
    args = parser.parse_args(argv)
    # Fork the helper that runs CLI children before the program and numpy are loaded.
    with Spawner() as spawner:
        return benchmark(args, spawner)


def benchmark(args: argparse.Namespace, spawner: Spawner) -> int:
    try:
        api = load_program(ROOT)
        units = declared_metrics(ROOT)["per_layer" if args.trace else "end_to_end"]
    except (ProgramMissing, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(ROOT, args.seed)))
    names = list(BUILDERS) if args.workload == "all" else [args.workload]
    attempted, problems, out, kept = 0, [], {}, []
    for name in names:
        metrics, ledger = measure(name, api, spawner, args.seed, args.seconds, bool(args.trace), args.quick, kept)
        attempted += ledger.attempted
        problems += ledger.problems
        fail_frac = len(ledger.problems) / ledger.attempted
        samples = ", ".join(f"{key} {count}" for key, count in ledger.samples.items())
        print(f"workload {name}: {ledger.attempted} checks, fail_frac {fail_frac:.4g}; medians over {samples}")
        for key, entry in report(name, metrics, units).items():
            print(f"  {key:40s} {entry['value']:>16.6g} {entry['unit']}")
            out[key if len(names) == 1 else f"{name}.{key}"] = entry
    if args.spans and kept:
        spans.write_spans(args.spans, kept)
    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(problems), "metrics": out}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
