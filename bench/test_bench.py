"""Tests of the benchmark itself; run with `python -m pytest bench` from the repository root."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import timing  # noqa: E402
from spawner import Spawner  # noqa: E402

QUICK = ["--seed", "7", "--seconds", "0.1", "--quick"]


def declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())[kind]}


def result_line(capsys: pytest.CaptureFixture[str]) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_runs_every_workload_with_the_declared_metrics(trace, capsys, tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    code = run.main(["--workload", "all", "--trace", str(trace), "--spans", str(spans_file), *QUICK])
    result = result_line(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = declared("per_layer" if trace else "end_to_end")
    for workload in run.BUILDERS:
        emitted = {key.split(".", 1)[1] for key in result["metrics"] if key.startswith(workload + ".")}
        assert emitted == want, workload
    if trace:
        rows = [json.loads(line) for line in spans_file.read_text().splitlines()]
        assert {row["workload"] for row in rows} == set(run.BUILDERS)
        items = {(row["workload"], row["pass"], row["sid"]) for row in rows if row["name"] == "item"}
        calls = [row for row in rows if row["name"] != "item"]
        assert calls and all((row["workload"], row["pass"], row["parent"]) in items for row in calls)
    else:
        assert not spans_file.exists()


def test_single_workload_reports_unprefixed_end_to_end_metrics(capsys):
    assert run.main(["--workload", "geometry", "--trace", "0", *QUICK]) == 0
    metrics = result_line(capsys)["metrics"]
    assert set(metrics) == declared("end_to_end")
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_planted_wrong_verdict_is_counted(monkeypatch, capsys):
    graphs = run.load_program(run.ROOT).graphs
    real = graphs.gallai_ramsey_number
    monkeypatch.setattr(graphs, "gallai_ramsey_number", lambda *args: real(*args) + 1)
    assert run.main(["--workload", "edge-search", "--trace", "0", *QUICK]) == 1
    result = result_line(capsys)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_corrupted_witness_is_counted(monkeypatch, capsys):
    api = run.load_program(run.ROOT)
    real = api.search.search_good_coloring

    def corrupted(n, m, r, opts=None):
        out = real(n, m, r, opts)
        if out.witness is None:
            return out
        cells = [list(row) for row in out.witness.cells]
        cells[0][:2] = cells[1][:2] = [1, 1]
        return dataclasses.replace(out, witness=api.grid.GridColoring(n, m, r, cells))

    monkeypatch.setattr(api.search, "search_good_coloring", corrupted)
    assert run.main(["--workload", "grid-search", "--trace", "1", *QUICK]) == 1
    result = result_line(capsys)
    assert not result["correct"] and result["failed"] > 0


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_child_peak_rss_leaves_out_the_benchmark_process(tmp_path):
    with Spawner() as spawner:
        before = spawner.run([sys.executable, "-c", "pass"], {}, tmp_path, 60).rss_mb
        ballast = bytearray(64 * 2**20)
        ballast[:: 4096] = b"\1" * len(ballast[:: 4096])  # touch every page, so it is resident
        after = spawner.run([sys.executable, "-c", "pass"], {}, tmp_path, 60).rss_mb
        del ballast
    assert after < before + 16


def test_plan_groups_short_items_and_times_long_ones_against_more_loops():
    plan = timing.Plan.from_warm_up([0.001] * 50 + [1.7, 0.3, 0.005, 0.9], "python")
    assert plan.ends == [20, 40, 51, 52, 54]
    assert plan.repeats == [1, 1, 10, 10, 9, 9]
    assert timing.Plan.from_warm_up([0.001] * 5, "python").ends == [5]
