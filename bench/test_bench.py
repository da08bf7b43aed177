"""Tests of the benchmark itself: ``python3 -m pytest -q bench``.

The smoke tests run each workload, ``big`` included, once untraced and once
traced (about three minutes in all).
"""

from __future__ import annotations

import configparser
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.REPO / "BENCHMARK.json").read_text())


def _bench(tmp_cwd, *args):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, cwd=tmp_cwd, timeout=600,
    )
    return proc, proc.stdout.strip().splitlines()


def test_readme_instance_is_the_readme_example():
    text = (run.REPO / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    want = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    want.read_string(block)
    got = run.instance("readme", run.DEFAULT_SEED)
    assert {s: dict(want[s]) for s in want.sections()} == got


def test_listed_workloads_are_defined():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


def test_per_layer_self_time_and_nesting():
    spans = [
        ["command", 0.0, 10.0, -1, None],
        ["solver.outer_solve", 1.0, 9.0, 0, 3],
        ["solver.inner_solve", 2.0, 5.0, 1, 4],
        ["solver.inner_solve", 3.0, 4.0, 2, 1],  # nested call of the same function
        ["impulsive.step_segment", 5.0, 7.0, 1, 5],
        ["impulsive.f", 5.5, 6.0, 4, None],
        ["impulsive.f", 6.0, 6.5, 4, None],
    ]
    record = {"spans": spans, "import_s": 1.0}
    got = {k: v for k, (v, _) in run.per_layer([record], 10, 0.5).items()}
    assert got["solver.outer_solve.s"] == 8.0
    assert got["solver.outer_solve.self_s"] == 3.0
    assert got["solver.inner_solve.calls"] == 2
    assert got["solver.inner_solve.s"] == 3.0
    assert got["solver.inner_solve.self_s"] == 3.0
    assert got["solver.outer_steps"] == 3
    assert got["solver.inner_iterations"] == 5
    assert got["impulsive.step_acceptance"] == 6.0 * 5 / 2
    assert got["records.bytes_written"] == 10
    assert got["trace_overhead_s"] == 0.5


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "readme", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke(workload):
    results = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc, lines = _bench(
            run.REPO, "--workload", workload, "--seed", str(run.DEFAULT_SEED),
            "--seconds", "1", "--trace", str(trace),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        # failed_ops and byte identity are printed beside the metrics
        assert any(line.startswith("failed_ops 0 ") for line in lines)
        assert any(line.startswith("byte_identical_artifacts") for line in lines)
        want = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        results[kind] = {k: v["value"] for k, v in result["metrics"].items()}
    # "traced artifacts differ" would have failed the traced run above
    layers = results["per_layer"]
    if workload == "moving":
        assert layers["solver.outer_steps"] >= 5
    else:
        assert layers["solver.outer_steps"] == 2
    assert all(v > 0 for v in results["end_to_end"].values())
