"""Smoke test of the benchmark at toy scale (about a minute on 2 CPUs).

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that traced self times are non-negative and sum to no more than the
traced wall time, and that the exact counts agree between two runs with
different seeds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("paper-infer", "paper-train", "toy-pipeline")


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--config", "toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {
        (w, seed, trace): run(w, seed, trace)
        for w in WORKLOADS
        for seed, trace in ((1, 0), (1, 1), (2, 1))
    }


def exact(metrics: dict) -> dict:
    """The metrics that are counts, not timings."""
    return {k: v["value"] for k, v in metrics.items()
            if k.startswith("engine.plan.") or k.endswith((".calls", ".im2col_bytes", ".ops"))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(results, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = results[(workload, 1, trace)]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_wall_time(results, workload):
    dump = json.loads((OUT / f"{workload}-seed1-trace1-spans.json").read_text())
    spans = dump["spans"]
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    assert spans and min(own) >= -1e-9
    wall = sum(u["end"] - u["start"] for u in dump["units"])
    assert sum(own) <= wall
    assert dump["missing"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs_and_seeds(results, workload):
    first = exact(results[(workload, 1, 1)]["metrics"])
    assert first == exact(results[(workload, 2, 1)]["metrics"])
    assert any(first.values())
