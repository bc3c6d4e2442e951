"""The pair runner and its reduction, on synthetic perfbench records (no runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)


def record(unit_s, rss, clips, failed=0, attempted=10):
    """A perfbench record as ``run.py --trace 0`` writes it."""
    metrics = {"setup_s": 0.01, "unit_s": unit_s, "phase1_s": unit_s / 2, "peak_rss_mb": rss}
    return {
        "header": {"nproc": 2, "blas": "openblas", "numpy": "2", "uncontrolled": ["shared"]},
        "result": {
            "failed": failed,
            "attempted": attempted,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        },
        "samples": {
            "untraced": [
                {"ref_clip_s": c, "unit_s": 9.0, "phase1_s": 9.0, "gc_objects": 3} for c in clips
            ]
        },
    }


def test_parse_seeds():
    assert benchpairs.parse_seeds("7-9") == [7, 8, 9]
    assert benchpairs.parse_seeds("5") == [5]
    with pytest.raises(ValueError):
        benchpairs.parse_seeds("9-7")


def test_run_figures_take_sample_medians_but_not_the_end_to_end_ones():
    figs = benchpairs.run_figures(record(0.2, 100.0, [0.3, 0.1, 0.2, 0.9]))
    assert figs == {"setup_s": 0.01, "unit_s": 0.2, "phase1_s": 0.1, "peak_rss_mb": 100.0, "ref_clip_s": 0.25}


def test_reduce_pairs_medians_quartiles_and_better_counts():
    parent_units = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_units = [0.5, 2.5, 1.0, 3.0, 4.0]  # lower in pairs 0, 2, 3 and 4
    pairs = [
        (record(p, 100.0, [p], failed=1), record(c, 99.0, [c], attempted=12))
        for p, c in zip(parent_units, change_units)
    ]
    entry = benchpairs.reduce_pairs(list(range(11, 16)), pairs)
    assert entry["seeds"] == [11, 12, 13, 14, 15] and entry["pairs"] == 5
    assert entry["parent"]["unit_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert entry["change"]["unit_s"] == {"median": 2.5, "q1": 1.0, "q3": 3.0}
    assert entry["change"]["phase1_s"] == {"median": 1.25, "q1": 0.5, "q3": 1.5}
    assert entry["change"]["ref_clip_s"]["median"] == 2.5
    assert entry["change_better_pairs"] == {
        "setup_s": 0, "unit_s": 4, "phase1_s": 4, "peak_rss_mb": 5, "ref_clip_s": 4,
    }
    assert (entry["parent"]["failed"], entry["parent"]["attempted"]) == (5, 50)
    assert (entry["change"]["failed"], entry["change"]["attempted"]) == (0, 60)


def test_verdicts_flag_a_bound_and_judge_a_claim_per_end_to_end_metric():
    # unit_s: 9 of 10 pairs lower, gap 0.3 against a parent IQR of 0.1;
    # peak_rss_mb: 6 % worse, past a 0.05 bound; setup_s: level, no claim.
    parent_units = [1.0, 1.05, 0.95, 1.0, 1.1, 0.9, 1.0, 1.02, 0.98, 1.0]
    change_units = [0.7] * 9 + [1.2]
    pairs = [(record(p, 100.0, [p]), record(c, 106.0, [c])) for p, c in zip(parent_units, change_units)]
    entry = benchpairs.reduce_pairs(list(range(10)), pairs)
    spec = json.loads((benchpairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    got = {v["name"]: v for v in benchpairs.verdicts(entry, spec)}
    assert list(got) == [m["name"] for m in spec]
    unit, rss, setup = got["unit_s"], got["peak_rss_mb"], got["setup_s"]
    assert unit["claim_holds"] and not unit["past_bound"] and unit["wins"] == 9
    assert unit["ratio"] == 0.7 and unit["gap"] > unit["parent_iqr"]
    assert rss["past_bound"] and not rss["claim_holds"] and rss["bound"] == 0.05
    assert setup["ratio"] == 1.0 and not setup["past_bound"] and not setup["claim_holds"]
    # Eight wins of ten are short of nine tenths, whatever the gap.
    entry["change_better_pairs"]["unit_s"] = 8
    assert not benchpairs.verdicts(entry, spec)[1]["claim_holds"]


def test_reduce_pairs_drops_a_figure_one_side_lacks():
    parent = record(1.0, 100.0, [1.0])
    change = record(0.9, 100.0, [0.9])
    del change["samples"]["untraced"][0]["ref_clip_s"]
    entry = benchpairs.reduce_pairs([1], [(parent, change)])
    assert "ref_clip_s" not in entry["parent"] and "ref_clip_s" not in entry["change_better_pairs"]
    assert entry["parent"]["unit_s"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


@pytest.mark.parametrize("change", [None, "elsewhere"])
def test_main_runs_each_side_in_its_checkout(change, tmp_path, monkeypatch):
    # --change names the change side's checkout; without it the change runs
    # in the checkout that holds the tool.  Sides alternate from pair to pair.
    parent = tmp_path / "parent"
    runs = []

    def run_side(checkout, workload, seed, seconds, trace):
        runs.append((checkout, seed, trace))
        return record(1.0 if checkout == parent else 0.5, 100.0, [0.1])

    monkeypatch.setattr(benchpairs, "run_side", run_side)
    monkeypatch.setattr(benchpairs, "commit_of", lambda checkout: checkout.name)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--workload", "w", "--seeds", "1-2", "--seconds", "3",
            "--out", str(out), "--traced-seed", "7"]
    if change:
        argv += ["--change", str(tmp_path / change)]
    assert benchpairs.main(argv) == 0
    want = tmp_path / change if change else benchpairs.ROOT
    assert runs == [(parent, 1, 0), (want, 1, 0), (want, 2, 0), (parent, 2, 0), (parent, 7, 1), (want, 7, 1)]
    bench = json.loads(out.read_text())
    assert (bench["parent_commit"], bench["change_commit"]) == ("parent", want.name)
    assert bench["workloads"]["w"]["change_better_pairs"]["unit_s"] == 2
    assert bench["traced"]["w"]["seed"] == 7
