"""Alternating parent/change benchmark pairs, reduced to a ``BENCH_<n>.json`` entry.

Usage, from the repository root::

    python3 tools/benchpairs.py --parent /path/to/parent/checkout \\
        --workload paper-infer --seeds 101-110 --seconds 30 --out BENCH_9.json

For each seed in the inclusive range the tool runs ``perfbench/run.py
--workload W --seed N --seconds S --trace 0`` once in the parent checkout
and once in the change checkout (``--change``, by default the checkout that
holds this tool), one after the other, and reads the record that run leaves
in that checkout's
``.perfbench_out/<workload>-seed<N>-trace0.json``.  The side that goes first
alternates from pair to pair, so a slow drift of the host's speed lands on
both sides alike.  ``--traced-seed N`` adds one ``--trace 1`` run per side
and keeps every per-layer metric of the two.  Passing ``--change`` with a
copy made outside the repository (``git clone``) lets both sides run from
like places.

The reduction writes, under ``workloads[W]`` of ``--out`` (other workloads
already in the file are kept):

* per side, the median and quartiles over its runs of each end-to-end metric
  and of each per-unit figure the workload reports (the median of a run's
  samples, e.g. ``ref_clip_s``), plus its failed and attempted counts;
* ``change_better_pairs``: for each metric, in how many pairs the change's
  run read lower than the parent's run of the same seed (every metric here
  is better lower).

It then prints, for each end-to-end metric that ``BENCHMARK.json`` names,
the change/parent ratio of the medians against the bound the benchmark fixes
for it, flagging a metric that worsened past its bound, and whether a gain
claim on it would hold: the change better in at least nine tenths of the
pairs (ties count for neither), and the medians further apart than the
parent's quartiles.  The tool only reads ``BENCHMARK.json``.

Each run's figures come only from its JSON record, so the tool imports
nothing from ``perfbench`` and needs no ``billnet`` on its path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HOST_FIELDS = ("nproc", "blas", "blas_threads", "numpy", "python", "machine")
SAMPLE_SKIP = ("unit_s", "phase1_s", "gc_objects")  # the first two are end-to-end already


def parse_seeds(text: str) -> list[int]:
    """"A-B" (inclusive) or a single seed "A"."""
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def sig(value: float, digits: int = 5) -> float:
    return float(f"{value:.{digits}g}")


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (linear interpolation between order statistics)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": sig(statistics.median(values)), "q1": sig(q1), "q3": sig(q3)}


def run_figures(record: dict) -> dict[str, float]:
    """One untraced run's figures: its end-to-end metrics, then the median
    of every other per-unit sample it reports."""
    out = {name: m["value"] for name, m in record["result"]["metrics"].items()}
    samples = record["samples"]["untraced"]
    for name in samples[0] if samples else ():
        if name not in SAMPLE_SKIP and name not in out:
            out[name] = statistics.median(s[name] for s in samples)
    return out


def reduce_pairs(seeds: list[int], pairs: list[tuple[dict, dict]]) -> dict:
    """The workload entry for (parent record, change record) pairs, one per
    seed; a metric missing from either side of a pair is left out."""
    figs = [(run_figures(p), run_figures(c)) for p, c in pairs]
    names = [n for n in figs[0][0] if all(n in p and n in c for p, c in figs)]
    entry = {"seeds": seeds, "pairs": len(pairs)}
    for side, idx in (("parent", 0), ("change", 1)):
        entry[side] = {n: spread([f[idx][n] for f in figs]) for n in names}
        entry[side]["failed"] = sum(pair[idx]["result"]["failed"] for pair in pairs)
        entry[side]["attempted"] = sum(pair[idx]["result"]["attempted"] for pair in pairs)
    entry["change_better_pairs"] = {n: sum(c[n] < p[n] for p, c in figs) for n in names}
    return entry


def verdicts(entry: dict, end_to_end: list[dict]) -> list[dict]:
    """Per end-to-end metric of ``BENCHMARK.json`` (its ``end_to_end`` list)
    that ``entry`` holds: the change/parent median ratio, whether the change
    is worse than the parent by more than the metric's bound, and whether a
    gain claim holds (better in >= 9/10 of the pairs, and a median gap wider
    than the parent's interquartile range).  ``change_better_pairs`` counts
    lower runs, so only lower-is-better metrics are judged."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        if name not in entry["change_better_pairs"] or metric["better"] != "lower":
            continue
        p, c = entry["parent"][name], entry["change"][name]
        ratio = c["median"] / p["median"]
        wins, gap, iqr = entry["change_better_pairs"][name], p["median"] - c["median"], p["q3"] - p["q1"]
        rows.append({
            "name": name, "ratio": ratio, "bound": metric["bound"], "past_bound": ratio > 1 + metric["bound"],
            "wins": wins, "pairs": entry["pairs"], "gap": gap, "parent_iqr": iqr,
            "claim_holds": wins >= 0.9 * entry["pairs"] and gap > iqr,
        })
    return rows


def traced_entry(seed: int, parent: dict, change: dict) -> dict:
    """Every per-layer metric of one traced run per side."""
    pm, cm = parent["result"]["metrics"], change["result"]["metrics"]
    return {
        "seed": seed,
        "metrics": {n: {"parent": sig(pm[n]["value"]), "change": sig(cm[n]["value"])} for n in pm if n in cm},
    }


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    record = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if not record.is_file():
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} wrote no record (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(record.read_text())


def run_pair(parent: Path, change: Path, workload: str, seed: int, seconds: float, trace: int, change_first: bool):
    sides = [(change, "change"), (parent, "parent")] if change_first else [(parent, "parent"), (change, "change")]
    got = {}
    for checkout, side in sides:
        start = time.perf_counter()
        got[side] = run_side(checkout, workload, seed, seconds, trace)
        unit = got[side]["result"]["metrics"].get("unit_s", {}).get("value")
        unit_txt = f"unit_s {unit:.4g}" if unit is not None else "traced"
        print(f"{workload} seed {seed} {side}: {unit_txt} ({time.perf_counter() - start:.0f} s)", file=sys.stderr)
    return got["parent"], got["change"]


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", default=ROOT, type=Path,
                    help="checkout of the change (default: the one that holds this tool)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="inclusive range A-B")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write or update")
    ap.add_argument("--traced-seed", type=int, help="also run one --trace 1 pair on this seed")
    args = ap.parse_args(argv)

    pairs = [
        run_pair(args.parent, args.change, args.workload, seed, args.seconds, 0, change_first=i % 2 == 1)
        for i, seed in enumerate(args.seeds)
    ]
    bench = json.loads(args.out.read_text()) if args.out.is_file() else {"what": None}
    header = pairs[0][1]["header"]
    bench.update({
        "parent_commit": commit_of(args.parent),
        "change_commit": commit_of(args.change),
        "command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": {k: header[k] for k in HOST_FIELDS if k in header},
        "uncontrolled": header.get("uncontrolled", []),
    })
    bench.setdefault("workloads", {})[args.workload] = reduce_pairs(args.seeds, pairs)
    if args.traced_seed is not None:
        parent, change = run_pair(args.parent, args.change, args.workload, args.traced_seed,
                                  args.seconds, 1, change_first=False)
        bench.setdefault("traced", {})[args.workload] = traced_entry(args.traced_seed, parent, change)
    bench["what"] = "perfbench end-to-end medians and quartiles over alternating parent/change pairs" + (
        ", and per-layer metrics from one traced run per side" if "traced" in bench else "")
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    entry = bench["workloads"][args.workload]
    for name, better in entry["change_better_pairs"].items():
        p, c = entry["parent"][name], entry["change"][name]
        print(f"{name:<14} parent {p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}]  "
              f"change {c['median']:.5g}  better in {better}/{entry['pairs']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("end to end, against BENCHMARK.json:")
    for v in verdicts(entry, spec["end_to_end"]):
        bound = "PAST BOUND" if v["past_bound"] else "within bound"
        claim = "claim holds" if v["claim_holds"] else "no claim"
        print(f"{v['name']:<14} change/parent {v['ratio']:.3f} ({bound} {1 + v['bound']:.2f})  {claim}: "
              f"better in {v['wins']}/{v['pairs']}, gap {v['gap']:.4g} vs parent IQR {v['parent_iqr']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
