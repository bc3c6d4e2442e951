"""billnet benchmark: three synthetic workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-infer --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` times the workload with nothing swapped in and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced units and
reports per-layer metrics (see ``spans.py``) and the tracing overhead.  Each
run checks its outputs; a failed check makes the exit code non-zero.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Reports also go to ``.perfbench_out/``.

End-to-end metrics, on every workload (a *unit* is one clip on paper-infer,
one training step on paper-train, one whole pipeline on toy-pipeline):

* ``setup_s``: set-up time (build, norm randomisation, stage transitions,
  compile / bind_params as the workload needs; clip generation excluded),
  the median over five batches of the batch's mean set-up time.
* ``unit_s``: median wall time of one unit.  paper-infer: reference forward
  plus bit-planes plus execute of a clip; paper-train: one full step (graph,
  backward, Adam, clip); toy-pipeline: five ``run_stage`` calls, compile and
  evaluation through both paths.
* ``phase1_s``: median time of the unit's first phase.  paper-infer:
  ``reference.forward`` (the logic path follows); paper-train: the tape
  forward, ``training_graph`` (backward, Adam and clipping follow);
  toy-pipeline: the five ``run_stage`` calls (compile and evaluation follow).
* ``peak_rss_mb``: ``ru_maxrss`` of the process.

The report also prints each workload's own metrics (``ref_clip_s``,
``logic_clip_s``, ``train_step_s``, ``pipeline_s``, ``fail_frac``) with their
sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("paper-infer", "paper-train", "toy-pipeline")
# The host's speed swings by up to 2x over a few tenths of a second, so one
# set-up sample is the mean of the set-ups repeated for SETUP_BATCH_SECONDS.
SETUP_BATCHES = 5
SETUP_BATCH_SECONDS = 0.4
UNCONTROLLED = (
    "shared machine: other tenants' load is not controlled",
    "no page-cache dropping",
    "no CPU frequency, governor or huge-page tuning",
    "host CPU speed swings by up to 2x over tenths of a second",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--config", choices=("paper", "toy"), default="paper",
                    help="model config of the paper-* workloads (toy: smoke test)")
    return ap.parse_args(argv)


def limit_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


# ---------------------------------------------------------------------------
# Statistics and report
# ---------------------------------------------------------------------------


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    s = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if len(s) * (1 - p / 100) >= 10:
            return p, s[min(len(s) - 1, int(len(s) * p / 100))]
    return None


def describe(name, values, unit):
    t = tail(values)
    tail_txt = f"p{t[0]:g} {t[1]:.6g}" if t else "no p90 (needs 100 samples)"
    return f"{name:<14} median {median(values):.6g} {unit:<7} n={len(values)}  {tail_txt}"


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "uncontrolled": list(UNCONTROLLED),
    }


def model_summary(m) -> list[str]:
    from billnet.model import count_params

    rep = count_params(m)
    lines = [f"weights {rep.total_weight_params} (count_params, stage {rep.stage})"]
    for lay in m.layers:
        lines.append(f"  {lay.name:<6} {lay.kind:<5} {tuple(lay.in_shape)} -> {tuple(lay.out_shape)}")
    return lines


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def measure(work, seconds: float, tracer=None) -> dict:
    """Set up in batches, then run units for ``seconds``.  With a tracer,
    units alternate untraced (even) and traced (odd)."""
    call = (lambda unit, fn, *a: tracer.run(unit, fn, *a)) if tracer else (lambda unit, fn, *a: fn(*a))
    setups = []
    for _ in range(SETUP_BATCHES):
        n, start = 0, time.perf_counter()
        while n == 0 or time.perf_counter() - start < SETUP_BATCH_SECONDS:
            call("setup", work.setup)
            n += 1
        setups.append((time.perf_counter() - start) / n)
    work.begin()
    work.warm_up()
    gc.collect()
    plain, traced = [], []
    start = time.perf_counter()
    min_units = 2 if tracer else 3
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        done = plain + traced
        if i >= min_units and elapsed + median([d["unit_s"] for d in done]) > seconds:
            break
        is_traced = tracer is not None and i % 2 == 1
        d = call(i, work.run_unit, i) if is_traced else work.run_unit(i)
        # The autodiff tape is a reference cycle: without a collection here
        # each paper-scale step's graph (about 1 GB) outlives the step.
        d["gc_objects"] = gc.collect()
        (traced if is_traced else plain).append(d)
        i += 1
    work.end()
    return {"setup": setups, "plain": plain, "traced": traced}


def per_layer(tracer, plan_info, plain, traced) -> dict:
    from counts import PLAN_KINDS
    from spans import AUTODIFF_OPS

    tot = tracer.per_unit()
    g = lambda k: tot.get(k, 0.0)  # noqa: E731 - local shorthand
    m = {}
    for name in ("tensors.pack", "tensors.unpack"):
        m[f"{name}.s"] = (g(f"{name}.s"), "s")
        m[f"{name}.calls"] = (g(f"{name}.calls"), "count")
    m["engine.frames_to_bitplanes.s"] = (g("engine.frames_to_bitplanes.s"), "s")
    m["engine.execute.s"] = (g("engine.execute.s"), "s")
    m["engine.execute.self_s"] = (g("engine.execute.self_s"), "s")
    m["engine.qlstm_step.s"] = (g("engine.qlstm_step.s"), "s")
    m["engine.qlstm_step.calls"] = (g("engine.qlstm_step.calls"), "count")
    m["engine.compile.s"] = (g("engine.compile.s"), "s")
    m["engine.plan.ops"] = (plan_info["ops"], "count")
    for kind in PLAN_KINDS:
        m[f"engine.plan.ops.{kind}"] = (plan_info["ops_by_kind"].get(kind, 0), "count")
    m["engine.plan.int_macs"] = (plan_info["int_macs"], "count")
    m["engine.plan.bin_macs"] = (plan_info["bin_macs"], "count")
    exec_s = g("engine.execute.s")
    macs = (plan_info["int_macs"] + plan_info["bin_macs"]) * g("engine.execute.clips")
    m["engine.execute.macs_per_s"] = (macs / exec_s if exec_s else 0.0, "1/s")
    for name in ("forward", "conv3d", "maxpool3d", "lstm_cell", "mux"):
        m[f"reference.{name}.s"] = (g(f"reference.{name}.s"), "s")
    m["reference.conv3d.calls"] = (g("reference.conv3d.calls"), "count")
    m["reference.conv3d.im2col_bytes"] = (g("reference.conv3d.im2col_bytes"), "B")
    for name in ("bn_forward", "bsn_forward", "tgap_select"):
        m[f"quantize.{name}.s"] = (g(f"quantize.{name}.s"), "s")
    for name in ("build", "apply_stage_transition"):
        m[f"model.{name}.s"] = (g(f"model.{name}.s"), "s")
    for op in AUTODIFF_OPS + ("other",):
        m[f"autodiff.{op}.fwd_s"] = (g(f"autodiff.{op}.fwd.s"), "s")
        m[f"autodiff.{op}.bwd_s"] = (g(f"autodiff.{op}.bwd.s"), "s")
        m[f"autodiff.{op}.calls"] = (g(f"autodiff.{op}.fwd.calls"), "count")
    m["autodiff.backward.s"] = (g("autodiff.backward.s"), "s")
    m["autodiff.tape.ops"] = (g("autodiff.tape.ops"), "count")
    m["autodiff.conv3d_op.im2col_bytes"] = (g("autodiff.conv3d_op.im2col_bytes"), "B")
    for name in ("training_graph", "adam_step", "bind_params", "run_stage",
                 "evaluate.ref", "evaluate.logic"):
        m[f"training.{name}.s"] = (g(f"training.{name}.s"), "s")
    ratio = median([d["unit_s"] for d in traced]) / median([d["unit_s"] for d in plain])
    m["trace.overhead_ratio"] = (ratio, "ratio")
    m["trace.missing_wraps"] = (len(tracer.missing), "count")
    m["gc.collected_objects"] = (sum(d["gc_objects"] for d in traced) / len(traced), "count")
    return m


def run_one(args, nproc: int) -> int:
    from billnet.model import BillnetConfig, toy_config
    from counts import plan_counts
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    toy = args.workload == "toy-pipeline" or args.config == "toy"
    cfg = toy_config(seed=args.seed) if toy else BillnetConfig(seed=args.seed)
    work = cls(cfg, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    res = measure(work, args.seconds, tracer)
    plain, traced = res["plain"], res["traced"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plan_info = plan_counts(work.plan) if work.plan is not None else {
        "ops": 0, "ops_by_kind": {}, "int_macs": 0, "bin_macs": 0, "uncounted": []}

    env = environment(nproc)
    lines = [f"# workload {work.name}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}  unit {work.unit}"]
    lines += [f"# env {k}: {v}" for k, v in env.items()]
    lines += [f"# model {s}" for s in model_summary(work.model)]
    inputs = work.inputs.as_dict()
    lines.append("# inputs " + "  ".join(f"{k} {v:.6g}" for k, v in inputs.items()))
    if plan_info["ops"]:
        lines.append(f"# plan ops {plan_info['ops']}  int_macs {plan_info['int_macs']}  "
                     f"bin_macs {plan_info['bin_macs']}  uncounted kinds {plan_info['uncounted']}")
    tag = "untraced " if tracer else ""
    lines.append(("traced   " if tracer else "") + describe("setup_s", res["setup"], "s"))
    for name, unit in {**work.reported, "unit_s": "s", "phase1_s": "s"}.items():
        lines.append(tag + describe(name, [d[name] for d in plain], unit))
    if tracer:
        for name in ("unit_s", "phase1_s"):
            lines.append("traced   " + describe(name, [d[name] for d in traced], "s"))
    lines.append(f"peak_rss_mb    {rss_mb:.6g} MB")
    lines.append(f"fail_frac      {work.failed / work.attempted:.6g} ratio "
                 f"({work.failed} failed of {work.attempted} attempted)")
    lines += [f"FAILED CHECK: {p}" for p in work.problems]

    if tracer:
        metrics = per_layer(tracer, plan_info, plain, traced)
        lines.append(f"trace overhead {metrics['trace.overhead_ratio'][0]:.4f} "
                     f"(traced / untraced unit_s); missing wraps: {tracer.missing or 'none'}")
    else:
        metrics = {
            "setup_s": (median(res["setup"]), "s"),
            "unit_s": (median([d["unit_s"] for d in plain]), "s"),
            "phase1_s": (median([d["phase1_s"] for d in plain]), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    result = {
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{work.name}-seed{args.seed}-trace{args.trace}"
    record = {"header": env, "inputs": inputs, "plan": plan_info, "report": lines, "result": result,
              "samples": {"setup_s": res["setup"], "untraced": plain, "traced": traced}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--config", args.config]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        status = status or proc.returncode
        try:
            res = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "billnet" / "engine.py").is_file():
        print(f"perfbench: no billnet sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc = limit_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
