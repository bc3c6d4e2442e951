"""Bit-identity check: dump every array a change must leave unchanged, compare two dumps.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/bitcheck.py dump after.npz
    PYTHONPATH=/path/to/other/checkout/src python3 tools/bitcheck.py dump before.npz
    python3 tools/bitcheck.py compare before.npz after.npz

``dump`` imports ``billnet`` from the path it is given and saves, for the
toy, 3-channel, wide (``n=72, m=17``), ``cf:``-block and paper configs:

* the reference forward's intermediates, logits and scores at stages 1-5;
* every stage-5 logic tap (bit taps as their packed words), int logit and
  prediction;
* one training step's loss, scores, norm statistics (from stage 4 only the
  shift each norm folds to) and parameter gradients at stages 1-5 of the
  four small configs and at paper stages 1 and 3;
* after those gradients, one ``adam_step`` at the stage's first-epoch rate
  and the latent clip, as ``run_stage`` takes it: every bound var's value.

Clips come from fixed seeds and norm statistics from ``model.seed_norms``
with a fixed seed, so two checkouts that compute the same bits write the
same arrays.  ``dump`` therefore needs ``billnet.model.seed_norms``: a
checkout without it must be dumped with the copy of this tool it holds.
``dump`` exits non-zero when ``compare_paths`` finds a divergence on a
stage-5 model.  ``compare`` checks every key for an equal dtype, shape and
bytes (so ``-0.0`` differs from ``0.0`` and a NaN equals the same NaN),
lists keys present on one side only, and exits non-zero on any difference.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

CONFIGS = {
    "toy": {},
    "rgb": {"in_channels": 3},
    "wide": {"n": 72, "m": 17},
    "cf": {"blocks": ("cf:n", "mor:n", "mp", "mor:2n")},
    "paper": None,
}
TRAIN_STAGES = {"paper": (1, 3)}  # every other config: stages 1-5
CLIPS = {"paper": 1}  # every other config: 2 clips


def _config(name: str):
    from billnet.model import BillnetConfig, toy_config

    overrides = CONFIGS[name]
    return BillnetConfig() if overrides is None else toy_config(seed=3, **overrides)


def _model_at(name: str, stage: int):
    """Fresh model of config ``name`` with seeded norm statistics, at ``stage``."""
    from billnet.model import apply_stage_transition, build, seed_norms

    model = seed_norms(build(_config(name)), np.random.default_rng(1000))
    for k in range(2, stage + 1):
        apply_stage_transition(model, k)
    return model


def _clips(name: str):
    cfg = _config(name)
    n = CLIPS.get(name, 2)
    rng = np.random.default_rng(7)
    frames = rng.integers(0, 256, size=(n, cfg.t, cfg.h, cfg.w, cfg.in_channels), dtype=np.uint8)
    return frames, np.arange(n) % cfg.num_classes


def _norm_arrays(model) -> dict[str, np.ndarray]:
    """Each norm's statistics by ``<layer>.<attr>.<field>``; at a stage whose
    rules fold the norms, only what the fold keeps of them, the int64
    ``shift = rint(log2|scale|)``."""
    from billnet.model import norms
    from billnet.quantize import stage_rules

    folded = stage_rules(model.stage).folded_norms
    out = {}
    for lay in model.layers:
        for attr, norm in norms(lay).items():
            key = f"{lay.name}.{attr}"
            if folded:
                out[f"{key}.shift"] = np.rint(np.log2(np.abs(norm.scale))).astype(np.int64)
            else:
                out.update({f"{key}.{field}": getattr(norm, field) for field in ("gamma", "beta", "mean", "var")})
    return out


def dump(path: str) -> int:
    from billnet import engine, reference
    from billnet.autodiff import Tape, backward
    from billnet.tensors import BitTensor
    from billnet.training import AdamState, adam_step, bind_params, lr_schedule, stage_config, training_graph

    arrays: dict[str, np.ndarray] = {}
    diverged = []
    for name in CONFIGS:
        frames, labels = _clips(name)
        x = frames / 255.0
        for stage in range(1, 6):
            start = time.perf_counter()
            model = _model_at(name, stage)
            taps: dict[str, np.ndarray] = {}
            res = reference.forward(model, x, on_tap=taps.__setitem__)
            key = f"{name}/s{stage}"
            for tap, val in taps.items():
                arrays[f"{key}/ref/{tap}"] = val
            arrays[f"{key}/ref/logits"] = res.logits
            arrays[f"{key}/ref/scores"] = res.scores
            if stage == 5:
                logic = engine.execute(engine.compile(model), engine.frames_to_bitplanes(frames))
                for tap, val in logic.intermediates.items():
                    arrays[f"{key}/logic/{tap}"] = val.words if isinstance(val, BitTensor) else val
                arrays[f"{key}/logic/intlogits"] = logic.intermediates["dense.intlogits"]
                arrays[f"{key}/logic/pred"] = logic.pred
                div = engine.compare_paths(model, frames)
                if div is not None:
                    diverged.append(f"{name}: {div.describe()}")
            if stage in TRAIN_STAGES.get(name, range(1, 6)):
                bound = bind_params(model)
                tape = Tape()
                loss, scores = training_graph(tape, model, bound, x, labels)
                backward(tape, loss)
                arrays[f"{key}/train/loss"] = loss.value
                arrays[f"{key}/train/scores"] = scores
                for var_name, var in bound.vars.items():
                    if var.grad is None:  # stored as an empty array: np.savez cannot hold None
                        arrays[f"{key}/train/nograd/{var_name}"] = np.zeros(0)
                    else:
                        arrays[f"{key}/train/grad/{var_name}"] = var.grad
                for norm_name, val in _norm_arrays(model).items():  # copied: the step updates gamma, beta
                    arrays[f"{key}/train/norm/{norm_name}"] = val.copy()
                params = [v.value for v in bound.vars.values()]
                lr = lr_schedule(stage_config(stage), 0)
                adam_step(params, [v.grad for v in bound.vars.values()], AdamState.for_params(params), lr)
                for var_name in bound.clip_latents:
                    np.clip(bound.vars[var_name].value, -1.0, 1.0, out=bound.vars[var_name].value)
                for var_name, var in bound.vars.items():
                    arrays[f"{key}/train/step/{var_name}"] = var.value.copy()
            print(f"{key}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    np.savez(path, **arrays)
    print(f"{len(arrays)} arrays -> {path}")
    for line in diverged:
        print(f"compare_paths diverged on {line}")
    return 1 if diverged else 0


def compare(a_path: str, b_path: str) -> int:
    with np.load(a_path) as a, np.load(b_path) as b:
        a_keys, b_keys = set(a.files), set(b.files)
        missing = [f"only in {a_path}: {k}" for k in sorted(a_keys - b_keys)]
        missing += [f"only in {b_path}: {k}" for k in sorted(b_keys - a_keys)]
        differ = []
        for k in sorted(a_keys & b_keys):
            va, vb = a[k], b[k]
            if va.dtype != vb.dtype:
                differ.append(f"dtype differs: {k}: {va.dtype} vs {vb.dtype}")
            elif va.shape != vb.shape:
                differ.append(f"shape differs: {k}: {va.shape} vs {vb.shape}")
            elif va.tobytes() != vb.tobytes():
                differ.append(f"bits differ: {k}")
    for line in missing + differ:
        print(line)
    print(f"{len(a_keys & b_keys) - len(differ)} of {len(a_keys | b_keys)} arrays identical")
    return 1 if missing or differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump").add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = ap.parse_args(argv)
    return dump(args.out) if args.cmd == "dump" else compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
