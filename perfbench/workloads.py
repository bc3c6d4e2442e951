"""The three benchmark workloads.

Each workload has a ``setup`` (timed as ``setup_s``, repeated), a ``unit`` of
work (one clip, one training step or one whole pipeline) that returns its
phase timings, and checks that count failures.  The program sees only the
generated uint8 clips and a ``BillnetConfig``.

* ``paper-infer``: ``BillnetConfig()`` at stage 5, one clip at a time (N=1,
  closed loop) through ``reference.forward`` and then ``frames_to_bitplanes``
  + ``execute``.  Conv kernels and bit-plane packing dominate; ``autodiff``
  and ``training`` do not run.
* ``paper-train``: ``BillnetConfig()`` at stage 3, training steps at N=2
  (closed loop), driven through the public functions ``run_stage`` uses.
  ``autodiff.conv3d_op`` forward and backward dominate; ``engine`` does not
  run.  Stage 3 builds the largest tape.
* ``toy-pipeline``: ``toy_config()``, the whole user journey: ``run_stage``
  for stages 1 to 5, ``engine.compile``, ``evaluate`` through both paths in
  batches of 16, then ``compare_paths``.  Arrays are small, so per-op Python
  dispatch and bit packing dominate instead of BLAS.
"""

from __future__ import annotations

import time

import numpy as np

from billnet import autodiff, engine, model, reference, training

from synthetic import InputStats, make_clips

clock = time.perf_counter


def randomize_norms(m, seed: int):
    """Seeded norm statistics, so stage-4 shifts and thresholds are not the
    degenerate ones of fresh batch norms."""
    rng = np.random.default_rng(seed + 1000)
    for lay in m.layers:
        norms = []
        if lay.kind in ("stem", "cf"):
            norms = [lay.norm]
        elif lay.kind == "mor":
            norms = [lay.norm1, lay.norm2]
        for nm in norms:
            nm.gamma = rng.lognormal(0.0, 1.0, nm.gamma.shape)
            nm.beta = rng.normal(0.0, 0.3, nm.beta.shape)
            nm.mean = rng.normal(0.0, 1.0, nm.mean.shape)
            nm.var = rng.lognormal(0.0, 1.0, nm.var.shape)


class Workload:
    """Shared bookkeeping: inputs, checks and failure accounting."""

    name = ""
    unit = ""
    # workload-specific metrics the report prints, with their units
    reported: dict[str, str] = {}

    def __init__(self, cfg, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.inputs = InputStats()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.model = None
        self.plan = None

    def clips(self, n: int):
        frames, labels = make_clips(self.rng, n, self.cfg)
        self.inputs.add(frames)
        return frames, labels

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def account(self, *oks: bool):
        self.attempted += 1
        self.failed += not all(oks)

    def begin(self):
        pass

    def warm_up(self):
        """One untimed unit: first-call allocation and lazy set-up."""
        self.run_unit(-1)

    def end(self):
        pass


class PaperInfer(Workload):
    name = "paper-infer"
    unit = "clip"
    reported = {"ref_clip_s": "s/clip", "logic_clip_s": "s/clip"}

    def setup(self):
        m = model.build(self.cfg)
        randomize_norms(m, self.seed)
        for k in (2, 3, 4, 5):
            model.apply_stage_transition(m, k)
        self.model, self.plan = m, engine.compile(m)

    def _compare(self, frames, when: str):
        div = engine.compare_paths(self.model, frames)
        self.account(self.check(div is None, f"compare_paths at {when}: {div and div.describe()}"))

    def begin(self):
        self.last, _ = self.clips(1)
        self._compare(self.last, "start")

    def warm_up(self):
        pass  # begin() already ran both paths through compare_paths

    def end(self):
        self._compare(self.last, "end")

    def run_unit(self, i: int) -> dict:
        frames, _ = self.clips(1)
        t0 = clock()
        ref = reference.forward(self.model, frames.astype(np.float64) / 255.0)
        t1 = clock()
        res = engine.execute(self.plan, engine.frames_to_bitplanes(frames))
        t2 = clock()
        self.last = frames
        self.account(self.check(np.array_equal(ref.pred, res.pred),
                                f"clip {i}: ref pred {ref.pred} != logic pred {res.pred}"))
        return {"ref_clip_s": t1 - t0, "logic_clip_s": t2 - t1, "unit_s": t2 - t0, "phase1_s": t1 - t0}


class PaperTrain(Workload):
    name = "paper-train"
    unit = "step"
    reported = {"train_step_s": "s/step"}
    batch = 2
    stage = 3

    def setup(self):
        m = model.build(self.cfg)
        randomize_norms(m, self.seed)
        for k in range(2, self.stage + 1):
            model.apply_stage_transition(m, k)
        self.model = m
        self.bound = training.bind_params(m)
        self.params = self.bound.ordered()
        self.adam = training.AdamState.for_params([p.value for p in self.params])
        self.lr = training.lr_schedule(training.stage_config(self.stage), 0)

    def run_unit(self, i: int) -> dict:
        frames, labels = self.clips(self.batch)
        bound, params = self.bound, self.params
        t0 = clock()
        x = frames.astype(np.float64) / 255.0
        for v in bound.vars.values():
            v.grad = None
        tape = autodiff.Tape()
        loss, _ = training.training_graph(tape, self.model, bound, x, labels)
        t1 = clock()
        autodiff.backward(tape, loss)
        training.adam_step([p.value for p in params], [p.grad for p in params], self.adam, self.lr)
        for name in bound.clip_latents:
            v = bound.vars[name].value
            np.clip(v, -1.0, 1.0, out=v)
        t2 = clock()
        finite = self.check(bool(np.isfinite(loss.value)), f"step {i}: loss {loss.value}")
        clipped = self.check(
            all(np.abs(bound.vars[n].value).max() <= 1.0 for n in bound.clip_latents),
            f"step {i}: a latent weight left [-1, 1]",
        )
        self.account(finite, clipped)
        return {"train_step_s": t2 - t0, "unit_s": t2 - t0, "phase1_s": t1 - t0}


class ToyPipeline(Workload):
    name = "toy-pipeline"
    unit = "pipeline"
    reported = {"pipeline_s": "s", "ref_clip_s": "s/clip", "logic_clip_s": "s/clip"}
    n_train = 16
    n_test = 32
    n_compare = 4
    batch = 16
    epoch_scale = 0.01  # one epoch per stage

    def begin(self):
        self.train = self.clips(self.n_train)
        self.test = self.clips(self.n_test)

    def setup(self):
        self.model = model.build(self.cfg)

    def run_unit(self, i: int) -> dict:
        self.setup()  # every pipeline starts from a fresh stage-1 model
        m = self.model
        (xtr, ytr), (xte, yte) = self.train, self.test
        t0 = clock()
        losses = []
        for stage in range(1, 6):
            cfg = training.stage_config(stage, self.epoch_scale, batch_size=self.batch)
            rows = training.run_stage(m, cfg, xtr, ytr, rng=np.random.default_rng(self.seed))
            losses += [loss for row in rows for loss in row["batch_losses"]]
        t1 = clock()
        self.plan = engine.compile(m)
        t2 = clock()
        _, conf_ref = training.evaluate(m, xte, yte, self.batch, path="ref")
        t3 = clock()
        _, conf_logic = training.evaluate(m, xte, yte, self.batch, path="logic")
        t4 = clock()
        div = engine.compare_paths(m, xte[: self.n_compare])
        self.account(
            self.check(bool(np.isfinite(losses).all()), f"pipeline {i}: non-finite loss"),
            self.check(np.array_equal(conf_ref, conf_logic),
                       f"pipeline {i}: ref and logic confusion matrices differ"),
            self.check(div is None, f"pipeline {i}: compare_paths: {div and div.describe()}"),
        )
        return {
            "pipeline_s": t4 - t0,
            "ref_clip_s": (t3 - t2) / self.n_test,
            "logic_clip_s": (t4 - t3) / self.n_test,
            "unit_s": t4 - t0,
            "phase1_s": t1 - t0,
        }


WORKLOADS = {w.name: w for w in (PaperInfer, PaperTrain, ToyPipeline)}
