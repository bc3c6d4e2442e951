"""Traced runs: spans around calls into each ``billnet`` module, from outside.

No ``billnet`` source is changed.  For every wrap point the tracer swaps a timing
wrapper in for the function name, in the namespace that looks it up at call
time (``engine.pack`` is the name ``engine`` calls, so tensors packing is
timed as the logic path uses it).  ``autodiff.Tape.record`` is wrapped too:
the backward closure an op records while its forward span is open is wrapped
in turn, so backward time lands on that op.

A span is ``[name, start, end, parent, unit]``, the unit being "setup" or the
clip / step / pipeline index; spans stay in memory and are written out when
the run ends.  A
wrap point that no longer exists (a later change renamed an import, say) is
reported as missing and skipped.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

from billnet import autodiff, engine, model, reference, training

from counts import im2col_bytes

# Autodiff ops reported by name; every other tape op is pooled as "other".
AUTODIFF_OPS = (
    "conv3d_op", "maxpool3d_op", "batchnorm_train", "channel_affine", "matmul",
    "sign_ste", "heaviside_ste", "clip_ste", "mux_select", "softmax_cce",
)

# (module, attribute, span name): the call sites the benchmark times.
WRAPS = (
    (engine, "pack", "tensors.pack"),
    (engine, "unpack", "tensors.unpack"),
    (engine, "frames_to_bitplanes", "engine.frames_to_bitplanes"),
    (engine, "execute", "engine.execute"),
    (engine, "qlstm_step", "engine.qlstm_step"),
    (engine, "compile", "engine.compile"),
    (reference, "forward", "reference.forward"),
    (training, "eval_forward", "reference.forward"),
    (reference, "conv3d", "reference.conv3d"),
    (reference, "maxpool3d", "reference.maxpool3d"),
    (reference, "lstm_cell", "reference.lstm_cell"),
    (reference, "mux", "reference.mux"),
    (reference, "bn_forward", "quantize.bn_forward"),
    (reference, "bsn_forward", "quantize.bsn_forward"),
    (reference, "tgap_select", "quantize.tgap_select"),
    (training, "tgap_select", "quantize.tgap_select"),
    (model, "build", "model.build"),
    (model, "apply_stage_transition", "model.apply_stage_transition"),
    (training, "apply_stage_transition", "model.apply_stage_transition"),
    (autodiff, "backward", "autodiff.backward"),
    (training, "training_graph", "training.training_graph"),
    (training, "adam_step", "training.adam_step"),
    (training, "bind_params", "training.bind_params"),
    (training, "run_stage", "training.run_stage"),
    (training, "evaluate", "training.evaluate"),
)


def _autodiff_wraps():
    """Named tape ops, then every other public function taking ``tape`` first."""
    wraps = [(autodiff, op, f"autodiff.{op}.fwd") for op in AUTODIFF_OPS]
    for attr, fn in sorted(vars(autodiff).items()):
        if attr.startswith("_") or attr in AUTODIFF_OPS or attr == "backward":
            continue
        if not inspect.isfunction(fn) or fn.__module__ != autodiff.__name__:
            continue
        if list(inspect.signature(fn).parameters)[:1] == ["tape"]:
            wraps.append((autodiff, attr, "autodiff.other.fwd"))
    return wraps


def _evaluate_path(args, kwargs) -> str:
    return kwargs.get("path", args[4] if len(args) > 4 else "ref")


def _kind(unit) -> str:
    return "setup" if unit == "setup" else "unit"


class Tracer:
    """Span recorder; ``run()`` swaps the wrappers in for one call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.units: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._unit: str | int = "setup"
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        for mod, attr, name in WRAPS + tuple(_autodiff_wraps()):
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod.__name__}.{attr}")
                continue
            self._originals.append((mod, attr, fn))
            self._wrappers.append((mod, attr, self._wrap(fn, name, attr)))
        record = getattr(autodiff.Tape, "record", None)
        if record is None:
            self.missing.append("billnet.autodiff.Tape.record")
        else:
            self._originals.append((autodiff.Tape, "record", record))
            self._wrappers.append((autodiff.Tape, "record", self._wrap_record(record)))

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._unit])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1):
        self.counts[(_kind(self._unit), name)] += value

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _wrap(self, fn, name: str, attr: str):
        timed = self._timed(fn, name)
        if name == "training.evaluate":
            per_path = {p: self._timed(fn, f"{name}.{p}") for p in ("ref", "logic")}
            return lambda *a, **k: per_path.get(_evaluate_path(a, k), timed)(*a, **k)
        if name == "reference.conv3d":
            def conv(x, w, spec, *a, **k):
                self.count("reference.conv3d.im2col_bytes", im2col_bytes(x.shape, spec))
                return timed(x, w, spec, *a, **k)
            return conv
        if attr == "conv3d_op":
            def conv_op(tape, x, w, spec, *a, **k):
                # forward columns, rebuilt once more for the weight gradient
                self.count("autodiff.conv3d_op.im2col_bytes", 2 * im2col_bytes(x.value.shape, spec))
                return timed(tape, x, w, spec, *a, **k)
            return conv_op
        if name == "engine.execute":
            def execute(plan, planes, *a, **k):
                self.count("engine.execute.clips", planes[0].shape[0])
                return timed(plan, planes, *a, **k)
            return execute
        return timed

    def _wrap_record(self, record):
        def wrapped(tape, backward, *inputs):
            self.count("autodiff.tape.ops")
            top = self.spans[self._stack[-1]][0] if self._stack else ""
            if top.startswith("autodiff.") and top.endswith(".fwd"):
                backward = self._timed(backward, top[: -len(".fwd")] + ".bwd")
            return record(tape, backward, *inputs)

        return wrapped

    # -- install / units --------------------------------------------------

    def _install(self):
        for mod, attr, wrapper in self._wrappers:
            setattr(mod, attr, wrapper)

    def _uninstall(self):
        for mod, attr, fn in self._originals:
            setattr(mod, attr, fn)

    def run(self, unit: str | int, fn, *args):
        """Call ``fn(*args)`` with the wrappers installed, spans under ``unit``
        ("setup" or a unit index)."""
        self._unit = unit
        self._install()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._uninstall()
            self.units.append({"unit": unit, "start": start, "end": time.perf_counter()})

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def per_unit(self) -> dict[str, float]:
        """Totals per name, per set-up for set-up spans plus per unit of work
        for the rest."""
        n = defaultdict(int)
        for u in self.units:
            n[_kind(u["unit"])] += 1
        raw: dict[tuple[str, str], float] = defaultdict(float, self.counts)
        for s, own in zip(self.spans, self.self_times()):
            name, ctx = s[0], _kind(s[4])
            raw[(ctx, f"{name}.s")] += s[2] - s[1]
            raw[(ctx, f"{name}.self_s")] += own
            raw[(ctx, f"{name}.calls")] += 1
        totals: dict[str, float] = defaultdict(float)
        for (ctx, name), value in raw.items():
            totals[name] += value / n[ctx]
        return dict(totals)

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start", "end", "parent", "unit"],
            "spans": self.spans,
            "units": self.units,
            "missing": self.missing,
        }
