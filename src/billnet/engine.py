"""Logic-path executor for fully quantized models.

``compile`` lowers a stage-5 graph into a flat plan of gate operations whose
only primitives are bitwise AND/OR/NOT, popcounts, integer comparisons and
small-integer adds; there is not a single real-valued constant in the plan.
The plan is its op list, in execution order: slot 0 holds the input and op
``i`` writes slot ``i + 1``.
Power-of-two norms vanish entirely (a positive scale cannot move a strict
zero threshold), and so do the fixed quantizer scales.  So does each MOR
block's select: its second norm is such a shift, so both mux branches are
the same bits and the block's output is its OR.  ``execute`` runs a plan on
8-bit inputs presented as bit planes and reproduces, bit for bit, every
binary/ternary intermediate of the arithmetic reference path.
``frames_to_bitplanes`` packs all 8 planes in one pass into one word
buffer; with one channel a pixel's word is its bit, so neither packing nor
``execute``'s reassembly of the uint8 input pads bytes or words.  The stem
conv casts that input once.  ``execute`` keeps a slot's value only while a
later op still reads it or a tap names it: each untapped slot is dropped
once its last reader has run, so the int conv outputs of one layer are gone
before the next layer's are formed.

Every packed dot product (``pw-conv-bin``, the QLSTM carry, ``tern-dense``)
is a formula over ``tensors.and_count``, the single AND + popcount kernel.
Ternary values (the QLSTM carry and the hidden sequence it emits) are int8
arrays in {-1, 0, 1}.  Where one feeds a popcount, ``_pack_tern_rows`` packs
it as two word rows, the bits of its +1 and of its -1 entries: the form
``compile`` gives the ``tern-dense`` weights.

Int slots that feed a convolution carry exact integers, so the integer
convolutions run through the reference path's BLAS kernel in floating point.
``compile`` bounds every conv's accumulator from its fan-in and gives the op
the dtype ``reference.exact_dtype`` picks for that bound, the same rule the
reference forward and the training tape follow from stage 3: float32 below
2**24, else float64; a model whose bound reaches ``reference.EXACT_LIMIT``
(2**53), where float64 stops being exact, is refused.  Every partial sum of an integer dot product
obeys the same bound, so the product is exact whatever order BLAS sums it in.
``pw-conv-bin`` hands on the sums of its packed dot products in the
narrowest integer dtype that holds them (int16 at paper scale), and the conv
or threshold that reads them casts once or not at all.  The QLSTM's count
features enter every step through one exact product per clip
(``count_products``), widened to int64 once; each step adds only its
recurrent popcounts.  ``execute`` looks each conv up as
``reference.conv3d`` at call time, so a profiler that wraps that one name
times the engine's convs apart from the rest of ``execute``, as it does the
reference's.

``compare_paths`` checks the paths against each other tap by tap, streaming:
the logic taps stay packed while the reference forms its intermediates one
at a time, each compared in the byte domain (bits as uint8, ints as they
are) and dropped.  Its report names every diverging tap, not only the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import reference as ref
from .errors import BadConfig, NotFullyQuantized, ShapeMismatch
from .quantize import sign_strict, stage_rules, stern
from .reference import ConvSpec, _blocks
from .tensors import BitTensor, and_count, bipolar_dot, pack, pack_vector, require_tensor5, unpack, unpack_bits

# ---------------------------------------------------------------------------
# Plan structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateOp:
    kind: str
    name: str
    inputs: tuple[int, ...]
    output: int
    params: dict


@dataclass
class GatePlan:
    """Topologically ordered gate program.  Slot 0 is the 8-bit input and
    op ``i`` writes slot ``i + 1``, reading only slots written before it."""

    ops: list[GateOp] = field(default_factory=list)
    outputs: dict[str, int] = field(default_factory=dict)  # intermediate name -> slot
    meta: dict = field(default_factory=dict)

    def emit(self, kind: str, name: str, inputs: tuple[int, ...], **params) -> int:
        self.ops.append(GateOp(kind, name, inputs, len(self.ops) + 1, params))
        return len(self.ops)


# ---------------------------------------------------------------------------
# Weight packing
# ---------------------------------------------------------------------------


def _pw_weight_words(w: np.ndarray) -> np.ndarray:
    """1x1x1 kernel (1,1,1,Ci,Co) -> per-output-channel sign words (Co, nw)."""
    signs = w.reshape(w.shape[3], w.shape[4]) > 0
    return pack_vector(signs.T)


@dataclass
class QLSTMGates:
    """The four gates' kernels side by side, in ``reference.GATES`` order: int8
    signs for the count features, and packed sign rows for the ternary
    recurrent part (one row per gate unit).  The signs stay int8 in the
    plan; ``count_products`` widens them once per clip, for the one product
    that serves every step."""

    wx: np.ndarray  # int8 (n_i, 4 * n_o)
    wh_words: np.ndarray  # uint64 (4 * n_o, words(n_o))
    n_i: int
    n_o: int

    @classmethod
    def from_latent(cls, weights) -> "QLSTMGates":
        n_i, n_o = weights.n_i, weights.n_o
        wx = np.concatenate([sign_strict(w[:n_i]).astype(np.int8) for w in weights.w], axis=1)
        whw = np.concatenate([pack_vector((w[n_i:] > 0).T) for w in weights.w])
        return cls(wx, whw, n_i, n_o)


def _pack_tern_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(.., n) in {-1,0,1} -> packed plus/minus word rows (.., nw)."""
    return pack_vector(values == 1), pack_vector(values == -1)


def count_products(counts: np.ndarray, gates: QLSTMGates, input_scale: int) -> np.ndarray:
    """The count features' share of every gate pre-activation, for all steps.

    ``counts`` is (N, T', n_i) integers in [0, input_scale] (the pooling
    denominator); returns int64 (N, T', 4, n_o).  Each value is an integer
    dot product of at most ``input_scale * n_i`` in magnitude, so the one
    product runs in ``reference.exact_dtype`` of that bound, exact in any
    summation order, and is widened to int64 once.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.shape[2] != gates.n_i:
        raise ShapeMismatch(f"counts {counts.shape} vs n_i={gates.n_i}")
    dtype = ref.exact_dtype(input_scale * gates.n_i)
    xw = counts.astype(dtype) @ gates.wx.astype(dtype)
    return xw.astype(np.int64).reshape(*counts.shape[:2], 4, gates.n_o)


def qlstm_step(
    xw: np.ndarray, h: np.ndarray, c: np.ndarray, gates: QLSTMGates, input_scale: int
) -> tuple[np.ndarray, np.ndarray]:
    """One fully quantized recurrent step; returns (h, c).

    ``xw`` is this step's (N, 4, n_o) slice of ``count_products``.  The
    carry ``h``, ``c`` is two int8 (N, n_o) arrays in {-1, 0, 1}.  Gate
    pre-activations are exact integers: ``h`` enters as its plus/minus word
    rows through ``bipolar_dot``, weighted by ``input_scale``, matching the
    reference path's normalized inputs without ever forming a real number.
    The cell update is a saturating ternary add; the new hidden state is
    the gated cell.
    """
    hp, hm = _pack_tern_rows(h)
    rec = bipolar_dot(hp, gates.wh_words) - bipolar_dot(hm, gates.wh_words)
    pre = xw + input_scale * rec.reshape(xw.shape)
    i, f, o = (pre[:, k] > 0 for k in range(3))
    ctilde = np.where(pre[:, 3] > 0, np.int8(1), np.int8(-1))
    c_new = np.clip(f * c + i * ctilde, -1, 1)
    return o * c_new, c_new


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


def compile(model) -> GatePlan:  # noqa: A001 - deliberate: it compiles the model
    """Lower a stage-5 graph to a gate plan (no reals, no norm nodes).

    Raises BadConfig when an int accumulator could reach ``reference.EXACT_LIMIT``.
    """
    if not stage_rules(model.stage).int_lstm:
        raise NotFullyQuantized(f"model is at stage {model.stage}, need 5")
    plan = GatePlan()
    cfg = model.config
    plan.meta = {"t": cfg.t, "h": cfg.h, "w": cfg.w, "in_channels": cfg.in_channels}
    cur = 0  # the input slot: 8-bit features reassembled from planes
    bound = {cur: 255}  # worst-case |value| of each int slot a conv writes or reads

    def conv_int(src, name, conv, kind="conv-int"):
        spec = conv.spec
        acc = bound[src] * spec.fan_in
        out = plan.emit(
            kind, name, (src,),
            w=sign_strict(conv.w).astype(np.int8), kernel=spec.kernel, strides=spec.strides,
            groups=spec.groups, out_channels=spec.out_channels,
            bound=acc, dtype=ref.exact_dtype(acc),
        )
        bound[out] = acc
        return out

    def pw_bin(src, name, conv):
        w_words = _pw_weight_words(conv.w)
        out = plan.emit("pw-conv-bin", name, (src,), w_words=w_words, out_channels=conv.spec.out_channels)
        bound[out] = conv.spec.fan_in
        return out

    def cf_chain(src, base, chain):
        pw1, gconv, pw2 = chain
        z = pw_bin(src, f"{base}.cf1", pw1)
        return conv_int(conv_int(z, f"{base}.cf2", gconv), f"{base}.cf3", pw2)

    for lay in model.layers:
        if lay.kind == "stem":
            z = conv_int(cur, f"{lay.name}.pre", lay.conv, kind="stem-conv")
            cur = plan.emit("threshold", f"{lay.name}.out", (z,))
            plan.outputs[f"{lay.name}.out"] = cur
        elif lay.kind == "cf":
            z = cf_chain(cur, lay.name, lay.chain)
            cur = plan.emit("threshold", f"{lay.name}.out", (z,))
            plan.outputs[f"{lay.name}.out"] = cur
        elif lay.kind == "mor":
            if lay.skip is not None:
                zs = pw_bin(cur, f"{lay.name}.skippre", lay.skip)
                skip = plan.emit("threshold", f"{lay.name}.skip", (zs,))
            else:
                skip = cur
            plan.outputs[f"{lay.name}.skip"] = skip
            u = cf_chain(cur, lay.name, lay.chain)
            v = plan.emit("threshold", f"{lay.name}.v", (u,))
            plan.outputs[f"{lay.name}.v"] = v
            cur = plan.emit("or", f"{lay.name}.i0", (v, skip))
            # The second norm folds to a positive shift and the step function
            # fixes binary values, so i1 coincides with i0; the select between
            # them cannot change a bit and is not emitted.
            for tap in ("i0", "i1", "out"):
                plan.outputs[f"{lay.name}.{tap}"] = cur
        elif lay.kind == "mp":
            cur = plan.emit(
                "maxpool-or", f"{lay.name}.out", (cur,),
                window=lay.window, strides=lay.window,  # non-overlapping; plan readers take both
            )
            plan.outputs[f"{lay.name}.out"] = cur
        elif lay.kind == "gap":
            t_h, t_w = lay.in_shape[1], lay.in_shape[2]
            plan.meta["gap_den"] = t_h * t_w
            cur = plan.emit("gap-count", f"{lay.name}.counts", (cur,))
            plan.outputs[f"{lay.name}.counts"] = cur
        elif lay.kind == "lstm":
            cur = plan.emit(
                "qlstm", f"{lay.name}.h", (cur,),
                gates=QLSTMGates.from_latent(lay.weights), input_scale=plan.meta["gap_den"],
            )
            plan.outputs[f"{lay.name}.h"] = cur
        elif lay.kind == "dense":
            t_vals, _ = stern(lay.w, lay.m)  # fixed positive scale dropped
            plus, minus = _pack_tern_rows(t_vals.T.astype(np.int8))
            cur = plan.emit(
                "tern-dense", f"{lay.name}.intlogits", (cur,),
                w_plus=plus, w_minus=minus, num_classes=lay.w.shape[1],
            )
            plan.outputs[f"{lay.name}.intlogits"] = cur
        else:
            raise TypeError(f"unknown layer kind {lay.kind!r}")
    pred = plan.emit("argmax", "pred", (cur,))
    plan.outputs["pred"] = pred
    max_acc = plan.meta["max_abs_acc"] = max(bound.values())
    if max_acc >= ref.EXACT_LIMIT:
        raise BadConfig(f"accumulator bound {max_acc} reaches {ref.EXACT_LIMIT}: float64 is not exact there")
    return plan


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def frames_to_bitplanes(frames: np.ndarray) -> list[BitTensor]:
    """uint8 (N,T,H,W,C) -> 8 bit planes, least significant first, packed
    in one pass: the planes' words are slices of one buffer.  Frames of any
    other dtype raise TypeError, which names it."""
    frames = require_tensor5(frames)
    if frames.dtype != np.uint8:
        raise TypeError(f"logic-path input must be uint8 gray levels, got {frames.dtype}")
    bits = (frames & (1 << np.arange(8, dtype=np.uint8))[:, None, None, None, None, None]) != 0
    return [BitTensor(frames.shape, words) for words in pack_vector(bits)]


def _pw_conv_bin(bt: BitTensor, w_words: np.ndarray) -> np.ndarray:
    """The bipolar sums of a pointwise conv, in the narrowest signed dtype
    that holds twice the channel count (int16 up to 16,383 channels)."""
    return bipolar_dot(bt.words, w_words, np.min_scalar_type(-2 * bt.channels - 1))


def _maxpool_or(bt: BitTensor, window) -> BitTensor:
    words = np.bitwise_or.reduce(_blocks(bt.words, window), axis=(2, 4, 6))
    return BitTensor((*words.shape[:4], bt.channels), words)


def _gap_count(bt: BitTensor) -> np.ndarray:
    return unpack(bt).sum(axis=(2, 3)).astype(np.int64)


def _tern_dense(h_seq: np.ndarray, w_plus, w_minus) -> np.ndarray:
    hp, hm = _pack_tern_rows(h_seq)
    return and_count(hp, w_plus) + and_count(hm, w_minus) - and_count(hp, w_minus) - and_count(hm, w_plus)


@dataclass
class ExecutionResult:
    pred: np.ndarray
    # slot value per tap: BitTensor for bit slots (still packed), else ndarray
    intermediates: dict[str, BitTensor | np.ndarray]


def execute(plan: GatePlan, planes: list[BitTensor]) -> ExecutionResult:
    """Run a gate plan on an input presented as 8 LSB-first bit planes."""
    if len(planes) != 8:
        raise ShapeMismatch(f"need 8 input bit planes, got {len(planes)}")
    if not all(isinstance(p, BitTensor) for p in planes):
        raise TypeError("input planes must be BitTensor")
    shape = planes[0].shape
    if any(p.shape != shape for p in planes):
        raise ShapeMismatch("input planes disagree on shape")
    meta = plan.meta
    if shape[1:] != (meta["t"], meta["h"], meta["w"], meta["in_channels"]):
        raise ShapeMismatch(f"input {shape} does not match plan {meta}")
    feats = np.zeros(shape, dtype=np.uint8)
    for b, p in enumerate(planes):
        feats |= unpack_bits(p) << b

    values: dict[int, object] = {0: feats}
    del feats
    taps = set(plan.outputs.values())
    last_read = {s: i for i, op in enumerate(plan.ops) for s in op.inputs}
    for i, op in enumerate(plan.ops):
        args = [values[s] for s in op.inputs]
        p = op.params
        if op.kind in ("stem-conv", "conv-int"):
            spec = ConvSpec(p["kernel"], p["strides"], p["groups"], args[0].shape[4], p["out_channels"])
            out = ref.conv3d(args[0].astype(p["dtype"], copy=False), p["w"].astype(p["dtype"]), spec, exact=True)
        elif op.kind == "pw-conv-bin":
            out = _pw_conv_bin(args[0], p["w_words"])
        elif op.kind == "threshold":
            out = pack(args[0] > 0)
        elif op.kind == "or":
            out = BitTensor(args[0].shape, args[0].words | args[1].words)
        elif op.kind == "maxpool-or":
            out = _maxpool_or(args[0], p["window"])
        elif op.kind == "gap-count":
            out = _gap_count(args[0])
        elif op.kind == "qlstm":
            gates, scale = p["gates"], p["input_scale"]
            xw = count_products(args[0], gates, scale)  # (N, T', 4, n_o)
            h = c = np.zeros((xw.shape[0], gates.n_o), dtype=np.int8)
            hs = []
            for t in range(xw.shape[1]):
                h, c = qlstm_step(xw[:, t], h, c, gates, scale)
                hs.append(h)
            out = np.stack(hs, axis=1)  # int8 (N, T', n_o)
        elif op.kind == "tern-dense":
            out = _tern_dense(args[0], p["w_plus"], p["w_minus"])
        elif op.kind == "argmax":
            out = np.argmax(args[0].sum(axis=1), axis=-1)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        values[op.output] = out
        for s in set(op.inputs):
            if last_read[s] == i and s not in taps:
                del values[s]

    inter = {name: values[slot] for name, slot in plan.outputs.items()}
    return ExecutionResult(pred=values[plan.ops[-1].output], intermediates=inter)


# ---------------------------------------------------------------------------
# Path-equivalence harness
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """A tap on which the two paths disagree.

    ``index``, ``got`` (logic) and ``want`` (reference) locate the first
    differing element in C order, and ``count`` is how many elements differ.
    ``why`` is set instead when the tap could not be compared element by
    element: the reference never produced it, or its size differs; ``count``
    is then the logic tap's size.  The report ``compare_paths`` returns is
    the first diverging tap, with every later one in ``later``.
    """

    name: str
    index: tuple
    got: float | None
    want: float | None
    count: int = 1
    why: str = ""
    later: list[Divergence] = field(default_factory=list)

    def _summary(self) -> str:
        if self.why:
            return f"{self.name}: {self.why}"
        return (
            f"{self.name}, index {self.index} (logic={self.got}, reference={self.want}); "
            f"{self.count} element(s) differ"
        )

    def describe(self) -> str:
        return "\n".join(
            [f"first divergence at {self._summary()}"] + [f"  then at {d._summary()}" for d in self.later]
        )


def _tap_divergence(name: str, got, want: np.ndarray) -> Divergence | None:
    """Compare one logic tap with the reference intermediate of its name.

    A bit tap is compared as ``unpack_bits`` uint8 and an int tap as it is;
    the comparison with the reference's float64 casts in the ufunc's
    buffer, so no full-size float64 copy of a tap is formed."""
    got = unpack_bits(got) if isinstance(got, BitTensor) else got
    if want.size != got.size:
        why = f"shape {got.shape} in the logic path, {want.shape} in the reference"
        return Divergence(name, (), None, None, got.size, why)
    want = want.reshape(got.shape)
    differ = got != want
    count = int(np.count_nonzero(differ))
    if not count:
        return None
    idx = tuple(int(v) for v in np.unravel_index(np.argmax(differ), differ.shape))
    return Divergence(name, idx, float(got[idx]), float(want[idx]), count)


def compare_paths(model, frames: np.ndarray) -> Divergence | None:
    """Run both paths on uint8 frames and check every logic tap against the
    reference intermediate of the same name; None when all agree exactly.

    The check streams.  The logic path runs first and its taps stay packed;
    the reference then runs without recording, and each intermediate it
    forms is compared with its logic tap at once and dropped (see
    ``_tap_divergence``), so the check holds about one reference forward
    plus the packed taps, never every intermediate at once.

    Every tap is checked, not only up to the first that differs.  The
    report is the first diverging tap in plan order, carrying each later
    one in ``later``; a tap the reference never produces, or whose size it
    cannot match, is reported rather than skipped.
    """
    taps = execute(compile(model), frames_to_bitplanes(frames)).intermediates
    found: dict[str, Divergence | None] = {}  # every tap the reference formed

    def check(name: str, want: np.ndarray):
        if name in taps:
            found[name] = _tap_divergence(name, taps[name], want)

    ref.forward(model, frames / 255.0, on_tap=check)
    report = []
    for name, val in taps.items():
        if name not in found:
            size = int(np.prod(val.shape))
            report.append(Divergence(name, (), None, None, size, "not produced by the reference"))
        elif found[name] is not None:
            report.append(found[name])
    if not report:
        return None
    report[0].later = report[1:]
    return report[0]
