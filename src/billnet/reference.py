"""Arithmetic reference path: dense-tensor forward for every training stage.

Everything here operates on (N, T, H, W, C) arrays: float64, except the
narrower dtypes described below.  The model-level ``forward`` evaluates a
built graph under the ``quantize.stage_rules`` of its current stage, using
frozen statistics (moving batch-norm stats, folded shifts), hands each
binary and ternary intermediate the logic path must reproduce to its
``on_tap`` callback, and returns per-step logits plus aggregated class
scores.

Inputs are 8-bit fixed point (gray levels scaled by 1/255); ``snap_to_grid``
refuses a clip that is not floating point or not in [0, 1].  Each conv is a
``model.Conv`` record, and a CF or MOR block's factorized Conv3D is its
``chain`` of three, pointwise -> grouped -> pointwise.  Once the rules
fold the norms (``folded_norms``) every threshold sits exactly at zero, so
pre-activations that feed a step function are accumulated over
integer-valued operands, and the two execution paths agree bit for bit
rather than merely within tolerance.  Such a sum is exact in floating point
whatever order BLAS adds it in, as long as its worst-case magnitude stays
below the limit where the format stops holding every integer.
``exact_dtype`` is the one home of that precision rule: float32 below 2**24,
else float64, which is exact below 2**53.  With ``binary_acts`` every conv
after the stem reads {0,1} with +-1 weights, and with ``folded_norms`` the
stem reads the 8-bit levels as integers.  ``forward`` bounds each such
conv's accumulator from its input's bound and its fan-in, as the logic-path
compiler and the training tape do (255 x fan-in for the stem on the 8-bit
grid, fan-in for a conv reading {0,1}, the previous bound x fan-in along a
block's chain), and runs the conv in that dtype;
before the norms fold, the batch norm that follows reads the sums as
float64.  Once they fold it steps on the raw integer sums, as the logic
path does: the folded norm is a positive power-of-two scale (the stem's
also divides by 255), and no positive scale can move a strict zero step, so
``apply_norm`` is skipped.  The step's output is bool, and so is every
binary activation from there (the MOR OR, the pools) until the global
average, which averages in float64 because the LSTM reads it; a bounded
conv casts its bool input once to its dtype.  Each tapped intermediate
reaches ``on_tap`` as float64, with the same bits as an all-float64 run
through the norms.

Because a bounded conv's every partial sum is an integer below its dtype's
exact limit, no order of additions can round, so such a conv may sum in an
order that suits the kernel.  ``conv3d(exact=True)`` splits a stride-1 conv
with kt > 1 along kt: columns over (kh, kw, channel) only, one product per
temporal offset, and the products added.  The bounded convs here, the
logic path's and the training tape's pass it; every float product, whose
rounding depends on the order, keeps one product per group.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import prod

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BadConfig, BadGrouping, NonBinarySelect, ShapeMismatch
from .quantize import (
    BNParams,
    ShiftNorm,
    StageRules,
    bn_forward,
    bsn_forward,
    clip,
    heaviside,
    sign_strict,
    ssign,
    stage_rules,
    stern,
    tgap_select,
)
from .tensors import conv_output_shape, conv_same_pads


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one 3-D convolution (cross-correlation, zero padding)."""

    kernel: tuple[int, int, int]
    strides: tuple[int, int, int]
    groups: int
    in_channels: int
    out_channels: int

    def __post_init__(self):
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise BadGrouping(
                f"channels ({self.in_channels}->{self.out_channels}) not divisible "
                f"by {self.groups} groups"
            )
        if any(k % 2 == 0 for k in self.kernel):
            raise BadConfig(f"'same' padding requires odd kernel dims, got {self.kernel}")

    @property
    def weight_shape(self) -> tuple[int, ...]:
        kt, kh, kw = self.kernel
        return (kt, kh, kw, self.in_channels // self.groups, self.out_channels)

    @property
    def fan_in(self) -> int:
        """Products summed into one output value."""
        return prod(self.kernel) * self.in_channels // self.groups


def _windows(a: np.ndarray, window, strides) -> np.ndarray:
    """Floor-mode (N,To,Ho,Wo,kt,kh,kw,C) window view over the (T,H,W) axes."""
    dims = [(s - k) // st + 1 for s, k, st in zip(a.shape[1:4], window, strides)]
    sn, st_, sh, sw, sc = a.strides
    return as_strided(
        a,
        shape=(a.shape[0], *dims, *window, a.shape[4]),
        strides=(sn, st_ * strides[0], sh * strides[1], sw * strides[2], st_, sh, sw, sc),
        writeable=False,
    )


def _columns(x: np.ndarray, kernel, strides, groups: int, dtype=None):
    """Im2col for a same-padded grouped conv, one group per call.

    Returns ``cols(gi)``, which builds group ``gi``'s
    (N*To*Ho*Wo, kt*kh*kw*C/groups) column matrix, columns ordered
    (kt, kh, kw, channel), in ``dtype`` (by default the input's).  Every
    call writes the same buffer, so a caller consumes each matrix before
    asking for the next group's.  A 1x1x1 stride-1 kernel needs no padding
    or window copy: its columns are the input's own rows.

    Otherwise the input is copied once, zero-padded and group-major, into a
    (groups, N, T', H', W', C/groups) slab of that dtype.  Within one
    group's slab the channels of neighbouring pixels are adjacent, so each
    window row of kw pixels is one contiguous run of kw*C/groups values that
    the column copy moves in one piece.
    """
    n, t, h, w, c = x.shape
    cig = c // groups
    dtype = x.dtype if dtype is None else dtype
    if tuple(kernel) == (1, 1, 1) and tuple(strides) == (1, 1, 1):
        rows = x.reshape(-1, c).astype(dtype, copy=False)
        return lambda gi: rows[:, gi * cig : (gi + 1) * cig]
    pads = [conv_same_pads(s, k, st)[1:] for s, k, st in zip((t, h, w), kernel, strides)]
    slab = np.zeros((groups, n, *(s + b + a for s, (b, a) in zip((t, h, w), pads)), cig), dtype)
    (bt, _), (bh, _), (bw, _) = pads
    slab[:, :, bt : bt + t, bh : bh + h, bw : bw + w] = np.moveaxis(x.reshape(n, t, h, w, groups, cig), 4, 0)
    buf = None

    def cols(gi):
        nonlocal buf
        view = _windows(slab[gi], kernel, strides)
        if buf is None:
            buf = np.empty(view.shape, dtype)
        np.copyto(buf, view)
        return buf.reshape(-1, prod(kernel) * cig)

    return cols


def conv3d(x: np.ndarray, w: np.ndarray, spec: ConvSpec, exact: bool = False) -> np.ndarray:
    """Grouped 3-D cross-correlation with zero "same" padding.

    ``exact`` says that every partial sum of the conv is an integer the
    dtype holds exactly (see ``exact_dtype``), so the sum may be formed in
    any order.  A stride-1 conv with kt > 1 then takes its columns over
    (kh, kw, channel) only, about 1/kt of the full matrix, and adds one
    product per temporal offset, each over the rows of the input frames that
    offset reads.  Any other conv, and every conv without ``exact``, forms
    one product per group, whose float rounding depends on BLAS's order."""
    if x.ndim != 5 or x.shape[4] != spec.in_channels:
        raise ShapeMismatch(f"input {x.shape} incompatible with {spec}")
    if w.shape != spec.weight_shape:
        raise ShapeMismatch(f"weights {w.shape}, expected {spec.weight_shape}")
    n = x.shape[0]
    dims = conv_output_shape(x.shape[1:4], spec.kernel, spec.strides)
    cog = spec.out_channels // spec.groups
    out = np.empty((n * prod(dims), spec.out_channels), dtype=np.result_type(x, w))
    if exact and spec.kernel[0] > 1 and tuple(spec.strides) == (1, 1, 1):
        return _conv_split_t(x, w, spec, out)
    cols = _columns(x, spec.kernel, spec.strides, spec.groups)
    for gi in range(spec.groups):
        wg = w[..., gi * cog : (gi + 1) * cog].reshape(-1, cog)
        np.matmul(cols(gi), wg, out=out[:, gi * cog : (gi + 1) * cog])
    return out.reshape(n, *dims, spec.out_channels)


def _conv_split_t(x, w, spec: ConvSpec, out):
    """``conv3d`` of a stride-1 conv with exact sums, split along kt.

    Input frame ``t + dt - pt`` (``pt`` the front pad) meets weight slice
    ``dt`` at output frame ``t``, so with rows ordered (n, t, h, w) every
    offset's product reads one contiguous row run per clip and adds into
    another; the frames a pad would supply add nothing and are skipped.
    The centre offset, which reaches every output frame, writes ``out``
    first."""
    n, t, h, wd, _ = x.shape
    kt, kh, kw = spec.kernel
    cog = spec.out_channels // spec.groups
    pt = conv_same_pads(t, kt, 1)[1]
    hw = h * wd
    out = out.reshape(n, t * hw, spec.out_channels)
    cols = _columns(x, (1, kh, kw), (1, 1, 1), spec.groups)
    for gi in range(spec.groups):
        cg = cols(gi).reshape(n, t * hw, -1)
        og = out[..., gi * cog : (gi + 1) * cog]
        wg = w[..., gi * cog : (gi + 1) * cog].reshape(kt, -1, cog)
        np.matmul(cg, wg[pt], out=og)
        for dt in range(kt):
            s = dt - pt  # input frame minus output frame
            lo, hi = max(0, -s), min(t, t - s)  # output frames this offset reaches
            if dt != pt and lo < hi:
                og[:, lo * hw : hi * hw] += cg[:, (lo + s) * hw : (hi + s) * hw] @ wg[dt]
    return out.reshape(n, t, h, wd, spec.out_channels)


# Largest magnitudes below which float32 and float64 hold every integer exactly.
FLOAT32_EXACT_LIMIT = 2**24
EXACT_LIMIT = 2**53


def exact_dtype(bound: int) -> np.dtype:
    """Narrowest float dtype for an integer dot product whose every partial
    sum is at most ``bound`` in magnitude: float32 below ``FLOAT32_EXACT_LIMIT``,
    else float64, which is exact only below ``EXACT_LIMIT``."""
    return np.dtype(np.float32 if bound < FLOAT32_EXACT_LIMIT else np.float64)


def _conv(x, w, spec: ConvSpec, bound: int | None = None):
    """``conv3d`` and the bound on its output.

    With ``bound`` (integer-valued ``x`` of at most that magnitude, +-1
    weights ``w``) the conv runs in ``exact_dtype`` of its accumulator bound,
    as an ``exact`` conv, and the result stays in that dtype; without it, as
    given."""
    if bound is None:
        return conv3d(x, w, spec), None
    bound *= spec.fan_in
    dtype = exact_dtype(bound)
    return conv3d(x.astype(dtype, copy=False), w.astype(dtype, copy=False), spec, exact=True), bound


def _blocks(a: np.ndarray, window) -> np.ndarray:
    """The whole non-overlapping windows of ``a`` over its (T,H,W) axes,
    floor mode, as (N, To, kt, Ho, kh, Wo, kw, C): a reshape of a cropped
    slice, which only splits axes, so it is a view, writeable wherever ``a``
    is.  Reduce it over axes (2, 4, 6) to pool."""
    if a.ndim != 5:
        raise ShapeMismatch(f"expected 5 axes, got {a.shape}")
    dims = [s // k for s, k in zip(a.shape[1:4], window)]
    if 0 in dims:
        raise ShapeMismatch(f"window {window} larger than input {a.shape}")
    (to, ho, wo), (kt, kh, kw) = dims, window
    crop = a[:, : to * kt, : ho * kh, : wo * kw]
    return crop.reshape(a.shape[0], to, kt, ho, kh, wo, kw, a.shape[4])


def maxpool3d(x: np.ndarray, window=(1, 2, 2)) -> np.ndarray:
    """Max pooling over non-overlapping (T,H,W) windows, floor mode
    (remainder cropped)."""
    return _blocks(x, window).max(axis=(2, 4, 6))


def gap_spatial(x: np.ndarray) -> np.ndarray:
    """Spatial global average per (batch, time, channel): (N,T,1,1,C)."""
    if x.ndim != 5:
        raise ShapeMismatch(f"expected 5 axes, got {x.shape}")
    return x.mean(axis=(2, 3), keepdims=True)


def mux(i0: np.ndarray, i1: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Channel-wise two-way select: i1 where s==1, i0 where s==0."""
    if i0.shape != i1.shape:
        raise ShapeMismatch(f"branch shapes differ: {i0.shape} vs {i1.shape}")
    if s.shape != (i0.shape[0], i0.shape[1], 1, 1, i0.shape[4]):
        raise ShapeMismatch(f"select shape {s.shape} not (N,T,1,1,C) for {i0.shape}")
    if not np.isin(s, (0, 1)).all():
        raise NonBinarySelect("mux select must be binary")
    return i1 * s + i0 * (1.0 - s)


def relu(x):
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------


# The recurrent gates in the order ``LSTMWeights`` stacks them: input,
# forget, output, candidate.  The tags also name the gates' trainable vars.
GATES = "ifoc"


@dataclass
class LSTMWeights:
    """The recurrent layer's latents: ``w``, the gate kernels stacked in
    ``GATES`` order, (4, n_i + n_o, n_o), and ``b``, their biases, (4, n_o),
    or None once ``binary_weights`` drops them."""

    w: np.ndarray
    b: np.ndarray | None

    @property
    def n_i(self) -> int:
        return self.w.shape[1] - self.w.shape[2]

    @property
    def n_o(self) -> int:
        return self.w.shape[2]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_kernels(weights: LSTMWeights, rules: StageRules) -> np.ndarray:
    """The gate kernels as ``rules`` read them, one stack like ``weights.w``:
    strict signs with ``int_lstm``, else ``ssign`` with ``binary_weights``,
    else the latents."""
    if rules.int_lstm:
        return sign_strict(weights.w)
    if rules.binary_weights:
        return ssign(weights.w, weights.n_i, weights.n_o)
    return weights.w


def lstm_cell(
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    weights: LSTMWeights,
    rules: StageRules,
    kernels: np.ndarray,
    input_denominator: int | None = None,
):
    """One recurrent step under ``rules``; returns (h_t, c_t).

    ``kernels`` is ``lstm_kernels(weights, rules)``: a caller stepping
    through a sequence quantizes the kernels once, not per step.  Each gate
    takes its own product.

    Before ``binary_weights``: sigmoid gates, tanh candidate and output
    squash, and the biases.  With it: the same activations on kernels
    binarized to +-3/sqrt(n_i+n_o), and no biases.  With ``int_lstm``: step
    gates, strict-sign candidate, cell state saturated to {-1,0,+1}, output
    squash removed (h = o * c).

    With ``int_lstm`` inputs lie on the grid k/d for ``input_denominator``
    d, which the cell then requires: pre-activations are accumulated as
    exact integers, so the strict zero thresholds match the logic path bit
    for bit.
    """
    if x_t.shape[1] + h_prev.shape[1] != kernels.shape[1]:
        raise ShapeMismatch(
            f"x {x_t.shape} + h {h_prev.shape} does not match kernels {kernels.shape}"
        )
    if rules.int_lstm:
        if not input_denominator:
            raise ValueError("the integer LSTM needs the input_denominator of its grid")
        pre = exact_preactivations(x_t, h_prev, kernels, input_denominator)
        # The positive factor scale/d cannot move a strict zero threshold, so
        # the gates are taken on the integer form directly.
        i, f, o = heaviside(pre[0]), heaviside(pre[1]), heaviside(pre[2])
        ctilde = sign_strict(pre[3])
        c_new = clip(f * c_prev + i * ctilde)
        return o * c_new, c_new
    zx = np.concatenate([x_t, h_prev], axis=1)
    pre = [zx @ w for w in kernels]
    if not rules.binary_weights:
        pre = [p + b for p, b in zip(pre, weights.b)]
    i, f, o = _sigmoid(pre[0]), _sigmoid(pre[1]), _sigmoid(pre[2])
    c_new = f * c_prev + i * np.tanh(pre[3])
    return o * np.tanh(c_new), c_new


def exact_preactivations(x_t, h_prev, signs, d: int) -> list[np.ndarray]:
    """The integer LSTM's gate pre-activations as exact integers for inputs
    on the grid k/d, from the stack of the kernels' strict signs
    (``lstm_kernels`` with ``int_lstm``): rint(x*d) @ sign(w_x) +
    d * (h @ sign(w_h)), the scaled float form times the positive factor
    d/scale."""
    counts = np.rint(x_t * d)
    n_i = x_t.shape[1]
    return [counts @ s[:n_i] + d * (h_prev @ s[n_i:]) for s in signs]


# ---------------------------------------------------------------------------
# Classifier head
# ---------------------------------------------------------------------------


def aggregate_logits(logits: np.ndarray) -> np.ndarray:
    """Class scores: mean of per-step logits over the time axis."""
    return logits.mean(axis=1)


def predict(scores: np.ndarray) -> np.ndarray:
    """Argmax with ties broken toward the lowest class index."""
    return np.argmax(scores, axis=-1)


# ---------------------------------------------------------------------------
# Stage-aware model forward
# ---------------------------------------------------------------------------


def _layer_conv(x, conv, rules: StageRules, bound: int | None = None):
    """``_conv`` of a layer's ``model.Conv`` record, its latent weights as
    ``rules`` use them (signs with ``binary_weights``)."""
    w = sign_strict(conv.w) if rules.binary_weights else conv.w
    return _conv(x, w, conv.spec, bound)


def apply_norm(x, norm):
    if isinstance(norm, BNParams):
        return bn_forward(x, norm)
    if isinstance(norm, ShiftNorm):
        return bsn_forward(x, norm)
    raise TypeError(f"unknown norm {type(norm)!r}")


def _norm_act(z, norm, rules: StageRules):
    """Norm (none for a skip conv, ``norm`` None), then activation: the step
    with ``binary_acts``, else relu.  Once the norms fold, each is a positive
    power-of-two shift, which cannot move the strict zero step, so the step
    reads the raw sum ``z`` in whatever dtype its conv ran and gives bool."""
    if rules.folded_norms:
        return z > 0
    z = z if norm is None else apply_norm(z, norm)
    return heaviside(z) if rules.binary_acts else relu(z)


@dataclass
class ForwardResult:
    logits: np.ndarray  # (N, T', classes) per-step responses
    scores: np.ndarray  # (N, classes) temporal mean
    pred: np.ndarray  # (N,) argmax class


def _cf_apply(x, layer, rules: StageRules):
    """The layer's ``chain`` (pointwise -> grouped -> pointwise), no
    nonlinearity in between; with ``rules.act_bound`` on the input, each conv
    at its exact precision (see ``_conv``), and the result in that dtype."""
    bound = rules.act_bound
    for conv in layer.chain:
        x, bound = _layer_conv(x, conv, rules, bound)
    return x


def snap_to_grid(x: np.ndarray, cfg, rules: StageRules) -> np.ndarray:
    """Snap a (N,T,H,W,C) clip of config ``cfg``'s shape onto the 8-bit
    grid, formed once as one float64 array: the levels ``rint(x * 255)``
    themselves once ``rules`` fold the norms (the stem then sums them as
    integers, and 1/255 is one more positive scale ahead of its step), else
    those levels / 255.  Any other shape raises ShapeMismatch.  The clip
    holds gray levels already scaled by 1/255: one that is not floating
    point raises TypeError, and values outside [0, 1] raise ValueError."""
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        raise TypeError(f"clip must be floating-point gray levels / 255, got {x.dtype}")
    if x.ndim != 5 or x.shape[1:] != (cfg.t, cfg.h, cfg.w, cfg.in_channels):
        raise ShapeMismatch(f"clip {x.shape} is not (N, {cfg.t}, {cfg.h}, {cfg.w}, {cfg.in_channels})")
    if x.size and not (0 <= x.min() and x.max() <= 1):
        raise ValueError("clip values outside [0, 1]: gray levels must be scaled by 1/255")
    levels = np.rint(x.astype(np.float64, copy=False) * 255)
    return levels if rules.folded_norms else np.divide(levels, 255, out=levels)


def forward(model, x: np.ndarray, on_tap: Callable[[str, np.ndarray], None] | None = None) -> ForwardResult:
    """Evaluate the graph at ``model.stage`` on a (N,T,H,W,C) input.

    ``on_tap``, when given, is called with each named intermediate's name
    and value as it is formed, in graph order; it is the only way out for
    intermediates, so the forward holds none of them past its own use.
    Once the norms fold the forward carries binary activations as bool;
    ``on_tap`` still receives each as float64 {0, 1}, one copy per array
    whatever the number of names it goes by, and the integer taps (gap
    counts, the LSTM's ``.h``, int logits, prediction) as integers.
    """
    rules = stage_rules(model.stage)

    def put(value, *keys):
        if on_tap is not None:
            value = value.astype(np.float64) if value.dtype == bool else value
            for key in keys:
                on_tap(key, value)

    x = snap_to_grid(x, model.config, rules)
    gap_den = 0

    for layer in model.layers:
        kind = layer.kind
        if kind == "stem":
            # Folded norms sum the 8-bit levels exactly.  No name holds the
            # conv's sums, so they are freed once stepped.
            bound = 255 if rules.folded_norms else None
            x = _norm_act(_layer_conv(x, layer.conv, rules, bound)[0], layer.norm, rules)
            put(x, f"{layer.name}.out")
        elif kind == "cf":
            x = _norm_act(_cf_apply(x, layer, rules), layer.norm, rules)
            put(x, f"{layer.name}.out")
        elif kind == "mor":
            if layer.skip is not None:
                skip = _norm_act(_layer_conv(x, layer.skip, rules, rules.act_bound)[0], None, rules)
            else:
                skip = x
            v = _norm_act(_cf_apply(x, layer, rules), layer.norm1, rules)
            put(skip, f"{layer.name}.skip")
            put(v, f"{layer.name}.v")
            if rules.folded_norms:
                # On binary v and skip the clipped sum is their OR.  The
                # second norm is a positive shift and the step fixes the
                # binary i0, so i1 is i0 and the select cannot change a bit.
                x = v | skip
                put(x, f"{layer.name}.i0", f"{layer.name}.i1", f"{layer.name}.out")
            else:
                i0 = clip(v + skip)
                sel = tgap_select(skip, quantized=rules.binary_acts)
                i1 = _norm_act(i0, layer.norm2, rules)
                x = mux(i0, i1, sel)
                put(sel, f"{layer.name}.sel")
                put(i0, f"{layer.name}.i0")
                put(i1, f"{layer.name}.i1")
                put(x, f"{layer.name}.out")
        elif kind == "mp":
            x = maxpool3d(x, layer.window)
            put(x, f"{layer.name}.out")
        elif kind == "gap":
            gap_den = x.shape[2] * x.shape[3]
            x = gap_spatial(x).reshape(x.shape[0], x.shape[1], x.shape[4])
            if rules.int_lstm:
                put(np.rint(x * gap_den).astype(np.int64), f"{layer.name}.counts")
        elif kind == "lstm":
            n, t_steps, _ = x.shape
            h = np.zeros((n, layer.weights.n_o))
            c = np.zeros((n, layer.weights.n_o))
            hs = []
            kernels = lstm_kernels(layer.weights, rules)
            for t in range(t_steps):
                # only the integer LSTM reads the pooling denominator
                h, c = lstm_cell(x[:, t, :], h, c, layer.weights, rules, kernels, gap_den)
                hs.append(h)
            x = np.stack(hs, axis=1)  # (N, T', n_o)
            if rules.int_lstm:
                put(x.astype(np.int8), f"{layer.name}.h")
                # c of the final step is enough to pin closure; full h carries
                # the information the classifier consumes.
            put(x, f"{layer.name}.out")
        elif kind == "dense":
            w, scale = stern(layer.w, layer.m) if rules.binary_weights else (layer.w, 1.0)
            raw = x @ w  # exact integers with the integer LSTM
            logits = scale * raw
            scores = scale * aggregate_logits(raw)
            if rules.int_lstm:
                put(np.rint(raw).astype(np.int64), f"{layer.name}.intlogits")
            put(logits, f"{layer.name}.logits")
        else:
            raise TypeError(f"unknown layer kind {kind!r}")
    pred = predict(scores)
    put(pred, "pred")
    return ForwardResult(logits=logits, scores=scores, pred=pred)
