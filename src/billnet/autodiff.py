"""Minimal reverse-mode differentiation on float64 arrays.

A ``Tape`` records one closure per primal op in execution order; ``backward``
replays them in exact reverse order, accumulating gradients additively into
each ``Var``.  Smooth ops carry their analytic adjoints; the quantizers carry
surrogate (straight-through) gradients, windowed by ``quantize.heaviside_ste_grad``:

    step(x)            backward  g * 1_{|x| <= 1}
    clip(x)            backward  g            (identity)
    sign(x), scaled    backward  scale * g * 1_{|x| <= 1}
    ternarize, scaled  backward  scale * g * 1_{|x| <= 1}

Latent (real) parameters therefore receive gradients straight through their
quantized images.

Only what some trainable depends on is differentiated.  A leaf ``Var``
needs a gradient iff it is ``trainable``; data leaves need none.  An op's
output needs one iff some input does.  ``Tape.record`` applies that rule
for every op: it keeps the op's backward closure only when some input
needs a gradient and returns whether one does, which the op stores on its
output.  ``Tape._acc`` drops a gradient bound for a ``Var`` that needs
none, so such a ``Var``'s ``grad`` stays None; an op whose input gradient
is costly (``conv3d_op``) does not form it at all.

Gradients are shared, never written in place: ``Tape._acc`` stores the array
an op hands it (or a fresh sum), so one array may be the upstream gradient of
several operands and the ``grad`` of several ``Var``s.  No op may write into
an ``out.grad`` it reads or into an array it has passed to ``_acc``.
"""

from __future__ import annotations

import numpy as np

from .errors import DisconnectedGraph
from .quantize import (
    clip as q_clip,
    heaviside as q_heaviside,
    heaviside_ste_grad,
    sign_strict,
    tern,
)
from .reference import ConvSpec, _columns, _conv, conv3d
from .tensors import conv_same_pads


class Var:
    """Array node; ``trainable`` marks optimizer targets, the leaves whose
    gradient ``backward`` forms; ``requires_grad`` marks every node that
    needs a gradient (see the module docstring)."""

    __slots__ = ("value", "grad", "trainable", "requires_grad", "name")

    def __init__(self, value, trainable=False, name=""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.trainable = self.requires_grad = trainable
        self.name = name

    @property
    def shape(self):
        return self.value.shape


class Tape:
    def __init__(self):
        self._backward = []  # closures, execution order
        self.params: list[Var] = []
        self._touched: set[int] = set()

    def watch(self, var: Var) -> Var:
        if var.trainable and all(var is not p for p in self.params):
            self.params.append(var)
        return var

    def record(self, backward, *inputs: Var) -> bool:
        """Note an op on ``inputs``; returns whether its output needs a
        gradient, and keeps ``backward`` only if so."""
        for v in inputs:
            self._touched.add(id(v))
        needs = any(v.requires_grad for v in inputs)
        if needs:
            self._backward.append(backward)
        return needs

    def _acc(self, var: Var, g: np.ndarray):
        if not var.requires_grad:
            return
        g = _unbroadcast(g, var.value.shape)
        var.grad = g if var.grad is None else var.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum out broadcast axes so the gradient matches the operand shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(tape: Tape, loss: Var):
    """Seed the scalar loss and sweep the tape in reverse.

    The sweep consumes the tape: its closures are dropped once it ends.  Each
    closure refers back to the tape; kept, that cycle would hold every
    forward activation until the cyclic garbage collector runs.

    Raises DisconnectedGraph when a registered trainable never took part in
    the recorded forward pass.
    """
    if loss.value.size != 1:
        raise ValueError("loss must be scalar")
    for p in tape.params:
        if id(p) not in tape._touched:
            raise DisconnectedGraph(f"trainable {p.name or '<unnamed>'} unreachable from loss")
    loss.grad = np.ones_like(loss.value)
    for bwd in reversed(tape._backward):
        bwd()
    tape._backward.clear()


# ---------------------------------------------------------------------------
# Smooth primitives
# ---------------------------------------------------------------------------


def add(tape: Tape, a: Var, b: Var) -> Var:
    out = Var(a.value + b.value)

    def bwd():
        if out.grad is None:
            return
        tape._acc(a, out.grad)
        tape._acc(b, out.grad)

    out.requires_grad = tape.record(bwd, a, b)
    return out


def mul(tape: Tape, a: Var, b: Var) -> Var:
    out = Var(a.value * b.value)

    def bwd():
        if out.grad is None:
            return
        tape._acc(a, out.grad * b.value)
        tape._acc(b, out.grad * a.value)

    out.requires_grad = tape.record(bwd, a, b)
    return out


def scale_const(tape: Tape, a: Var, s) -> Var:
    out = Var(a.value * s)

    def bwd():
        if out.grad is not None:
            tape._acc(a, out.grad * s)

    out.requires_grad = tape.record(bwd, a)
    return out


def matmul(tape: Tape, a: Var, w: Var) -> Var:
    """(..., k) @ (k, m); weight is 2-D."""
    out = Var(a.value @ w.value)

    def bwd():
        if out.grad is None:
            return
        tape._acc(a, out.grad @ w.value.T)
        ga = a.value.reshape(-1, a.value.shape[-1])
        go = out.grad.reshape(-1, out.grad.shape[-1])
        tape._acc(w, ga.T @ go)

    out.requires_grad = tape.record(bwd, a, w)
    return out


def concat(tape: Tape, a: Var, b: Var, axis: int = -1) -> Var:
    out = Var(np.concatenate([a.value, b.value], axis=axis))
    na = a.value.shape[axis]

    def bwd():
        if out.grad is None:
            return
        ga, gb = np.split(out.grad, [na], axis=axis)
        tape._acc(a, ga)
        tape._acc(b, gb)

    out.requires_grad = tape.record(bwd, a, b)
    return out


def mean_axes(tape: Tape, a: Var, axes: tuple) -> Var:
    out = Var(a.value.mean(axis=axes))
    count = np.prod([a.value.shape[ax] for ax in axes])

    def bwd():
        if out.grad is not None:
            tape._acc(a, np.broadcast_to(np.expand_dims(out.grad, axes) / count, a.value.shape))

    out.requires_grad = tape.record(bwd, a)
    return out


def sum_all(tape: Tape, a: Var) -> Var:
    out = Var(a.value.sum())

    def bwd():
        if out.grad is not None:
            tape._acc(a, np.broadcast_to(out.grad, a.value.shape))

    out.requires_grad = tape.record(bwd, a)
    return out


def relu(tape: Tape, a: Var) -> Var:
    out = Var(np.maximum(a.value, 0.0))
    mask = a.value > 0

    def bwd():
        if out.grad is not None:
            tape._acc(a, out.grad * mask)

    out.requires_grad = tape.record(bwd, a)
    return out


def sigmoid(tape: Tape, a: Var) -> Var:
    s = 1.0 / (1.0 + np.exp(-a.value))
    out = Var(s)

    def bwd():
        if out.grad is not None:
            tape._acc(a, out.grad * s * (1.0 - s))

    out.requires_grad = tape.record(bwd, a)
    return out


def tanh(tape: Tape, a: Var) -> Var:
    t = np.tanh(a.value)
    out = Var(t)

    def bwd():
        if out.grad is not None:
            tape._acc(a, out.grad * (1.0 - t * t))

    out.requires_grad = tape.record(bwd, a)
    return out


def select_time(tape: Tape, a: Var, t: int) -> Var:
    out = Var(a.value[:, t])

    def bwd():
        if out.grad is None:
            return
        g = np.zeros_like(a.value)
        g[:, t] = out.grad
        tape._acc(a, g)

    out.requires_grad = tape.record(bwd, a)
    return out


def stack_time(tape: Tape, items: list[Var]) -> Var:
    out = Var(np.stack([v.value for v in items], axis=1))

    def bwd():
        if out.grad is None:
            return
        for t, v in enumerate(items):
            tape._acc(v, out.grad[:, t])

    out.requires_grad = tape.record(bwd, *items)
    return out


# ---------------------------------------------------------------------------
# Convolution / pooling
# ---------------------------------------------------------------------------


def conv3d_op(tape: Tape, x: Var, w: Var, spec: ConvSpec, bound: int | None = None) -> Var:
    """Grouped 3-D conv.  With ``bound`` (integer-valued ``x`` of at most that
    magnitude, +-1 weights ``w``) the forward runs through
    ``reference._conv`` at the precision ``reference.exact_dtype`` proves
    exact for its sums, so the float64 output carries the same bits as a
    float64 conv.  The backward is float64 either way."""
    out = Var(_conv(x.value, w.value, spec, bound)[0])
    kt, kh, kw = spec.kernel
    g = spec.groups
    cig = spec.in_channels // g
    cog = spec.out_channels // g

    def bwd():
        if out.grad is None:
            return
        gout = out.grad
        # weight gradient: the forward's im2col columns against the output grad
        gw = np.empty_like(w.value)
        cols = _columns(x.value, spec.kernel, spec.strides, g)
        for gi in range(g):
            go = gout[..., gi * cog : (gi + 1) * cog].reshape(-1, cog)
            gw[..., gi * cog : (gi + 1) * cog] = (cols(gi).T @ go).reshape(kt, kh, kw, cig, cog)
        del cols  # frees the padded input before the input gradient allocates
        tape._acc(w, gw)
        if not x.requires_grad:
            return
        # The input gradient is the transposed conv: the output gradient,
        # dilated by the stride, correlated at stride 1 with the weights
        # flipped and transposed within each group.  Along an axis of size s,
        # kernel k and stride st, the dilated gradient sits at offset
        # k//2 - pad_before in an input-sized array, which folds the "same"
        # pads of both convs into that one offset (0 at stride 1).
        if tuple(spec.strides) != (1, 1, 1):
            dilated = np.zeros((*x.value.shape[:4], spec.out_channels))
            dilated[(slice(None), *(
                slice(k // 2 - conv_same_pads(s, k, st)[1], None, st)
                for s, k, st in zip(x.value.shape[1:4], spec.kernel, spec.strides)
            ))] = gout
            gout = dilated
        wt = w.value[::-1, ::-1, ::-1].reshape(kt, kh, kw, cig, g, cog)
        wt = wt.transpose(0, 1, 2, 5, 4, 3).reshape(kt, kh, kw, cog, g * cig)
        tspec = ConvSpec(spec.kernel, (1, 1, 1), g, spec.out_channels, spec.in_channels)
        tape._acc(x, conv3d(gout, wt, tspec))

    out.requires_grad = tape.record(bwd, x, w)
    return out


def maxpool3d_op(tape: Tape, x: Var, window=(1, 2, 2)) -> Var:
    """Non-overlapping max pooling (strides == window), floor mode."""
    wt, wh, ww = window
    n, t, h, w_, c = x.value.shape
    to, ho, wo = t // wt, h // wh, w_ // ww
    crop = x.value[:, : to * wt, : ho * wh, : wo * ww, :]
    blocks = crop.reshape(n, to, wt, ho, wh, wo, ww, c)
    out_val = blocks.max(axis=(2, 4, 6))
    out = Var(out_val)
    mask = blocks == out_val[:, :, None, :, None, :, None, :]

    def bwd():
        if out.grad is None:
            return
        gx = np.zeros_like(x.value)
        gb = mask * out.grad[:, :, None, :, None, :, None, :]
        gx[:, : to * wt, : ho * wh, : wo * ww, :] = gb.reshape(n, to * wt, ho * wh, wo * ww, c)
        tape._acc(x, gx)

    out.requires_grad = tape.record(bwd, x)
    return out


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def batchnorm_train(tape: Tape, x: Var, gamma: Var, beta: Var, p, momentum: float = 0.1) -> Var:
    """Batch-statistics normalization over all but the channel axis.

    Side effect: moving statistics in ``p`` are advanced by ``momentum``
    toward the batch statistics (used later for eval and shift folding).
    """
    axes = tuple(range(x.value.ndim - 1))
    mu = x.value.mean(axis=axes)
    xhat = x.value - mu
    y = np.square(xhat)
    var = y.mean(axis=axes)  # the same sum x.var forms
    ivar = 1.0 / np.sqrt(var + p.eps)
    xhat *= ivar
    np.multiply(gamma.value, xhat, out=y)  # the squares' buffer becomes the output
    y += beta.value
    out = Var(y)
    p.mean = (1.0 - momentum) * p.mean + momentum * mu
    p.var = (1.0 - momentum) * p.var + momentum * var
    m = x.value.size // x.value.shape[-1]

    def bwd():
        if out.grad is None:
            return
        g = out.grad
        gbeta = g.sum(axis=axes)
        gx = g * xhat
        ggamma = gx.sum(axis=axes)
        tape._acc(gamma, ggamma)
        tape._acc(beta, gbeta)
        # closed-form adjoint: gamma*ivar * (g - mean(g) - xhat*mean(g*xhat)),
        # in the buffer that held g*xhat
        np.multiply(xhat, ggamma / m, out=gx)
        np.subtract(g, gx, out=gx)
        gx -= gbeta / m
        gx *= gamma.value * ivar
        tape._acc(x, gx)

    out.requires_grad = tape.record(bwd, x, gamma, beta)
    return out


def channel_affine(tape: Tape, x: Var, scale: np.ndarray) -> Var:
    """Fixed per-channel scale (a folded power-of-two shift)."""
    out = Var(x.value * scale)

    def bwd():
        if out.grad is not None:
            tape._acc(x, out.grad * scale)

    out.requires_grad = tape.record(bwd, x)
    return out


# ---------------------------------------------------------------------------
# Quantizer nodes (surrogate gradients)
# ---------------------------------------------------------------------------


def heaviside_ste(tape: Tape, x: Var, exact: np.ndarray | None = None) -> Var:
    """Strict step of ``x``.  ``exact``, when given, is a positive multiple of
    ``x`` formed without rounding (an integer pre-activation); the step then
    reads its sign, while the surrogate window still reads ``x``."""
    out = Var(q_heaviside(x.value if exact is None else exact))
    window = heaviside_ste_grad(x.value)

    def bwd():
        if out.grad is not None:
            tape._acc(x, out.grad * window)

    out.requires_grad = tape.record(bwd, x)
    return out


def clip_ste(tape: Tape, x: Var) -> Var:
    out = Var(q_clip(x.value))

    def bwd():
        if out.grad is not None:
            tape._acc(x, out.grad)

    out.requires_grad = tape.record(bwd, x)
    return out


def sign_ste(tape: Tape, x: Var, scale: float = 1.0, exact: np.ndarray | None = None) -> Var:
    """Scaled strict sign of ``x``; ``exact`` as in ``heaviside_ste``."""
    out = Var(scale * sign_strict(x.value if exact is None else exact))
    window = heaviside_ste_grad(x.value)

    def bwd():
        if out.grad is not None:
            tape._acc(x, out.grad * (scale * window))

    out.requires_grad = tape.record(bwd, x)
    return out


def tern_ste(tape: Tape, x: Var, scale: float) -> Var:
    """Scaled ternarization; the data-dependent threshold is not differentiated."""
    out = Var(scale * tern(x.value))
    window = heaviside_ste_grad(x.value)

    def bwd():
        if out.grad is not None:
            tape._acc(x, out.grad * (scale * window))

    out.requires_grad = tape.record(bwd, x)
    return out


def mux_select(tape: Tape, i0: Var, i1: Var, sel: np.ndarray) -> Var:
    """Two-way channel select with a constant (non-differentiated) control."""
    out = Var(i1.value * sel + i0.value * (1.0 - sel))

    def bwd():
        if out.grad is None:
            return
        tape._acc(i1, out.grad * sel)
        tape._acc(i0, out.grad * (1.0 - sel))

    out.requires_grad = tape.record(bwd, i0, i1)
    return out


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def softmax_cce(tape: Tape, logits: Var, labels: np.ndarray) -> Var:
    """Mean categorical cross-entropy over the batch; fused softmax adjoint."""
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    n = logits.value.shape[0]
    nll = -np.log(np.maximum(probs[np.arange(n), labels], 1e-300))
    out = Var(nll.mean())

    def bwd():
        if out.grad is None:
            return
        g = probs.copy()
        g[np.arange(n), labels] -= 1.0
        tape._acc(logits, out.grad * g / n)

    out.requires_grad = tape.record(bwd, logits)
    return out
