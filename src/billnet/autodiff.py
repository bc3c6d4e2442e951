"""Minimal reverse-mode differentiation on float64 arrays.

A ``Tape`` records one closure per primal op in execution order; ``backward``
replays them in exact reverse order, accumulating gradients additively into
each ``Var``'s gradient ``Slot``.  Smooth ops carry their analytic adjoints;
the quantizers carry surrogate (straight-through) gradients, windowed by
``quantize.heaviside_ste_grad``:

    step(x)            backward  g * 1_{|x| <= 1}
    clip(x)            backward  g            (identity)
    sign(x), scaled    backward  scale * g * 1_{|x| <= 1}
    ternarize, scaled  backward  scale * g * 1_{|x| <= 1}

Latent (real) parameters therefore receive gradients straight through their
quantized images.

Every op is its forward value plus a gradient formula, handed to ``_op``,
the one place that records on the tape.  Only what some trainable depends
on is differentiated.  A leaf ``Var`` needs a gradient iff it is
``trainable``; data leaves need none.  An op's output needs one iff some
input does.  ``_op`` wraps the value in a ``Var`` and, through
``Tape.record``, keeps a backward closure only when some input needs a
gradient.  The closure runs the formula only once the output has received
a gradient, and passes the formula's gradients, one per input, to
``Tape._acc``, which drops a gradient bound for a slot that needs none,
so such a ``Var``'s ``grad`` stays None.  A formula whose input gradient is
costly (``conv3d_op``) is a generator that stops before forming it.

Closures own only what the backward reads.  A closure holds the ``Slot``s
of its op's output and inputs (``grad``, ``requires_grad``, ``shape``),
never a ``Var``, and its formula holds only the arrays it reads, captured
when the op runs (``conv3d_op`` its input and weights, ``matmul`` and
``mul`` their operands, ``batchnorm_train`` its normalized input or its
``remake``, and ``gamma``); an op that needs only a shape captures the shape.  A forward
value therefore lives only while the caller holds its ``Var`` or a formula
has captured it.  ``backward`` drops each closure once it has run, so the
captured arrays and the gradients die as the sweep passes them.

Integer-valued captures are held narrow.  Given ``bound`` (an input of
integers of magnitude at most ``bound``), ``conv3d_op`` keeps its input and
its +-1 weights as ``_narrow`` integers: int8 for {0,1} steps, int16 or
int32 for the sums of the convs after them, and its formula rebuilds the
float64 columns and weights from them by exact casts.  ``batchnorm_train``
given a ``remake`` keeps no normalized input: it forms its input again in
the backward and normalizes it by the forward's own two ops, so the
gradients keep every bit.  ``narrow_remake`` does so from a ``_narrow``
copy of an integer-valued input; the stem norm's forms the stem conv again
from the kept clip, recomputing one layer in place of storing its
activation (Chen et al., arXiv 1604.06174).

Gradients are shared, never written in place: ``Tape._acc`` stores the array
an op hands it (or a fresh sum), so one array may be the upstream gradient of
several operands and the ``grad`` of several ``Var``s.  No op may write into
an ``out.grad`` it reads or into an array it has passed to ``_acc``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import DisconnectedGraph
from .quantize import (
    BN_EPS,
    clip as q_clip,
    heaviside as q_heaviside,
    heaviside_ste_grad,
    sign_strict,
    tern,
)
from .reference import ConvSpec, _blocks, _columns, _conv, conv3d
from .tensors import conv_same_pads


class Slot:
    """What the backward keeps of a node: its gradient, whether it needs
    one, and its shape."""

    __slots__ = ("grad", "requires_grad", "shape")

    def __init__(self, shape, requires_grad):
        self.grad = None
        self.requires_grad = requires_grad
        self.shape = shape


class Var:
    """Array node; ``trainable`` marks optimizer targets, the leaves whose
    gradient ``backward`` forms; ``requires_grad`` marks every node that
    needs a gradient (see the module docstring).  ``grad`` and
    ``requires_grad`` live in the node's ``slot``."""

    __slots__ = ("value", "slot", "trainable", "name")

    def __init__(self, value, trainable=False, name=""):
        self.value = np.asarray(value, dtype=np.float64)
        self.slot = Slot(self.value.shape, trainable)
        self.trainable = trainable
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        return self.slot.grad

    @grad.setter
    def grad(self, g):
        self.slot.grad = g

    @property
    def requires_grad(self):
        return self.slot.requires_grad


class Tape:
    def __init__(self):
        self._backward = []  # closures, execution order
        self.params: list[Var] = []
        self._touched: set[Slot] = set()  # held, so no slot's identity is reused

    def watch(self, var: Var) -> Var:
        if var.trainable and all(var is not p for p in self.params):
            self.params.append(var)
        return var

    def record(self, backward, *inputs: Slot) -> bool:
        """Note an op on the slots ``inputs``; returns whether its output
        needs a gradient, and keeps ``backward`` only if so."""
        self._touched.update(inputs)
        needs = any(s.requires_grad for s in inputs)
        if needs:
            self._backward.append(backward)
        return needs

    def _acc(self, slot: Slot, g: np.ndarray):
        if not slot.requires_grad:
            return
        g = _unbroadcast(g, slot.shape)
        slot.grad = g if slot.grad is None else slot.grad + g


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

    The sweep consumes the tape: each closure is popped before it runs, so
    the arrays its formula captured and the output gradient it read die as
    the sweep passes them (see the module docstring).  Each closure also
    refers back to the tape; kept, that cycle would hold them until the
    cyclic garbage collector runs.

    Raises DisconnectedGraph when a registered trainable never took part in
    the recorded forward pass.
    """
    if loss.value.size != 1:
        raise ValueError("loss must be scalar")
    for p in tape.params:
        if p.slot not in tape._touched:
            raise DisconnectedGraph(f"trainable {p.name or '<unnamed>'} unreachable from loss")
    tape._touched.clear()
    loss.grad = np.ones_like(loss.value)
    while tape._backward:
        tape._backward.pop()()


def _op(tape: Tape, value, inputs, grads) -> Var:
    """The output ``Var`` of an op with forward ``value`` on ``inputs``.

    Its backward runs only if some input needs a gradient and the output
    received one: ``grads(out.grad)`` then gives one gradient per input, in
    the order of ``inputs``, and each is accumulated as it comes.  A
    generator ``grads`` forms each gradient after the previous one is
    accumulated, and may stop early to skip the rest.  The closure holds
    the slots, not the ``Var``s, so ``grads`` must capture any forward
    array it reads.
    """
    out = Var(value)
    slot, slots = out.slot, [v.slot for v in inputs]

    def bwd():
        if slot.grad is not None:
            for s, g in zip(slots, grads(slot.grad)):
                tape._acc(s, g)

    slot.requires_grad = tape.record(bwd, *slots)
    return out


# ---------------------------------------------------------------------------
# Smooth primitives
# ---------------------------------------------------------------------------


def add(tape: Tape, a: Var, b: Var) -> Var:
    return _op(tape, a.value + b.value, (a, b), lambda g: (g, g))


def mul(tape: Tape, a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    return _op(tape, av * bv, (a, b), lambda g: (g * bv, g * av))


def matmul(tape: Tape, a: Var, w: Var) -> Var:
    """(..., k) @ (k, m); weight is 2-D."""
    av, wv = a.value, w.value

    def grads(g):
        yield g @ wv.T
        yield av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])

    return _op(tape, av @ wv, (a, w), grads)


def concat(tape: Tape, a: Var, b: Var, axis: int = -1) -> Var:
    na = a.value.shape[axis]
    value = np.concatenate([a.value, b.value], axis=axis)
    return _op(tape, value, (a, b), lambda g: np.split(g, [na], axis=axis))


def mean_axes(tape: Tape, a: Var, axes: tuple) -> Var:
    shape = a.shape
    count = np.prod([shape[ax] for ax in axes])
    return _op(
        tape, a.value.mean(axis=axes), (a,),
        lambda g: (np.broadcast_to(np.expand_dims(g, axes) / count, shape),),
    )


def sum_all(tape: Tape, a: Var) -> Var:
    shape = a.shape
    return _op(tape, a.value.sum(), (a,), lambda g: (np.broadcast_to(g, shape),))


def relu(tape: Tape, a: Var) -> Var:
    mask = a.value > 0
    return _op(tape, np.maximum(a.value, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(tape: Tape, a: Var) -> Var:
    s = 1.0 / (1.0 + np.exp(-a.value))
    return _op(tape, s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(tape: Tape, a: Var) -> Var:
    t = np.tanh(a.value)
    return _op(tape, t, (a,), lambda g: (g * (1.0 - t * t),))


def select_time(tape: Tape, a: Var, t: int) -> Var:
    shape = a.shape

    def grads(g):
        ga = np.zeros(shape)
        ga[:, t] = g
        return (ga,)

    return _op(tape, a.value[:, t], (a,), grads)


def stack_time(tape: Tape, items: list[Var]) -> Var:
    value = np.stack([v.value for v in items], axis=1)
    return _op(tape, value, items, lambda g: [g[:, t] for t in range(len(items))])


# ---------------------------------------------------------------------------
# Convolution / pooling
# ---------------------------------------------------------------------------


def _narrow(a: np.ndarray, bound: int) -> np.ndarray:
    """The integer-valued ``a``, of magnitude at most ``bound``, in the
    smallest signed integer dtype that holds both -bound and +bound (a
    dtype that holds -bound - 1 does; at bound 128, one that holds only
    -bound is int8, which wraps +128)."""
    return a.astype(np.min_scalar_type(-bound - 1))


def narrow_remake(a: np.ndarray, bound: int) -> Callable[[], np.ndarray]:
    """A ``batchnorm_train`` ``remake`` for the integer-valued ``a`` of
    magnitude at most ``bound``: it keeps ``a`` ``_narrow`` and casts it
    back to float64, which is exact."""
    narrow = _narrow(a, bound)
    return lambda: narrow.astype(np.float64)


def conv3d_op(tape: Tape, x: Var, w: Var, spec: ConvSpec, bound: int | None = None) -> Var:
    """Grouped 3-D conv.  With ``bound`` (integer-valued ``x`` of at most that
    magnitude, +-1 weights ``w``) the forward runs through
    ``reference._conv`` at the precision ``reference.exact_dtype`` proves
    exact for its sums, so the float64 output carries the same bits as a
    float64 conv, and the formula keeps ``x`` and ``w`` ``_narrow``.  The
    backward is float64 either way: it rebuilds float64 columns and weights
    from the narrow copies, so its products read the same operands."""
    kt, kh, kw = spec.kernel
    g = spec.groups
    cig = spec.in_channels // g
    cog = spec.out_channels // g
    xv, wv, x_needs = x.value, w.value, x.requires_grad
    out = _conv(xv, wv, spec, bound)[0]
    if bound is not None:
        xv, wv = _narrow(xv, bound), _narrow(wv, 1)

    def grads(gout):
        # weight gradient: the forward's im2col columns against the output grad
        gw = np.empty(wv.shape)
        cols = _columns(xv, spec.kernel, spec.strides, g, np.float64)
        for gi in range(g):
            go = gout[..., gi * cog : (gi + 1) * cog].reshape(-1, cog)
            # go.T @ cols is the same product as cols.T @ go, transposed, and
            # OpenBLAS runs it in about 0.7x the time at these shapes, with
            # the same bits
            gw[..., gi * cog : (gi + 1) * cog] = (go.T @ cols(gi)).T.reshape(kt, kh, kw, cig, cog)
        del cols  # frees the padded input before the input gradient allocates
        yield gw
        if not x_needs:
            return
        # The input gradient is the transposed conv: the output gradient,
        # dilated by the stride, correlated at stride 1 with the weights
        # flipped and transposed within each group.  Along an axis of size s,
        # kernel k and stride st, the dilated gradient sits at offset
        # k//2 - pad_before in an input-sized array, which folds the "same"
        # pads of both convs into that one offset (0 at stride 1).
        if tuple(spec.strides) != (1, 1, 1):
            dilated = np.zeros((*xv.shape[:4], spec.out_channels))
            dilated[(slice(None), *(
                slice(k // 2 - conv_same_pads(s, k, st)[1], None, st)
                for s, k, st in zip(xv.shape[1:4], spec.kernel, spec.strides)
            ))] = gout
            gout = dilated
        wt = wv[::-1, ::-1, ::-1].astype(np.float64).reshape(kt, kh, kw, cig, g, cog)
        wt = wt.transpose(0, 1, 2, 5, 4, 3).reshape(kt, kh, kw, cog, g * cig)
        tspec = ConvSpec(spec.kernel, (1, 1, 1), g, spec.out_channels, spec.in_channels)
        yield conv3d(gout, wt, tspec)

    return _op(tape, out, (w, x), grads)


def maxpool3d_op(tape: Tape, x: Var, window=(1, 2, 2)) -> Var:
    """Max pooling over ``reference._blocks``, the non-overlapping windows in
    floor mode.  Every maximum of a window, tied or not, receives the
    window's full gradient."""
    shape = x.shape
    blocks = _blocks(x.value, window)
    out_val = blocks.max(axis=(2, 4, 6))
    mask = blocks == out_val[:, :, None, :, None, :, None, :]

    def grads(g):
        gx = np.zeros(shape)  # C order: its blocks are a view
        np.multiply(mask, g[:, :, None, :, None, :, None, :], out=_blocks(gx, window))
        return (gx,)

    return _op(tape, out_val, (x,), grads)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a * b).sum`` over all but the last axis, with the same bits but
    without forming ``a * b``.  numpy's sum adds the rows of a C-ordered
    (rows, C) array one by one, from 0.0, when C > 1.  Here each block of
    rows is multiplied into a small buffer whose first row holds the sum so
    far, so the additions run in that same order.  With one channel, or an
    operand in another layout, numpy sums in another order (pairwise along
    a contiguous run), so those cases form the product."""
    c = a.shape[-1]
    if c == 1 or not (a.flags.c_contiguous and b.flags.c_contiguous):
        return (a * b).sum(axis=tuple(range(a.ndim - 1)))
    a, b = a.reshape(-1, c), b.reshape(-1, c)
    rows = max(1, 2**15 // c)  # a 256 KB buffer
    buf = np.empty((min(rows, len(a)) + 1, c))
    acc = np.zeros(c)
    for s in range(0, len(a), rows):
        part = buf[: min(rows, len(a) - s) + 1]
        part[0] = acc
        np.multiply(a[s : s + rows], b[s : s + rows], out=part[1:])
        acc = part.sum(axis=0)
    return acc


# How far each training step moves a norm's moving statistics toward its
# batch statistics.
BN_MOMENTUM = 0.1


def batchnorm_train(
    tape: Tape,
    x: Var,
    gamma: Var,
    beta: Var,
    p,
    remake: Callable[[], np.ndarray] | None = None,
) -> Var:
    """Batch-statistics normalization over all but the channel axis.

    The formula reads the normalized input ``xhat``.  It keeps the forward's
    float64 ``xhat`` unless given ``remake``, a callable that returns ``x``
    again as a fresh float64 array with the forward's bits (the stem norm's
    forms its conv again from the clip; ``narrow_remake`` casts a narrow
    integer copy back).  It then forms ``xhat`` in that array by the
    forward's own two ops, which give the same bits on the same ``x``.

    Each way forms one array of ``x``'s size (with more than one channel):
    the sums of squares and of ``g * xhat`` run in blocks
    (``_channel_dot``), a forward that does not keep ``xhat`` writes its
    output over it, and the formula writes the input gradient over the
    ``xhat`` it reads.

    Side effect: moving statistics in ``p`` are advanced by ``BN_MOMENTUM``
    toward the batch statistics (used later for eval and shift folding).
    """
    axes = tuple(range(x.value.ndim - 1))
    gv = gamma.value
    m = x.value.size // x.value.shape[-1]
    mu = x.value.mean(axis=axes)
    xhat = x.value - mu
    var = _channel_dot(xhat, xhat) / m  # the mean of squares x.var forms
    ivar = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= ivar
    p.mean = (1.0 - BN_MOMENTUM) * p.mean + BN_MOMENTUM * mu
    p.var = (1.0 - BN_MOMENTUM) * p.var + BN_MOMENTUM * var
    kept = xhat if remake is None else None
    y = np.multiply(gv, xhat, out=None if remake is None else xhat)  # a kept xhat stays as it is
    y += beta.value

    def grads(g):
        xhat = kept
        if xhat is None:
            xhat = remake()
            xhat -= mu
            xhat *= ivar
        gbeta = g.sum(axis=axes)
        ggamma = _channel_dot(g, xhat)
        yield ggamma
        yield gbeta
        # closed-form adjoint: gamma*ivar * (g - mean(g) - xhat*mean(g*xhat)),
        # in xhat's buffer, which no other formula reads
        xhat *= ggamma / m
        np.subtract(g, xhat, out=xhat)
        xhat -= gbeta / m
        xhat *= gv * ivar
        yield xhat

    return _op(tape, y, (gamma, beta, x), grads)


def channel_affine(tape: Tape, x: Var, scale: np.ndarray) -> Var:
    """Fixed per-channel scale (a folded power-of-two shift)."""
    return _op(tape, x.value * scale, (x,), lambda g: (g * scale,))


# ---------------------------------------------------------------------------
# Quantizer nodes (surrogate gradients)
# ---------------------------------------------------------------------------


def heaviside_ste(tape: Tape, x: Var, exact: np.ndarray | None = None) -> Var:
    """Strict step of ``x``.  ``exact``, when given, is a positive multiple of
    ``x`` formed without rounding (an integer pre-activation); the step then
    reads its sign, while the surrogate window still reads ``x``."""
    window = heaviside_ste_grad(x.value)
    value = q_heaviside(x.value if exact is None else exact)
    return _op(tape, value, (x,), lambda g: (g * window,))


def clip_ste(tape: Tape, x: Var) -> Var:
    return _op(tape, q_clip(x.value), (x,), lambda g: (g,))


def sign_ste(tape: Tape, x: Var, scale: float = 1.0, exact: np.ndarray | None = None) -> Var:
    """Scaled strict sign of ``x``; ``exact`` as in ``heaviside_ste``."""
    window = heaviside_ste_grad(x.value)
    value = scale * sign_strict(x.value if exact is None else exact)
    return _op(tape, value, (x,), lambda g: (g * (scale * window),))


def tern_ste(tape: Tape, x: Var, scale: float) -> Var:
    """Scaled ternarization; the data-dependent threshold is not differentiated."""
    window = heaviside_ste_grad(x.value)
    return _op(tape, scale * tern(x.value), (x,), lambda g: (g * (scale * window),))


def mux_select(tape: Tape, i0: Var, i1: Var, sel: np.ndarray) -> Var:
    """Two-way channel select with a constant (non-differentiated) control."""

    def grads(g):
        yield g * sel
        yield g * (1.0 - sel)

    return _op(tape, i1.value * sel + i0.value * (1.0 - sel), (i1, i0), grads)


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

    def grads(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return (g * d / n,)

    return _op(tape, nll.mean(), (logits,), grads)
