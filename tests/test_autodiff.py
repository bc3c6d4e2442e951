import ast
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from billnet import autodiff as ad
from billnet.errors import DisconnectedGraph
from billnet.model import LSTMLayer
from billnet.quantize import BNParams, heaviside_ste_grad, sign_strict, stage_rules, tern
from billnet.reference import GATES, ConvSpec, LSTMWeights, conv3d
from billnet.training import BoundParams, _lstm_nodes


def numeric(arr, f, h=1e-4):
    """Central differences of the scalar ``f()`` with respect to ``arr``, in place."""
    g = np.empty_like(arr)
    for i in np.ndindex(arr.shape):
        orig = arr[i]
        arr[i] = orig + h
        up = f()
        arr[i] = orig - h
        g[i] = (up - f()) / (2 * h)
        arr[i] = orig
    return g


@pytest.mark.parametrize(
    "kernel,strides,groups,size",
    [
        ((3, 3, 3), (2, 1, 2), 2, (3, 5, 4)),
        ((1, 1, 1), (1, 1, 1), 2, (3, 5, 4)),
        ((3, 3, 3), (1, 1, 1), 2, (3, 5, 7)),
        ((3, 3, 3), (2, 2, 2), 2, (3, 5, 7)),
        ((1, 1, 1), (2, 2, 2), 2, (4, 6, 4)),
    ],
    ids=[
        "kernel0-strides0-2", "kernel1-strides1-2", "kernel2-strides2-2",
        "strided-odd-hw", "kernel1-stride2-no-pad",
    ],
)
def test_conv3d_op_gradients_match_central_differences(kernel, strides, groups, size):
    rng = np.random.default_rng(12)
    spec = ConvSpec(kernel, strides, groups, 4, 6)
    x0 = rng.normal(size=(2, *size, 4))
    w0 = rng.normal(size=spec.weight_shape)
    probe = rng.normal(size=conv3d(x0, w0, spec).shape)

    tape = ad.Tape()
    x, w = ad.Var(x0, trainable=True), ad.Var(w0, trainable=True)
    loss = ad.sum_all(tape, ad.mul(tape, ad.conv3d_op(tape, x, w, spec), ad.Var(probe)))
    ad.backward(tape, loss)

    def loss_value():
        return float((conv3d(x0, w0, spec) * probe).sum())

    np.testing.assert_allclose(w.grad, numeric(w0, loss_value), rtol=1e-7, atol=1e-8)
    np.testing.assert_allclose(x.grad, numeric(x0, loss_value), rtol=1e-7, atol=1e-8)


def test_data_input_gets_no_gradient(monkeypatch):
    # a clip fed to the strided stem: backward forms no input gradient unless
    # the input is trainable
    rng = np.random.default_rng(16)
    spec = ConvSpec((3, 3, 3), (2, 2, 2), 1, 1, 4)
    x0 = rng.normal(size=(2, 4, 6, 6, 1))
    w0 = rng.normal(size=spec.weight_shape)
    calls, real = [], ad.conv3d
    monkeypatch.setattr(ad, "conv3d", lambda *args: calls.append(args) or real(*args))
    for needs in (False, True):
        tape = ad.Tape()
        x, w = ad.Var(x0, trainable=needs), ad.Var(w0, trainable=True)
        out = ad.conv3d_op(tape, x, w, spec)
        assert out.requires_grad
        loss = ad.sum_all(tape, out)
        calls.clear()
        ad.backward(tape, loss)
        assert len(calls) == needs  # the transposed conv is the only input-gradient work
        assert (x.grad is None) != needs
        assert w.grad is not None


def test_requires_grad_propagates():
    tape = ad.Tape()
    data = ad.Var(np.ones(3))
    w = ad.Var(np.ones(3), trainable=True)
    only_data = ad.tanh(tape, ad.add(tape, data, data))
    mixed = ad.mul(tape, only_data, w)
    assert not only_data.requires_grad
    assert mixed.requires_grad
    ad.backward(tape, ad.sum_all(tape, mixed))
    assert data.grad is None and only_data.grad is None
    np.testing.assert_array_equal(w.grad, only_data.value)


def test_only_op_records_on_the_tape():
    # Every op hands its value and gradient formula to autodiff._op, the one
    # caller of Tape.record, so no op keeps a private copy of the protocol.
    callers = []
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            callers += [
                f"{path.stem}.{getattr(top, 'name', '<module>')}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
            ]
    assert callers == ["autodiff._op"]


@pytest.mark.parametrize("window,size", [((1, 2, 2), (3, 5, 4)), ((2, 2, 2), (5, 4, 7))])
def test_maxpool3d_op_gradients_match_central_differences(window, size):
    rng = np.random.default_rng(17)
    # distinct values 0.1 apart: no ties, and no step of h reorders a window
    x0 = 0.1 * rng.permutation(2 * np.prod(size) * 3).reshape(2, *size, 3)
    probe = rng.normal(size=ad.maxpool3d_op(ad.Tape(), ad.Var(x0), window).shape)

    def loss_value():
        return float((ad.maxpool3d_op(ad.Tape(), ad.Var(x0), window).value * probe).sum())

    tape = ad.Tape()
    x = ad.Var(x0, trainable=True)
    ad.backward(tape, ad.sum_all(tape, ad.mul(tape, ad.maxpool3d_op(tape, x, window), ad.Var(probe))))
    np.testing.assert_allclose(x.grad, numeric(x0, loss_value), rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_maxpool3d_op_gives_each_tied_maximum_the_full_gradient(k):
    # The tie rule as it stands (ROADMAP item 2): each of k tied maxima in a
    # window receives the window's whole gradient, k times it in total.
    x0 = np.zeros((1, 1, 2, 2, 1))
    x0.reshape(-1)[:k] = 1.0
    tape = ad.Tape()
    x = ad.Var(x0, trainable=True)
    pooled = ad.maxpool3d_op(tape, x, (1, 2, 2))
    ad.backward(tape, ad.sum_all(tape, ad.mul(tape, pooled, ad.Var(np.full(pooled.shape, 3.0)))))
    np.testing.assert_array_equal(x.grad, 3.0 * x0)


def test_mux_select_gradients_match_central_differences():
    rng = np.random.default_rng(18)
    i00, i10 = rng.normal(size=(2, 2, 3, 4, 5)), rng.normal(size=(2, 2, 3, 4, 5))
    sel = (rng.random((2, 2, 1, 1, 5)) < 0.5).astype(np.float64)
    probe = rng.normal(size=i00.shape)

    def loss_value():
        return float((ad.mux_select(ad.Tape(), ad.Var(i00), ad.Var(i10), sel).value * probe).sum())

    tape = ad.Tape()
    i0, i1 = ad.Var(i00, trainable=True), ad.Var(i10, trainable=True)
    ad.backward(tape, ad.sum_all(tape, ad.mul(tape, ad.mux_select(tape, i0, i1, sel), ad.Var(probe))))
    np.testing.assert_allclose(i0.grad, numeric(i00, loss_value), rtol=1e-7, atol=1e-8)
    np.testing.assert_allclose(i1.grad, numeric(i10, loss_value), rtol=1e-7, atol=1e-8)


def test_clip_ste_backward_is_the_identity():
    # The straight-through clip passes the upstream gradient unchanged,
    # inside [-1, 1] and where the forward saturates.
    x0 = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.7, 4.0])
    probe = np.random.default_rng(20).normal(size=x0.shape)
    tape = ad.Tape()
    x = ad.Var(x0, trainable=True)
    y = ad.clip_ste(tape, x)
    np.testing.assert_array_equal(y.value, np.clip(x0, -1.0, 1.0))
    ad.backward(tape, ad.sum_all(tape, ad.mul(tape, y, ad.Var(probe))))
    np.testing.assert_array_equal(x.grad, probe)


def test_softmax_cce_gradients_match_central_differences():
    rng = np.random.default_rng(19)
    z0 = rng.normal(0.0, 3.0, size=(4, 5))
    labels = np.array([0, 3, 3, 4])

    def loss_value():
        return float(ad.softmax_cce(ad.Tape(), ad.Var(z0), labels).value)

    tape = ad.Tape()
    z = ad.Var(z0, trainable=True)
    ad.backward(tape, ad.softmax_cce(tape, z, labels))
    np.testing.assert_allclose(z.grad, numeric(z0, loss_value), rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize(
    "op",
    [
        lambda tape, x: ad.relu(tape, x),
        lambda tape, x: ad.channel_affine(tape, x, -0.37),
        lambda tape, x: ad.channel_affine(tape, x, np.array([0.5, 2.0, -1.0, 0.25])),
        lambda tape, x: ad.mean_axes(tape, x, (2, 3)),
        lambda tape, x: ad.mean_axes(tape, x, (1,)),
    ],
    ids=["relu", "channel_affine-scalar", "channel_affine", "mean_axes-23", "mean_axes-1"],
)
def test_pointwise_and_mean_gradients_match_central_differences(op):
    rng = np.random.default_rng(23)
    x0 = rng.normal(size=(2, 3, 4, 5, 4))
    x0[np.abs(x0) < 1e-2] = 0.5  # no step of h crosses relu's kink
    probe = rng.normal(size=op(ad.Tape(), ad.Var(x0)).shape)

    def loss_value():
        return float((op(ad.Tape(), ad.Var(x0)).value * probe).sum())

    tape = ad.Tape()
    x = ad.Var(x0, trainable=True)
    ad.backward(tape, ad.sum_all(tape, ad.mul(tape, op(tape, x), ad.Var(probe))))
    np.testing.assert_allclose(x.grad, numeric(x0, loss_value), rtol=1e-7, atol=1e-8)


def test_dangling_output_runs_no_gradient_formula(monkeypatch):
    # Ops whose outputs never reach the loss: no gradient reaches their
    # trainable inputs, and the conv forms no weight-gradient columns.
    rng = np.random.default_rng(24)
    spec = ConvSpec((3, 3, 3), (1, 1, 1), 1, 2, 3)
    accumulated, columns = [], []
    real_acc, real_columns = ad.Tape._acc, ad._columns
    monkeypatch.setattr(ad.Tape, "_acc", lambda tape, slot, g: accumulated.append(slot) or real_acc(tape, slot, g))
    monkeypatch.setattr(ad, "_columns", lambda *args: columns.append(args) or real_columns(*args))
    tape = ad.Tape()
    v = ad.Var(rng.normal(size=(2, 3)), trainable=True)
    w = ad.Var(rng.normal(size=spec.weight_shape), trainable=True)
    used = tape.watch(ad.Var(rng.normal(size=(2, 3)), trainable=True))
    dangling = [ad.tanh(tape, v), ad.conv3d_op(tape, ad.Var(rng.normal(size=(1, 2, 3, 3, 2))), w, spec)]
    assert all(d.requires_grad for d in dangling)
    ad.backward(tape, ad.sum_all(tape, ad.mul(tape, used, used)))
    assert v.grad is None and w.grad is None
    assert all(d.grad is None for d in dangling)
    assert columns == [] and not any(slot is v.slot or slot is w.slot for slot in accumulated)
    assert any(slot is used.slot for slot in accumulated)
    np.testing.assert_array_equal(used.grad, 2.0 * used.value)


def _fresh_norm(c):
    return BNParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))


def test_batchnorm_train_gradients_match_central_differences():
    rng = np.random.default_rng(13)
    x0 = rng.normal(1.0, 2.0, size=(2, 3, 2, 3, 4))
    gamma0 = rng.normal(size=4)
    beta0 = rng.normal(size=4)
    probe = rng.normal(size=x0.shape)

    def loss_value():
        tape = ad.Tape()
        y = ad.batchnorm_train(tape, ad.Var(x0), ad.Var(gamma0), ad.Var(beta0), _fresh_norm(4))
        return float((y.value * probe).sum())

    tape = ad.Tape()
    x = ad.Var(x0, trainable=True)
    gamma, beta = ad.Var(gamma0, trainable=True), ad.Var(beta0, trainable=True)
    y = ad.batchnorm_train(tape, x, gamma, beta, _fresh_norm(4))
    ad.backward(tape, ad.sum_all(tape, ad.mul(tape, y, ad.Var(probe))))

    np.testing.assert_allclose(x.grad, numeric(x0, loss_value), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(gamma.grad, numeric(gamma0, loss_value), rtol=1e-7, atol=1e-8)
    np.testing.assert_allclose(beta.grad, numeric(beta0, loss_value), rtol=1e-7, atol=1e-8)


def test_batchnorm_train_blends_a_tenth_of_the_batch_statistics():
    # stage 4 folds these statistics into shifts: each step moves them 0.1
    # of the way from where they were toward x's own
    rng = np.random.default_rng(14)
    x = rng.normal(0.3, 1.7, size=(2, 4, 6, 5, 7))
    p = _fresh_norm(7)
    p.mean, p.var = rng.normal(size=7), rng.lognormal(size=7)
    mean0, var0 = p.mean, p.var
    ad.batchnorm_train(ad.Tape(), ad.Var(x), ad.Var(np.ones(7)), ad.Var(np.zeros(7)), p)
    axes = (0, 1, 2, 3)
    assert ad.BN_MOMENTUM == 0.1
    np.testing.assert_array_equal(p.mean, 0.9 * mean0 + 0.1 * x.mean(axis=axes))
    np.testing.assert_array_equal(p.var, 0.9 * var0 + 0.1 * x.var(axis=axes))


def test_shared_upstream_gradient_is_not_written():
    # add hands its upstream gradient array to both operands; a's later
    # accumulation from the scaling op must not write into that shared array
    rng = np.random.default_rng(15)
    probe = rng.normal(size=(3, 4))
    tape = ad.Tape()
    a = ad.Var(rng.normal(size=(3, 4)), trainable=True)
    b = ad.Var(rng.normal(size=(3, 4)), trainable=True)
    scaled = ad.channel_affine(tape, a, 3.0)
    summed = ad.add(tape, a, b)
    total = ad.add(tape, summed, scaled)
    ad.backward(tape, ad.sum_all(tape, ad.mul(tape, total, ad.Var(probe))))

    np.testing.assert_array_equal(summed.grad, probe)
    np.testing.assert_array_equal(b.grad, probe)
    np.testing.assert_array_equal(a.grad, probe + 3.0 * probe)


def test_backward_releases_forward_activations():
    # Recorded closures refer back to the tape; unless backward drops them,
    # tape -> closures -> tape is a cycle that only the cyclic collector frees.
    gc.disable()
    try:
        tape = ad.Tape()
        w = tape.watch(ad.Var(np.ones((3, 3)), trainable=True))
        hidden = ad.tanh(tape, ad.matmul(tape, ad.Var(np.ones((2, 3))), w))
        loss = ad.sum_all(tape, hidden)
        ad.backward(tape, loss)
        activation = weakref.ref(hidden.value)
        del tape, loss, hidden
        assert activation() is None
        assert w.grad is not None
    finally:
        gc.enable()


def _captured_arrays(fn):
    """Every array that the closure ``fn`` holds, directly or through the
    functions its cells hold."""
    found, todo, seen = [], [fn], set()
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in f.__closure__ or ():
            try:
                v = cell.cell_contents
            except ValueError:  # an empty cell
                continue
            if isinstance(v, np.ndarray):
                found.append(v)
            elif callable(v) and hasattr(v, "__closure__"):
                todo.append(v)
    return found


def test_tape_holds_only_what_backward_reads():
    # The tape keeps an op's output only if a gradient formula reads it as
    # float64: the last conv's weight gradient reads the second step, so that
    # lives until the sweep.  The first conv's output and the float norm's
    # output die with the caller's references, and so do the inputs of the
    # bounded conv and the norm given ``narrow_remake``, which keep narrow
    # integer copies; the tape still holds every op's closure.  The float
    # norm forms the first conv again with ``remake``, so no formula holds a
    # float64 array of that conv's size either (its normalized input).  The
    # last norm has no ``remake``: it keeps its float64 normalized input,
    # which dies with the sweep, while its input and output die with the
    # caller's references.
    rng = np.random.default_rng(25)
    spec1 = ConvSpec((3, 3, 3), (1, 1, 1), 1, 2, 4)
    spec2 = ConvSpec((1, 3, 3), (1, 1, 1), 2, 4, 2)
    spec3 = ConvSpec((1, 1, 1), (1, 1, 1), 1, 2, 3)
    gc.disable()
    try:
        tape = ad.Tape()
        w1, w2, w3, gamma, beta, gamma2, beta2, gamma3, beta3 = (
            tape.watch(ad.Var(rng.normal(size=shape), trainable=True))
            for shape in (spec1.weight_shape, spec2.weight_shape, spec3.weight_shape, (4,), (4,), (2,), (2,), (3,), (3,))
        )
        x0 = rng.normal(size=(2, 3, 4, 4, 2))
        conv = ad.conv3d_op(tape, ad.Var(x0), w1, spec1)
        normed = ad.batchnorm_train(
            tape, conv, gamma, beta, _fresh_norm(4), remake=lambda: conv3d(x0, w1.value, spec1)
        )
        step = ad.heaviside_ste(tape, normed)
        out = ad.conv3d_op(tape, step, ad.sign_ste(tape, w2), spec2, bound=1)
        normed2 = ad.batchnorm_train(
            tape, out, gamma2, beta2, _fresh_norm(2), remake=ad.narrow_remake(out.value, spec2.fan_in)
        )
        step2 = ad.heaviside_ste(tape, normed2)
        last = ad.conv3d_op(tape, step2, w3, spec3)
        normed3 = ad.batchnorm_train(tape, last, gamma3, beta3, _fresh_norm(3))
        loss = ad.sum_all(tape, normed3)
        named = (("conv", conv), ("normed", normed), ("step", step), ("out", out),
                 ("normed2", normed2), ("step2", step2), ("last", last), ("normed3", normed3))
        alive = {name: weakref.ref(v.value) for name, v in named}
        del conv, normed, step, out, normed2, step2, last, normed3, named
        assert [name for name, ref in alive.items() if ref() is not None] == ["step2"]
        assert len(tape._backward) == 10  # 3 convs, 3 norms, 2 steps, the sign, the sum
        # x0 holds 2 channels, the first conv's output 4 and the last 3
        float64s = [a for f in tape._backward for a in _captured_arrays(f) if a.dtype == np.float64]
        assert [a.shape for a in float64s if a.size == x0.size * 2] == []
        xhat3 = [a for a in float64s if a.size == x0.size // 2 * 3]
        assert [a.shape for a in xhat3] == [(2, 3, 4, 4, 3)]
        kept = weakref.ref(xhat3.pop())
        del float64s
        ad.backward(tape, loss)
        assert tape._backward == []
        assert alive["step2"]() is None
        assert kept() is None
        assert all(v.grad is not None for v in (w1, w2, w3, gamma, beta, gamma2, beta2, gamma3, beta3))
    finally:
        gc.enable()


def assert_same_bits(got, want):
    """Equal dtype and equal bytes: unlike ``assert_array_equal``, which
    takes -0.0 for 0.0, this tells the two zeros apart."""
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "kernel,strides,groups,cin,cout,bound,size",
    [
        ((3, 3, 3), (2, 2, 2), 1, 1, 4, 255, (4, 7, 6)),
        ((1, 1, 1), (1, 1, 1), 2, 4, 6, 1, (3, 5, 4)),
        ((3, 3, 3), (1, 1, 1), 2, 4, 4, 128, (3, 4, 5)),
        ((1, 1, 1), (1, 1, 1), 1, 4, 2, 2**15, (2, 3, 4)),
    ],
    ids=["stem", "pointwise-bits", "grouped-128", "pointwise-32768"],
)
def test_bounded_conv3d_op_gradients_have_the_float64_bits(kernel, strides, groups, cin, cout, bound, size):
    # A bounded conv keeps its input and weights as narrow integers and
    # rebuilds their float64 forms in the backward: every gradient has the
    # bits of the conv that keeps them as float64.  At 128 and 2**15 a dtype
    # that holds -bound but not +bound (int8, int16) would wrap.
    rng = np.random.default_rng(26)
    spec = ConvSpec(kernel, strides, groups, cin, cout)
    lo = 0 if bound in (1, 255) else -bound
    x0 = rng.integers(lo, bound + 1, size=(2, *size, cin)).astype(np.float64)
    x0.reshape(-1)[:2] = (lo, bound)
    w0 = rng.choice([-1.0, 1.0], size=spec.weight_shape)
    probe = rng.normal(size=conv3d(x0, w0, spec).shape)
    probe.reshape(-1)[::5] = 0.0  # zero upstream gradients, where -0.0 could arise

    def grads(b):
        tape = ad.Tape()
        x, w = ad.Var(x0, trainable=True), ad.Var(w0, trainable=True)
        out = ad.conv3d_op(tape, x, w, spec, bound=b)
        ad.backward(tape, ad.sum_all(tape, ad.mul(tape, out, ad.Var(probe))))
        return out.value, w.grad, x.grad

    for got, want in zip(grads(bound), grads(None)):
        assert_same_bits(got, want)


@pytest.mark.parametrize(
    "values,bound", [((0, 1), 1), ((-1, 0, 1), 1), (tuple(range(-300, 301, 7)), 300)], ids=["bits", "signs", "ints"],
)
def test_bounded_batchnorm_train_gradients_have_the_float64_bits(values, bound):
    # A norm given ``narrow_remake`` keeps its integer input narrow and forms
    # the normalized input again in the backward: its output and every
    # gradient have the bits of the norm that keeps the float64 normalized
    # input.
    rng = np.random.default_rng(27)
    x0 = rng.choice(np.array(values, dtype=np.float64), size=(2, 3, 4, 5, 6))
    x0[..., 0] = values[0]  # a constant channel: zero variance, xhat all 0.0
    gamma0, beta0 = rng.normal(size=6), rng.normal(size=6)
    probe = rng.normal(size=x0.shape)

    def grads(b):
        tape = ad.Tape()
        x = ad.Var(x0, trainable=True)
        gamma, beta = ad.Var(gamma0, trainable=True), ad.Var(beta0, trainable=True)
        remake = None if b is None else ad.narrow_remake(x0, b)
        y = ad.batchnorm_train(tape, x, gamma, beta, _fresh_norm(6), remake=remake)
        ad.backward(tape, ad.sum_all(tape, ad.mul(tape, y, ad.Var(probe))))
        return y.value, x.grad, gamma.grad, beta.grad

    for got, want in zip(grads(bound), grads(None)):
        assert_same_bits(got, want)


def test_remade_batchnorm_train_gradients_have_the_kept_bits():
    # A norm given ``remake`` forms its float input again in the backward
    # (here the conv that made it) in place of keeping the normalized input:
    # its output and every gradient have the bits of the norm that keeps it.
    rng = np.random.default_rng(28)
    spec = ConvSpec((3, 3, 3), (2, 2, 2), 1, 2, 5)
    x0, w0 = rng.random((2, 5, 6, 7, 2)), rng.normal(size=spec.weight_shape)
    w0[..., 0] = 0.0  # a constant channel: zero variance, xhat all 0.0
    z0 = conv3d(x0, w0, spec)
    gamma0, beta0 = rng.normal(size=5), rng.normal(size=5)
    probe = rng.normal(size=z0.shape)
    probe.reshape(-1)[::5] = 0.0  # zero upstream gradients, where -0.0 could arise

    def grads(remake):
        tape = ad.Tape()
        x = ad.Var(z0.copy(), trainable=True)
        gamma, beta = ad.Var(gamma0, trainable=True), ad.Var(beta0, trainable=True)
        y = ad.batchnorm_train(tape, x, gamma, beta, _fresh_norm(5), remake=remake)
        ad.backward(tape, ad.sum_all(tape, ad.mul(tape, y, ad.Var(probe))))
        return y.value, x.grad, gamma.grad, beta.grad

    for got, want in zip(grads(lambda: conv3d(x0, w0, spec)), grads(None)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("channels,rows", [(1, 5), (1, 70_000), (3, 40_000), (64, 1_537), (128, 2)])
def test_channel_dot_has_the_bits_of_the_full_product_sum(channels, rows):
    # Blocks of rows, each summed on from the sum so far, add in the order
    # numpy's sum takes over the whole product: the same bits, -0.0 too.
    # One channel numpy sums pairwise, so there the product is formed.
    rng = np.random.default_rng(30)
    a = rng.normal(size=(rows, 1, channels)) * rng.choice([1e-8, 1.0, 1e8], size=(rows, 1, channels))
    b = rng.normal(size=a.shape)
    if channels > 1:
        b[..., 0], a[..., 0] = 0.0, -np.abs(a[..., 0])  # a channel of -0.0 products
    assert_same_bits(ad._channel_dot(a, b), (a * b).sum(axis=(0, 1)))
    assert_same_bits(ad._channel_dot(b, b) / rows, np.square(b).mean(axis=(0, 1)))
    # operands in Fortran order, whose product numpy sums in another order
    fa, fb = np.asfortranarray(a), np.asfortranarray(b)
    assert_same_bits(ad._channel_dot(fa, fb), (fa * fb).sum(axis=(0, 1)))


@pytest.mark.parametrize("form", ["remake", "bound"])
def test_batchnorm_train_forms_one_array_of_its_input_size_each_way(form):
    # The forward writes its output over the normalized input it does not
    # keep, and the formula writes the input gradient over the normalized
    # input it forms again; the sums over the channels run in blocks.
    rng = np.random.default_rng(31)
    x0 = rng.integers(0, 2, size=(4, 4, 16, 16, 32)).astype(np.float64)  # 1 MB
    g0 = rng.normal(size=x0.shape)
    tape = ad.Tape()
    x, gamma, beta = ad.Var(x0, trainable=True), ad.Var(np.ones(32), trainable=True), ad.Var(np.zeros(32), trainable=True)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        remake = x0.copy if form == "remake" else ad.narrow_remake(x0, 1)
        y = ad.batchnorm_train(tape, x, gamma, beta, _fresh_norm(32), remake=remake)
        forward = tracemalloc.get_traced_memory()[1] - start
        y.grad = g0
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape._backward.pop()()
        backward = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x0.shape
    assert forward < 1.5 * x0.nbytes, forward
    assert backward < 1.5 * x0.nbytes, backward


def test_unused_trainable_is_disconnected_whatever_ids_are_reused():
    # The data Var dies after its op, and the watched trainable made next
    # tends to take its id; that must not count as taking part in the forward.
    for _ in range(1000):
        tape = ad.Tape()
        data = ad.Var(np.ones(2))
        ad.tanh(tape, data)
        del data
        tape.watch(ad.Var(np.ones(2), trainable=True, name="unused"))
        with pytest.raises(DisconnectedGraph, match="unused"):
            ad.backward(tape, ad.Var(0.0))


@pytest.mark.parametrize(
    "node,forward,scale",
    [
        (lambda tape, x: ad.heaviside_ste(tape, x), lambda x: (x > 0).astype(float), 1.0),
        (lambda tape, x: ad.sign_ste(tape, x, 0.7), lambda x: 0.7 * sign_strict(x), 0.7),
        (lambda tape, x: ad.tern_ste(tape, x, 0.7), lambda x: 0.7 * tern(x), 0.7),
    ],
    ids=["heaviside", "sign", "tern"],
)
def test_ste_windows_are_heaviside_ste_grad(node, forward, scale):
    # Each quantizer passes its (scaled) upstream gradient through
    # quantize.heaviside_ste_grad's window: |x| <= 1, both ends included.
    x0 = np.array([-3.0, -1.0 - 1e-12, -1.0, -0.5, 0.0, 0.5, 1.0, 1.0 + 1e-12, 2.5])
    probe = np.random.default_rng(21).normal(size=x0.shape)
    tape = ad.Tape()
    x = ad.Var(x0, trainable=True)
    y = node(tape, x)
    np.testing.assert_array_equal(y.value, forward(x0))
    ad.backward(tape, ad.sum_all(tape, ad.mul(tape, y, ad.Var(probe))))
    window = heaviside_ste_grad(x0)
    np.testing.assert_array_equal(window, np.abs(x0) <= 1)
    np.testing.assert_array_equal(x.grad, probe * scale * window)


def test_ste_window_reads_the_float_input_not_exact():
    # With ``exact`` the step reads the integer form's sign, but the window
    # still reads the float pre-activation.
    x0 = np.array([0.5, 3.0, -0.5, -3.0])
    exact = np.array([-2.0, 6.0, 1.0, -6.0])
    for node, q in ((ad.heaviside_ste, (exact > 0).astype(float)), (ad.sign_ste, sign_strict(exact))):
        tape = ad.Tape()
        x = ad.Var(x0, trainable=True)
        y = node(tape, x, exact=exact)
        np.testing.assert_array_equal(y.value, q)
        ad.backward(tape, ad.sum_all(tape, y))
        np.testing.assert_array_equal(x.grad, heaviside_ste_grad(x0).astype(float))


class Linearized:
    """Stand-ins for the tape's straight-through nodes, for checking their
    surrogate gradients by central differences.

    On the first pass each call is anchored at the input it sees: it
    records the quantized output ``q0`` there, the input ``x0`` and the
    node's surrogate slope ``s0``.  Every pass returns ``q0 + s0 * (x - x0)``
    for its call in order.  At the anchor that is the quantized forward,
    and its exact derivative is the surrogate gradient the tape propagates.
    """

    def __init__(self, monkeypatch):
        self.anchors = []
        self.calls = 0
        slopes = {
            "heaviside_ste": lambda x, exact=None: heaviside_ste_grad(x),
            "sign_ste": lambda x, scale=1.0, exact=None: scale * heaviside_ste_grad(x),
            "clip_ste": np.ones_like,
        }
        for name, slope in slopes.items():
            monkeypatch.setattr(ad, name, self._node(getattr(ad, name), slope))

    def _node(self, real, slope):
        def node(tape, x, *args, **kwargs):
            if self.calls == len(self.anchors):
                q0 = real(ad.Tape(), ad.Var(x.value), *args, **kwargs).value
                self.anchors.append((q0, x.value.copy(), slope(x.value, *args, **kwargs)))
            q0, x0, s0 = self.anchors[self.calls]
            self.calls += 1
            return ad.Var(q0 + s0 * (x.value - x0))

        return node


@pytest.mark.parametrize("stage", [1, 3, 5], ids=["float", "signed", "integer"])
def test_lstm_nodes_gradients_match_central_differences(stage, monkeypatch):
    # float: the smooth cell.  signed: sign_ste kernels under a smooth cell.
    # integer: step gates and strict-sign candidate read the exact integer
    # pre-activations, the carry is clip_ste'd.  The quantized modes are
    # checked against the central differences of their straight-through
    # linearization (``Linearized``), anchored at the forward's own values.
    rng = np.random.default_rng(22)
    n, t_steps, n_i, n_o, den = 2, 3, 3, 4, 6
    w = rng.uniform(-1.5, 1.5, size=(4, n_i + n_o, n_o))
    wts = LSTMWeights(w, rng.normal(size=(4, n_o)) if stage == 1 else None)
    lay = LSTMLayer("lstm", wts)
    x0 = rng.integers(0, den + 1, size=(n, t_steps, n_i)) / den  # on the pooled grid k/den
    probe = rng.normal(size=(n, t_steps, n_o))
    arrays = {f"lstm.w{g}": w for g, w in zip(GATES, wts.w)}  # views of the layer's stack
    arrays.update({f"lstm.b{g}": b for g, b in zip(GATES, [] if wts.b is None else wts.b)})

    tape = ad.Tape()
    bound = BoundParams({name: tape.watch(ad.Var(a, trainable=True)) for name, a in arrays.items()})
    x = ad.Var(x0, trainable=True)
    out = _lstm_nodes(tape, x, lay, bound, stage_rules(stage), den)
    loss = ad.sum_all(tape, ad.mul(tape, out, ad.Var(probe)))
    ad.backward(tape, loss)

    lin = Linearized(monkeypatch)

    def loss_value():
        lin.calls = 0
        free = BoundParams({name: ad.Var(a) for name, a in arrays.items()})
        return float((_lstm_nodes(ad.Tape(), ad.Var(x0), lay, free, stage_rules(stage), den).value * probe).sum())

    assert loss_value() == float(loss.value)  # anchored at the forward itself
    assert bool(lin.anchors) == (stage > 1)
    checks = [(x.grad, x0)] + [(bound.vars[name].grad, a) for name, a in arrays.items()]
    for grad, arr in checks:
        np.testing.assert_allclose(grad, numeric(arr, loss_value), rtol=1e-6, atol=1e-9)
    assert np.any(x.grad != 0) and all(np.any(bound.vars[k].grad != 0) for k in arrays)
