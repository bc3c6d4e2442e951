import gc
import weakref

import numpy as np
import pytest

from billnet import autodiff as ad
from billnet.reference import ConvSpec, conv3d


@pytest.mark.parametrize(
    "kernel,strides,groups",
    [((3, 3, 3), (2, 1, 2), 2), ((1, 1, 1), (1, 1, 1), 2)],
)
def test_conv3d_op_gradients_match_central_differences(kernel, strides, groups):
    rng = np.random.default_rng(12)
    spec = ConvSpec(kernel, strides, groups, 4, 6)
    x0 = rng.normal(size=(2, 3, 5, 4, 4))
    w0 = rng.normal(size=spec.weight_shape)
    probe = rng.normal(size=conv3d(x0, w0, spec).shape)

    tape = ad.Tape()
    x, w = ad.Var(x0), ad.Var(w0, trainable=True)
    loss = ad.sum_all(tape, ad.mul(tape, ad.conv3d_op(tape, x, w, spec), ad.Var(probe)))
    ad.backward(tape, loss)

    def numeric(arr, f, h=1e-4):
        g = np.empty_like(arr)
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + h
            up = f()
            arr[i] = orig - h
            g[i] = (up - f()) / (2 * h)
            arr[i] = orig
        return g

    def loss_value():
        return float((conv3d(x0, w0, spec) * probe).sum())

    np.testing.assert_allclose(w.grad, numeric(w0, loss_value), rtol=1e-7, atol=1e-8)
    np.testing.assert_allclose(x.grad, numeric(x0, loss_value), rtol=1e-7, atol=1e-8)


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
