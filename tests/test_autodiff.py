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
