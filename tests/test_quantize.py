import numpy as np
import pytest

from billnet import autodiff as ad
from billnet import quantize as q
from billnet.errors import ZeroScale
from billnet.tensors import BitTensor, pack, unpack


class TestHeaviside:
    def test_positive(self):
        assert q.heaviside(0.7) == 1.0

    def test_zero_is_strict(self):
        assert q.heaviside(0.0) == 0.0

    def test_negative(self):
        assert q.heaviside(-1.2) == 0.0

    def test_grad_window(self):
        assert q.heaviside_ste_grad(0.5) == 1.0
        assert q.heaviside_ste_grad(1.0) == 1.0  # boundary included
        assert q.heaviside_ste_grad(2.0) == 0.0

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-45, -1e-45, 1e-38, -1e-38, 2.0, -2.0], dtype=np.float32),
            np.array([-3, -1, 0, 1, 3]),
            np.array([True, False]),
            np.array([[0, 1], [255, 0]], dtype=np.uint8),
        ],
        ids=["float32", "int", "bool", "uint8"],
    )
    def test_any_dtype_steps_as_its_float64_cast(self, x):
        # The step reads its input's own dtype (the reference hands it raw
        # float32 conv sums); +-0 and NaN stay 0, denormals stay 1, and the
        # result is float64 as before.
        got, want = q.heaviside(x), q.heaviside(x.astype(np.float64))
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    def test_grad_closed_form_on_grid(self):
        x = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
        np.testing.assert_array_equal(
            q.heaviside_ste_grad(x), (np.abs(x) <= 1).astype(float)
        )


class TestClip:
    def test_saturation(self):
        assert q.clip(1.7) == 1.0
        assert q.clip(-3.0) == -1.0

    def test_identity_inside(self):
        assert q.clip(0.5) == 0.5

    def test_grad_is_one_on_grid(self):
        # The tape's straight-through clip: d(sum clip(x))/dx is 1 everywhere.
        x = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
        tape = ad.Tape()
        v = ad.Var(x, trainable=True)
        ad.backward(tape, ad.sum_all(tape, ad.clip_ste(tape, v)))
        np.testing.assert_array_equal(v.grad, np.ones_like(x))


class TestOrGate:
    """The residual OR: the reference forms it as clip(x1 + x2) on {0,1}
    signals, the logic path as the bitwise OR of their packed words."""

    @pytest.mark.parametrize("a,b,expect", [(1, 1, 1), (0, 0, 0), (0, 1, 1), (1, 0, 1)])
    def test_truth_table(self, a, b, expect):
        assert q.clip(a + b) == expect

    def test_equals_clip_of_sum_exhaustively(self):
        # All four (a, b) pairs at every channel of a 130-channel map (three
        # words), then random maps: packed OR == clip of the sum, bit for bit.
        c = 130
        a = (np.arange(c) % 4 >= 2).astype(np.float64)
        b = (np.arange(c) % 2).astype(np.float64)
        rng = np.random.default_rng(4)
        maps = [(a.reshape(1, 1, 1, 1, c), b.reshape(1, 1, 1, 1, c))]
        for _ in range(20):
            x1, x2 = rng.integers(0, 2, (2, 2, 1, 2, 2, c)).astype(np.float64)
            maps.append((x1, x2))
        for x1, x2 in maps:
            ored = BitTensor(x1.shape, pack(x1).words | pack(x2).words)
            np.testing.assert_array_equal(unpack(ored), q.clip(x1 + x2))


class TestSignStrict:
    def test_values(self):
        assert q.sign_strict(0.3) == 1.0
        assert q.sign_strict(-0.3) == -1.0
        assert q.sign_strict(0.0) == -1.0

    def test_consistent_with_heaviside(self):
        x = np.linspace(-2, 2, 4001)
        np.testing.assert_array_equal(q.sign_strict(x), 2 * q.heaviside(x) - 1)

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, -1e-300, 2.0, -2.0]),
            np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-45, -1e-45, 1.0, -1.0], dtype=np.float32),
            np.array([-3, -1, 0, 1, 3]),
            np.array([[0, 1], [1, 0]], dtype=np.uint8),
        ],
        ids=["float64", "float32", "int", "uint8"],
    )
    def test_matches_where_oracle(self, x):
        # 0, -0 and NaN all fail x > 0 and map to -1; the result is float64
        # whatever the input dtype.
        got = q.sign_strict(x)
        want = np.where(np.asarray(x, dtype=np.float64) > 0, 1.0, -1.0)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


class TestSSign:
    def test_formula_256(self):
        assert q.ssign(-0.02, 128, 128) == pytest.approx(-3.0 / 16)

    def test_formula_4(self):
        assert q.ssign(5.0, 2, 2) == pytest.approx(1.5)

    def test_scale_positive_and_droppable(self):
        # Dropping the positive factor must not change any strict sign.
        rng = np.random.default_rng(0)
        w = rng.normal(size=1000)
        scaled = q.ssign(w, 96, 32)
        np.testing.assert_array_equal(q.sign_strict(scaled), q.sign_strict(q.sign_strict(w)))


class TestSTern:
    def test_worked_example(self):
        # w=[0.5,-0.01,0.3]: mean|w|=0.27, threshold 0.189 -> [+1, 0, +1],
        # scale 1/sqrt(128).
        t, s = q.stern(np.array([0.5, -0.01, 0.3]), m=32)
        np.testing.assert_array_equal(t, [1.0, 0.0, 1.0])
        assert s == pytest.approx(1.0 / np.sqrt(128))
        assert s == pytest.approx(0.088388, abs=1e-6)

    def test_all_zero_vector(self):
        t, _ = q.stern(np.zeros(16), m=8)
        np.testing.assert_array_equal(t, np.zeros(16))

    def test_scale_preserves_argmax(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(7, 27))
        for s in (0.01, 1.0, 17.3):
            np.testing.assert_array_equal(
                np.argmax(s * logits, axis=1), np.argmax(logits, axis=1)
            )

    def test_idempotent_on_its_own_output(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=64)
        t, _ = q.stern(w, m=8)
        t2, _ = q.stern(t, m=8)
        np.testing.assert_array_equal(t, t2)


class TestTGAP:
    def _map(self, ones, h=6, w=8, seed=0):
        rng = np.random.default_rng(seed)
        flat = np.zeros(h * w)
        flat[rng.choice(h * w, size=ones, replace=False)] = 1.0
        return flat.reshape(1, 1, h, w, 1)

    def test_25_of_48_fires(self):
        assert q.tgap_select(self._map(25), quantized=True) == 1.0

    def test_count_threshold_constant(self):
        # Bitcount form: fire on strictly more than (h * w) // 2 ones, which
        # is mean > 1/2 for odd and even map sizes alike.
        for h, w, threshold in ((6, 8, 24), (3, 3, 4), (5, 7, 17), (1, 1, 0)):
            assert q.tgap_select(self._map(threshold, h, w), quantized=True) == 0.0
            assert q.tgap_select(self._map(threshold + 1, h, w), quantized=True) == 1.0

    def test_exactly_half_does_not_fire(self):
        assert q.tgap_select(self._map(24), quantized=True) == 0.0

    def test_all_zero_map(self):
        assert q.tgap_select(self._map(0), quantized=True) == 0.0

    def test_bitcount_form_equals_definition_random_6x8(self):
        rng = np.random.default_rng(3)
        x = (rng.random((10, 4, 6, 8, 3)) < rng.random((10, 1, 1, 1, 3))).astype(float)
        sel = q.tgap_select(x, quantized=True)
        counts = x.sum(axis=(2, 3), keepdims=True)
        np.testing.assert_array_equal(sel, (counts > 24).astype(float))
        np.testing.assert_array_equal(sel, (x.mean(axis=(2, 3), keepdims=True) > 0.5).astype(float))

    def test_exhaustive_3x3(self):
        # All 2^9 binary maps: bitcount form vs the mean > 1/2 definition.
        for code in range(512):
            bits = [(code >> i) & 1 for i in range(9)]
            x = np.array(bits, dtype=float).reshape(1, 1, 3, 3, 1)
            sel = q.tgap_select(x, quantized=True)
            assert sel.ravel()[0] == float(sum(bits) > 4)  # (3 * 3) // 2
            assert sel.ravel()[0] == float(np.mean(bits) > 0.5)

    def test_float_mode_batch_max(self):
        x = np.zeros((1, 2, 2, 2, 1))
        x[0, 0] = 0.8  # AP=0.8 ; second step AP=0.1
        x[0, 1] = 0.1
        sel = q.tgap_select(x, quantized=False)
        # m = 0.8, threshold 0.4: first step fires, second does not.
        np.testing.assert_array_equal(sel.ravel(), [1.0, 0.0])

    def test_all_zero_float_mode(self):
        x = np.zeros((1, 1, 4, 4, 2))
        np.testing.assert_array_equal(q.tgap_select(x, quantized=False), np.zeros((1, 1, 1, 1, 2)))


class TestBatchNormFold:
    def test_affine_example(self):
        p = q.BNParams(gamma=[2.0], beta=[1.0], mean=[0.0], var=[4.0 - 1e-3])
        assert q.bn_forward(np.array([1.0]), p)[0] == pytest.approx(2.0)

    def test_identity_params(self):
        p = q.BNParams(gamma=[1.0], beta=[0.0], mean=[0.0], var=[1.0 - 1e-3])
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(q.bn_forward(x, p), x, atol=1e-15)

    def test_folded_equals_two_step_form(self):
        rng = np.random.default_rng(4)
        n = 10_000
        p = q.BNParams(
            gamma=rng.normal(size=n),
            beta=rng.normal(size=n),
            mean=rng.normal(size=n),
            var=rng.random(n) + 0.01,
        )
        x = rng.normal(size=n)
        two_step = p.gamma * (x - p.mean) / np.sqrt(p.var + q.BN_EPS) + p.beta
        np.testing.assert_allclose(q.bn_forward(x, p), two_step, atol=1e-12)

    def test_fold_hand_example(self):
        # gamma=1, var=3, eps=1e-3: scale ~ 0.57735, log2 ~ -0.7925 -> 2**-1.
        p = q.BNParams(gamma=[1.0], beta=[0.0], mean=[0.0], var=[3.0])
        assert q.bsn_fold(p)[0] == 0.5
        assert q.bsn_forward([3.0], p)[0] == 1.5

    def test_fold_identity(self):
        p = q.BNParams(gamma=[1.0], beta=[0.0], mean=[0.0], var=[1.0 - 1e-3])
        assert q.bsn_fold(p)[0] == 1.0

    def test_fold_zero_scale_rejected(self):
        p = q.BNParams(gamma=[0.0], beta=[0.0], mean=[0.0], var=[1.0])
        with pytest.raises(ZeroScale):
            q.bsn_fold(p)

    def test_ties_round_to_even(self):
        # scale = 2**1.5 has log2 exactly 1.5: nearest even integer is 2.
        p = q.BNParams(gamma=[2.0**1.5], beta=[0.0], mean=[0.0], var=[1.0 - 1e-3])
        assert q.bsn_fold(p)[0] == 4.0
        p = q.BNParams(gamma=[2.0**2.5], beta=[0.0], mean=[0.0], var=[1.0 - 1e-3])
        assert q.bsn_fold(p)[0] == 4.0

    def test_shift_transparent_to_heaviside(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=100_000)
        for k in range(-8, 9):
            np.testing.assert_array_equal(q.heaviside(np.ldexp(x, k)), q.heaviside(x))
