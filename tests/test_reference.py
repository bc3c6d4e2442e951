import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import CONFIGS, PAPER_CONFIG, model_at, model_overrides, recorded
from hypothesis import given, settings
from hypothesis import strategies as st

from billnet import engine
from billnet import reference as ref
from billnet.errors import BadGrouping, NonBinarySelect, ShapeMismatch
from billnet.model import build, toy_config
from billnet.quantize import clip, heaviside, sign_strict, ssign_scale, stage_rules
from billnet.reference import ConvSpec, LSTMWeights, conv3d, gap_spatial, lstm_cell, maxpool3d, mux
from billnet.tensors import conv_same_pads


def conv3d_oracle(x, w, spec):
    """Direct sum over the kernel offsets, vectorised over positions: for each
    offset, the strided input slice it meets in the zero-padded input times
    that offset's weights, group by group.  Independent of im2col, window
    views and the temporal split; the sum is in ``x`` and ``w``'s dtype."""
    g, (s_t, s_h, s_w) = spec.groups, spec.strides
    cig, cog = spec.in_channels // g, spec.out_channels // g
    dims, pads = zip(*(conv_same_pads(*args)[:2] for args in zip(x.shape[1:4], spec.kernel, spec.strides)))
    (to, ho, wo), (pt, ph, pw) = dims, pads
    xp = np.zeros((x.shape[0], *(s + k for s, k in zip(x.shape[1:4], spec.kernel)), x.shape[4]), x.dtype)
    xp[:, pt : pt + x.shape[1], ph : ph + x.shape[2], pw : pw + x.shape[3]] = x
    out = np.zeros((x.shape[0], to, ho, wo, spec.out_channels), np.result_type(x, w))
    for dt, dh, dw in np.ndindex(*spec.kernel):
        part = xp[:, dt : dt + s_t * to : s_t, dh : dh + s_h * ho : s_h, dw : dw + s_w * wo : s_w]
        for gi in range(g):
            ci, co = slice(gi * cig, (gi + 1) * cig), slice(gi * cog, (gi + 1) * cog)
            out[..., co] += part[..., ci] @ w[dt, dh, dw, :, co]
    return out


class TestConv3d:
    def test_identity_pointwise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 4, 5, 6))
        spec = ConvSpec((1, 1, 1), (1, 1, 1), 1, 6, 6)
        w = np.eye(6).reshape(1, 1, 1, 6, 6)
        np.testing.assert_array_equal(conv3d(x, w, spec), x)

    def test_impulse_all_ones_kernel(self):
        x = np.zeros((1, 7, 7, 7, 1))
        x[0, 3, 3, 3, 0] = 1.0
        spec = ConvSpec((3, 3, 3), (1, 1, 1), 1, 1, 1)
        w = np.ones(spec.weight_shape)
        y = conv3d(x, w, spec)
        assert y.sum() == 27
        assert set(np.unique(y)) == {0.0, 1.0}
        assert (y[0, 2:5, 2:5, 2:5, 0] == 1).all()

    def test_depthwise_degenerate_scaling(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 3, 3, 4))
        spec = ConvSpec((1, 1, 1), (1, 1, 1), 4, 4, 4)
        scales = np.array([2.0, -1.0, 0.5, 3.0])
        w = scales.reshape(1, 1, 1, 1, 4)
        np.testing.assert_allclose(conv3d(x, w, spec), x * scales)

    @pytest.mark.parametrize(
        "kernel,groups,strides",
        [
            ((3, 3, 3), 1, (1, 1, 1)),
            ((3, 3, 3), 2, (1, 1, 1)),
            ((3, 3, 3), 2, (2, 2, 2)),
            ((3, 3, 3), 1, (2, 1, 2)),
            ((1, 1, 1), 1, (1, 1, 1)),
            ((1, 1, 1), 2, (1, 1, 1)),
            ((1, 1, 1), 1, (2, 2, 2)),
            ((1, 1, 1), 2, (2, 2, 2)),
        ],
        ids=[
            "1-strides0", "2-strides1", "2-strides2", "1-strides3",
            "1x1x1-g1-s1", "1x1x1-g2-s1", "1x1x1-g1-s2", "1x1x1-g2-s2",
        ],
    )
    def test_matches_direct_summation(self, kernel, groups, strides):
        rng = np.random.default_rng(2)
        spec = ConvSpec(kernel, strides, groups, 4, 6)
        x = rng.normal(size=(2, 4, 5, 6, 4))
        w = rng.normal(size=spec.weight_shape)
        np.testing.assert_allclose(conv3d(x, w, spec), conv3d_oracle(x, w, spec), atol=1e-12)

    def test_grouped_equals_independent_slices(self):
        rng = np.random.default_rng(3)
        g = 4
        spec = ConvSpec((3, 3, 3), (1, 1, 1), g, 8, 8)
        x = rng.normal(size=(1, 3, 4, 4, 8))
        w = rng.normal(size=spec.weight_shape)
        full = conv3d(x, w, spec)
        for gi in range(g):
            sub = ConvSpec((3, 3, 3), (1, 1, 1), 1, 2, 2)
            got = conv3d(x[..., gi * 2 : gi * 2 + 2], w[..., gi * 2 : gi * 2 + 2], sub)
            np.testing.assert_allclose(full[..., gi * 2 : gi * 2 + 2], got, atol=1e-12)

    def test_grouped_conv_holds_one_group_of_columns(self):
        rng = np.random.default_rng(5)
        spec = ConvSpec((3, 3, 3), (1, 1, 1), 2, 16, 8)
        x = rng.normal(size=(1, 6, 12, 12, 16))
        w = rng.normal(size=spec.weight_shape)
        group_cols_bytes = 6 * 12 * 12 * 27 * 8 * x.itemsize
        tracemalloc.start()
        try:
            conv3d(x, w, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * group_cols_bytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [(1, 1, 1), (3, 3, 3)])
    @pytest.mark.parametrize("strides", [(1, 1, 1), (2, 2, 2), (1, 2, 2)])
    def test_group_columns_match_padded_channel_slices(self, dtype, kernel, strides):
        # oracle: pad the NTHWC input, take its windows, slice one group's
        # channels and flatten each window in (kt, kh, kw, channel) order
        rng = np.random.default_rng(6)
        for groups in (1, 2, 4):
            for cig in range(1, 9):
                x = rng.normal(size=(2, 3, 5, 4, groups * cig)).astype(dtype)
                pads = [conv_same_pads(s, k, st)[1:] for s, k, st in zip(x.shape[1:4], kernel, strides)]
                view = ref._windows(np.pad(x, ((0, 0), *pads, (0, 0))), kernel, strides)
                cols = ref._columns(x, kernel, strides, groups)
                for gi in range(groups):
                    want = view[..., gi * cig : (gi + 1) * cig].reshape(-1, np.prod(kernel) * cig)
                    got = cols(gi)
                    assert got.dtype == dtype
                    assert np.array_equal(got, want), (groups, cig, gi)

    @pytest.mark.parametrize("kernel", [(3, 3, 3), (5, 1, 3)])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("t", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_conv_split_along_kt_has_the_one_product_bytes(self, n, t, groups, kernel):
        # Integer input in [0, M], M = (2**24 - 1) // fan-in, and +-1 weights,
        # except all +1 for output channel 0.  One input value then grows
        # until channel 0's largest sum is exactly 2**24 - 1.  That sum
        # bounds every partial sum of every output, so float32 holds them
        # all, and the kt-split sums match the one-product ones byte for byte.
        rng = np.random.default_rng(n * 100 + t * 10 + groups)
        spec = ConvSpec(kernel, (1, 1, 1), groups, 3 * groups, 2 * groups)
        bound = 2**24 - 1
        x = rng.integers(0, bound // spec.fan_in + 1, size=(n, t, 5, 4, spec.in_channels)).astype(np.float64)
        w = np.where(rng.random(spec.weight_shape) < 0.5, -1.0, 1.0)
        w[..., 0] = 1.0
        peak = np.unravel_index(np.argmax(conv3d(x, w, spec)[..., 0]), (n, t, 5, 4))
        x[(*peak, 0)] += bound - conv3d(x, w, spec)[(*peak, 0)]
        want = conv3d(x, w, spec)
        assert want[..., 0].max() == bound
        x32, w32 = x.astype(np.float32), w.astype(np.float32)
        got = conv3d(x32, w32, spec, exact=True)
        assert got.dtype == np.float32 and got.tobytes() == conv3d(x32, w32, spec).tobytes()
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "kernel, strides, split",
        [((3, 3, 3), (1, 1, 1), True), ((3, 3, 3), (2, 2, 2), False), ((3, 3, 3), (1, 2, 2), False),
         ((1, 1, 1), (1, 1, 1), False), ((1, 3, 3), (1, 1, 1), False)],
    )
    def test_only_exact_stride_1_convs_over_several_frames_split_along_kt(self, kernel, strides, split, monkeypatch):
        calls = []
        real = ref._conv_split_t
        monkeypatch.setattr(ref, "_conv_split_t", lambda *a: calls.append(a) or real(*a))
        spec = ConvSpec(kernel, strides, 2, 4, 4)
        x = np.random.default_rng(3).integers(0, 2, size=(1, 4, 6, 6, 4)).astype(np.float32)
        w = np.ones(spec.weight_shape, dtype=np.float32)
        conv3d(x, w, spec)
        assert not calls
        assert np.array_equal(conv3d(x, w, spec, exact=True), conv3d_oracle(x, w, spec))
        assert len(calls) == split

    def test_bad_grouping_rejected(self):
        with pytest.raises(BadGrouping):
            ConvSpec((3, 3, 3), (1, 1, 1), 3, 4, 6)

    def test_weight_shape_checked(self):
        spec = ConvSpec((1, 1, 1), (1, 1, 1), 1, 3, 3)
        with pytest.raises(ShapeMismatch):
            conv3d(np.zeros((1, 1, 1, 1, 3)), np.zeros((1, 1, 1, 3, 4)), spec)


def oracle_paths(model, frames):
    """``engine.compare_paths`` with ``engine.ref`` a copy of ``reference``
    whose ``conv3d`` is ``conv3d_oracle``: the logic path's integer convs are
    then the oracle's sums, the reference path's stay ``conv3d``'s."""
    calls = []

    def conv3d(x, w, spec, exact=False):
        calls.append(spec)
        return conv3d_oracle(x, w, spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "ref", SimpleNamespace(**{**vars(ref), "conv3d": conv3d}))
        div = engine.compare_paths(model, frames)
    assert calls  # the logic path did sum its convs by the oracle
    return div


def oracle_frames(model, seed, n=2):
    cfg = model.config
    return np.random.default_rng(seed).integers(0, 256, size=(n, cfg.t, cfg.h, cfg.w, cfg.in_channels), dtype=np.uint8)


@pytest.mark.parametrize("config", [*sorted(CONFIGS), "paper"])
def test_logic_path_on_the_conv_oracle_matches_the_reference(config):
    # compare_paths would not see a fault shared by both paths' convs, since
    # both run conv3d; against the oracle such a fault shows as a divergence.
    model = model_at(5, 2, **(PAPER_CONFIG if config == "paper" else CONFIGS[config]))
    assert oracle_paths(model, oracle_frames(model, 3, 1 if config == "paper" else 2)) is None


@settings(max_examples=50, deadline=None)
@given(overrides=model_overrides(), seed=st.integers(0, 2**16))
def test_fuzzed_stage5_logic_path_on_the_conv_oracle_matches_the_reference(overrides, seed):
    model = model_at(5, seed, **overrides)
    assert oracle_paths(model, oracle_frames(model, seed)) is None


class TestPooling:
    def test_constant_input(self):
        x = np.full((1, 2, 4, 4, 3), 0.7)
        np.testing.assert_array_equal(maxpool3d(x), np.full((1, 2, 2, 2, 3), 0.7))

    def test_binary_pool_is_or_reduction(self):
        rng = np.random.default_rng(4)
        x = (rng.random((2, 3, 6, 6, 5)) < 0.4).astype(float)
        pooled = maxpool3d(x)
        view = x.reshape(2, 3, 3, 2, 3, 2, 5)
        orred = np.logical_or.reduce(
            [view[:, :, :, 0, :, 0], view[:, :, :, 0, :, 1], view[:, :, :, 1, :, 0], view[:, :, :, 1, :, 1]]
        ).astype(float)
        np.testing.assert_array_equal(pooled, orred)

    def test_blocks_are_a_writeable_view(self):
        # The whole windows only: a C-order array and a strided slice of one.
        for x in (np.zeros((2, 3, 5, 7, 4)), np.zeros((2, 3, 5, 7, 8))[..., ::2]):
            blocks = ref._blocks(x, (2, 2, 3))
            assert np.shares_memory(blocks, x)
            blocks[...] = 1.0
            assert x.sum() == x[:, :2, :4, :6].size == blocks.size

    def test_floor_mode_crops(self):
        x = np.zeros((1, 1, 5, 7, 1))
        assert maxpool3d(x).shape == (1, 1, 2, 3, 1)

    def test_gap_counts(self):
        rng = np.random.default_rng(5)
        flat = np.zeros(48)
        flat[rng.choice(48, size=25, replace=False)] = 1.0
        x = flat.reshape(1, 1, 6, 8, 1)
        assert gap_spatial(x)[0, 0, 0, 0, 0] == pytest.approx(25 / 48)


class TestMux:
    def _inputs(self, seed=6):
        rng = np.random.default_rng(seed)
        i0 = (rng.random((2, 3, 4, 4, 5)) < 0.5).astype(float)
        i1 = (rng.random((2, 3, 4, 4, 5)) < 0.5).astype(float)
        return i0, i1

    def test_select_all_ones(self):
        i0, i1 = self._inputs()
        s = np.ones((2, 3, 1, 1, 5))
        np.testing.assert_array_equal(mux(i0, i1, s), i1)

    def test_select_all_zeros(self):
        i0, i1 = self._inputs()
        s = np.zeros((2, 3, 1, 1, 5))
        np.testing.assert_array_equal(mux(i0, i1, s), i0)

    def test_mixed_select_elementwise_oracle(self):
        i0, i1 = self._inputs()
        rng = np.random.default_rng(7)
        s = (rng.random((2, 3, 1, 1, 5)) < 0.5).astype(float)
        got = mux(i0, i1, s)
        expect = np.where(np.broadcast_to(s, i0.shape) == 1, i1, i0)
        np.testing.assert_array_equal(got, expect)

    def test_non_binary_select_rejected(self):
        i0, i1 = self._inputs()
        with pytest.raises(NonBinarySelect):
            mux(i0, i1, np.full((2, 3, 1, 1, 5), 0.5))


def textbook_lstm_oracle(x, h, c, weights):
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    zx = np.concatenate([x, h], axis=1)
    pre = [zx @ weights.w[k] + weights.b[k] for k in range(4)]  # in GATES order
    i, f, o, ct = sig(pre[0]), sig(pre[1]), sig(pre[2]), np.tanh(pre[3])
    c_new = f * c + i * ct
    return o * np.tanh(c_new), c_new


def random_weights(rng, n_i, n_o, biases=True):
    w = rng.normal(size=(4, n_i + n_o, n_o))
    return LSTMWeights(w, rng.normal(size=(4, n_o)) if biases else None)


# The cell's three regimes: float latents, ssign kernels, the integer LSTM.
FLOAT, SIGNED, INTEGER = stage_rules(1), stage_rules(2), stage_rules(5)


def step(x, h, c, wts, rules, d=None):
    return lstm_cell(x, h, c, wts, rules, ref.lstm_kernels(wts, rules), d)


class TestLSTMCell:
    def test_float_matches_textbook_oracle(self):
        rng = np.random.default_rng(8)
        wts = random_weights(rng, 6, 4)
        x = rng.normal(size=(3, 6))
        h = rng.normal(size=(3, 4))
        c = rng.normal(size=(3, 4))
        got_h, got_c = step(x, h, c, wts, FLOAT)
        exp_h, exp_c = textbook_lstm_oracle(x, h, c, wts)
        np.testing.assert_allclose(got_h, exp_h, atol=1e-6)
        np.testing.assert_allclose(got_c, exp_c, atol=1e-6)

    def test_integer_zero_preactivations(self):
        n_i, n_o = 4, 3
        wts = LSTMWeights(np.ones((4, n_i + n_o, n_o)), None)
        x = np.zeros((1, n_i))
        h = np.zeros((1, n_o))
        c = np.full((1, n_o), 1.0)
        got_h, got_c = step(x, h, c, wts, INTEGER, 1)
        # gates are 0, candidate is -1, so the state empties and h is 0
        np.testing.assert_array_equal(got_c, np.zeros((1, n_o)))
        np.testing.assert_array_equal(got_h, np.zeros((1, n_o)))

    def test_integer_saturation_clips_to_plus_one(self):
        # every gate fires, candidate +1, previous cell +1: 1*1 + 1*1 -> +1
        n_i, n_o = 2, 2
        wts = LSTMWeights(np.ones((4, n_i + n_o, n_o)), None)
        x = np.ones((1, n_i))
        h = np.zeros((1, n_o))
        c = np.ones((1, n_o))
        got_h, got_c = step(x, h, c, wts, INTEGER, 1)
        np.testing.assert_array_equal(got_c, np.ones((1, n_o)))
        np.testing.assert_array_equal(got_h, np.ones((1, n_o)))

    def test_integer_matches_substituted_equations(self):
        # Oracle: evaluate the gate equations directly with the hard
        # activations substituted in, scales attached.
        rng = np.random.default_rng(9)
        n_i, n_o = 5, 4
        wts = random_weights(rng, n_i, n_o, biases=False)
        s = ssign_scale(n_i, n_o)
        for _ in range(200):
            x = rng.integers(0, 2, size=(2, n_i)).astype(float)
            h = rng.integers(-1, 2, size=(2, n_o)).astype(float)
            c = rng.integers(-1, 2, size=(2, n_o)).astype(float)
            zx = np.concatenate([x, h], axis=1)
            i, f, o = (heaviside(zx @ (s * sign_strict(wts.w[k]))) for k in range(3))
            ct = sign_strict(zx @ (s * sign_strict(wts.w[3])))
            exp_c = clip(f * c + i * ct)
            exp_h = o * exp_c
            got_h, got_c = step(x, h, c, wts, INTEGER, 1)
            np.testing.assert_array_equal(got_c, exp_c)
            np.testing.assert_array_equal(got_h, exp_h)

    def test_integer_exact_form_matches_integer_oracle(self):
        # Pure int64 oracle: pre = counts . sign(Wx) + den * (h . sign(Wh));
        # strict zero thresholds on the integers themselves.
        rng = np.random.default_rng(10)
        n_i, n_o, den = 6, 4, 48
        wts = random_weights(rng, n_i, n_o, biases=False)
        sx = [np.where(w[:n_i] > 0, 1, -1).astype(np.int64) for w in wts.w]
        sh = [np.where(w[n_i:] > 0, 1, -1).astype(np.int64) for w in wts.w]
        for _ in range(200):
            counts = rng.integers(0, den + 1, size=(1, n_i))
            h = rng.integers(-1, 2, size=(1, n_o))
            c = rng.integers(-1, 2, size=(1, n_o))
            pre = [counts @ sx[k] + den * (h @ sh[k]) for k in range(4)]
            i, f, o = ((p > 0).astype(np.int64) for p in pre[:3])
            ct = np.where(pre[3] > 0, 1, -1)
            exp_c = np.clip(f * c + i * ct, -1, 1)
            exp_h = o * exp_c
            got_h, got_c = step(counts / den, h.astype(float), c.astype(float), wts, INTEGER, den)
            np.testing.assert_array_equal(got_c, exp_c)
            np.testing.assert_array_equal(got_h, exp_h)

    def test_signed_matches_scaled_sign_oracle(self):
        # With binary weights the cell reads the ssign kernels,
        # +-3/sqrt(n_i+n_o), and ignores the biases it is given.
        rng = np.random.default_rng(14)
        n_i, n_o = 5, 4
        wts = random_weights(rng, n_i, n_o)
        s = ssign_scale(n_i, n_o)
        signed = LSTMWeights(s * sign_strict(wts.w), np.zeros((4, n_o)))
        x, h, c = (rng.normal(size=(3, k)) for k in (n_i, n_o, n_o))
        got_h, got_c = step(x, h, c, wts, SIGNED)
        exp_h, exp_c = textbook_lstm_oracle(x, h, c, signed)
        np.testing.assert_allclose(got_h, exp_h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_c, exp_c, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stage", range(1, 6))
    def test_kernels_quantize_each_gate_by_the_stage_rules(self, stage):
        # One elementwise op on the stack: gate k's slice is gate k's kernel
        # quantized alone, and before binary weights the latents themselves.
        rng = np.random.default_rng(15)
        n_i, n_o = 6, 5
        wts = random_weights(rng, n_i, n_o)
        rules = stage_rules(stage)
        kernels = ref.lstm_kernels(wts, rules)
        if not rules.binary_weights:
            assert kernels is wts.w
        quant = sign_strict if rules.int_lstm else (lambda w: ssign_scale(n_i, n_o) * sign_strict(w))
        for k in range(4):
            want = quant(wts.w[k]) if rules.binary_weights else wts.w[k]
            assert np.array_equal(kernels[k], want)

    def test_integer_cell_needs_its_grid(self):
        wts = random_weights(np.random.default_rng(16), 2, 2, biases=False)
        x, h = np.zeros((1, 2)), np.zeros((1, 2))
        with pytest.raises(ValueError):
            step(x, h, h, wts, INTEGER)
        with pytest.raises(ShapeMismatch):
            step(np.zeros((1, 3)), h, h, wts, FLOAT)


class TestHead:
    def test_zero_sequence_ties_break_low(self):
        logits = np.zeros((2, 3, 5)) @ np.zeros((5, 4))
        np.testing.assert_array_equal(logits, np.zeros((2, 3, 4)))
        scores = ref.aggregate_logits(logits)
        np.testing.assert_array_equal(ref.predict(scores), [0, 0])

    def test_positive_scaling_preserves_argmax(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(4, 3, 6))
        w = rng.normal(size=(6, 5))
        a = ref.predict(ref.aggregate_logits(h @ w))
        b = ref.predict(0.037 * ref.aggregate_logits(h @ w))
        np.testing.assert_array_equal(a, b)


class TestModelForward:
    def test_toy_forward_shapes(self):
        model = build(toy_config())
        rng = np.random.default_rng(12)
        x = rng.integers(0, 256, size=(2, 8, 24, 32, 1)) / 255.0
        res, taps = recorded(model, x)
        assert res.logits.shape == (2, 4, 4)
        assert res.scores.shape == (2, 4)
        assert res.pred.shape == (2,)
        assert "mor2.sel" in taps

    def test_paper_scale_heatmap_shape(self):
        # 16 frames at 96x128 produce an 8 x 27 class-temporal map.
        from billnet.model import BillnetConfig

        model = build(BillnetConfig())
        x = np.zeros((1, 16, 96, 128, 1))
        res = ref.forward(model, x)
        assert res.logits.shape[1:] == (8, 27)

    def test_quantized_stage_intermediates_are_binary_or_ternary(self):
        model = model_at(5, 3)
        rng = np.random.default_rng(13)
        x = rng.integers(0, 256, size=(1, 8, 24, 32, 1)) / 255.0
        _, taps = recorded(model, x)
        for name, val in taps.items():
            layer = name.split(".")[0]
            if layer.startswith(("stem", "mor", "cf", "mp")):
                assert np.isin(val, (0.0, 1.0)).all(), name
        assert np.isin(taps["lstm.h"], (-1, 0, 1)).all()
        assert taps["gap.counts"].dtype == np.int64

    @pytest.mark.parametrize("stage", [1, 3, 5])
    def test_lstm_kernels_quantized_once_per_forward(self, stage, monkeypatch):
        model = model_at(stage, 5)
        made, steps, real_kernels, real_cell = [], [], ref.lstm_kernels, ref.lstm_cell
        monkeypatch.setattr(ref, "lstm_kernels", lambda *a: made.append(a) or real_kernels(*a))
        monkeypatch.setattr(ref, "lstm_cell", lambda *a, **k: steps.append(a) or real_cell(*a, **k))
        x = np.random.default_rng(14).integers(0, 256, size=(2, 8, 24, 32, 1)) / 255.0
        res = ref.forward(model, x)
        assert len(made) == 1 and len(steps) == res.logits.shape[1] > 1

    def test_zero_input_mor_takes_or_branch(self):
        model = build(toy_config(seed=4))
        x = np.zeros((1, 8, 24, 32, 1))
        _, taps = recorded(model, x)
        np.testing.assert_array_equal(taps["mor1.sel"], 0.0)
        np.testing.assert_array_equal(taps["mor1.out"], taps["mor1.i0"])


# The taps ``forward`` hands on as integers; every other one is float64.
INT_TAPS = {"gap.counts", "lstm.h", "dense.intlogits", "pred"}


def assert_float64_taps(taps):
    for name, val in taps.items():
        assert (val.dtype.kind == "i") if name in INT_TAPS else (val.dtype == np.float64), (name, val.dtype)


class TestExactPrecision:
    @pytest.mark.parametrize("stage", [4, 5])
    @pytest.mark.parametrize("config", ["toy", "cf-blocks", "paper"])
    def test_stages_4_5_step_on_raw_sums(self, config, stage, monkeypatch):
        # From stage 4 every norm is a positive power-of-two shift (the
        # stem's 1/255 one more positive scale), which cannot move a strict
        # zero step: the forward steps on the raw conv sums and applies no
        # norm, and at stage 5 still matches the logic path bit for bit.
        from billnet.engine import compare_paths

        model = model_at(stage, 6, **(PAPER_CONFIG if config == "paper" else CONFIGS[config]))
        cfg = model.config

        def unreachable(*args):
            raise AssertionError("a norm was applied from stage 4 on")

        monkeypatch.setattr(ref, "bsn_forward", unreachable)
        monkeypatch.setattr(ref, "apply_norm", unreachable)
        frames = np.random.default_rng(18).integers(
            0, 256, size=(1, cfg.t, cfg.h, cfg.w, cfg.in_channels), dtype=np.uint8
        )
        _, taps = recorded(model, frames / 255.0)
        assert_float64_taps(taps)
        if stage == 5:
            assert compare_paths(model, frames) is None

    @pytest.mark.parametrize("stage", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("config", ["toy", "cf-blocks", "paper"])
    def test_binary_activations_are_bool_from_stage_4(self, config, stage, monkeypatch):
        # From stage 4 the forward carries each binary activation as bool,
        # so the pools read bool; up to stage 3 they read float64.  Either
        # way every tap reaches on_tap as float64, or as its integer dtype.
        pooled, real = [], ref.maxpool3d
        monkeypatch.setattr(ref, "maxpool3d", lambda x, window: pooled.append(x.dtype) or real(x, window))
        model = model_at(stage, 7, **(PAPER_CONFIG if config == "paper" else CONFIGS[config]))
        cfg = model.config
        x = np.random.default_rng(19).integers(0, 256, size=(1, cfg.t, cfg.h, cfg.w, cfg.in_channels)) / 255.0
        _, taps = recorded(model, x)
        assert pooled and set(pooled) == {np.dtype(bool if stage >= 4 else np.float64)}
        assert_float64_taps(taps)

    @pytest.mark.parametrize("stage", [4, 5])
    def test_one_float64_copy_per_bool_tap_array(self, stage):
        # From stage 4 a MOR block's i0, i1 and out are one bool array, so
        # on_tap gets one float64 copy of it under all three names.
        model = model_at(stage, 9)
        x = np.random.default_rng(21).integers(0, 256, size=(1, 8, 24, 32, 1)) / 255.0
        _, taps = recorded(model, x)
        for block in ("mor1", "mor2"):
            i0, i1, out = (taps[f"{block}.{tap}"] for tap in ("i0", "i1", "out"))
            assert i0 is i1 is out and i0.dtype == np.float64

    def test_untapped_paper_forward_peak_below_15_mb(self):
        # Bool activations take one byte a bit where float64 took eight, and
        # the stem's sums are dropped once stepped: the untapped stage-5
        # paper-scale forward peaks at about 12.2 MB traced, against about
        # 22 MB with float64 activations.
        model = model_at(5, 0, **PAPER_CONFIG)
        x = np.random.default_rng(20).integers(0, 256, size=(1, 16, 96, 128, 1)) / 255.0
        tracemalloc.start()
        try:
            ref.forward(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15e6, peak

    def test_exact_dtype_limits(self):
        assert ref.exact_dtype(2**24 - 1) == np.float32
        assert ref.exact_dtype(2**24) == np.float64
        assert ref.exact_dtype(2**53) == np.float64

    def test_paper_stage5_convs_run_at_their_exact_precision(self, conv_calls, monkeypatch):
        # Stem 255 x 27, every pointwise conv its fan-in, grouped convs and
        # their pw2 the chain's product: only pw2 of the three 256-channel
        # blocks passes 2**24 (256 * 864 * 128).  Float32 sums there are
        # still exact, so every recorded array matches an all-float64 run.
        model = model_at(5, 0, **PAPER_CONFIG)
        x = np.random.default_rng(17).integers(0, 256, size=(1, 16, 96, 128, 1)) / 255.0
        got, got_taps = recorded(model, x)
        assert all(xt == wt and exact for xt, wt, _, exact in conv_calls)  # all bounded
        assert len(conv_calls) == 33
        assert sum(xt == np.float32 for xt, _, _, _ in conv_calls) == 30
        wide = [(sp.in_channels, sp.kernel) for xt, _, sp, _ in conv_calls if xt == np.float64]
        assert wide == [(128, (1, 1, 1))] * 3
        monkeypatch.setattr(ref, "FLOAT32_EXACT_LIMIT", 0)
        conv_calls.clear()
        want, want_taps = recorded(model, x)
        assert len(conv_calls) == 33 and all(xt == wt == np.float64 for xt, wt, _, _ in conv_calls)
        assert got_taps.keys() == want_taps.keys()
        pairs = [(name, got_taps[name], v) for name, v in want_taps.items()]
        pairs += [("logits", got.logits, want.logits), ("scores", got.scores, want.scores)]
        for name, a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
            if a.dtype.kind == "f":
                assert a.dtype == np.float64, name
