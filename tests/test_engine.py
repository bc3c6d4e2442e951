import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import CONFIGS, PAPER_CONFIG, assert_no_norms_or_reals, assert_ops_write_in_order, model_at, recorded

from billnet import engine, reference
from billnet.engine import (
    QLSTMGates,
    compare_paths,
    count_products,
    execute,
    frames_to_bitplanes,
    qlstm_step,
)
from billnet.errors import BadConfig, NotFullyQuantized, ShapeMismatch
from billnet.quantize import stage_rules
from billnet.reference import LSTMWeights, lstm_cell, lstm_kernels
from billnet.tensors import BitTensor, pack, unpack

WORD_BOUNDARY_CHANNELS = (1, 63, 64, 65, 129, 200)


@pytest.fixture(scope="module", params=["toy", "cf-blocks", "paper"])
def stage5_plan(request):
    """The compiled plan of a toy, ``cf:``-block or paper-scale stage-5 model."""
    overrides = PAPER_CONFIG if request.param == "paper" else CONFIGS[request.param]
    return engine.compile(model_at(5, 0, **overrides))


class TestCompile:
    def test_requires_stage5(self):
        model = model_at(3, 0)
        with pytest.raises(NotFullyQuantized):
            engine.compile(model)

    def test_no_norm_nodes_no_real_constants(self, stage5_plan):
        assert_no_norms_or_reals(stage5_plan)

    def test_op_i_writes_slot_i_plus_1_from_earlier_slots(self, stage5_plan):
        assert_ops_write_in_order(stage5_plan)

    def test_stage5_plan_has_no_mor_select(self):
        model = model_at(5, 0)
        plan = engine.compile(model)
        assert not {op.kind for op in plan.ops} & {"tgap", "mux"}
        mors = [lay.name for lay in model.layers if lay.kind == "mor"]
        assert mors
        for name in mors:
            slots = {plan.outputs[f"{name}.{tap}"] for tap in ("i0", "i1", "out")}
            assert len(slots) == 1
            assert plan.ops[slots.pop() - 1].name == f"{name}.i0"

    def test_paper_plan_accumulator_bound(self, monkeypatch):
        # cf3 of a 4n block: 256 (pw-conv-bin) * 27 * 128/4 * 128 = 28,311,552,
        # above 2**24, so float32 would not be exact.
        model = model_at(5, 0, **PAPER_CONFIG)
        assert engine.compile(model).meta["max_abs_acc"] == 28_311_552
        monkeypatch.setattr(reference, "EXACT_LIMIT", 28_311_552)
        with pytest.raises(BadConfig):
            engine.compile(model)

    def test_paper_plan_conv_dtypes(self, conv_calls, monkeypatch):
        # float32 holds every integer below 2**24 exactly; only the cf3 convs
        # fed by 128-channel grouped convs can exceed that and stay float64.
        model = model_at(5, 0, **PAPER_CONFIG)
        plan = engine.compile(model)
        convs = [op for op in plan.ops if op.kind in ("stem-conv", "conv-int")]
        wide = sorted(op.name for op in convs if op.params["dtype"] == np.float64)
        assert wide == ["mor10.cf3", "mor8.cf3", "mor9.cf3"]
        assert len(convs) - len(wide) == 18
        for op in convs:
            assert (op.params["bound"] >= reference.FLOAT32_EXACT_LIMIT) == (op.name in wide)
        frames = np.random.default_rng(13).integers(0, 256, size=(1, 16, 96, 128, 1), dtype=np.uint8)
        planes = frames_to_bitplanes(frames)
        want = execute(plan, planes)
        assert [xt for xt, _, _, _ in conv_calls] == [op.params["dtype"] for op in convs]
        assert all(exact for _, _, _, exact in conv_calls)  # every engine conv sums integers
        monkeypatch.setattr(reference, "FLOAT32_EXACT_LIMIT", 0)
        plan64 = engine.compile(model)
        assert all(op.params["dtype"] == np.float64 for op in plan64.ops if "dtype" in op.params)
        got = execute(plan64, planes)
        for name, val in want.intermediates.items():
            other = got.intermediates[name]
            if isinstance(val, BitTensor):
                val, other = val.words, other.words
            assert np.array_equal(val, other), name
        np.testing.assert_array_equal(got.intermediates["dense.intlogits"], want.intermediates["dense.intlogits"])
        np.testing.assert_array_equal(got.pred, want.pred)


class TestExecute:
    def test_zero_input_matches_reference(self):
        model = model_at(5, 2)
        frames = np.zeros((1, 8, 24, 32, 1), dtype=np.uint8)
        assert compare_paths(model, frames) is None

    def test_constant_input_exact_zero_preactivations(self):
        # Balanced +-1 kernels over constant frames give exactly zero sums;
        # both paths must make the same strict-threshold decision.
        model = model_at(5, 3)
        frames = np.full((1, 8, 24, 32, 1), 127, dtype=np.uint8)
        assert compare_paths(model, frames) is None

    def test_random_models_and_inputs_exact(self):
        rng = np.random.default_rng(4)
        for seed in range(8):
            model = model_at(5, seed)
            frames = rng.integers(0, 256, size=(2, 8, 24, 32, 1), dtype=np.uint8)
            assert compare_paths(model, frames) is None

    def test_input_validation(self):
        model = model_at(5, 5)
        plan = engine.compile(model)
        frames = np.zeros((1, 8, 24, 32, 1), dtype=np.uint8)
        planes = frames_to_bitplanes(frames)
        with pytest.raises(ShapeMismatch):
            execute(plan, planes[:4])
        bad = frames_to_bitplanes(np.zeros((1, 4, 24, 32, 1), dtype=np.uint8))
        with pytest.raises(ShapeMismatch):
            execute(plan, bad)

    def test_input_planes_must_be_bit_tensors(self):
        plan = engine.compile(model_at(5, 5))
        planes = frames_to_bitplanes(np.zeros((1, 8, 24, 32, 1), dtype=np.uint8))
        with pytest.raises(TypeError):
            execute(plan, [unpack(p) for p in planes])

    def test_input_planes_without_a_shape_are_refused_as_types(self):
        # The type check comes before any plane's shape is read.
        plan = engine.compile(model_at(5, 5))
        planes = frames_to_bitplanes(np.zeros((1, 8, 24, 32, 1), dtype=np.uint8))
        for bad in ([[0]] * 8, [[0]] + planes[1:]):
            with pytest.raises(TypeError, match="BitTensor"):
                execute(plan, bad)

    def test_unknown_op_kind_is_refused(self):
        plan = engine.compile(model_at(5, 5))
        plan.ops[-1] = dataclasses.replace(plan.ops[-1], kind="bogus")
        with pytest.raises(ValueError, match="bogus"):
            execute(plan, frames_to_bitplanes(np.zeros((1, 8, 24, 32, 1), dtype=np.uint8)))

    def test_bitplanes_require_uint8(self):
        with pytest.raises(TypeError, match="float64"):
            frames_to_bitplanes(np.zeros((1, 2, 2, 2, 1)))

    def test_bitplanes_reassemble_colour_frames(self):
        rng = np.random.default_rng(10)
        frames = rng.integers(0, 256, size=(2, 8, 24, 32, 3), dtype=np.uint8)
        planes = frames_to_bitplanes(frames)
        total = sum(unpack(p) * 2**b for b, p in enumerate(planes))
        np.testing.assert_array_equal(total, frames)
        model = model_at(5, 0, in_channels=3)
        assert compare_paths(model, frames) is None

    @pytest.mark.parametrize("window", [(1, 2, 2), (2, 3, 2)])
    def test_maxpool_or_matches_an_or_over_window_offsets(self, window):
        # Oracle: OR of one strided slice per window offset, each starting
        # at the offset and stopping where floor mode crops, not _blocks.
        rng = np.random.default_rng(11)
        bits = rng.random((2, 5, 7, 9, 70)) < 0.3
        (kt, kh, kw), (to, ho, wo) = window, (s // k for s, k in zip(bits.shape[1:4], window))
        want = np.zeros((2, to, ho, wo, 70), dtype=bool)
        for dt, dh, dw in np.ndindex(*window):
            want |= bits[:, dt : to * kt : kt, dh : ho * kh : kh, dw : wo * kw : kw]
        got = unpack(engine._maxpool_or(pack(bits.astype(np.float64)), window))
        np.testing.assert_array_equal(got, want.astype(np.float64))

    def test_broken_logic_op_is_reported(self, monkeypatch):
        # A pool that drops every bit must surface as a divergence at its tap.
        real = engine._maxpool_or

        def dropped(bt, window):
            out = real(bt, window)
            return BitTensor(out.shape, np.zeros_like(out.words))

        monkeypatch.setattr(engine, "_maxpool_or", dropped)
        frames = np.random.default_rng(12).integers(0, 256, size=(1, 8, 24, 32, 1), dtype=np.uint8)
        model = model_at(5, 1)
        div = compare_paths(model, frames)
        assert div is not None
        assert div.name == "mp1.out"
        assert (div.got, div.want) == (0.0, 1.0)
        # Every dropped one differs, and the scan goes on past the first tap:
        # the report lists the later diverging taps, in plan order.
        _, want = recorded(model, frames / 255.0)
        assert div.count == np.count_nonzero(want["mp1.out"])
        names = list(engine.compile(model).outputs)
        later = [d.name for d in div.later]
        assert later and "gap.counts" in later
        assert later == sorted(later, key=names.index)
        assert names.index(later[0]) > names.index("mp1.out")
        logic = execute(engine.compile(model), frames_to_bitplanes(frames)).intermediates
        for d in div.later:
            got = unpack(logic[d.name]) if isinstance(logic[d.name], BitTensor) else logic[d.name]
            differ = got != np.reshape(want[d.name], got.shape)
            assert d.count == np.count_nonzero(differ) > 0
            assert d.index == tuple(np.argwhere(differ)[0])
            assert (d.got, d.want) == (got[d.index], np.reshape(want[d.name], got.shape)[d.index])
            assert not d.later
        lines = div.describe().splitlines()
        assert lines[0].startswith("first divergence at mp1.out, index ")
        assert [line.split()[2].rstrip(",:") for line in lines[1:]] == later

    @pytest.mark.parametrize("bogus", ["missing", "reshaped"])
    def test_unmatched_tap_is_reported(self, bogus, monkeypatch):
        # A logic tap the reference never forms, or one whose shape it cannot
        # match, is a divergence, not a skipped tap or a KeyError.
        real = engine.compile

        def bogus_compile(model):
            plan = real(model)
            if bogus == "missing":
                plan.outputs["mp1.bogus"] = plan.outputs["mp1.out"]
            else:
                plan.outputs["mp1.out"] = plan.outputs["stem.out"]
            return plan

        monkeypatch.setattr(engine, "compile", bogus_compile)
        frames = np.random.default_rng(14).integers(0, 256, size=(1, 8, 24, 32, 1), dtype=np.uint8)
        div = compare_paths(model_at(5, 1), frames)
        assert div is not None and not div.later
        assert div.name == ("mp1.bogus" if bogus == "missing" else "mp1.out")
        assert (div.index, div.got, div.want) == ((), None, None)
        assert div.why and div.why in div.describe()

    def test_compare_paths_peak_below_recorded_reference(self):
        # Streaming: compare_paths holds the packed logic taps and one
        # unrecorded reference forward, less than a recorded forward alone.
        model = model_at(5, 3, blocks=("cf:n",) * 8)
        frames = np.random.default_rng(15).integers(0, 256, size=(2, 8, 24, 32, 1), dtype=np.uint8)
        x = frames / 255.0

        def traced(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, held = traced(lambda: recorded(model, x))
        div, streamed = traced(lambda: compare_paths(model, frames))
        assert div is None
        assert streamed < held, (streamed, held)

    def test_intermediates_stay_packed(self):
        plan = engine.compile(model_at(5, 6))
        res = execute(plan, frames_to_bitplanes(np.zeros((1, 8, 24, 32, 1), dtype=np.uint8)))
        assert isinstance(res.intermediates["mp1.out"], BitTensor)
        assert isinstance(res.intermediates["gap.counts"], np.ndarray)

    def test_dead_int_slots_are_released(self, monkeypatch):
        # No tap names an int conv or pw-conv-bin output and one later op
        # reads each; dropped after that op, they no longer pile up, so the
        # traced peak of a deeper model grows by far less than the outputs
        # its extra blocks form.
        outputs = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                outputs.append(out.nbytes)
                return out
            return wrapper

        monkeypatch.setattr(reference, "conv3d", spy(reference.conv3d))
        monkeypatch.setattr(engine, "_pw_conv_bin", spy(engine._pw_conv_bin))
        frames = np.random.default_rng(13).integers(0, 256, size=(1, 8, 24, 32, 1), dtype=np.uint8)
        planes = frames_to_bitplanes(frames)
        peaks, formed = [], []
        for depth in (2, 8):
            model = model_at(5, depth, blocks=("cf:n",) * depth)
            plan = engine.compile(model)
            _, want = recorded(model, frames / 255.0)
            outputs.clear()
            tracemalloc.start()
            try:
                res = execute(plan, planes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            formed.append(sum(outputs))
            for name, val in res.intermediates.items():
                got = unpack(val) if isinstance(val, BitTensor) else val
                np.testing.assert_array_equal(got, np.reshape(want[name], got.shape), err_msg=name)
            np.testing.assert_array_equal(res.intermediates["dense.intlogits"], want["dense.intlogits"])
            np.testing.assert_array_equal(res.pred, want["pred"])
        assert peaks[1] - peaks[0] < (formed[1] - formed[0]) / 4, (peaks, formed)

    @pytest.mark.parametrize("c", WORD_BOUNDARY_CHANNELS)
    def test_pw_conv_bin_matches_integer_matmul(self, c):
        rng = np.random.default_rng(c)
        bits = rng.random((2, 2, 3, 3, c)) < 0.5
        w = rng.normal(size=(1, 1, 1, c, 70))
        got = engine._pw_conv_bin(pack(bits), engine._pw_weight_words(w))
        # narrow sums: twice the channel count fits (int8 up to 63 channels)
        assert got.dtype == (np.int8 if c < 64 else np.int16)
        np.testing.assert_array_equal(got, bits @ np.where(w[0, 0, 0] > 0, 1, -1))
        ones = pack(np.ones((1, 1, 1, 1, c), dtype=bool))
        extremes = engine._pw_conv_bin(ones, engine._pw_weight_words(np.array([1.0, -1.0]) * np.ones((1, 1, 1, c, 2))))
        np.testing.assert_array_equal(extremes, [[[[[c, -c]]]]])

    @pytest.mark.parametrize("c", WORD_BOUNDARY_CHANNELS)
    def test_tern_dense_matches_integer_matmul(self, c):
        rng = np.random.default_rng(c)
        h_seq = rng.integers(-1, 2, size=(3, 4, c)).astype(np.int8)
        w = rng.integers(-1, 2, size=(c, 5)).astype(np.int8)
        plus, minus = engine._pack_tern_rows(w.T)
        got = engine._tern_dense(h_seq, plus, minus)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, h_seq.astype(np.int64) @ w)

    def test_intlogits_shape(self):
        model = model_at(5, 6)
        plan = engine.compile(model)
        frames = np.zeros((3, 8, 24, 32, 1), dtype=np.uint8)
        res = execute(plan, frames_to_bitplanes(frames))
        intlogits = res.intermediates["dense.intlogits"]
        assert intlogits.shape == (3, 4, 4)
        assert intlogits.dtype == np.int64


def random_gates(rng, n_i, n_o):
    wts = LSTMWeights(rng.normal(size=(4, n_i + n_o, n_o)), None)
    return wts, QLSTMGates.from_latent(wts)


def zero_carry(batch, n_o):
    return np.zeros((batch, n_o), dtype=np.int8), np.zeros((batch, n_o), dtype=np.int8)


class TestQLSTMStep:
    # Each step reads its slice of count_products, the one exact product
    # formed for every step of a clip before the first.
    def test_zero_everything_stays_zero(self):
        rng = np.random.default_rng(7)
        _, gates = random_gates(rng, 4, 3)
        xw = count_products(np.zeros((1, 1, 4), dtype=np.int64), gates, 48)
        h, c = qlstm_step(xw[:, 0], *zero_carry(1, 3), gates, 48)
        np.testing.assert_array_equal(h, 0)
        np.testing.assert_array_equal(c, 0)

    def test_saturating_add_clips_to_one(self):
        # All-positive kernels and strong inputs: every gate fires with a +1
        # candidate onto a +1 cell; the sum 2 must clip to +1.
        n_i, n_o = 2, 2
        wts = LSTMWeights(np.ones((4, n_i + n_o, n_o)), None)
        gates = QLSTMGates.from_latent(wts)
        h0, c0 = np.zeros((1, n_o), dtype=np.int8), np.ones((1, n_o), dtype=np.int8)
        xw = count_products(np.full((1, 1, n_i), 10, dtype=np.int64), gates, 48)
        h, c = qlstm_step(xw[:, 0], h0, c0, gates, 48)
        np.testing.assert_array_equal(c, 1)
        np.testing.assert_array_equal(h, 1)

    @pytest.mark.parametrize("n_o", [5, 64, 65, 130])
    def test_matches_reference_cell_with_scales(self, n_o):
        # The reference cell carries the weight scale and normalized inputs;
        # strict thresholds at zero make the integer step exactly equal.
        # n_o >= 64 puts the carry's dot products across word boundaries.
        rng = np.random.default_rng(8)
        n_i, den = 6, 48
        wts, gates = random_gates(rng, n_i, n_o)
        counts = rng.integers(0, den + 1, size=(2, 500, n_i))
        xw = count_products(counts, gates, den)
        assert xw.dtype == np.int64 and xw.shape == (2, 500, 4, n_o)
        h, c = zero_carry(2, n_o)
        rules = stage_rules(5)
        kernels = lstm_kernels(wts, rules)
        h_ref = np.zeros((2, n_o))
        c_ref = np.zeros((2, n_o))
        for t in range(500):
            h, c = qlstm_step(xw[:, t], h, c, gates, den)
            h_ref, c_ref = lstm_cell(counts[:, t] / den, h_ref, c_ref, wts, rules, kernels, den)
            np.testing.assert_array_equal(h, h_ref)
            np.testing.assert_array_equal(c, c_ref)

    def test_state_stays_ternary_with_disjoint_planes(self):
        # The carry stays int8 in {-1, 0, 1}, and the plus/minus rows the
        # step packs h into never share a bit.
        rng = np.random.default_rng(9)
        _, gates = random_gates(rng, 4, 6)
        h, c = zero_carry(1, 6)
        xw = count_products(rng.integers(0, 49, size=(1, 1000, 4)), gates, 48)
        for t in range(1000):
            h, c = qlstm_step(xw[:, t], h, c, gates, 48)
            for carry in (h, c):
                assert carry.dtype == np.int8 and carry.shape == (1, 6)
                assert np.isin(carry, (-1, 0, 1)).all()
            plus, minus = engine._pack_tern_rows(h)
            assert not np.any(plus & minus)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(10)
        _, gates = random_gates(rng, 4, 3)
        with pytest.raises(ShapeMismatch):
            count_products(np.zeros((1, 1, 5), dtype=np.int64), gates, 48)
