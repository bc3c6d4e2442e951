import numpy as np
import pytest

from billnet.errors import BadConfig, StageOrderViolation, ZeroScale
from billnet.model import (
    CHAIN,
    TOY_BLOCKS,
    BillnetConfig,
    ModelGraph,
    apply_stage_transition,
    build,
    count_params,
    latents,
    norms,
    seed_norms,
    toy_config,
)
from billnet.quantize import bsn_fold
from billnet.reference import GATES, forward
from billnet.training import bind_params


def layer(model, name):
    return next(lay for lay in model.layers if lay.name == name)


class TestConfig:
    def test_group_divisibility_enforced(self):
        with pytest.raises(BadConfig):
            BillnetConfig(n=30, g=4)

    def test_bad_block_entry(self):
        with pytest.raises(BadConfig):
            BillnetConfig(blocks=("mor:n", "avgpool"))

    @pytest.mark.parametrize("size", ["g", "n", "in_channels"])
    def test_non_positive_size_rejected(self, size):
        with pytest.raises(BadConfig):
            BillnetConfig(**{size: 0})

    @pytest.mark.parametrize("size", ["n", "g", "m", "t", "h", "w", "num_classes", "in_channels", "seed"])
    def test_size_that_is_not_an_integer_rejected(self, size):
        # toy_config(h=24.5) used to build layers of out_shape (4, 13.0, 16, 16).
        with pytest.raises(TypeError, match=f"{size} .* is not an integer"):
            toy_config(**{size: float(getattr(toy_config(), size))})

    def test_lstm_hidden_is_4m(self):
        assert BillnetConfig(m=32).lstm_hidden == 128


class TestBuild:
    def test_paper_config_dense_input_is_4m(self):
        model = build(BillnetConfig())
        dense = layer(model, "dense")
        assert dense.w.shape[0] == 128 == 4 * 32

    def test_paper_config_final_mor_on_6x8_maps(self):
        model = build(BillnetConfig())
        mors = [l for l in model.layers if l.kind == "mor"]
        assert mors[-1].out_shape[1:3] == (6, 8)

    def test_toy_config_builds_and_runs(self):
        from billnet.reference import forward

        model = build(toy_config())
        x = np.zeros((1, 8, 24, 32, 1))
        res = forward(model, x)
        assert res.scores.shape == (1, 4)

    def test_deterministic_given_seed(self):
        a = build(toy_config(seed=11))
        b = build(toy_config(seed=11))
        for la, lb in zip(a.layers, b.layers):
            if la.kind == "mor":
                np.testing.assert_array_equal(la.chain[0].w, lb.chain[0].w)
                np.testing.assert_array_equal(la.chain[1].w, lb.chain[1].w)
        c = build(toy_config(seed=12))
        assert not np.array_equal(layer(a, "stem").conv.w, layer(c, "stem").conv.w)

    @pytest.mark.parametrize("blocks", [TOY_BLOCKS, ("cf:n", "mp", "mor:2n", "cf:4n")])
    def test_build_draws_in_the_documented_order(self, blocks):
        # The stem; per block its skip, if any, then pw1 -> gconv -> pw2;
        # the four LSTM kernels, in GATES order; the dense kernel.  A
        # reorder moves every draw after it.
        model = build(toy_config(blocks=blocks, seed=3))
        rng = np.random.default_rng(3)
        order = {
            "stem": ["w"], "cf": [*CHAIN], "mor": ["skip", *CHAIN],
            "lstm": [f"w{g}" for g in GATES], "dense": ["w"],
        }
        for lay in model.layers:
            got = latents(lay)
            assert set(got) <= set(order.get(lay.kind, []))
            for tag in (t for t in order.get(lay.kind, []) if t in got):  # a MOR block of one width has no skip
                w = got[tag]
                bound = 1 / np.sqrt(w.shape[0]) if lay.kind == "lstm" else np.sqrt(3.0 / np.prod(w.shape[:-1]))
                np.testing.assert_array_equal(w, rng.uniform(-bound, bound, size=w.shape), err_msg=f"{lay.name}.{tag}")

    def test_pooling_below_one_rejected(self):
        with pytest.raises(BadConfig):
            build(toy_config(h=8, w=8, blocks=("mor:n", "mp", "mp", "mp", "mor:2n")))


class TestStageTransitions:
    def test_monotone_order_enforced(self):
        model = build(toy_config())
        with pytest.raises(StageOrderViolation):
            apply_stage_transition(model, 3)
        apply_stage_transition(model, 2)
        with pytest.raises(StageOrderViolation):
            apply_stage_transition(model, 2)

    @pytest.mark.parametrize(
        "cfg", [toy_config(), toy_config(blocks=("cf:n", "mor:n", "mp", "mor:2n")), BillnetConfig()],
        ids=["toy", "cf-blocks", "paper"],
    )
    def test_a_transition_changes_only_the_stage(self, cfg):
        # Stage 2 used to drop the LSTM biases and stage 4 to swap every
        # norm for a shift record; the rules now say what each stage reads.
        model = seed_norms(build(cfg), np.random.default_rng(1))
        layers, recs = model.layers, records(model)
        before = {path: contents(rec) for path, rec in recs.items()}
        assert sum(path.endswith(("norm", "norm1", "norm2")) for path in recs) > 3
        for k in (2, 3, 4, 5):
            apply_stage_transition(model, k)
            assert model.stage == k and model.layers is layers
            now = records(model)
            assert now.keys() == recs.keys() and all(now[path] is recs[path] for path in recs)
            assert {path: contents(rec) for path, rec in now.items()} == before

    def test_a_refused_fold_leaves_the_model_at_stage_3(self):
        # It used to swap the norms one by one, so a zero scale in the last
        # one left 4 of 5 swapped: the stage-3 scores moved and bind_params
        # raised AttributeError.
        model = seed_norms(build(toy_config()), np.random.default_rng(1))
        for k in (2, 3):
            apply_stage_transition(model, k)
        [*_, last] = (lay for lay in model.layers if lay.kind == "mor")
        last.norm2.gamma[0] = 0.0
        cfg = model.config
        x = np.random.default_rng(2).integers(0, 256, size=(2, cfg.t, cfg.h, cfg.w, 1)) / 255.0
        scores, before = forward(model, x).scores, {path: contents(rec) for path, rec in records(model).items()}
        with pytest.raises(ZeroScale):
            apply_stage_transition(model, 4)
        assert model.stage == 3
        assert {path: contents(rec) for path, rec in records(model).items()} == before
        assert forward(model, x).scores.tobytes() == scores.tobytes()
        assert "mor2.gamma2" in bind_params(model).vars

    def test_weight_count_constant_across_stages(self):
        model = build(toy_config())
        before = count_params(model).total_weight_params
        for k in (2, 3, 4, 5):
            apply_stage_transition(model, k)
            assert count_params(model).total_weight_params == before


def records(model):
    """Every record the model holds, by path: its layers, their norms, the
    LSTM's weights and every conv."""
    recs = {}
    for lay in model.layers:
        recs[lay.name] = lay
        recs.update({f"{lay.name}.{attr}": nm for attr, nm in norms(lay).items()})
        convs = [getattr(lay, "conv", None), getattr(lay, "skip", None), *getattr(lay, "chain", ())]
        recs.update({f"{lay.name}.conv{i}": c for i, c in enumerate(convs) if c is not None})
        if lay.kind == "lstm":
            recs[f"{lay.name}.weights"] = lay.weights
    return recs


def contents(rec):
    """Each field of a record: an array's dtype, shape and bytes, any other
    value's identity."""
    return {k: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else id(v) for k, v in vars(rec).items()}


def norm_fields(model, fields):
    return [getattr(nm, f) for lay in model.layers for nm in norms(lay).values() for f in fields]


class TestSeedNorms:
    def test_seeded_norms_fold_to_scales_other_than_one(self):
        # Fresh norms fold to a unit scale, so a stage-4 test on them would
        # not see the fold at all.
        fresh, seeded = build(toy_config()), seed_norms(build(toy_config()), np.random.default_rng(0))
        fresh_fold, seeded_fold = (
            np.concatenate([bsn_fold(nm) for lay in m.layers for nm in norms(lay).values()]) for m in (fresh, seeded)
        )
        assert (fresh_fold == 1).all() and (seeded_fold != 1).any()

    def test_equal_seeds_give_equal_statistics(self):
        fields = ["gamma", "beta", "mean", "var"]
        a, b, c = (norm_fields(seed_norms(build(toy_config()), np.random.default_rng(s)), fields) for s in (7, 7, 8))
        assert len(a) == 4 * 5  # the stem's norm and two per MOR block
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not any(np.array_equal(x, z) for x, z in zip(a, c))


class TestParamAccounting:
    def test_default_config_near_one_million(self):
        rep = count_params(build(BillnetConfig()), stage=1)
        assert 0.8e6 <= rep.total_weight_params <= 1.2e6

    def test_compression_ratio_30_to_32(self):
        model = build(BillnetConfig())
        ratio = (
            count_params(model, stage=1).total_weight_bits
            / count_params(model, stage=2).total_weight_bits
        )
        assert 30.0 <= ratio <= 32.0

    def test_zero_layer_model(self):
        rep = count_params(ModelGraph(config=toy_config(), layers=[], stage=1))
        assert rep.total_weight_params == 0 and rep.total_weight_bits == 0

    @pytest.mark.parametrize("stage", [0, -3, 7])
    def test_stage_outside_1_to_5_refused(self, stage):
        # It used to report 32-bit widths below stage 1 and packed ones above 5.
        with pytest.raises(StageOrderViolation):
            count_params(build(toy_config()), stage=stage)

    @pytest.mark.parametrize("cfg", [toy_config(), toy_config(blocks=("cf:n", "mor:n", "mp", "mor:2n"))])
    def test_report_follows_the_stage_asked_not_the_models(self, cfg):
        # It used to take stage k's bit widths but the model's own norms and
        # biases: a stage-5 toy model reported at stage 1 gave 896
        # bookkeeping bits, where a stage-1 one gives 18,432.
        late = build(cfg)
        for k in range(2, 6):
            apply_stage_transition(late, k)
        for k in range(1, 6):
            at_k = build(cfg)
            for j in range(2, k + 1):
                apply_stage_transition(at_k, j)
            assert count_params(late, stage=k) == count_params(at_k)
        if cfg == toy_config():
            assert count_params(late, stage=1).total_bookkeeping_bits == 18_432

    def test_stage5_bits_are_packed_widths(self):
        model = build(toy_config())
        rep = count_params(model, stage=5)
        by_name = {l.name: l for l in rep.layers}
        assert by_name["stem"].weight_bits == by_name["stem"].weight_params
        assert by_name["dense"].weight_bits == 2 * by_name["dense"].weight_params
