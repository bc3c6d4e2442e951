import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import (
    CONFIGS,
    PAPER_CONFIG,
    assert_no_norms_or_reals,
    assert_ops_write_in_order,
    model_at,
    model_overrides,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from billnet import autodiff, engine, reference
from billnet.autodiff import Tape, backward
from billnet.engine import compare_paths
from billnet.errors import ShapeMismatch, StageOrderViolation
from billnet.model import BillnetConfig, apply_stage_transition, build, count_params, latents, norms, toy_config
from billnet.training import PAPER_LRS, StageConfig, bind_params, evaluate, run_stage, stage_config, training_graph


@pytest.mark.parametrize("stage,seeds", [(4, 3), (5, 12)], ids=["4", "5"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_tape_scores_match_reference_forward(config, stage, seeds):
    # From stage 4 the norms are frozen shifts, so the tape computes the
    # deployed function; at stage 5 its LSTM gates must take their strict
    # thresholds from the same exact integer pre-activations as the
    # reference, or an exact zero rounds to +-tiny and flips a gate (toy seed
    # 7 and cf-blocks seed 9 each meet such a zero).
    for seed in range(seeds):
        model = model_at(stage, seed, **CONFIGS[config])
        cfg = model.config
        rng = np.random.default_rng(seed)
        frames = rng.integers(0, 256, size=(4, cfg.t, cfg.h, cfg.w, cfg.in_channels), dtype=np.uint8)
        x = frames / 255.0
        labels = np.arange(4) % cfg.num_classes
        _, scores = training_graph(Tape(), model, bind_params(model), x, labels)
        want = reference.forward(model, x).scores
        assert np.abs(scores - want).max() <= 1e-12, (seed, np.abs(scores - want).max())


@pytest.mark.parametrize("stage", [1, 3, 5])
def test_only_the_stem_input_goes_without_gradient(stage, monkeypatch):
    # The clip is data: the stem's conv forms no input gradient, every other
    # conv still hands one back to the layer below.
    inputs, real = [], autodiff.conv3d_op

    def conv3d_op(tape, x, w, spec, bound=None):
        inputs.append(x)
        return real(tape, x, w, spec, bound)

    monkeypatch.setattr(autodiff, "conv3d_op", conv3d_op)
    model = model_at(stage, 0)
    cfg = model.config
    frames = np.random.default_rng(3).integers(0, 256, size=(2, cfg.t, cfg.h, cfg.w, 1), dtype=np.uint8)
    tape = Tape()
    bound = bind_params(model)
    loss, _ = training_graph(tape, model, bound, frames / 255.0, np.arange(2))
    backward(tape, loss)
    assert [x.grad is None for x in inputs] == [True] + [False] * (len(inputs) - 1)
    assert all(v.grad is not None for v in bound.vars.values())


def test_training_step_peaks_below_the_outputs_it_forms(monkeypatch):
    # The tape keeps only what its backward reads, so one step's peak memory
    # stays below the total of the op outputs it forms.
    formed, real = [], autodiff._op
    monkeypatch.setattr(autodiff, "_op", lambda tape, value, *a: formed.append(value.nbytes) or real(tape, value, *a))
    model = model_at(3, 0)
    cfg = model.config
    frames = np.random.default_rng(4).integers(0, 256, size=(16, cfg.t, cfg.h, cfg.w, 1), dtype=np.uint8)
    labels = np.arange(16) % cfg.num_classes
    bound = bind_params(model)
    tracemalloc.start()
    try:
        tape = Tape()
        loss, _ = training_graph(tape, model, bound, frames / 255.0, labels)
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v.grad is not None for v in bound.vars.values())
    assert peak < sum(formed), (peak, sum(formed))


def test_stage3_tape_holds_its_captures_narrow():
    # From stage 3 the bounded convs and norms keep their integer inputs in
    # narrow integer dtypes, the stem norm forms its input again from the
    # clip, and each block's float64 intermediates die with the block.  On
    # this toy step the tape then holds 2.01 MB after the forward; with the
    # stem norm's float64 normalized input it held 2.79 MB, and with float64
    # captures 6.36 MB.
    model = model_at(3, 0)
    cfg = model.config
    frames = np.random.default_rng(4).integers(0, 256, size=(8, cfg.t, cfg.h, cfg.w, 1), dtype=np.uint8)
    labels = np.arange(8) % cfg.num_classes
    bound = bind_params(model)
    x = frames / 255.0
    tracemalloc.start()
    try:
        tape = Tape()
        loss, _ = training_graph(tape, model, bound, x, labels)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live < 2_200_000, live
    backward(tape, loss)
    assert all(v.grad is not None for v in bound.vars.values())


@settings(max_examples=100, deadline=None)
@example(
    overrides=dict(in_channels=3, g=3, n=6, h=7, w=9, t=1, m=1, num_classes=2, blocks=("cf:n", "mp", "mor:3n")),
    seed=0,
)
@given(overrides=model_overrides(), seed=st.integers(0, 2**16))
def test_fuzzed_stage5_models_agree_on_both_paths_and_the_tape(overrides, seed):
    model = model_at(5, seed, **overrides)
    cfg = model.config
    frames = np.random.default_rng(seed).integers(
        0, 256, size=(2, cfg.t, cfg.h, cfg.w, cfg.in_channels), dtype=np.uint8
    )
    assert compare_paths(model, frames) is None
    plan = engine.compile(model)
    assert_no_norms_or_reals(plan)
    assert_ops_write_in_order(plan)
    x = frames / 255.0
    _, scores = training_graph(Tape(), model, bind_params(model), x, np.arange(2) % cfg.num_classes)
    gap = np.abs(scores - reference.forward(model, x).scores).max()
    assert gap <= 1e-12, gap


def train_step(model, frames, labels):
    """One tape step's loss, scores, norm statistics and gradients."""
    tape, bound = Tape(), bind_params(model)
    loss, scores = training_graph(tape, model, bound, frames / 255.0, labels)
    backward(tape, loss)
    out = {"loss": loss.value, "scores": scores}
    out.update({f"grad/{k}": v.grad for k, v in bound.vars.items()})
    for lay in model.layers:
        for attr, norm in norms(lay).items():
            for field in ("mean", "var", "shift"):
                if hasattr(norm, field):
                    out[f"{lay.name}.{attr}.{field}"] = getattr(norm, field)
    return out


@pytest.mark.parametrize("stage", [3, 4, 5])
@pytest.mark.parametrize("config", ["toy", "paper"])
def test_tape_integer_convs_run_at_exact_precision(config, stage, conv_calls, monkeypatch):
    # From stage 3 every conv after the stem reads {0,1} with +-1 weights,
    # and from stage 4 the stem reads the 8-bit grid as integers: each runs
    # at reference.exact_dtype of its bound, float32 but for the paper's
    # three 128-channel pw2 convs (bound 28,311,552).  Its sums are exact,
    # so a step with every forward conv forced to float64 has the same bits.
    overrides = PAPER_CONFIG if config == "paper" else {}
    model = model_at(stage, 4, **overrides)
    cfg = model.config
    frames = np.random.default_rng(5).integers(0, 256, size=(1, cfg.t, cfg.h, cfg.w, 1), dtype=np.uint8)
    labels = np.arange(1)
    got = train_step(model, frames, labels)
    assert all(xt == wt for xt, wt, _, _ in conv_calls)
    stem, rest = conv_calls[0], conv_calls[1:]
    # Exactly the bounded convs say their sums are exact: the stage-3 stem
    # reads the k/255 clip, so its float product keeps one call per group.
    assert stem[0] == (np.float64 if stage == 3 else np.float32) and stem[3] == (stage >= 4)
    assert all(exact for _, _, _, exact in rest)
    wide = [(sp.in_channels, sp.kernel) for xt, _, sp, _ in rest if xt == np.float64]
    assert wide == ([(128, (1, 1, 1))] * 3 if config == "paper" else [])
    assert len(rest) > len(wide) and all(xt in (np.float32, np.float64) for xt, _, _, _ in rest)
    monkeypatch.setattr(reference, "FLOAT32_EXACT_LIMIT", 0)
    conv_calls.clear()
    want = train_step(model_at(stage, 4, **overrides), frames, labels)
    assert len(conv_calls) == len(rest) + 1 and all(xt == wt == np.float64 for xt, wt, _, _ in conv_calls)
    assert got.keys() == want.keys()
    for key, val in want.items():
        if val is None:
            assert got[key] is None, key
        else:
            assert got[key].dtype == val.dtype and np.array_equal(got[key], val), key


@pytest.mark.parametrize("config", ["toy", "paper"])
def test_reference_convs_run_at_the_tape_precision_from_stage_3(config, conv_calls):
    # Both walks bound the convs after the stem from stage 3, so the
    # reference forward runs each conv in the dtype the tape's forward does.
    overrides = PAPER_CONFIG if config == "paper" else {}
    model = model_at(3, 4, **overrides)
    cfg = model.config
    x = np.random.default_rng(5).integers(0, 256, size=(1, cfg.t, cfg.h, cfg.w, 1)) / 255.0
    reference.forward(model, x)
    ref_convs = conv_calls[:]
    conv_calls.clear()
    training_graph(Tape(), model, bind_params(model), x, np.arange(1))
    assert ref_convs == conv_calls
    assert conv_calls[0][0] == np.float64 and any(xt == np.float32 for xt, _, _, _ in conv_calls)
    assert [exact for _, _, _, exact in conv_calls] == [False] + [True] * (len(conv_calls) - 1)


@pytest.mark.parametrize("stage", [1, 3])
def test_norm_inputs_die_before_their_activation(stage, monkeypatch):
    # A conv block's norm input is a float64 array of the block's size that
    # no formula reads; only a MOR block's second norm reads an input (i0)
    # that the select after it needs.
    model = model_at(stage, 0, **CONFIGS["cf-blocks"])
    second = {id(lay.norm2) for lay in model.layers if lay.kind == "mor"}
    inputs, alive = [], []
    real_norm, real_acts = autodiff.batchnorm_train, {f: getattr(autodiff, f) for f in ("relu", "heaviside_ste")}

    def norm(tape, x, gamma, beta, p, *args, **kwargs):
        if id(p) not in second:
            inputs.append(weakref.ref(x.value))
        return real_norm(tape, x, gamma, beta, p, *args, **kwargs)

    def act(real):
        def run(tape, x, *args, **kwargs):
            alive.extend(ref() is not None for ref in inputs)
            inputs.clear()
            return real(tape, x, *args, **kwargs)
        return run

    monkeypatch.setattr(autodiff, "batchnorm_train", norm)
    for name, real in real_acts.items():
        monkeypatch.setattr(autodiff, name, act(real))
    x = np.random.default_rng(6).integers(0, 256, size=(2, 8, 24, 32, 1)) / 255.0
    training_graph(Tape(), model, bind_params(model), x, np.arange(2))
    assert len(alive) == len(model.layers) - sum(lay.kind in ("mp", "gap", "lstm", "dense") for lay in model.layers)
    assert not any(alive)


def latent_weights(model):
    """Every latent weight array that a stage from 2 on quantizes."""
    return [w for lay in model.layers for w in latents(lay).values()]


def run_pipeline(seed):
    """Toy model through ``run_stage`` 1 -> 5, one epoch of two batches per
    stage on 16 random clips; returns the model, clips, history and the
    largest |latent| after each stage."""
    cfg = toy_config(seed=seed)
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(16, cfg.t, cfg.h, cfg.w, cfg.in_channels), dtype=np.uint8)
    labels = np.arange(16) % cfg.num_classes
    model = build(cfg)
    history, widest = [], []
    for stage in range(1, 6):
        # From stage 2, Adam's first step moves every latent with a gradient
        # by the learning rate: at 1.0 most would leave [-1, 1] unclipped.
        lr = PAPER_LRS[stage] if stage == 1 else 1.0
        cfg_k = StageConfig(stage, lr, epochs=1, decay_epochs=1, batch_size=8)
        history += run_stage(model, cfg_k, frames, labels)
        widest.append(max(np.abs(w).max() for w in latent_weights(model)))
    return model, frames, history, widest


@pytest.fixture(scope="module")
def pipeline():
    return run_pipeline(seed=2)


def test_stage_driver_is_deterministic(pipeline):
    history = pipeline[2]
    assert [row["stage"] for row in history] == [1, 2, 3, 4, 5]
    assert all(np.isfinite(row["loss"]) for row in history)
    assert run_pipeline(seed=2)[2] == history


def test_stage_driver_keeps_latents_clipped(pipeline):
    widest = pipeline[3]
    assert max(widest) <= 1.0, widest


def test_trained_stage5_model_passes_compare_paths(pipeline):
    model, frames = pipeline[:2]
    assert compare_paths(model, frames) is None


@pytest.mark.parametrize("config", ["toy", "paper"])
def test_count_params_counts_the_latents_bind_params_registers(config):
    model = build(BillnetConfig() if config == "paper" else toy_config())
    for stage in range(1, 6):
        if stage > 1:
            apply_stage_transition(model, stage)
        bound = bind_params(model)
        names = {f"{lay.name}.{tag}": w for lay in model.layers for tag, w in latents(lay).items()}
        for lay in model.layers:
            for tag, w in latents(lay).items():
                value = bound.vars[f"{lay.name}.{tag}"].value
                # Adam writes into the model's own memory: an LSTM gate's
                # latent is a view of the layer's (4, ...) stack
                assert value.base is lay.weights.w if lay.kind == "lstm" else value is w
        assert sorted(bound.clip_latents) == (sorted(names) if stage >= 2 else [])
        want = {lay.name: sum(w.size for w in latents(lay).values()) for lay in model.layers if latents(lay)}
        assert {row.name: row.weight_params for row in count_params(model).layers} == want


def test_every_walk_refuses_a_clip_of_another_shape():
    model = model_at(5, 0)  # toy clips are 8x24x32
    frames = np.zeros((1, 8, 24, 30, 1), dtype=np.uint8)
    with pytest.raises(ShapeMismatch):
        reference.forward(model, frames / 255.0)
    with pytest.raises(ShapeMismatch):
        training_graph(Tape(), model, bind_params(model), frames / 255.0, np.arange(1))
    with pytest.raises(ShapeMismatch):
        engine.execute(engine.compile(model), engine.frames_to_bitplanes(frames))


@pytest.mark.parametrize("walk", ["forward", "training_graph"])
def test_every_walk_refuses_a_clip_off_the_unit_scale(walk):
    # Both walks read gray levels / 255: a uint8 clip passed straight in, or
    # an unscaled float one, would snap to other levels and score silently.
    model = model_at(5, 0)
    labels = np.arange(1)
    run = {
        "forward": lambda x: reference.forward(model, x),
        "training_graph": lambda x: training_graph(Tape(), model, bind_params(model), x, labels),
    }[walk]
    levels = np.full((1, 8, 24, 32, 1), 200, dtype=np.uint8)
    with pytest.raises(TypeError, match="uint8"):
        run(levels)
    for clip in (levels.astype(np.float64), levels / -255.0, np.full(levels.shape, np.nan)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run(clip)
    run(levels / 255.0)


@pytest.mark.parametrize("label", [-1, 4])
def test_labels_outside_the_classes_are_refused_before_any_step(label):
    model = build(toy_config())
    before = model.layers[0].conv.w.copy()
    frames = np.zeros((2, 8, 24, 32, 1), dtype=np.uint8)
    with pytest.raises(ValueError):
        run_stage(model, StageConfig(1, 1e-3, 1, 1, batch_size=2), frames, np.array([0, label]))
    with pytest.raises(ValueError):
        evaluate(model, frames, np.array([0, label]))
    assert np.array_equal(model.layers[0].conv.w, before)


@pytest.mark.parametrize("walk", ["evaluate-ref", "evaluate-logic", "run_stage-train", "run_stage-test"])
def test_clips_that_are_not_uint8_are_refused_before_any_step(walk):
    # Both walks divide clips by 255: a float clip already in [0, 1] would
    # train and score as a near-black one.
    model = model_at(5 if walk == "evaluate-logic" else 1, 0)
    before = model.layers[0].conv.w.copy()
    clips = np.zeros((2, 8, 24, 32, 1), dtype=np.uint8)
    floats, y = clips / 255.0, np.arange(2)
    with pytest.raises(TypeError, match="float64"):
        if walk.startswith("evaluate"):
            evaluate(model, floats, y, path=walk.removeprefix("evaluate-"))
        else:
            data = (floats, y, clips, y) if walk == "run_stage-train" else (clips, y, floats, y)
            run_stage(model, StageConfig(2, 1e-3, 1, 1, batch_size=2), *data)
    assert model.stage == (5 if walk == "evaluate-logic" else 1)
    assert np.array_equal(model.layers[0].conv.w, before)


def test_evaluate_refuses_an_unknown_path_on_no_clips():
    with pytest.raises(ValueError):
        evaluate(build(toy_config()), np.zeros((0, 8, 24, 32, 1), np.uint8), np.zeros(0, int), path="bogus")


@pytest.mark.parametrize("clips,labels", [(4, 2), (2, 4)])
def test_evaluate_refuses_clip_and_label_counts_that_differ(clips, labels):
    # Pairing clips with labels batch by batch would score only the shorter.
    frames = np.zeros((clips, 8, 24, 32, 1), dtype=np.uint8)
    with pytest.raises(ShapeMismatch):
        evaluate(build(toy_config()), frames, np.arange(labels) % 4)


@pytest.mark.parametrize("pair", ["train", "test"])
@pytest.mark.parametrize("clips,labels", [(4, 2), (2, 4)])
def test_run_stage_refuses_clip_and_label_counts_that_differ_before_any_step(clips, labels, pair):
    # A clip permutation indexes the labels: with fewer labels it runs past
    # them mid-epoch, with more it trains on a prefix.  The test pair is
    # refused the same way, before the stage is entered.
    model = model_at(1, 0)
    before = model.layers[0].conv.w.copy()
    frames = np.zeros((clips, 8, 24, 32, 1), dtype=np.uint8)
    y = np.arange(labels) % 4
    data = (frames, y, frames[:2], y[:2]) if pair == "train" else (frames[:2], y[:2], frames, y)
    with pytest.raises(ShapeMismatch):
        run_stage(model, StageConfig(2, 1e-3, 1, 1, batch_size=2), *data)
    assert model.stage == 1
    assert np.array_equal(model.layers[0].conv.w, before)


@pytest.mark.parametrize("stage", [0, 6])
def test_stage_config_refuses_a_stage_outside_the_schedule(stage):
    with pytest.raises(StageOrderViolation):
        stage_config(stage)


@pytest.mark.parametrize(
    "args",
    [(2, 1e-3, 0, 0), (1, 1e-3, 1, -1), (1, -1e-3, 1, 1), (1, 0.0, 1, 1), (1, float("nan"), 1, 1), (1, float("inf"), 1, 1)],
    ids=["no-epochs", "negative-decay", "negative-lr", "zero-lr", "nan-lr", "inf-lr"],
)
def test_stage_config_refuses_a_schedule_that_cannot_train(args):
    # With no epochs run_stage would enter the stage and return without a
    # step; a rate that is not finite and positive steps nowhere or to NaN.
    with pytest.raises(ValueError):
        StageConfig(*args)


@pytest.mark.parametrize(
    "kwargs",
    [{"epochs": 1.5}, {"decay_epochs": 0.5}, {"batch_size": 2.5}],
    ids=["epochs", "decay_epochs", "batch_size"],
)
def test_stage_config_refuses_a_count_that_is_not_an_integer(kwargs):
    # A fractional count used to pass; epochs and batch_size then failed
    # inside run_stage, after it had entered the stage.
    field = next(iter(kwargs))
    with pytest.raises(TypeError, match=field):
        StageConfig(**{"stage": 2, "initial_lr": 1e-3, "epochs": 2, "decay_epochs": 1, **kwargs})


def test_evaluate_refuses_a_batch_size_that_is_not_an_integer():
    frames = np.zeros((2, 8, 24, 32, 1), dtype=np.uint8)
    with pytest.raises(TypeError, match="batch_size"):
        evaluate(build(toy_config()), frames, np.arange(2), batch_size=2.0)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_stage_config_refuses_a_batch_size_below_1(batch_size):
    # run_stage would die inside range() at 0, and skip every clip below it.
    with pytest.raises(ValueError, match="batch_size"):
        StageConfig(1, 1e-3, 1, 1, batch_size=batch_size)
    with pytest.raises(ValueError, match="batch_size"):
        stage_config(1, batch_size=batch_size)


@pytest.mark.parametrize("scale", [0, -1.0, float("nan")])
def test_stage_config_refuses_an_epoch_scale_that_is_not_positive(scale):
    # Rounded up to one epoch, such a scale would pass for a desk-scale run.
    with pytest.raises(ValueError, match="scale"):
        stage_config(1, scale)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_refuses_a_batch_size_below_1(batch_size):
    frames = np.zeros((2, 8, 24, 32, 1), dtype=np.uint8)
    with pytest.raises(ValueError, match="batch_size"):
        evaluate(build(toy_config()), frames, np.arange(2), batch_size=batch_size)
