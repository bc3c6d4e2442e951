import numpy as np
import pytest

from billnet import autodiff, reference
from billnet.autodiff import Tape, backward
from billnet.model import apply_stage_transition, build, toy_config
from billnet.training import bind_params, training_graph

CONFIGS = {
    "toy": {},
    "cf-blocks": {"blocks": ("cf:n", "mor:n", "mp", "mor:2n")},
}


def model_at(stage, seed, **overrides):
    """Toy model with seeded norm statistics, advanced to ``stage``."""
    model = build(toy_config(seed=seed, **overrides))
    rng = np.random.default_rng(seed + 1000)
    for lay in model.layers:
        norms = [lay.norm] if lay.kind in ("stem", "cf") else []
        if lay.kind == "mor":
            norms = [lay.norm1, lay.norm2]
        for nm in norms:
            nm.gamma = rng.lognormal(0.0, 1.0, nm.gamma.shape)
            nm.beta = rng.normal(0.0, 0.3, nm.beta.shape)
            nm.mean = rng.normal(0.0, 1.0, nm.mean.shape)
            nm.var = rng.lognormal(0.0, 1.0, nm.var.shape)
    for k in range(2, stage + 1):
        apply_stage_transition(model, k)
    return model


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

    def conv3d_op(tape, x, w, spec):
        inputs.append(x)
        return real(tape, x, w, spec)

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
