"""Models and checks shared by the test modules."""

import numpy as np

from billnet import reference
from billnet.model import BillnetConfig, apply_stage_transition, build, norms, toy_config

# toy_config overrides: the toy model, and one with cf: blocks in it.
CONFIGS = {
    "toy": {},
    "cf-blocks": {"blocks": ("cf:n", "mor:n", "mp", "mor:2n")},
}
# toy_config overrides that give the paper-scale BillnetConfig.
PAPER_CONFIG = {f: getattr(BillnetConfig(), f) for f in ("n", "g", "m", "t", "h", "w", "num_classes", "blocks")}


def model_at(stage, seed, **overrides):
    """Toy model with seeded norm statistics, advanced to ``stage``."""
    model = build(toy_config(seed=seed, **overrides))
    rng = np.random.default_rng(seed + 1000)
    for lay in model.layers:
        for nm in norms(lay).values():
            nm.gamma = rng.lognormal(0.0, 1.0, nm.gamma.shape)
            nm.beta = rng.normal(0.0, 0.3, nm.beta.shape)
            nm.mean = rng.normal(0.0, 1.0, nm.mean.shape)
            nm.var = rng.lognormal(0.0, 1.0, nm.var.shape)
    for k in range(2, stage + 1):
        apply_stage_transition(model, k)
    return model


def recorded(model, x):
    """``reference.forward`` on ``x``, and every intermediate it taps by name."""
    taps = {}
    return reference.forward(model, x, on_tap=taps.__setitem__), taps


def assert_no_norms_or_reals(plan):
    """No norm op and no real-valued constant anywhere in a gate plan."""
    kinds = {op.kind for op in plan.ops}
    assert "norm" not in " ".join(kinds)
    for op in plan.ops:
        for val in op.params.values():
            if isinstance(val, np.ndarray):
                assert val.dtype.kind != "f", (op.name, val.dtype)


def assert_ops_write_in_order(plan):
    """Op ``i`` of a gate plan writes slot ``i + 1`` and reads only slots
    ``<= i``: slot 0, the input, or one an earlier op wrote."""
    for i, op in enumerate(plan.ops):
        assert op.output == i + 1, (op.name, op.output)
        assert all(0 <= s <= i for s in op.inputs), (op.name, op.inputs)
