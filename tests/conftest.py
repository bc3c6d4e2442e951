"""Models and checks shared by the test modules."""

import numpy as np
import pytest
from hypothesis import strategies as st

from billnet import reference
from billnet.model import BillnetConfig, apply_stage_transition, build, seed_norms, toy_config

# toy_config overrides: the toy model, and one with cf: blocks in it.
CONFIGS = {
    "toy": {},
    "cf-blocks": {"blocks": ("cf:n", "mor:n", "mp", "mor:2n")},
}
# toy_config overrides that give the paper-scale BillnetConfig.
PAPER_CONFIG = {f: getattr(BillnetConfig(), f) for f in ("n", "g", "m", "t", "h", "w", "num_classes", "blocks")}


@st.composite
def model_overrides(draw):
    """toy_config overrides: 1-3 input channels, n and g off any word
    boundary, small odd or even H/W (as many pools as the stem's output
    allows), T from 1, m from 1, 2-4 classes, cf/mor blocks of 1-3n."""
    g = draw(st.integers(1, 3))
    entries = st.sampled_from(("mp", "cf:n", "cf:2n", "mor:n", "mor:2n", "mor:3n"))
    blocks = draw(st.lists(entries, min_size=1, max_size=4))
    lo = 2 ** (blocks.count("mp") + 1) - 1  # the stem's ceil(h/2) halved per pool stays >= 1
    return dict(
        in_channels=draw(st.integers(1, 3)), g=g, n=2 * g * draw(st.integers(1, 3)),
        h=draw(st.integers(lo, lo + 8)), w=draw(st.integers(lo, lo + 8)), t=draw(st.integers(1, 4)),
        m=draw(st.integers(1, 3)), num_classes=draw(st.integers(2, 4)), blocks=tuple(blocks),
    )


def model_at(stage, seed, **overrides):
    """Toy model with norm statistics seeded by ``seed + 1000``, advanced to ``stage``."""
    model = seed_norms(build(toy_config(seed=seed, **overrides)), np.random.default_rng(seed + 1000))
    for k in range(2, stage + 1):
        apply_stage_transition(model, k)
    return model


def recorded(model, x):
    """``reference.forward`` on ``x``, and every intermediate it taps by name."""
    taps = {}
    return reference.forward(model, x, on_tap=taps.__setitem__), taps


@pytest.fixture
def conv_calls(monkeypatch):
    """``(x.dtype, w.dtype, spec, exact)`` of every ``reference.conv3d``
    call, in order."""
    calls, real = [], reference.conv3d

    def conv3d(x, w, spec, exact=False):
        calls.append((x.dtype, w.dtype, spec, exact))
        return real(x, w, spec, exact)

    monkeypatch.setattr(reference, "conv3d", conv3d)
    return calls


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
