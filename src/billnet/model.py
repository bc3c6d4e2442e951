"""Declarative model builder and parameter accounting.

A built graph is an ordered list of layer records, each carrying its latent
(real) weights, its batch norms, and its input/output shapes.  Forward
semantics are derived from the rules of the graph's current stage: the same
latent weights are consumed raw in stage 1 and through their quantizers
afterwards, and the same norms train until ``quantize.stage_rules`` fold
them, after which their frozen statistics are read only through
``quantize.bsn_fold``.  A stage transition changes nothing but the stage.

Each convolution is one ``Conv`` record, its ``ConvSpec`` geometry and its
latent weights ``w``: the stem's ``conv`` and a MOR block's ``skip`` (None
where the block keeps its width).  A CF or MOR block's factorized Conv3D is
its ``chain``, three ``Conv`` records in ``CHAIN`` order: pointwise down to
half the input width, grouped 3x3x3, pointwise up to the output width.
The ``CHAIN`` tags name the chain's latents, and so its trainable vars
(``<block>.pw1`` and so on).

``build`` draws every weight from ``default_rng(config.seed)`` in one fixed
order: the stem; then per block, in order, a MOR block's skip before its
chain, pw1 -> gconv -> pw2; then the four LSTM kernels as one (4, ...)
draw in ``reference.GATES`` order; then the dense kernel.  A reorder moves
every draw after it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import BadConfig, StageOrderViolation, check_int
from .quantize import BNParams, bsn_fold, stage_rules
from .reference import GATES, ConvSpec, LSTMWeights
from .tensors import conv_output_shape, pool_output_shape

# Default block stack at paper scale.  The published figure's exact block
# count is not recoverable; this stack is pinned by the measurable anchors:
# three spatial pools after the strided stem (96x128 -> 48x64 -> ... -> 6x8),
# the last residual blocks operating on 6x8 maps, about one million weights,
# and stage-wise bit-operation totals near the published ones.
DEFAULT_BLOCKS = (
    "mp",
    "mor:n",
    "mp",
    "mor:2n", "mor:2n", "mor:2n", "mor:2n", "mor:2n",
    "mp",
    "mor:4n", "mor:4n", "mor:4n", "mor:4n",
)
TOY_BLOCKS = ("mor:n", "mp", "mor:2n")


@dataclass
class BillnetConfig:
    """Everything needed to rebuild a graph deterministically."""

    n: int = 64
    g: int = 4
    m: int = 32
    t: int = 16
    h: int = 96
    w: int = 128
    num_classes: int = 27
    blocks: tuple[str, ...] = DEFAULT_BLOCKS
    in_channels: int = 1
    seed: int = 0

    def __post_init__(self):
        self.blocks = tuple(self.blocks)
        for f in ("n", "g", "m", "t", "h", "w", "num_classes", "in_channels", "seed"):
            check_int(f, getattr(self, f))
        small = [f for f in ("n", "g", "m", "t", "h", "w", "in_channels") if getattr(self, f) < 1]
        if small:
            raise BadConfig(f"sizes must be positive: {', '.join(small)}")
        if self.n % (2 * self.g):
            raise BadConfig(f"n={self.n} must be divisible by 2*g={2 * self.g}")
        if self.num_classes < 2:
            raise BadConfig("need at least two classes")
        for entry in self.blocks:
            if entry != "mp" and not re.fullmatch(r"(mor|cf):\d*n", entry):
                raise BadConfig(f"bad block entry {entry!r} (want 'mor:<k>n', 'cf:<k>n' or 'mp')")

    @property
    def lstm_hidden(self) -> int:
        return 4 * self.m


def toy_config(**overrides) -> BillnetConfig:
    """Desk-scale default: small enough to train in minutes on a CPU."""
    base = dict(n=16, g=2, m=8, t=8, h=24, w=32, num_classes=4, blocks=TOY_BLOCKS)
    base.update(overrides)
    return BillnetConfig(**base)


def _channel_mult(entry: str) -> int:
    digits = entry.split(":")[1].rstrip("n")
    return int(digits) if digits else 1


# ---------------------------------------------------------------------------
# Layer records
# ---------------------------------------------------------------------------


@dataclass
class Conv:
    """One convolution: its geometry and its latent weights."""

    spec: ConvSpec
    w: np.ndarray


# The tags of a factorized Conv3D's convs, in the order they run.
CHAIN = ("pw1", "gconv", "pw2")


@dataclass
class StemLayer:
    kind: ClassVar[str] = "stem"
    name: str
    conv: Conv
    norm: BNParams
    in_shape: tuple = ()
    out_shape: tuple = ()


@dataclass
class CFLayer:
    kind: ClassVar[str] = "cf"
    name: str
    chain: tuple[Conv, Conv, Conv]  # in CHAIN order
    norm: BNParams
    in_shape: tuple = ()
    out_shape: tuple = ()


@dataclass
class MORLayer:
    kind: ClassVar[str] = "mor"
    name: str
    chain: tuple[Conv, Conv, Conv]  # in CHAIN order
    norm1: BNParams
    norm2: BNParams
    skip: Conv | None = None
    in_shape: tuple = ()
    out_shape: tuple = ()


@dataclass
class MaxPoolLayer:
    kind: ClassVar[str] = "mp"
    name: str
    window: tuple = (1, 2, 2)
    in_shape: tuple = ()
    out_shape: tuple = ()


@dataclass
class GAPLayer:
    kind: ClassVar[str] = "gap"
    name: str
    in_shape: tuple = ()
    out_shape: tuple = ()


@dataclass
class LSTMLayer:
    kind: ClassVar[str] = "lstm"
    name: str
    weights: LSTMWeights
    in_shape: tuple = ()
    out_shape: tuple = ()


@dataclass
class DenseLayer:
    kind: ClassVar[str] = "dense"
    name: str
    w: np.ndarray
    m: int = 0  # controls the ternary scale 1/sqrt(4m)
    in_shape: tuple = ()
    out_shape: tuple = ()


@dataclass
class ModelGraph:
    config: BillnetConfig
    layers: list
    stage: int = 1


def latents(lay) -> dict[str, np.ndarray]:
    """A layer's latent weight arrays by tag: the one inventory of them."""
    if lay.kind == "stem":
        return {"w": lay.conv.w}
    if lay.kind == "dense":
        return {"w": lay.w}
    if lay.kind in ("cf", "mor"):
        out = {tag: c.w for tag, c in zip(CHAIN, lay.chain)}
        if getattr(lay, "skip", None) is not None:
            out["skip"] = lay.skip.w
        return out
    if lay.kind == "lstm":
        return {f"w{g}": w for g, w in zip(GATES, lay.weights.w)}
    return {}


def norms(lay) -> dict[str, BNParams]:
    """A layer's norms by attribute name: ``norm``, or ``norm1`` and ``norm2``."""
    return {a: getattr(lay, a) for a in ("norm", "norm1", "norm2") if hasattr(lay, a)}


def seed_norms(model: ModelGraph, rng: np.random.Generator) -> ModelGraph:
    """Draw every batch norm's statistics from ``rng``, in layer and
    ``norms`` order: gamma ~ lognormal(0, 1), beta ~ N(0, 0.3),
    mean ~ N(0, 1), var ~ lognormal(0, 1).  Fresh norms fold to a unit
    stage-4 scale; seeded ones give the fold something to do."""
    for lay in model.layers:
        for nm in norms(lay).values():
            nm.gamma = rng.lognormal(0.0, 1.0, nm.gamma.shape)
            nm.beta = rng.normal(0.0, 0.3, nm.beta.shape)
            nm.mean = rng.normal(0.0, 1.0, nm.mean.shape)
            nm.var = rng.lognormal(0.0, 1.0, nm.var.shape)
    return model


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _fresh_bn(c: int) -> BNParams:
    return BNParams(gamma=np.ones(c), beta=np.zeros(c), mean=np.zeros(c), var=np.ones(c))


def build(cfg: BillnetConfig) -> ModelGraph:
    """Construct the graph with reproducible weight initialization."""
    rng = np.random.default_rng(cfg.seed)
    layers: list = []
    shape = (cfg.t, cfg.h, cfg.w)
    c = cfg.in_channels

    def conv(c_in, c_out, kernel=(1, 1, 1), strides=(1, 1, 1), groups=1) -> Conv:
        spec = ConvSpec(kernel, strides, groups, c_in, c_out)
        return Conv(spec, _uniform(rng, spec.fan_in, spec.weight_shape))

    stem = conv(c, cfg.n, (3, 3, 3), (2, 2, 2))
    in_shape = shape + (c,)
    shape = conv_output_shape(shape, stem.spec.kernel, stem.spec.strides)
    c = cfg.n
    layers.append(StemLayer("stem", stem, _fresh_bn(c), in_shape, shape + (c,)))

    mor_i = cf_i = mp_i = 0
    for entry in cfg.blocks:
        if entry == "mp":
            mp_i += 1
            win = (1, 2, 2)
            out = pool_output_shape(shape, win, win)
            if any(d < 1 for d in out):
                raise BadConfig(f"pooling below 1x1 at block {mp_i}: {shape} -> {out}")
            layers.append(MaxPoolLayer(f"mp{mp_i}", win, shape + (c,), out + (c,)))
            shape = out
            continue
        kind, mult = entry.split(":")[0], _channel_mult(entry)
        c_out = mult * cfg.n
        mid = c // 2
        if mid % cfg.g:
            raise BadConfig(f"low dim {mid} of {entry} not divisible by g={cfg.g}")
        skip = conv(c, c_out) if kind == "mor" and c != c_out else None
        chain = (conv(c, mid), conv(mid, mid, (3, 3, 3), groups=cfg.g), conv(mid, c_out))
        shapes = (shape + (c,), shape + (c_out,))
        if kind == "cf":
            cf_i += 1
            layers.append(CFLayer(f"cf{cf_i}", chain, _fresh_bn(c_out), *shapes))
        else:
            mor_i += 1
            layers.append(MORLayer(f"mor{mor_i}", chain, _fresh_bn(c_out), _fresh_bn(c_out), skip, *shapes))
        c = c_out

    layers.append(GAPLayer("gap", shape + (c,), (shape[0], c)))
    n_o = cfg.lstm_hidden
    n_i = c
    bound = 1.0 / np.sqrt(n_i + n_o)
    lw = LSTMWeights(rng.uniform(-bound, bound, size=(4, n_i + n_o, n_o)), np.zeros((4, n_o)))
    layers.append(LSTMLayer("lstm", lw, (shape[0], n_i), (shape[0], n_o)))
    layers.append(
        DenseLayer(
            "dense", _uniform(rng, n_o, (n_o, cfg.num_classes)), cfg.m,
            (shape[0], n_o), (shape[0], cfg.num_classes),
        )
    )
    return ModelGraph(config=cfg, layers=layers, stage=1)


# ---------------------------------------------------------------------------
# Stage transitions
# ---------------------------------------------------------------------------


def apply_stage_transition(model: ModelGraph, stage: int) -> ModelGraph:
    """Advance the graph to ``stage``; nothing but ``model.stage`` changes.

    Quantization only ever grows: each entry requires the immediately
    preceding stage.  Every reader takes the new stage's semantics from its
    ``stage_rules``, so no record changes type or loses a field: the LSTM
    biases stay, unread, once ``binary_weights`` is on, and the norms keep
    the statistics frozen on entering ``folded_norms``, read from then on
    only through ``bsn_fold``.  That entry folds every norm first, so one
    that cannot fold (ZeroScale) leaves the model exactly as it was.
    """
    new, old = stage_rules(stage), stage_rules(model.stage)
    if stage != model.stage + 1:
        raise StageOrderViolation(
            f"cannot enter stage {stage} from stage {model.stage}"
        )
    if new.folded_norms and not old.folded_norms:
        for lay in model.layers:
            for norm in norms(lay).values():
                bsn_fold(norm)
    model.stage = stage
    return model


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------


@dataclass
class LayerParams:
    name: str
    kind: str
    weight_params: int
    weight_bits: int
    bookkeeping_bits: int


@dataclass
class ParamReport:
    stage: int
    layers: list[LayerParams] = field(default_factory=list)

    @property
    def total_weight_params(self) -> int:
        return sum(l.weight_params for l in self.layers)

    @property
    def total_weight_bits(self) -> int:
        return sum(l.weight_bits for l in self.layers)

    @property
    def total_bookkeeping_bits(self) -> int:
        return sum(l.bookkeeping_bits for l in self.layers)


def count_params(model: ModelGraph, stage: int | None = None) -> ParamReport:
    """Per-layer parameter counts and bit sizes under a stage's rules.

    The headline weight size covers conv/recurrent/dense kernels only, at
    32 bits, or with ``binary_weights`` at 2 bits (dense) and 1 bit (the
    rest).  Normalization and biases are reported separately as
    bookkeeping, mirroring how weight-related memory is usually quoted: per
    norm channel, an 8-bit shift with ``folded_norms``, else four 32-bit
    statistics; the LSTM's 4 * n_o biases at 32 bits unless
    ``binary_weights``, under which nothing reads them.  Both sizes follow
    the rules of ``stage`` alone, whatever stage the model is at.  A stage
    outside 1..5 raises StageOrderViolation.
    """
    stage = model.stage if stage is None else stage
    rules = stage_rules(stage)
    rep = ParamReport(stage=stage)
    for lay in model.layers:
        n = sum(w.size for w in latents(lay).values())
        if not n:
            continue
        # every norm of a layer normalizes its output channels
        book = len(norms(lay)) * lay.out_shape[-1] * (8 if rules.folded_norms else 4 * 32)
        if lay.kind == "lstm" and not rules.binary_weights:
            book += 4 * lay.weights.n_o * 32
        bits = (2 if lay.kind == "dense" else 1) if rules.binary_weights else 32
        rep.layers.append(LayerParams(lay.name, lay.kind, n, n * bits, book))
    return rep
