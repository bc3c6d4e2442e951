"""Multi-stage quantization training: Adam, schedule, and the stage driver.

Each stage trains the same latent weights through the quantizers its
``quantize.stage_rules`` switch on.  The tape graph mirrors the reference
forward exactly, except that normalization uses batch statistics (advancing
the moving estimates that ``folded_norms`` later freezes and reads through
``quantize.bsn_fold``'s power-of-two scale).  Every stage difference is read
from the stage rules, never from which vars are bound.
Optimizer moments are reset at stage boundaries; with ``binary_weights``
latent weights are clipped to [-1, 1] after every update.

With ``binary_acts`` every conv after the stem reads {0,1} activations with
+-1 weights, and with ``folded_norms`` the stem reads the 8-bit levels as
integers up to 255, so those forward convs sum integers.  The graph carries
each one's input bound, as ``reference.forward`` does, and
``autodiff.conv3d_op`` runs it at the precision ``reference.exact_dtype``
proves exact: the same bits as float64, at float32 cost where the bound
allows.  The bounds also reach the batch norms that read such sums or the
{0,1} residual ``i0`` before the norms fold, so every bounded conv and norm
holds its input as narrow integers for the backward (see ``autodiff``).
Until the norms fold the stem norm, whose input is not integer-valued,
forms that input again in its backward from the clip.  Each block is built
in its own helper, so its float64 intermediates die once their last reader
has run.  A block's ``chain`` runs its ``model.Conv`` records in ``CHAIN``
order, each with the trainable weights bound as ``<block>.<tag>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import engine
from .autodiff import Tape, Var
from .errors import ShapeMismatch, StageOrderViolation, check_int
from .model import CHAIN, ModelGraph, apply_stage_transition, latents, norms
from .quantize import StageRules, bsn_fold, ssign_scale, stage_rules, stern_scale, tgap_select
from .reference import forward as eval_forward
from .reference import GATES, conv3d, exact_preactivations, lstm_kernels, snap_to_grid

# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

PAPER_LRS = {1: 5e-4, 2: 3e-4, 3: 3e-4, 4: 2e-4, 5: 1e-6}
PAPER_EPOCHS = {1: 100, 2: 80, 3: 80, 4: 80, 5: 80}
PAPER_DECAY_EPOCHS = 50
DECAY_RATE = 0.85
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class StageConfig:
    stage: int
    initial_lr: float
    epochs: int
    decay_epochs: int
    batch_size: int = 40

    def __post_init__(self):
        stage_rules(self.stage)  # refuses a stage outside 1..5
        check_int("epochs", self.epochs)
        check_int("decay_epochs", self.decay_epochs)
        if self.epochs < 1:
            raise ValueError(f"{self.epochs} epochs: the stage would take no step")
        if not 0 <= self.decay_epochs <= self.epochs:
            raise ValueError(f"decay window of {self.decay_epochs} epochs outside [0, {self.epochs}]")
        if not (np.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise ValueError(f"initial_lr {self.initial_lr} is not finite and positive")
        _check_batch_size(self.batch_size)


def _check_batch_size(batch_size: int):
    check_int("batch_size", batch_size)
    if batch_size < 1:
        raise ValueError(f"batch_size {batch_size} is below 1")


def stage_config(stage: int, scale: float = 1.0, batch_size: int = 40) -> StageConfig:
    """Published per-stage (lr, epochs); epochs and the decay window shrink
    proportionally for desk-scale runs."""
    stage_rules(stage)  # refuses a stage outside 1..5
    if not scale > 0:
        raise ValueError(f"epoch scale {scale} is not positive")
    epochs = max(1, round(PAPER_EPOCHS[stage] * scale))
    decay = min(max(1, round(PAPER_DECAY_EPOCHS * scale)), epochs)
    return StageConfig(stage, PAPER_LRS[stage], epochs, decay, batch_size=batch_size)


def lr_schedule(cfg: StageConfig, epoch: int) -> float:
    """Constant, then exponential decay over the final ``decay_epochs``."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} outside stage of {cfg.epochs}")
    start = cfg.epochs - cfg.decay_epochs
    if epoch < start:
        return cfg.initial_lr
    return cfg.initial_lr * DECAY_RATE ** (epoch - start + 1)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float):
    """In-place Adam update with bias correction; zero grads are no-ops."""
    state.t += 1
    b1c = 1.0 - ADAM_BETA1**state.t
    b2c = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            continue
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
    return params


# ---------------------------------------------------------------------------
# Parameter binding
# ---------------------------------------------------------------------------


@dataclass
class BoundParams:
    """Trainable views over the model's own arrays for one stage."""

    vars: dict[str, Var] = field(default_factory=dict)
    clip_latents: list[str] = field(default_factory=list)

    def ordered(self) -> list[Var]:
        return [self.vars[k] for k in sorted(self.vars)]


def bind_params(model: ModelGraph) -> BoundParams:
    rules = stage_rules(model.stage)
    bound = BoundParams()

    def reg(name, arr, clip=False):
        bound.vars[name] = Var(arr, trainable=True, name=name)
        if clip and rules.binary_weights:
            bound.clip_latents.append(name)

    for lay in model.layers:
        for tag, w in latents(lay).items():
            reg(f"{lay.name}.{tag}", w, clip=True)
        if lay.kind == "lstm" and not rules.binary_weights:
            for g, b in zip(GATES, lay.weights.b):
                reg(f"{lay.name}.b{g}", b)
    if not rules.folded_norms:
        for lay in model.layers:
            for attr, norm in norms(lay).items():
                suffix = attr.removeprefix("norm")  # norm1 -> gamma1, beta1
                reg(f"{lay.name}.gamma{suffix}", norm.gamma)
                reg(f"{lay.name}.beta{suffix}", norm.beta)
    return bound


# ---------------------------------------------------------------------------
# Tape graph
# ---------------------------------------------------------------------------


def _norm_act(tape, z, lay, bound, rules: StageRules, int_bound=None, suffix="", remake=None):
    """The layer's ``norm{suffix}`` on ``z``, then the stage's activation.
    Until ``rules`` fold the norms it trains on batch statistics, and keeps
    an integer-valued ``z`` of magnitude at most ``int_bound`` narrow for
    its backward, or forms ``z`` again there with ``remake``; once they
    fold it applies its frozen ``bsn_fold`` scale."""
    norm = getattr(lay, f"norm{suffix}")
    if rules.folded_norms:
        z = ad.channel_affine(tape, z, bsn_fold(norm))
    else:
        gamma = bound.vars[f"{lay.name}.gamma{suffix}"]
        beta = bound.vars[f"{lay.name}.beta{suffix}"]
        if int_bound is not None:
            remake = ad.narrow_remake(z.value, int_bound)
        z = ad.batchnorm_train(tape, z, gamma, beta, norm, remake=remake)
    return _act_node(tape, z, rules)


def _act_node(tape, x, rules: StageRules):
    return ad.heaviside_ste(tape, x) if rules.binary_acts else ad.relu(tape, x)


def _quant_w(tape, bound, name, rules: StageRules):
    w = bound.vars[name]
    return ad.sign_ste(tape, w) if rules.binary_weights else w


def _stem_nodes(tape, x, lay, bound, rules: StageRules):
    """The stem's conv of the snapped clip ``x``, then its norm and
    activation.  Once the norms fold, ``x`` holds the 8-bit levels, the conv
    sums them as integers, and 1/255 is one more positive scale after it.
    Before, its output is not integer-valued, so the norm forms it again in
    its backward, by the same conv of the clip and weights the conv's own
    formula keeps, in place of keeping its float64 normalized input."""
    w, spec = _quant_w(tape, bound, f"{lay.name}.w", rules), lay.conv.spec
    # No name holds the norm's input, so it dies once the norm has run.
    if rules.folded_norms:
        return _norm_act(
            tape, ad.channel_affine(tape, ad.conv3d_op(tape, Var(x), w, spec, 255), 1.0 / 255.0),
            lay, bound, rules,
        )
    wv = w.value
    return _norm_act(
        tape, ad.conv3d_op(tape, Var(x), w, spec), lay, bound, rules, remake=lambda: conv3d(x, wv, spec)
    )


def _cf_nodes(tape, x, lay, bound, rules: StageRules, suffix=""):
    """The layer's ``chain`` (pointwise -> grouped -> pointwise), as
    ``reference._cf_apply``: with ``rules.act_bound`` on the input, each conv
    at its exact precision.  Then the layer's ``norm{suffix}`` and
    activation.  No name holds a conv's output: each goes straight into the
    next op, so the norm's float64 input dies before the activation runs."""
    int_bound = rules.act_bound

    def conv(x, tagged):
        nonlocal int_bound
        tag, c = tagged
        out = ad.conv3d_op(tape, x, _quant_w(tape, bound, f"{lay.name}.{tag}", rules), c.spec, int_bound)
        if int_bound is not None:
            int_bound *= c.spec.fan_in
        return out

    # Arguments are evaluated left to right, so the convs have advanced
    # int_bound to the norm input's bound before it is read.
    return _norm_act(tape, reduce(conv, zip(CHAIN, lay.chain), x), lay, bound, rules, int_bound, suffix)


def _mor_nodes(tape, x, lay, bound, rules: StageRules):
    """The MUX-OR residual block on ``x``; ``rules.act_bound`` bounds ``x``,
    and so the {0,1} ``i0`` its second norm reads."""
    if lay.skip is not None:
        w = _quant_w(tape, bound, f"{lay.name}.skip", rules)
        skip = _act_node(tape, ad.conv3d_op(tape, x, w, lay.skip.spec, rules.act_bound), rules)
    else:
        skip = x
    sel = tgap_select(skip.value, quantized=rules.binary_acts)
    i0 = ad.clip_ste(tape, ad.add(tape, _cf_nodes(tape, x, lay, bound, rules, "1"), skip))
    del skip  # its last reader has run
    i1 = _norm_act(tape, i0, lay, bound, rules, rules.act_bound, "2")
    return ad.mux_select(tape, i0, i1, sel)


def training_graph(tape: Tape, model: ModelGraph, bound: BoundParams, x: np.ndarray, labels: np.ndarray):
    """Build the stage-semantics forward on the tape; returns (loss, scores).

    Every bound var is watched here, first, so the ops below need not.  Each
    block is built in a helper where no name holds an intermediate past its
    last reader, so it dies then unless a gradient formula keeps it.
    """
    rules = stage_rules(model.stage)
    for v in bound.vars.values():
        tape.watch(v)
    x = snap_to_grid(x, model.config, rules)
    gap_den = 0
    for lay in model.layers:
        if lay.kind == "stem":
            cur = _stem_nodes(tape, x, lay, bound, rules)
        elif lay.kind == "cf":
            cur = _cf_nodes(tape, cur, lay, bound, rules)
        elif lay.kind == "mor":
            cur = _mor_nodes(tape, cur, lay, bound, rules)
        elif lay.kind == "mp":
            cur = ad.maxpool3d_op(tape, cur, lay.window)
        elif lay.kind == "gap":
            gap_den = cur.shape[2] * cur.shape[3]
            cur = ad.mean_axes(tape, cur, (2, 3))
        elif lay.kind == "lstm":
            cur = _lstm_nodes(tape, cur, lay, bound, rules, gap_den)
        elif lay.kind == "dense":
            w = bound.vars[f"{lay.name}.w"]
            if rules.binary_weights:
                w = ad.tern_ste(tape, w, stern_scale(lay.m))
            logits = ad.matmul(tape, cur, w)
            scores = ad.mean_axes(tape, logits, (1,))
    loss = ad.softmax_cce(tape, scores, labels)
    return loss, scores.value


def _lstm_nodes(tape, x_seq, lay, bound, rules: StageRules, gap_den):
    """The recurrent layer on the tape, ``reference.lstm_cell`` under
    ``rules``: one product per gate, in ``GATES`` order, each with its bias
    while ``binary_weights`` is off.  With ``int_lstm`` the gates threshold
    the exact integer pre-activations the cell uses; the STE windows read
    the float pre-activations."""
    wts = lay.weights
    scale = ssign_scale(wts.n_i, wts.n_o)
    kernels = {}
    for g in GATES:
        w = bound.vars[f"{lay.name}.w{g}"]
        kernels[g] = ad.sign_ste(tape, w, scale) if rules.binary_weights else w
    signs = lstm_kernels(wts, rules) if rules.int_lstm else None  # the latents' signs, once
    n, t_steps, _ = x_seq.value.shape
    h = Var(np.zeros((n, wts.n_o)))
    c = Var(np.zeros((n, wts.n_o)))
    hs = []
    for t in range(t_steps):
        xt = ad.select_time(tape, x_seq, t)
        z = ad.concat(tape, xt, h, axis=1)
        pre = {}
        for g in GATES:
            p = ad.matmul(tape, z, kernels[g])
            pre[g] = p if rules.binary_weights else ad.add(tape, p, bound.vars[f"{lay.name}.b{g}"])
        if rules.int_lstm:
            exact = dict(zip(GATES, exact_preactivations(xt.value, h.value, signs, gap_den)))
            i = ad.heaviside_ste(tape, pre["i"], exact["i"])
            f = ad.heaviside_ste(tape, pre["f"], exact["f"])
            o = ad.heaviside_ste(tape, pre["o"], exact["o"])
            ct = ad.sign_ste(tape, pre["c"], exact=exact["c"])
            c = ad.clip_ste(tape, ad.add(tape, ad.mul(tape, f, c), ad.mul(tape, i, ct)))
            h = ad.mul(tape, o, c)
        else:
            i = ad.sigmoid(tape, pre["i"])
            f = ad.sigmoid(tape, pre["f"])
            o = ad.sigmoid(tape, pre["o"])
            ct = ad.tanh(tape, pre["c"])
            c = ad.add(tape, ad.mul(tape, f, c), ad.mul(tape, i, ct))
            h = ad.mul(tape, o, ad.tanh(tape, c))
        hs.append(h)
    return ad.stack_time(tape, hs)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _check_clips(frames, labels, classes: int):
    """Refuse clips that are not uint8 (TypeError: both walks divide them
    by 255, so a float clip in [0, 1] would read as a near-black one), a
    label count other than the clip count (ShapeMismatch) and class labels
    outside [0, classes) (ValueError); no clips and no labels (both None)
    pass."""
    if frames is not None and np.asarray(frames).dtype != np.uint8:
        raise TypeError(f"clips must be uint8 gray levels, got {np.asarray(frames).dtype}")
    clips, count = (None if a is None else len(a) for a in (frames, labels))
    if clips != count:
        raise ShapeMismatch(f"{clips} clips but {count} labels")
    if count and not 0 <= np.min(labels) <= np.max(labels) < classes:
        raise ValueError(f"labels outside [0, {classes})")


def evaluate(model: ModelGraph, frames: np.ndarray, labels: np.ndarray, batch_size: int = 40, path: str = "ref"):
    """Accuracy and confusion matrix on uint8 clips via either path."""
    if path not in ("ref", "logic"):
        raise ValueError(f"unknown path {path!r}")
    _check_batch_size(batch_size)
    classes = model.config.num_classes
    _check_clips(frames, labels, classes)
    confusion = np.zeros((classes, classes), dtype=np.int64)
    plan = engine.compile(model) if path == "logic" else None
    for lo in range(0, len(frames), batch_size):
        batch = frames[lo : lo + batch_size]
        if path == "logic":
            pred = engine.execute(plan, engine.frames_to_bitplanes(batch)).pred
        else:
            pred = eval_forward(model, batch.astype(np.float64) / 255.0).pred
        for want, got in zip(labels[lo : lo + batch_size], pred):
            confusion[int(want), int(got)] += 1
    accuracy = np.trace(confusion) / max(1, confusion.sum())
    return accuracy, confusion


# ---------------------------------------------------------------------------
# Stage driver
# ---------------------------------------------------------------------------


def run_stage(
    model: ModelGraph,
    cfg: StageConfig,
    train_frames: np.ndarray,
    train_labels: np.ndarray,
    test_frames: np.ndarray | None = None,
    test_labels: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> list[dict]:
    """Enter ``cfg.stage`` and train; returns log rows.

    Weights carry over verbatim from the previous stage; optimizer moments
    start from zero.  Clips that are not uint8 raise TypeError, labels
    outside [0, num_classes) raise ValueError, and a label count other than
    its clip count raises ShapeMismatch, before the stage is entered.
    """
    for x, y in ((train_frames, train_labels), (test_frames, test_labels)):
        _check_clips(x, y, model.config.num_classes)
    if cfg.stage == 1:
        if model.stage != 1:
            raise StageOrderViolation(f"stage 1 requested on a stage-{model.stage} model")
    else:
        apply_stage_transition(model, cfg.stage)
    rng = rng or np.random.default_rng(model.config.seed)
    bound = bind_params(model)
    params = bound.ordered()
    adam = AdamState.for_params([p.value for p in params])
    history = []
    n = len(train_frames)
    for epoch in range(cfg.epochs):
        lr = lr_schedule(cfg, epoch)
        order = rng.permutation(n)
        losses, hits, seen = [], 0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            x = train_frames[idx].astype(np.float64) / 255.0
            y = train_labels[idx]
            for v in bound.vars.values():
                v.grad = None
            tape = Tape()
            loss, scores = training_graph(tape, model, bound, x, y)
            ad.backward(tape, loss)
            adam_step([p.value for p in params], [p.grad for p in params], adam, lr)
            for name in bound.clip_latents:
                v = bound.vars[name].value
                np.clip(v, -1.0, 1.0, out=v)
            losses.append(float(loss.value))
            hits += int((scores.argmax(axis=1) == y).sum())
            seen += len(idx)
        row = {
            "stage": cfg.stage,
            "epoch": epoch,
            "lr": lr,
            "loss": float(np.mean(losses)),
            "train_acc": hits / seen,
            "batch_losses": losses,
        }
        if test_frames is not None:
            acc, _ = evaluate(model, test_frames, test_labels, cfg.batch_size)
            row["test_acc"] = float(acc)
        history.append(row)
    return history
