"""The stage rules, element-wise quantizers, their surrogate gradients, and
norm folding.

``stage_rules`` is the one table of which quantizers each of the five
training stages switches on.  All forward functions accept scalars or
ndarrays and are pure.  ``heaviside_ste_grad`` is the surrogate-gradient
window the training tape's step, sign and ternary nodes share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StageOrderViolation, ZeroScale


@dataclass(frozen=True)
class StageRules:
    """What a training stage quantizes.  Each switch, once on, stays on in
    every later stage.

    * ``binary_weights`` (stage 2 on): +-1 conv kernels, ``ssign`` recurrent
      kernels, the ternary dense layer, no LSTM biases, latents clipped to
      [-1, 1] after each update, and 1 or 2 bits per weight in the
      accounting.
    * ``binary_acts`` (3 on): step activations, so every conv after the stem
      reads {0,1} (bound ``act_bound``), and the quantized ``tgap_select``.
    * ``folded_norms`` (4 on): norms folded into power-of-two shifts and no
      longer trained; the stem sums the 8-bit levels as integers, and the
      reference steps on raw sums and ORs each MOR block.
    * ``int_lstm`` (5): the integer LSTM (strict-sign kernels, step gates,
      saturated cell state), the integer taps, and the stage
      ``engine.compile`` requires.
    """

    binary_weights: bool
    binary_acts: bool
    folded_norms: bool
    int_lstm: bool

    @property
    def act_bound(self) -> int | None:
        """The magnitude bound of what every conv after the stem reads: 1
        for {0,1} steps, else None (not integer-valued)."""
        return 1 if self.binary_acts else None


def stage_rules(stage: int) -> StageRules:
    """The rules of training stage ``stage``; a stage outside 1..5 raises
    StageOrderViolation."""
    if stage not in range(1, 6):
        raise StageOrderViolation(f"stage {stage} outside 1..5")
    return StageRules(stage >= 2, stage >= 3, stage >= 4, stage == 5)


def heaviside(x):
    """1 where x > 0, else 0 (strict at the boundary)."""
    return (np.asarray(x) > 0).astype(np.float64)


def heaviside_ste_grad(x):
    """Surrogate gradient of heaviside as a bool mask: True where |x| <= 1."""
    return np.abs(np.asarray(x, dtype=np.float64)) <= 1


def clip(y):
    """Clipped identity: saturate to [-1, 1]."""
    return np.clip(np.asarray(y, dtype=np.float64), -1.0, 1.0)


def sign_strict(x):
    """+1.0 where x > 0, else -1.0 (float64).  sign_strict(0) = -1 so that
    sign_strict(x) == 2*heaviside(x) - 1 everywhere; -0 and NaN also give -1."""
    return (np.asarray(x) > 0) * 2.0 - 1.0


def ssign_scale(n_i: int, n_o: int) -> float:
    return 3.0 / np.sqrt(n_i + n_o)


def ssign(w, n_i: int, n_o: int):
    """Scaled sign binarization for recurrent kernels: +-3/sqrt(n_i+n_o).

    The fixed positive scale keeps pre-activation magnitudes in the range
    where sigmoid/tanh behave like their later hard replacements; it never
    changes the sign of anything downstream, so inference can drop it.
    """
    return ssign_scale(n_i, n_o) * sign_strict(w)


def stern_scale(m: int) -> float:
    return 1.0 / np.sqrt(4 * m)


def tern_threshold(w) -> float:
    """Ternarization threshold: 0.7 times the mean absolute weight."""
    return 0.7 * float(np.mean(np.abs(w)))


def tern(w):
    """{-1, 0, +1} ternarization: zero where |w| <= 0.7*mean|w|."""
    w = np.asarray(w, dtype=np.float64)
    delta = tern_threshold(w)
    return np.where(np.abs(w) > delta, sign_strict(w), 0.0)


def stern(w, m: int):
    """Scaled ternarization: returns (ternary values, scale 1/sqrt(4m))."""
    return tern(w), stern_scale(m)


# ---------------------------------------------------------------------------
# Thresholded global average pooling (parameter-free channel attention)
# ---------------------------------------------------------------------------


def tgap_select(x, quantized: bool):
    """Binary select signal per (batch, time, channel) from spatial content.

    Quantized form: 1 iff the spatial mean of the binary map exceeds 1/2,
    i.e. the one-count strictly exceeds half the spatial resolution.
    Float form: 1 iff the spatial average exceeds half the maximum of this
    layer's average-pool output over the batch (recomputed per forward pass).
    """
    x = np.asarray(x, dtype=np.float64)
    ap = x.mean(axis=(2, 3), keepdims=True)
    if quantized:
        m = 1.0
    else:
        m = float(ap.max()) if ap.size else 0.0
    return (ap > 0.5 * m).astype(np.float64)


# ---------------------------------------------------------------------------
# Batch normalization folding
# ---------------------------------------------------------------------------


@dataclass
class BNParams:
    """Per-channel batch-norm statistics and affine parameters."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-3

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        if np.any(self.var < 0) or self.eps <= 0:
            raise ValueError("variance must be >= 0 and eps > 0")

    @property
    def scale(self) -> np.ndarray:
        """Folded multiplier gamma / sqrt(var + eps)."""
        return self.gamma / np.sqrt(self.var + self.eps)

    @property
    def offset(self) -> np.ndarray:
        """Folded offset beta - gamma*mean / sqrt(var + eps)."""
        return self.beta - self.gamma * self.mean / np.sqrt(self.var + self.eps)


def bn_forward(x, p: BNParams):
    """Inference-time affine: scale * x + offset, per channel."""
    return p.scale * np.asarray(x, dtype=np.float64) + p.offset


@dataclass
class ShiftNorm:
    """Offset-free power-of-two normalization: y = 2**shift * x."""

    shift: np.ndarray

    def __post_init__(self):
        self.shift = np.asarray(self.shift, dtype=np.int64)

    @property
    def scale(self) -> np.ndarray:
        return np.ldexp(1.0, self.shift.astype(np.int64))


def bsn_fold(p: BNParams) -> ShiftNorm:
    """Fold batch-norm statistics into a power-of-two shift.

    shift = round(log2|scale|) with ties to even; the offset is discarded.
    Because the result is a positive per-channel scale, a following strict
    sign/step activation is unaffected, so the folded norm never has to be
    executed in the logic path.
    """
    g = p.scale
    if np.any(g == 0):
        raise ZeroScale("cannot fold a zero-scale channel into a shift")
    return ShiftNorm(np.rint(np.log2(np.abs(g))).astype(np.int64))


def bsn_forward(x, s: ShiftNorm):
    return s.scale * np.asarray(x, dtype=np.float64)
