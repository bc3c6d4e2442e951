"""Seeded synthetic video clips: one moving bar per class.

No dataset ships with the repository and nothing may be downloaded, so the
benchmark draws its own inputs.  Class ``k`` moves a bright bar in direction
``k % 4`` (left, right, up, down) at a speed that grows with ``k // 4``, over
a seeded background level with seeded Gaussian sensor noise.  The same
generator state gives the same clips, at any ``BillnetConfig`` shape.
"""

from __future__ import annotations

import numpy as np

DIRECTIONS = ("left", "right", "up", "down")


def _clip(rng: np.random.Generator, label: int, t: int, h: int, w: int, c: int) -> np.ndarray:
    direction = DIRECTIONS[label % 4]
    horizontal = direction in ("left", "right")
    size = w if horizontal else h
    width = max(1, size // 8)
    speed = (1 + label // 4) * max(1, size // (4 * t))
    sign = -1 if direction in ("left", "up") else 1
    start = int(rng.integers(0, size))
    background = rng.uniform(20.0, 100.0)
    bar = rng.uniform(150.0, 240.0)
    noise = rng.uniform(4.0, 16.0)

    pos = (start + sign * speed * np.arange(t))[:, None]  # (t, 1)
    on = ((np.arange(size)[None, :] - pos) % size) < width  # (t, size)
    mask = on[:, None, :] if horizontal else on[:, :, None]  # (t, 1, w) | (t, h, 1)
    frames = background + (bar - background) * mask[..., None]
    frames = frames + rng.normal(0.0, noise, (t, h, w, c))
    return np.clip(np.rint(frames), 0, 255).astype(np.uint8)


def make_clips(rng: np.random.Generator, n: int, cfg) -> tuple[np.ndarray, np.ndarray]:
    """``n`` uint8 clips of shape (T, H, W, C) from ``cfg`` and their labels."""
    labels = rng.integers(0, cfg.num_classes, n)
    clips = np.stack(
        [_clip(rng, int(k), cfg.t, cfg.h, cfg.w, cfg.in_channels) for k in labels]
    )
    return clips, labels


class InputStats:
    """Running input properties: mean gray level and share of pixels > 127."""

    def __init__(self):
        self.pixels = 0
        self.total = 0
        self.bright = 0

    def add(self, clips: np.ndarray):
        self.pixels += clips.size
        self.total += int(clips.sum(dtype=np.int64))
        self.bright += int(np.count_nonzero(clips > 127))

    def as_dict(self) -> dict:
        n = max(1, self.pixels)
        return {"mean_gray": self.total / n, "frac_above_127": self.bright / n}
