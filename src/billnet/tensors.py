"""Dense and bit-packed tensor containers shared by both execution paths.

Dense activations are plain float64 ndarrays of shape (N, T, H, W, C) with
the channel axis fastest ("Tensor5").  Binary signals are packed into uint64
words along the channel axis, LSB first, so the channel vector of one pixel
stays contiguous and pointwise convolutions reduce to AND + popcount over a
handful of words.  Padding bits are forced to zero on construction, which
keeps every popcount exact without masking.  Packing and unpacking each make
one ``np.packbits`` / ``np.unpackbits`` call (little bit order) over the
whole flattened buffer, never one per channel row: the bits of a row are
first padded to whole bytes, so every row starts on a byte boundary, and the
bytes are then padded to whole words and viewed as little-endian uint64.
Bit i of word j is channel j*64 + i; no 64-lane temporary is formed.  With
one channel a pixel's word is its bit, so packing widens the bits and
unpacking narrows the words, with no padding and no bit-array call.

Ternary values {-1, 0, +1} are int8 ndarrays; integer accumulators are
int64 ndarrays unless a caller asks for a narrower dtype that holds them.
A ternary operand of a dot product is packed as two word rows, the bits of
its +1 and of its -1 entries (``pack_vector`` of each), and the product is
the difference of the two rows' terms.

``and_count`` is the one packed dot-product kernel: every AND + popcount
of the logic path runs through it.  ``bipolar_dot`` builds the {0,1} x
{-1,+1} product on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonBinaryInput, ShapeMismatch

WORD_BITS = 64


def require_tensor5(x: np.ndarray) -> np.ndarray:
    """Validate the (N, T, H, W, C) dense layout and return ``x``."""
    x = np.asarray(x)
    if x.ndim != 5:
        raise ShapeMismatch(f"expected 5 axes (N,T,H,W,C), got shape {x.shape}")
    if any(d < 1 for d in x.shape):
        raise ShapeMismatch(f"all dims must be >= 1, got {x.shape}")
    return x


def words_per_channel(c: int) -> int:
    return (c + WORD_BITS - 1) // WORD_BITS


@dataclass(frozen=True)
class BitTensor:
    """Bit-packed binary tensor: one bit per element, channel-major lanes.

    ``words`` has shape (N, T, H, W, words_per_channel(C)); bit i of word j
    holds channel j*64 + i.  Bits beyond C are always zero.
    """

    shape: tuple[int, int, int, int, int]
    words: np.ndarray

    def __post_init__(self):
        n, t, h, w, c = self.shape
        expect = (n, t, h, w, words_per_channel(c))
        if self.words.shape != expect or self.words.dtype != np.uint64:
            raise ShapeMismatch(
                f"words shape {self.words.shape}/{self.words.dtype} does not "
                f"match element shape {self.shape}"
            )

    @property
    def channels(self) -> int:
        return self.shape[4]


def _as_bits(x: np.ndarray, caller: str) -> np.ndarray:
    """``x`` as a bool array; raises NonBinaryInput unless it is all 0/1."""
    x = np.asarray(x)
    if x.dtype == np.bool_:
        return x
    if not np.isin(x, (0, 1)).all():
        raise NonBinaryInput(f"{caller}() requires all elements in {{0, 1}}")
    return x.astype(bool)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """bool (..., C) -> uint64 words (..., words_per_channel(C)), LSB first.

    A lone channel's word is its bit, widened: no byte or word padding."""
    lead, c = bits.shape[:-1], bits.shape[-1]
    if c == 1:
        return bits.astype(np.uint64)
    cbytes = -(-c // 8)
    if c % 8:
        padded = np.zeros(lead + (cbytes * 8,), dtype=bool)
        padded[..., :c] = bits
        bits = padded
    packed = np.packbits(bits.reshape(-1), bitorder="little").reshape(lead + (cbytes,))
    nbytes = words_per_channel(c) * (WORD_BITS // 8)
    if cbytes != nbytes:
        padded = np.zeros(lead + (nbytes,), dtype=np.uint8)
        padded[..., :cbytes] = packed
        packed = padded
    return packed.view("<u8").astype(np.uint64, copy=False)


def pack(x: np.ndarray) -> BitTensor:
    """Pack a binary (N,T,H,W,C) tensor into channel-major uint64 words.

    Raises NonBinaryInput unless every element is exactly 0 or 1; a bool
    tensor skips that scan.
    """
    bits = _as_bits(require_tensor5(x), "pack")
    return BitTensor(bits.shape, _pack_words(bits))


def unpack_bits(bt: BitTensor) -> np.ndarray:
    """The bits of a BitTensor as a uint8 (N,T,H,W,C) tensor of 0/1 values."""
    c = bt.channels
    if c == 1:
        return bt.words.astype(np.uint8)
    cbytes = -(-c // 8)
    octets = np.ascontiguousarray(bt.words, dtype="<u8").view(np.uint8)[..., :cbytes]
    bits = np.unpackbits(np.ascontiguousarray(octets).reshape(-1), bitorder="little")
    return bits.reshape(bt.shape[:4] + (cbytes * 8,))[..., :c]


def unpack(bt: BitTensor) -> np.ndarray:
    """Inverse of pack(): returns a float64 tensor of 0.0/1.0 values."""
    return unpack_bits(bt).astype(np.float64)


def pack_vector(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., C) {0,1} array into uint64 words (helper for weight lanes)."""
    return _pack_words(_as_bits(bits, "pack_vector"))


def and_count(a: np.ndarray, w: np.ndarray, dtype=np.int64) -> np.ndarray:
    """popcount(a AND w) of every word row of ``a`` against every row of ``w``.

    ``a`` is (..., nw) uint64 words, ``w`` is (k, nw); returns (..., k)
    counts in ``dtype``, which the caller picks to hold 64 * nw.
    """
    if a.shape[-1] != w.shape[-1]:
        raise ShapeMismatch(f"word rows differ: {a.shape} vs {w.shape}")
    out = np.zeros(a.shape[:-1] + (w.shape[0],), dtype=dtype)
    for j in range(w.shape[-1]):  # one word at a time: no (..., k, nw) temporary
        out += np.bitwise_count(a[..., j, None] & w[:, j])
    return out


def bipolar_dot(a: np.ndarray, w: np.ndarray, dtype=np.int64) -> np.ndarray:
    """{0,1} activation words times {-1,+1} weight rows (bit 1 means +1).

    The product is 2*popcount(a AND w) - popcount(a), an exact integer;
    shapes and ``dtype`` as in ``and_count``, which must also hold twice
    the count.
    """
    ones = np.bitwise_count(a).sum(axis=-1, dtype=dtype)
    return 2 * and_count(a, w, dtype) - ones[..., None]


def conv_same_pads(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """(out_size, pad_before, pad_after) for zero "same" padding.

    out = ceil(size / stride); total padding is spread with the smaller
    half in front, matching the usual same-padding convention.
    """
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    before = total // 2
    return out, before, total - before


def conv_output_shape(shape, kernel, strides) -> tuple[int, ...]:
    """Spatial/temporal output dims of a same-padded strided convolution."""
    return tuple(conv_same_pads(s, k, st)[0] for s, k, st in zip(shape, kernel, strides))


def pool_output_shape(shape, window, strides) -> tuple[int, ...]:
    """Floor-mode pooling output dims (remainder cropped)."""
    return tuple((s - w) // st + 1 for s, w, st in zip(shape, window, strides))
