import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billnet import tensors
from billnet.engine import _pack_tern_rows
from billnet.errors import NonBinaryInput, ShapeMismatch
from billnet.tensors import (
    BitTensor,
    and_count,
    bipolar_dot,
    pack,
    pack_vector,
    unpack,
    unpack_bits,
)

WORD_BOUNDARY_CHANNELS = (1, 63, 64, 65, 129, 200)


def bits_to_tensor(bits):
    """1-D bit list -> (1,1,1,1,n) packed tensor."""
    arr = np.asarray(bits, dtype=np.float64).reshape(1, 1, 1, 1, -1)
    return pack(arr)


def rows(bits):
    """1-D bit list -> one (1, nw) word row, the kernels' weight layout."""
    return pack_vector(np.asarray(bits, dtype=int)[None])


def tern_dot(h, w_row):
    """{-1,0,+1} x {-1,+1}: ``h`` packed as word rows of its +1 and its -1
    entries; the plus row's bipolar dot minus the minus row's."""
    h = np.asarray(h, dtype=np.int8)[None]
    return int(bipolar_dot(pack_vector(h == 1), w_row).sum() - bipolar_dot(pack_vector(h == -1), w_row).sum())


def shift_lane_words(bits):
    """The original packing formula, kept as the layout oracle: widen every
    bit to a uint64 lane, shift lane i left by i, and sum each 64 lanes."""
    c = bits.shape[-1]
    nw = tensors.words_per_channel(c)
    padded = np.zeros(bits.shape[:-1] + (nw * 64,), dtype=np.uint64)
    padded[..., :c] = bits
    lanes = padded.reshape(bits.shape[:-1] + (nw, 64))
    return (lanes << np.arange(64, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)


class TestPack:
    def test_all_zeros(self):
        bt = pack(np.zeros((1, 1, 1, 1, 8)))
        assert not bt.words.any()

    def test_low_byte_layout(self):
        # Channel-fastest, LSB-first: [1,0,1,1,0,0,0,0] -> 0b00001101.
        bt = bits_to_tensor([1, 0, 1, 1, 0, 0, 0, 0])
        assert bt.words.ravel()[0] == 0b00001101
        assert np.bitwise_count(bt.words).sum() == 3

    def test_bit_positions_match_enumeration(self):
        # Brute-force oracle: bit i of the packed word must equal element i.
        rng = np.random.default_rng(0)
        x = (rng.random((2, 3, 2, 2, 70)) < 0.5).astype(np.float64)
        bt = pack(x)
        for c in range(70):
            word = bt.words[..., c // 64]
            bit = (word >> np.uint64(c % 64)) & np.uint64(1)
            np.testing.assert_array_equal(bit.astype(np.float64), x[..., c])

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            shape = tuple(rng.integers(1, 5, size=4)) + (int(rng.integers(1, 130)),)
            x = (rng.random(shape) < 0.5).astype(np.float64)
            bt = pack(x)
            np.testing.assert_array_equal(bt.words, shift_lane_words(x))
            np.testing.assert_array_equal(unpack(bt), x)
        # Word boundaries, and every input dtype, against the oracle layout.
        for c in (1, 63, 64, 65, 127, 128, 129, 200):
            bits = rng.random((2, 3, 2, 2, c)) < 0.5
            want = shift_lane_words(bits)
            for dtype in (bool, np.uint8, np.float64):
                bt = pack(bits.astype(dtype))
                assert bt.words.dtype == np.uint64
                np.testing.assert_array_equal(bt.words, want)
                back = unpack(bt)
                assert back.dtype == np.float64
                np.testing.assert_array_equal(back, bits)
            rows = tensors.pack_vector(bits.reshape(-1, c).astype(np.uint8))
            np.testing.assert_array_equal(rows, want.reshape(rows.shape))

    def test_rejects_non_binary(self):
        with pytest.raises(NonBinaryInput):
            pack(np.full((1, 1, 1, 1, 4), 0.5))

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeMismatch):
            pack(np.zeros((2, 2)))

    @given(
        st.lists(st.integers(1, 9), min_size=5, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_small_shapes(self, dims, seed):
        rng = np.random.default_rng(seed)
        x = (rng.random(tuple(dims)) < 0.5).astype(np.float64)
        np.testing.assert_array_equal(unpack(pack(x)), x)

    @pytest.mark.parametrize("c", [*range(1, 10), 15, 17, 63, 65])
    def test_whole_buffer_packing_matches_oracle(self, c):
        # Channel counts off byte and word boundaries, contiguous or not.
        rng = np.random.default_rng(c)
        bits = rng.random((2, 3, 4, 5, c)) < 0.5
        want = shift_lane_words(bits)
        np.testing.assert_array_equal(pack(bits).words, want)
        swapped = np.ascontiguousarray(bits.transpose(0, 1, 3, 2, 4)).transpose(0, 1, 3, 2, 4)
        assert not swapped.flags.c_contiguous
        np.testing.assert_array_equal(pack(swapped).words, want)
        rows = bits.reshape(-1, c)
        np.testing.assert_array_equal(
            pack_vector(np.ascontiguousarray(rows.T).T), want.reshape(len(rows), -1)
        )
        sliced = BitTensor((2, 3, 4, 3, c), pack(bits).words[:, :, :, ::2])
        assert not sliced.words.flags.c_contiguous
        np.testing.assert_array_equal(unpack(sliced), bits[:, :, :, ::2])

    @pytest.mark.parametrize("c", (1, 3, 8, 9, 64, 65, 200))
    def test_unpack_bits_round_trip(self, c):
        bits = np.random.default_rng(c).random((2, 3, 2, 5, c)) < 0.5
        got = unpack_bits(pack(bits))
        assert got.dtype == np.uint8 and got.shape == bits.shape
        np.testing.assert_array_equal(got, bits)
        np.testing.assert_array_equal(unpack(pack(bits)), got.astype(np.float64))

    def test_padding_bits_zero(self):
        bt = pack(np.ones((1, 1, 1, 1, 67)))
        np.testing.assert_array_equal(bt.words.ravel(), [2**64 - 1, 0b111])


class TestPopcountAnd:
    def test_enumerated_pair(self):
        assert and_count(rows([1, 0, 1, 1]), rows([1, 0, 0, 1])) == [[2]]

    def test_all_ones_mask_is_identity(self):
        rng = np.random.default_rng(2)
        x = (rng.random((1, 2, 3, 4, 33)) < 0.5).astype(np.float64)
        got = and_count(pack(x).words, rows([1] * 33))
        assert got.shape == (1, 2, 3, 4, 1) and got.dtype == np.int64
        np.testing.assert_array_equal(got[..., 0], x.sum(axis=-1))

    def test_all_zeros_mask(self):
        assert and_count(rows([1, 1, 1, 0, 1]), rows([0, 0, 0, 0, 0])) == [[0]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            and_count(rows([1, 0]), rows([1] * 65))

    @pytest.mark.parametrize("c", WORD_BOUNDARY_CHANNELS)
    def test_all_pairs_match_integer_matmul(self, c):
        rng = np.random.default_rng(c)
        a = rng.random((3, 5, c)) < 0.5
        w = rng.random((7, c)) < 0.5
        got = and_count(pack_vector(a), pack_vector(w))
        np.testing.assert_array_equal(got, a.astype(np.int64) @ w.T.astype(np.int64))

    def test_no_word_axis_temporary(self):
        # Words are counted one at a time, so the peak stays below what a
        # single (rows, k, nw) uint64 temporary would take at nw = 4.
        rng = np.random.default_rng(8)
        a = pack_vector(rng.random((2048, 256)) < 0.5)
        w = pack_vector(rng.random((16, 256)) < 0.5)
        assert a.shape[1] == 4
        wide = a.shape[0] * w.shape[0] * a.shape[1] * a.itemsize
        tracemalloc.start()
        try:
            and_count(a, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < wide


class TestBinaryDot:
    def test_worked_example(self):
        # a=[1,0,1,1], w=[+1,-1,-1,+1]: integer oracle gives 1+0-1+1 = 1.
        assert bipolar_dot(rows([1, 0, 1, 1]), rows([1, 0, 0, 1])) == [[1]]

    def test_zero_activations(self):
        rng = np.random.default_rng(3)
        w = rows((rng.random(16) < 0.5).astype(int))
        assert bipolar_dot(rows([0] * 16), w) == [[0]]

    def test_full_agreement(self):
        assert bipolar_dot(rows([1] * 16), rows([1] * 16)) == [[16]]

    def test_matches_integer_oracle_100k(self):
        # 1000 activation rows against 100 weight rows: 1e5 dot products
        # through the shipped kernel, one and several words per row.
        rng = np.random.default_rng(4)
        for n in (64, 200):
            a_bits = rng.random((1000, n)) < 0.5
            w_bits = rng.random((100, n)) < 0.5
            oracle = a_bits.astype(np.int64) @ np.where(w_bits, 1, -1).T
            np.testing.assert_array_equal(bipolar_dot(pack_vector(a_bits), pack_vector(w_bits)), oracle)

    def test_matches_integer_oracle_through_api(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 130))
            a_bits = (rng.random(n) < 0.5).astype(int)
            w_bits = (rng.random(n) < 0.5).astype(int)
            got = bipolar_dot(bits_to_tensor(a_bits).words, rows(w_bits))
            assert got.shape == (1, 1, 1, 1, 1)
            assert got.item() == int((a_bits * np.where(w_bits, 1, -1)).sum())


class TestTernary:
    def test_pack_round_trip(self):
        # {-1, 0, 1} int8 values -> the plus and minus word rows a ternary
        # dot-product operand is packed as -> plus - minus.
        rng = np.random.default_rng(6)
        for c in (40, 64, 130):
            x = rng.integers(-1, 2, size=(2, 2, 1, 3, c)).astype(np.int8)
            plus, minus = _pack_tern_rows(x)
            assert not np.any(plus & minus)
            back = unpack_bits(BitTensor(x.shape, plus)).astype(np.int8) - unpack_bits(BitTensor(x.shape, minus))
            np.testing.assert_array_equal(back, x)

    def test_balanced_dot(self):
        assert tern_dot([1, 0, -1], rows([1, 1, 1])) == 0

    def test_zero_state(self):
        assert tern_dot(np.zeros(9), rows([1] * 9)) == 0

    def test_sign_product(self):
        assert tern_dot([-1], rows([0])) == 1  # weight -1

    def test_matches_integer_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 200))
            h = rng.integers(-1, 2, size=n)
            w_bits = (rng.random(n) < 0.5).astype(int)
            assert tern_dot(h, rows(w_bits)) == int((h * np.where(w_bits, 1, -1)).sum())


class TestShapeAlgebra:
    def test_same_pad_stride_one(self):
        assert tensors.conv_same_pads(8, 3, 1) == (8, 1, 1)

    def test_same_pad_stride_two(self):
        assert tensors.conv_same_pads(8, 3, 2) == (4, 0, 1)
        assert tensors.conv_same_pads(9, 3, 2) == (5, 1, 1)

    def test_pool_floor_mode(self):
        assert tensors.pool_output_shape((3, 5), (2, 2), (2, 2)) == (1, 2)
