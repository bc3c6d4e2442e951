import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billnet import tensors
from billnet.errors import InvariantViolation, NonBinaryInput, ShapeMismatch
from billnet.tensors import (
    BitTensor,
    TernTensor,
    binary_dot_bipolar_weights,
    pack,
    pack_ternary,
    popcount_and,
    ternary_dot_bipolar_weights,
    unpack,
    unpack_ternary,
)


def bits_to_tensor(bits):
    """1-D bit list -> (1,1,1,1,n) packed tensor."""
    arr = np.asarray(bits, dtype=np.float64).reshape(1, 1, 1, 1, -1)
    return pack(arr)


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
        assert bt.popcount() == 3

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

    def test_padding_bits_zero(self):
        x = np.ones((1, 1, 1, 1, 67))
        bt = pack(x)
        mask = tensors.channel_padding_mask(67)
        assert not (bt.words & ~mask).any()
        assert bt.popcount() == 67


class TestPopcountAnd:
    def test_enumerated_pair(self):
        a = bits_to_tensor([1, 0, 1, 1])
        b = bits_to_tensor([1, 0, 0, 1])
        assert popcount_and(a, b) == 2

    def test_all_ones_mask_is_identity(self):
        rng = np.random.default_rng(2)
        x = (rng.random((1, 2, 3, 4, 33)) < 0.5).astype(np.float64)
        a = pack(x)
        ones = pack(np.ones_like(x))
        assert popcount_and(a, ones) == a.popcount() == int(x.sum())

    def test_all_zeros_mask(self):
        a = bits_to_tensor([1, 1, 1, 0, 1])
        z = bits_to_tensor([0, 0, 0, 0, 0])
        assert popcount_and(a, z) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            popcount_and(bits_to_tensor([1, 0]), bits_to_tensor([1, 0, 1]))


class TestBinaryDot:
    def test_worked_example(self):
        # a=[1,0,1,1], w=[+1,-1,-1,+1]: integer oracle gives 1+0-1+1 = 1.
        a = bits_to_tensor([1, 0, 1, 1])
        w = bits_to_tensor([1, 0, 0, 1])
        assert binary_dot_bipolar_weights(a, w) == 1

    def test_zero_activations(self):
        z = bits_to_tensor([0] * 16)
        rng = np.random.default_rng(3)
        w = bits_to_tensor((rng.random(16) < 0.5).astype(int))
        assert binary_dot_bipolar_weights(z, w) == 0

    def test_full_agreement(self):
        a = bits_to_tensor([1] * 16)
        w = bits_to_tensor([1] * 16)
        assert binary_dot_bipolar_weights(a, w) == 16

    def test_matches_integer_oracle_100k(self):
        # 1e5 random trials, word-level vectorization of the same formula the
        # implementation uses, against a plain integer dot product.
        rng = np.random.default_rng(4)
        trials, n = 100_000, 64
        a_bits = rng.random((trials, n)) < 0.5
        w_bits = rng.random((trials, n)) < 0.5
        w_signed = np.where(w_bits, 1, -1)
        oracle = (a_bits * w_signed).sum(axis=1)
        a_words = tensors.pack_vector(a_bits.astype(int))
        w_words = tensors.pack_vector(w_bits.astype(int))
        fast = 2 * np.bitwise_count(a_words & w_words).sum(axis=1).astype(int) - (
            np.bitwise_count(a_words).sum(axis=1).astype(int)
        )
        np.testing.assert_array_equal(fast, oracle)

    def test_matches_integer_oracle_through_api(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 65))
            a_bits = (rng.random(n) < 0.5).astype(int)
            w_bits = (rng.random(n) < 0.5).astype(int)
            got = binary_dot_bipolar_weights(bits_to_tensor(a_bits), bits_to_tensor(w_bits))
            assert got == int((a_bits * np.where(w_bits, 1, -1)).sum())


class TestTernary:
    def test_plane_overlap_rejected(self):
        with pytest.raises(InvariantViolation):
            TernTensor(bits_to_tensor([1, 0]), bits_to_tensor([1, 0]))

    def test_pack_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.integers(-1, 2, size=(2, 2, 1, 3, 40)).astype(np.float64)
        np.testing.assert_array_equal(unpack_ternary(pack_ternary(x)), x)

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(NonBinaryInput):
            pack_ternary(np.full((1, 1, 1, 1, 2), 2.0))

    def test_balanced_dot(self):
        h = pack_ternary(np.array([1, 0, -1], dtype=float).reshape(1, 1, 1, 1, 3))
        w = bits_to_tensor([1, 1, 1])
        assert ternary_dot_bipolar_weights(h, w) == 0

    def test_zero_state(self):
        h = pack_ternary(np.zeros((1, 1, 1, 1, 9)))
        w = bits_to_tensor([1] * 9)
        assert ternary_dot_bipolar_weights(h, w) == 0

    def test_sign_product(self):
        h = pack_ternary(np.array([-1.0]).reshape(1, 1, 1, 1, 1))
        w = bits_to_tensor([0])  # weight -1
        assert ternary_dot_bipolar_weights(h, w) == 1

    def test_matches_integer_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 100))
            h = rng.integers(-1, 2, size=n).astype(np.float64)
            w_bits = (rng.random(n) < 0.5).astype(int)
            ht = pack_ternary(h.reshape(1, 1, 1, 1, n))
            got = ternary_dot_bipolar_weights(ht, bits_to_tensor(w_bits))
            assert got == int((h * np.where(w_bits, 1, -1)).sum())


class TestShapeAlgebra:
    def test_same_pad_stride_one(self):
        assert tensors.conv_same_pads(8, 3, 1) == (8, 1, 1)

    def test_same_pad_stride_two(self):
        assert tensors.conv_same_pads(8, 3, 2) == (4, 0, 1)
        assert tensors.conv_same_pads(9, 3, 2) == (5, 1, 1)

    def test_pool_floor_mode(self):
        assert tensors.pool_output_shape((3, 5), (2, 2), (2, 2)) == (1, 2)
