import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisrnet import bitpack
from bisrnet.binarize import sign
from bisrnet.bitpack import (
    BitTensor,
    bit_conv2d,
    pack,
    sign_pack,
    unpack,
    words_per_row,
    xnor_popcount_dot,
)
from bisrnet.errors import ArgumentError, DomainError
from bisrnet.tensor import conv2d_ref


def random_pm1(rng, shape, dtype=np.float32):
    return np.where(rng.random(shape) < 0.5, -1, 1).astype(dtype)


class TestPackUnpack:
    def test_alternating_row(self):
        x = np.tile(np.array([1.0, -1.0], dtype=np.float32), 8).reshape(1, 16, 1, 1)
        bt = pack(x)
        # +1 at even channels -> bits 0b...0101010101010101 = 0x5555
        assert bt.words[0, 0, 0, 0] == np.uint64(0x5555)
        np.testing.assert_array_equal(unpack(bt), x)

    def test_all_minus_one_is_zero_payload(self):
        x = -np.ones((2, 3, 4, 70), dtype=np.float32)
        bt = pack(x)
        assert not bt.words.any()
        np.testing.assert_array_equal(unpack(bt), x)

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            pack(np.zeros((1, 1, 2, 2)))
        with pytest.raises(DomainError):
            pack(np.full((1, 1, 2, 2), 0.5))

    def test_words_per_row_invariant(self):
        for c in (1, 63, 64, 65, 128, 200):
            x = -np.ones((1, c, 1, 1), dtype=np.float32)
            bt = pack(x)
            assert bt.words.shape[-1] == words_per_row(c) == -(-c // 64)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 4),
        h=st.integers(1, 5),
        w=st.integers(1, 130),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip(self, n, c, h, w, seed):
        rng = np.random.default_rng(seed)
        x = random_pm1(rng, (n, c, h, w))
        np.testing.assert_array_equal(unpack(pack(x)), x)


class TestXnorPopcountDot:
    def pack_row(self, values):
        x = np.asarray(values, dtype=np.float32).reshape(1, -1, 1, 1)
        return pack(x).words.ravel()

    def test_hand_case(self):
        a = self.pack_row([1, -1, 1])
        b = self.pack_row([1, 1, -1])
        assert xnor_popcount_dot(a, b, 3) == -1

    def test_self_dot(self):
        rng = np.random.default_rng(1)
        v = random_pm1(rng, (64,))
        a = self.pack_row(v)
        assert xnor_popcount_dot(a, a, 64) == 64

    def test_full_disagreement(self):
        rng = np.random.default_rng(2)
        v = random_pm1(rng, (77,))
        assert xnor_popcount_dot(self.pack_row(v), self.pack_row(-v), 77) == -77

    def test_matches_float_dot(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 64, 65, 200):
            a = random_pm1(rng, (n,))
            b = random_pm1(rng, (n,))
            got = xnor_popcount_dot(self.pack_row(a), self.pack_row(b), n)
            assert got == int(np.dot(a.astype(np.float64), b.astype(np.float64)))

    def test_padding_bits_ignored(self):
        # Two rows identical in the valid region must dot the same even if
        # their don't-care bits differ (constructed via different row widths).
        a = self.pack_row([1, -1, 1])
        b = self.pack_row([1, -1, 1, 1, 1, 1])  # extra +1s set high bits
        assert xnor_popcount_dot(a, b, 3) == 3

    def test_length_validated(self):
        a = self.pack_row([1, -1])
        with pytest.raises(ArgumentError):
            xnor_popcount_dot(a, a, 65)


class TestBitConv2d:
    def test_all_ones_interior_and_corner(self):
        x = pack(np.ones((1, 1, 5, 5), dtype=np.float32))
        w = pack(np.ones((1, 1, 3, 3), dtype=np.float32))
        y = bit_conv2d(x, w, scale=1.0)
        # Interior: 9 agreeing taps. Corner: 4 agreements, 5 pad taps of -1
        # against +1 weights -> 2*4 - 9 = -1.
        assert y[0, 0, 2, 2] == 9.0
        assert y[0, 0, 0, 0] == -1.0

    def test_scale_applied_once(self):
        x = pack(np.ones((1, 1, 5, 5), dtype=np.float32))
        w = pack(np.ones((1, 1, 3, 3), dtype=np.float32))
        y = bit_conv2d(x, w, scale=0.125)
        assert y[0, 0, 2, 2] == pytest.approx(9 * 0.125)

    def test_matches_reference_conv_exactly(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            n = int(rng.integers(1, 3))
            c_in = int(rng.integers(1, 9))
            c_out = int(rng.integers(1, 9))
            h = int(rng.integers(3, 17))
            w = int(rng.integers(3, 17))
            xd = random_pm1(rng, (n, c_in, h, w))
            wd = random_pm1(rng, (c_out, c_in, 3, 3))
            got = bit_conv2d(pack(xd), pack(wd), scale=1.0)
            want = conv2d_ref(xd, wd, stride=1, pad=1, pad_value=-1.0)
            np.testing.assert_array_equal(got, want)

    def test_stride2_4x4_matches_reference(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            c_in = int(rng.integers(1, 6))
            c_out = int(rng.integers(1, 6))
            h = int(rng.integers(6, 17, endpoint=True) // 2 * 2)
            xd = random_pm1(rng, (1, c_in, h, h))
            wd = random_pm1(rng, (c_out, c_in, 4, 4))
            got = bit_conv2d(pack(xd), pack(wd), scale=1.0, stride=2, pad=1)
            want = conv2d_ref(xd, wd, stride=2, pad=1, pad_value=-1.0)
            np.testing.assert_array_equal(got, want)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        xd = random_pm1(rng, (2, 5, 9, 9))
        wd = random_pm1(rng, (7, 5, 3, 3))
        y1 = bit_conv2d(pack(xd), pack(wd), scale=0.37)
        y2 = bit_conv2d(pack(xd), pack(wd), scale=0.37)
        np.testing.assert_array_equal(y1, y2)

    def test_channel_mismatch(self):
        x = pack(np.ones((1, 2, 4, 4), dtype=np.float32))
        w = pack(np.ones((1, 3, 3, 3), dtype=np.float32))
        with pytest.raises(Exception):
            bit_conv2d(x, w)

    def test_rejects_dense_arrays(self):
        with pytest.raises(ArgumentError):
            bit_conv2d(np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3)))


# (kernel, stride, pad): the network's three binarized kernels (3x3, the
# strided 4x4 and the 1x1 fusion), and 3x3 with pad=0, which the
# benchmark's +1-padding corruption calls on an input it padded itself.
CONV_CASES = [(3, 1, 1), (4, 2, 1), (3, 1, 0), (1, 1, 0)]


class TestChannelPackedKernel:
    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    @settings(max_examples=15, deadline=None)
    @given(
        c_in=st.sampled_from([1, 63, 64, 65, 112, 128, 129]),
        c_out=st.sampled_from([1, 3, 5, 7]),
        h=st.integers(4, 9),
        w=st.integers(4, 9),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference_across_word_edges(self, k, stride, pad, c_in, c_out, h, w, seed):
        rng = np.random.default_rng(seed)
        xd = random_pm1(rng, (2, c_in, h, w))
        wd = random_pm1(rng, (c_out, c_in, k, k))
        got = bit_conv2d(pack(xd), pack(wd), scale=1.0, stride=stride, pad=pad)
        want = conv2d_ref(xd, wd, stride=stride, pad=pad, pad_value=-1.0)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    def test_row_blocks_match_one_block(self, monkeypatch, k, stride, pad):
        rng = np.random.default_rng(11)
        xd = random_pm1(rng, (2, 70, 13, 11))
        wd = random_pm1(rng, (5, 70, k, k))
        want = bit_conv2d(pack(xd), pack(wd), stride=stride, pad=pad)
        monkeypatch.setattr(bitpack, "_BLOCK_OUTPUTS", 7)  # one output row per block
        np.testing.assert_array_equal(bit_conv2d(pack(xd), pack(wd), stride=stride, pad=pad), want)

    def test_tail_bits_are_dont_care(self):
        rng = np.random.default_rng(12)
        for c_in in (1, 28, 65):
            xd = random_pm1(rng, (2, c_in, 6, 7))
            wd = random_pm1(rng, (3, c_in, 3, 3))
            x, w = pack(xd), pack(wd)
            want = bit_conv2d(x, w)
            tail = ~bitpack._tail_mask(c_in)

            def noise(shape):
                return rng.integers(0, 2**63, shape, dtype=np.uint64) & tail

            noisy_x = BitTensor(x.shape, x.words | noise(x.words.shape))
            noisy_w = BitTensor(w.shape, w.words | noise(w.words.shape))
            assert (noisy_x.words != x.words).any()
            np.testing.assert_array_equal(bit_conv2d(noisy_x, noisy_w), want)

    def test_sign_pack_equals_pack_of_sign(self):
        rng = np.random.default_rng(13)
        for c in (1, 28, 64, 65):
            x = rng.standard_normal((2, c, 3, 4)).astype(np.float32)
            x[0, 0, 0, :2] = [0.0, -0.0]
            x[1, -1, 2, 2:] = [-0.0, 0.0]
            bt = sign_pack(x)
            assert bt.shape == x.shape
            np.testing.assert_array_equal(bt.words, pack(sign(x)).words)
        assert not sign_pack(np.array([0.0, -0.0]).reshape(1, 2, 1, 1)).words.any()

    def test_sign_pack_rejects_nan(self):
        x = np.ones((1, 3, 2, 2), dtype=np.float32)
        x[0, 1, 1, 0] = np.nan
        with pytest.raises(ArgumentError):
            sign_pack(x)

    def test_weight_layout(self):
        # Channel i of tap (dy, dx) of output o is bit i % 64 of word
        # i // 64 of words[o, dy, dx].
        wd = -np.ones((2, 70, 3, 3), dtype=np.float32)
        wd[1, 66, 2, 0] = 1.0
        words = pack(wd).words
        assert words.shape == (2, 3, 3, 2)
        assert words[1, 2, 0, 1] == np.uint64(1 << 2)
        assert np.count_nonzero(words) == 1


class TestTapPackedKernel:
    """Tap t = dy*k + dx fills patch bits [t*c_in, (t+1)*c_in), so for c_in
    not a multiple of 64 the taps straddle patch-word boundaries."""

    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    @settings(max_examples=15, deadline=None)
    @given(
        c_in=st.sampled_from([8, 28, 29, 36, 63]),
        c_out=st.sampled_from([1, 3, 5, 7]),
        h=st.integers(4, 9),
        w=st.integers(4, 9),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference_across_field_edges(self, k, stride, pad, c_in, c_out, h, w, seed):
        rng = np.random.default_rng(seed)
        xd = random_pm1(rng, (2, c_in, h, w))
        wd = random_pm1(rng, (c_out, c_in, k, k))
        got = bit_conv2d(pack(xd), pack(wd), scale=1.0, stride=stride, pad=pad)
        want = conv2d_ref(xd, wd, stride=stride, pad=pad, pad_value=-1.0)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("c_in", [255, 256])
    def test_1x1_matches_reference(self, c_in):
        rng = np.random.default_rng(c_in)
        xd = random_pm1(rng, (2, c_in, 5, 6))
        wd = random_pm1(rng, (3, c_in, 1, 1))
        got = bit_conv2d(pack(xd), pack(wd), scale=1.0, stride=1, pad=0)
        np.testing.assert_array_equal(got, conv2d_ref(xd, wd, stride=1, pad=0))

    @pytest.mark.parametrize(
        "c_in,k",
        [(28, 3), (29, 3), (255, 1), (256, 1), (7281, 3), (7282, 3)],
    )
    def test_full_agreement_and_disagreement(self, c_in, k):
        # k*k*c_in mismatches on either side of the uint8 (255) and uint16
        # (65535) accumulator limits.
        x = pack(np.ones((1, c_in, k, k + 1), dtype=np.float32))
        for sign_w in (1.0, -1.0):
            w = pack(np.full((2, c_in, k, k), sign_w, dtype=np.float32))
            got = bit_conv2d(x, w, scale=1.0, stride=1, pad=0)
            np.testing.assert_array_equal(got, np.full((1, 2, 1, 2), sign_w * k * k * c_in))

    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    def test_row_blocks_match_one_block(self, monkeypatch, k, stride, pad):
        rng = np.random.default_rng(14)
        xd = random_pm1(rng, (2, 28, 13, 11))
        wd = random_pm1(rng, (5, 28, k, k))
        want = bit_conv2d(pack(xd), pack(wd), stride=stride, pad=pad)
        monkeypatch.setattr(bitpack, "_BLOCK_OUTPUTS", 7)  # one output row per block
        got = bit_conv2d(pack(xd), pack(wd), stride=stride, pad=pad)
        np.testing.assert_array_equal(got, want)
        want_ref = conv2d_ref(xd, wd, stride=stride, pad=pad, pad_value=-1.0)
        np.testing.assert_array_equal(got, want_ref)

    @pytest.mark.parametrize("c_in", [28, 36])
    def test_tail_bits_are_dont_care(self, c_in):
        rng = np.random.default_rng(15)
        xd = random_pm1(rng, (2, c_in, 6, 7))
        wd = random_pm1(rng, (3, c_in, 3, 3))
        x, w = pack(xd), pack(wd)
        tail = ~bitpack._tail_mask(c_in)

        def noisy(bt):
            noise = rng.integers(0, 2**63, bt.words.shape, dtype=np.uint64) & tail
            return BitTensor(bt.shape, bt.words | noise)

        noisy_x, noisy_w = noisy(x), noisy(w)
        assert (noisy_x.words != x.words).any() and (noisy_w.words != w.words).any()
        np.testing.assert_array_equal(bit_conv2d(noisy_x, noisy_w), bit_conv2d(x, w))

    @pytest.mark.parametrize("out_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_result_is_channel_last_memory(self, out_dtype, scale):
        rng = np.random.default_rng(16)
        xd = random_pm1(rng, (2, 28, 6, 7))
        wd = random_pm1(rng, (5, 28, 3, 3))
        got = bit_conv2d(pack(xd), pack(wd), scale=scale, out_dtype=out_dtype)
        channel_last = np.empty((2, 6, 7, 5), dtype=out_dtype).transpose(0, 3, 1, 2)
        assert got.dtype == out_dtype
        assert got.shape == channel_last.shape and got.strides == channel_last.strides
        want = conv2d_ref(xd, wd, stride=1, pad=1, pad_value=-1.0).astype(out_dtype)
        np.testing.assert_array_equal(got, np.asarray(scale, out_dtype) * want)


class TestPlaneBlocks:
    """A row block's patch is one contiguous plane per patch word, holding
    n*rows*wo pixels; a partial last block uses the first n*m*wo words of
    each buffer row, so its planes stay contiguous across images."""

    @pytest.mark.parametrize("n,c_in,c_out,k,stride,pad,h,w,rows", [
        (3, 28, 5, 3, 1, 1, 13, 11, 2),     # 3 images, last block of 1 row
        (3, 70, 5, 3, 1, 1, 13, 11, 4),     # 2 channel words per tap
        (2, 28, 64, 3, 1, 1, 9, 10, None),  # c_out = 64, one block
        (2, 65, 70, 3, 1, 1, 9, 10, 2),     # c_out = 70, last block of 1 row
        (3, 29, 6, 4, 2, 1, 14, 15, 2),     # stride-2 4x4, ho = 7
        (1, 28, 67, 4, 2, 1, 16, 16, 3),    # stride-2 4x4, c_out = 67, ho = 8
    ])
    def test_matches_reference(self, monkeypatch, n, c_in, c_out, k, stride, pad, h, w, rows):
        rng = np.random.default_rng(c_in * c_out + n)
        xd = random_pm1(rng, (n, c_in, h, w))
        wd = random_pm1(rng, (c_out, c_in, k, k))
        if rows is not None:
            wo = (w + 2 * pad - k) // stride + 1
            monkeypatch.setattr(bitpack, "_BLOCK_OUTPUTS", rows * n * wo)
        got = bit_conv2d(pack(xd), pack(wd), stride=stride, pad=pad, out_dtype=np.int16)
        want = conv2d_ref(xd, wd, stride=stride, pad=pad, pad_value=-1.0)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape,c_out", [((1, 28, 256, 256), 28), ((1, 112, 64, 64), 112)])
    def test_transient_memory_does_not_grow_with_the_image(self, shape, c_out):
        # Planes of 4096 pixels keep the XORs, counts and sums at about
        # 1.3 MiB for c_out = 28 and 5.4 MiB for c_out = 112; one block
        # spanning a 256x256 image would hold about 19 MiB.
        rng = np.random.default_rng(17)
        x = sign_pack(rng.standard_normal(shape).astype(np.float32))
        w = sign_pack(rng.standard_normal((c_out, shape[1], 3, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            y = bit_conv2d(x, w, out_dtype=np.int16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = (shape[2] + 2) * (shape[3] + 2) * x.words.shape[-1] * x.words.itemsize
        assert peak - y.nbytes < padded + 8 * 2**20


class TestIntegerOutput:
    """An integer out_dtype returns the raw sums exactly or not at all."""

    def operands(self, c_in, k=3):
        rng = np.random.default_rng(c_in)
        return (pack(random_pm1(rng, (2, c_in, 5, 6))),
                pack(random_pm1(rng, (3, c_in, k, k))))

    @pytest.mark.parametrize("out_dtype", [np.int16, np.int32, np.int64])
    def test_signed_types_are_exact(self, out_dtype):
        x, w = self.operands(28)
        got = bit_conv2d(x, w, out_dtype=out_dtype)
        assert got.dtype == out_dtype
        np.testing.assert_array_equal(got, bit_conv2d(x, w, out_dtype=np.float64))

    @pytest.mark.parametrize("scale", [0.5, 2.7, 2.0])
    def test_scale_other_than_one_rejected(self, scale):
        x, w = self.operands(28)
        with pytest.raises(ArgumentError):
            bit_conv2d(x, w, scale=scale, out_dtype=np.int16)

    @pytest.mark.parametrize("out_dtype", [np.uint8, np.uint16, np.uint64, np.bool_])
    def test_unsigned_and_bool_rejected(self, out_dtype):
        x, w = self.operands(8)
        with pytest.raises(ArgumentError):
            bit_conv2d(x, w, out_dtype=out_dtype)

    def test_too_narrow_type_rejected(self):
        x, w = self.operands(14)  # 126 bits fit int8
        np.testing.assert_array_equal(bit_conv2d(x, w, out_dtype=np.int8),
                                      bit_conv2d(x, w, out_dtype=np.float32))
        x, w = self.operands(15)  # 135 bits do not
        with pytest.raises(ArgumentError):
            bit_conv2d(x, w, out_dtype=np.int8)

    @pytest.mark.parametrize("c_in,ok", [(3640, True), (3641, False)])
    def test_int16_limit(self, c_in, ok):
        # 3 * 3 * 3640 = 32760 bits fit int16, 32769 do not; _binconv
        # switches to int32 at the same limit.
        x = pack(np.ones((1, c_in, 3, 3), dtype=np.float32))
        for sign_w in (1.0, -1.0):
            w = pack(np.full((1, c_in, 3, 3), sign_w, dtype=np.float32))
            if not ok:
                with pytest.raises(ArgumentError):
                    bit_conv2d(x, w, pad=0, out_dtype=np.int16)
                continue
            got = bit_conv2d(x, w, pad=0, out_dtype=np.int16)
            np.testing.assert_array_equal(got, np.full((1, 1, 1, 1), sign_w * 9 * c_in))
