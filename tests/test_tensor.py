import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.lib.stride_tricks import sliding_window_view

from bisrnet.errors import ArgumentError, DimensionError
from bisrnet.tensor import (
    avg_pool2x2,
    avg_pool2x2_backward,
    bilinear_up2,
    bilinear_up2_backward,
    concat_channels,
    conv2d_forward,
    conv2d_ref,
    conv2d_vjp,
    split_channels,
)


class TestConv2dRef:
    def test_identity_kernel(self):
        x = np.full((1, 1, 3, 3), 2.0, dtype=np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        np.testing.assert_array_equal(conv2d_ref(x, w), x)

    def test_ones_padded_zero(self):
        # 3x3 all-ones input, 3x3 all-ones kernel, zero padding: the centre
        # sees all 9 taps, each corner only the 2x2 block of valid taps.
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        y = conv2d_ref(x, w, pad=1, pad_value=0.0)
        assert y[0, 0, 1, 1] == 9.0
        for r, c in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y[0, 0, r, c] == 4.0

    def test_ones_padded_minus_one(self):
        # With -1 padding each corner additionally sums 5 pad taps of -1.
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        y = conv2d_ref(x, w, pad=1, pad_value=-1.0)
        assert y[0, 0, 1, 1] == 9.0
        for r, c in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y[0, 0, r, c] == -1.0

    def test_bias_and_stride(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 4, 4)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        y = conv2d_ref(x, w, bias=b, stride=2, pad=1)
        assert y.shape == (2, 4, 4, 4)
        # Hand-build one output element.
        xp = np.full((3, 10, 10), 0.0, dtype=np.float32)
        xp[:, 1:9, 1:9] = x[1]
        want = (xp[:, 2:6, 4:8] * w[3]).sum() + b[3]
        np.testing.assert_allclose(y[1, 3, 1, 2], want, rtol=1e-5)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        x1 = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        x2 = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        a, b = np.float32(0.7), np.float32(-1.3)
        lhs = conv2d_ref(a * x1 + b * x2, w, pad=1)
        rhs = a * conv2d_ref(x1, w, pad=1) + b * conv2d_ref(x2, w, pad=1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_errors(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        w = np.ones((1, 3, 3, 3), dtype=np.float32)
        with pytest.raises(DimensionError):
            conv2d_ref(x, w)
        with pytest.raises(ArgumentError):
            conv2d_ref(np.ones((1, 3, 4, 4)), w, stride=0)
        with pytest.raises(DimensionError):
            conv2d_ref(np.ones((3, 4, 4)), w)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        y = conv2d_forward(x, w, b, stride=1, pad=1, pad_value=0.0)
        go = rng.standard_normal(y.shape)
        gx, gw = conv2d_vjp(x, w, go, stride=1, pad=1, pad_value=0.0)

        def loss(xx, ww, bb):
            return float((conv2d_ref(xx, ww, bb, pad=1) * go).sum())

        h = 1e-6
        for arr, grad, name in [(x, gx, "x"), (w, gw, "w")]:
            flat = arr.reshape(-1)
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                up = loss(x, w, b)
                flat[i] = orig - h
                dn = loss(x, w, b)
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                np.testing.assert_allclose(grad.reshape(-1)[i], fd, rtol=1e-5, atol=1e-8)


def sliding_patch_rows(xp, k, stride):
    """(n, L, c*k*k) C-ordered patch rows of a padded input, from one
    sliding_window_view: the columns of the single-GEMM formulation."""
    n, c = xp.shape[:2]
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5).reshape(n, ho * wo, c * k * k))


def pad_with(x, pad, pad_value):
    """x with ``pad`` rows and columns of ``pad_value`` on every side."""
    n, c, h, wd = x.shape
    xp = np.full((n, c, h + 2 * pad, wd + 2 * pad), pad_value, dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    return xp


def one_gemm_conv(x, w, bias, stride, pad, pad_value):
    """The single-GEMM formulation the blocked forward replaced: one
    sliding_window_view column matrix for the whole conv, one matmul."""
    n, _, h, wd = x.shape
    c_out, _, k, _ = w.shape
    ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    cols = sliding_patch_rows(pad_with(x, pad, pad_value), k, stride)
    y = (cols @ w.reshape(c_out, -1).T).transpose(0, 2, 1).reshape(n, c_out, ho, wo)
    return y if bias is None else y + bias[None, :, None, None]


def patch_row_backward(cols, grad_out, weight, x_shape, stride, pad):
    """The column-space backward that tap-row grad-cols replaced: patch-row
    grad-cols go @ W, read by one strided scatter per tap."""
    c_out, c_in, k, _ = weight.shape
    n, _, ho, wo = grad_out.shape
    go = grad_out.reshape(n, c_out, ho * wo).transpose(0, 2, 1)
    grad_w = np.einsum("nlo,nlk->ok", go, cols).reshape(weight.shape)
    grad_cols = go @ weight.reshape(c_out, -1)
    g = grad_cols.reshape(n, ho, wo, c_in, k, k).transpose(0, 3, 4, 5, 1, 2)
    gxp = np.zeros((n, c_in, x_shape[2] + 2 * pad, x_shape[3] + 2 * pad), dtype=grad_out.dtype)
    for dy in range(k):
        for dx in range(k):
            gxp[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride] += g[
                :, :, dy, dx
            ]
    return gxp[:, :, pad : pad + x_shape[2], pad : pad + x_shape[3]], grad_w


def channel_last(x):
    """x's values in (n, h, w, c) memory, viewed as (n, c, h, w)."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def assert_gc_count_flat(call):
    """Every GC-tracked object a call leaves on the books (np.moveaxis
    leaves two) brings the cyclic collector's next run closer, and with it
    the moment callers' garbage cycles are freed: peak memory then depends
    on how many calls came before."""
    call()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for _ in range(100):
            call()
        assert gc.get_count()[0] - before < 100
    finally:
        gc.enable()


# Every conv2d_forward shape one 256x256 reconstruction runs, binarized net
# and base model together: (x shape, weight shape, stride, pad).
RECON_CONVS = [
    ((1, 28, 256, 256), (28, 28, 1, 1), 1, 0),
    ((1, 28, 256, 256), (28, 28, 3, 3), 1, 1),
    ((1, 28, 256, 256), (56, 28, 4, 4), 2, 1),
    ((1, 56, 128, 128), (56, 56, 3, 3), 1, 1),
    ((1, 56, 128, 128), (112, 56, 4, 4), 2, 1),
    ((1, 56, 256, 256), (28, 56, 1, 1), 1, 0),
    ((1, 56, 256, 256), (56, 56, 3, 3), 1, 1),
    ((1, 84, 256, 256), (28, 84, 1, 1), 1, 0),
    ((1, 112, 64, 64), (112, 112, 3, 3), 1, 1),
    ((1, 112, 128, 128), (112, 112, 3, 3), 1, 1),
    ((1, 168, 128, 128), (56, 168, 1, 1), 1, 0),
]

# (x shape, weight shape, stride, pad, pad value, dtype). Block counts are
# for a 1 MiB block and at least 2**23 multiply-adds per block.
ODD_CONVS = [
    # n=2, 16 blocks of 8 rows per image.
    ((2, 28, 128, 128), (56, 28, 3, 3), 1, 1, 0.0, np.float32),
    # n=3, two blocks of 48 and 49 rows per image, -1 padding.
    ((3, 8, 97, 200), (16, 8, 3, 3), 1, 1, -1.0, np.float32),
    # pad 0, 11 blocks of 11 or 12 rows per image.
    ((2, 28, 130, 90), (56, 28, 3, 3), 1, 0, 0.0, np.float32),
    # Odd height at stride 2, 5 blocks of 13 rows per image.
    ((2, 28, 131, 90), (56, 28, 4, 4), 2, 1, 0.0, np.float32),
    # float64; 256 rows do not split evenly: 85 blocks of 3 or 4 rows.
    ((1, 28, 256, 256), (56, 28, 3, 3), 1, 1, 0.0, np.float64),
    # float64 and too small to split: 7-row blocks round differently here.
    ((2, 16, 64, 64), (8, 16, 3, 3), 1, 1, 0.0, np.float64),
    # A 1x1 conv that keeps one GEMM over both images.
    ((2, 8, 32, 32), (8, 8, 1, 1), 1, 0, 0.0, np.float32),
    # Few output channels: 1 MiB would be 2-row blocks of 2.6e5
    # multiply-adds, which round differently; the minimum keeps one block.
    ((1, 112, 64, 64), (2, 112, 3, 3), 1, 1, 0.0, np.float32),
    # The minimum, not 1 MiB, sets the size: 17 blocks of 15 or 16 rows.
    ((1, 64, 256, 256), (4, 64, 3, 3), 1, 1, 0.0, np.float32),
    # One GEMM on C-ordered patch rows: as transposed tap rows, OpenBLAS's
    # small-matrix kernels round this surrogate-path conv differently.
    ((2, 16, 8, 8), (16, 16, 3, 3), 1, 1, -1.0, np.float32),
]


class TestBlockedConvForward:
    """conv2d_forward builds its columns in blocks; its result must keep the
    bytes and the memory order of the single-GEMM form."""

    @staticmethod
    def check(x_shape, w_shape, stride, pad, pad_value, dtype, bias=True, x_channel_last=False):
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
        x = rng.standard_normal(x_shape).astype(dtype)
        if x_channel_last:
            x = channel_last(x)
        w = rng.standard_normal(w_shape).astype(dtype)
        b = rng.standard_normal(w_shape[0]).astype(dtype) if bias else None
        got = conv2d_forward(x, w, b, stride=stride, pad=pad, pad_value=pad_value)
        want = one_gemm_conv(x, w, b, stride, pad, np.asarray(pad_value, dtype))
        assert got.dtype == want.dtype
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad", RECON_CONVS)
    def test_recon_shapes_match_one_gemm(self, x_shape, w_shape, stride, pad):
        self.check(x_shape, w_shape, stride, pad, 0.0, np.float32)

    # The network feeds most of these convs channel-last memory.
    @pytest.mark.parametrize("x_shape,w_shape,stride,pad", RECON_CONVS)
    def test_recon_shapes_match_one_gemm_on_channel_last_input(self, x_shape, w_shape, stride, pad):
        self.check(x_shape, w_shape, stride, pad, 0.0, np.float32, x_channel_last=True)

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,pad_value,dtype", ODD_CONVS)
    def test_odd_shapes_match_one_gemm(self, x_shape, w_shape, stride, pad, pad_value, dtype):
        self.check(x_shape, w_shape, stride, pad, pad_value, dtype, bias=False)

    def test_output_memory_order(self):
        y = conv2d_forward(np.ones((2, 3, 8, 8), np.float32), np.ones((5, 3, 3, 3), np.float32),
                           np.ones(5, np.float32), pad=1)
        assert y.shape == (2, 5, 8, 8)
        assert y.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_peak_memory_stays_near_the_output(self):
        # The full column matrix alone would take 9x the output's bytes.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 56, 256, 256)).astype(np.float32)
        w = rng.standard_normal((56, 56, 3, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            y = conv2d_forward(x, w, pad=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * y.nbytes

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError):
            conv2d_forward(np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3)))

    def test_calls_leave_the_gc_allocation_count_flat(self):
        # One GEMM, blocks, and a 1x1 conv on C-ordered and channel-last x.
        rng = np.random.default_rng(5)
        small = rng.standard_normal((2, 8, 16, 16)).astype(np.float32)
        large = rng.standard_normal((1, 28, 256, 256)).astype(np.float32)
        w3 = rng.standard_normal((28, 28, 3, 3)).astype(np.float32)
        w1 = rng.standard_normal((28, 28, 1, 1)).astype(np.float32)
        b = np.zeros(28, np.float32)
        assert_gc_count_flat(lambda: conv2d_forward(small, w3[:8, :8], b[:8], pad=1))
        assert_gc_count_flat(lambda: conv2d_forward(large[:, :, :64], w3, b, pad=1))
        assert_gc_count_flat(lambda: conv2d_forward(large, w1, b))
        assert_gc_count_flat(lambda: conv2d_forward(channel_last(large), w1, b))


# Every conv2d_vjp shape of one training step at C=8, patch 32, batch 2,
# and three strided 4x4 convs: (x shape, weight shape, stride, pad, pad value).
TRAIN_CONVS = [
    ((2, 8, 32, 32), (8, 8, 3, 3), 1, 1, -1.0),
    ((2, 8, 32, 32), (8, 8, 3, 3), 1, 1, 0.0),
    ((2, 8, 16, 16), (8, 8, 3, 3), 1, 1, -1.0),
    ((2, 16, 16, 16), (16, 16, 3, 3), 1, 1, -1.0),
    ((2, 16, 8, 8), (16, 16, 3, 3), 1, 1, -1.0),
    ((2, 32, 8, 8), (32, 32, 3, 3), 1, 1, -1.0),
    ((2, 8, 32, 32), (8, 8, 1, 1), 1, 0, 0.0),
    ((2, 16, 32, 32), (8, 16, 1, 1), 1, 0, 0.0),
    ((2, 8, 32, 32), (16, 8, 4, 4), 2, 1, 0.0),
    ((2, 16, 16, 16), (32, 16, 4, 4), 2, 1, -1.0),
    ((1, 28, 64, 64), (56, 28, 4, 4), 2, 1, 0.0),
]


class TestConvVjp:
    """conv2d_vjp forms its grad-cols as tap rows; its gradients must keep
    the bytes and memory order of patch-row grad-cols."""

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,pad_value", TRAIN_CONVS)
    @pytest.mark.parametrize("x_order,g_order", [("C", "C"), ("C", "last"), ("last", "C")])
    def test_matches_patch_row_backward(self, x_shape, w_shape, stride, pad, pad_value, x_order, g_order):
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
        x = rng.standard_normal(x_shape).astype(np.float32)
        w = rng.standard_normal(w_shape).astype(np.float32)
        ho = (x_shape[2] + 2 * pad - w_shape[2]) // stride + 1
        wo = (x_shape[3] + 2 * pad - w_shape[2]) // stride + 1
        g = rng.standard_normal((x_shape[0], w_shape[0], ho, wo)).astype(np.float32)
        x = channel_last(x) if x_order == "last" else x
        g = channel_last(g) if g_order == "last" else g
        got = conv2d_vjp(x, w, g, stride=stride, pad=pad, pad_value=pad_value)
        cols = sliding_patch_rows(pad_with(x, pad, np.float32(pad_value)), w_shape[2], stride)
        want = patch_row_backward(cols, g, w, x_shape, stride, pad)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.strides == b.strides
            assert a.tobytes() == b.tobytes()

    def test_float64_matches_patch_row_backward_to_rounding(self):
        # At c_in*k*k = 252 the two grad-col GEMMs sum in different orders:
        # float64 grad_x moves by up to an ulp here, so only closeness holds.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 28, 16, 16))
        w = rng.standard_normal((28, 28, 3, 3))
        g = rng.standard_normal((2, 28, 16, 16))
        got = conv2d_vjp(x, w, g, pad=1)
        want = patch_row_backward(sliding_patch_rows(pad_with(x, 1, 0.0), 3, 1), g, w, x.shape, 1, 1)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float64
            assert a.strides == b.strides
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())

    def test_calls_leave_the_gc_allocation_count_flat(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 8, 32, 32)).astype(np.float32)
        g = rng.standard_normal((2, 8, 32, 32)).astype(np.float32)
        w3 = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
        w1 = rng.standard_normal((8, 8, 1, 1)).astype(np.float32)
        assert_gc_count_flat(lambda: conv2d_vjp(x, w3, g, pad=1, pad_value=-1.0))
        assert_gc_count_flat(lambda: conv2d_vjp(channel_last(x), w1, g))


class TestAvgPool:
    def test_single_block(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
        assert avg_pool2x2(x)[0, 0, 0, 0] == 2.5

    def test_constant(self):
        x = np.full((2, 3, 4, 6), 0.75, dtype=np.float32)
        y = avg_pool2x2(x)
        assert y.shape == (2, 3, 2, 3)
        np.testing.assert_array_equal(y, np.full_like(y, 0.75))

    def test_mixed_signs_cancel(self):
        x = np.array([[-1.0, -1.0], [1.0, 1.0]]).reshape(1, 1, 2, 2)
        assert avg_pool2x2(x)[0, 0, 0, 0] == 0.0

    def test_preserves_global_mean(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 4, 8, 8))
        np.testing.assert_allclose(avg_pool2x2(x).mean(), x.mean(), rtol=0, atol=1e-15)

    def test_odd_dims_rejected(self):
        with pytest.raises(DimensionError):
            avg_pool2x2(np.ones((1, 1, 3, 4)))

    def test_backward_is_adjoint(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 4, 4))
        g = rng.standard_normal((1, 2, 2, 2))
        lhs = (avg_pool2x2(x) * g).sum()
        rhs = (x * avg_pool2x2_backward(g, x.shape)).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def _up2_indices(m):
    """Index arrays of the gather form of the 2x upsample, the oracle of
    its stencil: output pixel i samples input (i + 0.5)/2 - 0.5
    (align-corners-false), clamped at the edges."""
    s = (np.arange(2 * m) + 0.5) / 2.0 - 0.5
    i0f = np.floor(s)
    t = s - i0f
    i0 = np.clip(i0f.astype(np.int64), 0, m - 1)
    i1 = np.clip(i0f.astype(np.int64) + 1, 0, m - 1)
    return i0, i1, t


def _gather_up2(x):
    """The gather form of :func:`bilinear_up2`: rows, then columns."""
    r0, r1, rt = _up2_indices(x.shape[2])
    c0, c1, ct = _up2_indices(x.shape[3])
    rt = rt.astype(x.dtype)[None, None, :, None]
    ct = ct.astype(x.dtype)[None, None, None, :]
    rows = x[:, :, r0, :] * (1 - rt) + x[:, :, r1, :] * rt
    return rows[:, :, :, c0] * (1 - ct) + rows[:, :, :, c1] * ct


def _mixed_values(rng, shape, dtype):
    """Normal values scaled over eight decades, with -0.0 mixed in."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)
    v = v.astype(dtype)
    v[rng.random(shape) < 0.1] = -0.0
    return v


class TestBilinearUp2:
    def test_constant(self):
        x = np.full((1, 2, 3, 3), 1.5, dtype=np.float32)
        y = bilinear_up2(x)
        assert y.shape == (1, 2, 6, 6)
        np.testing.assert_allclose(y, 1.5)

    def test_row_interpolation(self):
        x = np.array([0.0, 1.0], dtype=np.float64).reshape(1, 1, 1, 2)
        y = bilinear_up2(x)
        np.testing.assert_allclose(y[0, 0, 0], [0.0, 0.25, 0.75, 1.0])
        np.testing.assert_allclose(y[0, 0, 1], [0.0, 0.25, 0.75, 1.0])

    def test_single_pixel(self):
        x = np.full((1, 1, 1, 1), -3.25)
        np.testing.assert_array_equal(bilinear_up2(x), np.full((1, 1, 2, 2), -3.25))

    def test_backward_is_adjoint(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 5, 4))
        g = rng.standard_normal((2, 3, 10, 8))
        lhs = (bilinear_up2(x) * g).sum()
        rhs = (x * bilinear_up2_backward(g, x.shape)).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @staticmethod
    def check_matches_gather(x):
        # Compared through C-ordered bytes, so -0.0 against +0.0 counts.
        got, want = bilinear_up2(x), _gather_up2(x)
        assert got.dtype == x.dtype
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        n, c, h, w = got.shape
        assert got.strides == np.empty((n, h, w, c), x.dtype).transpose(0, 3, 1, 2).strides

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        channel_last=st.booleans(),
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_forward_matches_gather_bit_for_bit(self, dtype, channel_last, n, c, h, w, seed):
        x = _mixed_values(np.random.default_rng(seed), (n, c, h, w), dtype)
        if channel_last:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        self.check_matches_gather(x)

    def test_forward_matches_gather_at_decoder_size(self):
        x = _mixed_values(np.random.default_rng(12), (1, 128, 128, 56), np.float32)
        self.check_matches_gather(x.transpose(0, 3, 1, 2))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_backward_matches_add_at_bit_for_bit(self, n, c, h, w, seed):
        # The scatter form this backward replaced: np.add.at adds each
        # target's values in index order, and float32 sums depend on it.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, c, 2 * h, 2 * w)).astype(np.float32)
        g *= 10.0 ** rng.integers(-4, 5, g.shape)
        g[rng.random(g.shape) < 0.1] = -0.0
        r0, r1, rt = _up2_indices(h)
        c0, c1, ct = _up2_indices(w)
        rt = rt.astype(np.float32)[:, None]
        ct = ct.astype(np.float32)
        rows = np.zeros((n, c, 2 * h, w), dtype=np.float32)
        np.add.at(rows, (slice(None), slice(None), slice(None), c0), g * (1 - ct))
        np.add.at(rows, (slice(None), slice(None), slice(None), c1), g * ct)
        want = np.zeros((n, c, h, w), dtype=np.float32)
        np.add.at(want, (slice(None), slice(None), r0), rows * (1 - rt))
        np.add.at(want, (slice(None), slice(None), r1), rows * rt)
        got = bilinear_up2_backward(g, (n, c, h, w))
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("g_shape", [(1, 1, 4, 4), (2, 1, 4, 5), (2, 2, 4, 4)])
    def test_backward_rejects_grad_of_another_shape(self, g_shape):
        # The in-place adds would broadcast a (1, 1, 4, 4) gradient over
        # both images of a (2, 1, 2, 2) input.
        with pytest.raises(DimensionError) as err:
            bilinear_up2_backward(np.ones(g_shape, np.float32), (2, 1, 2, 2))
        assert str(g_shape) in str(err.value) and "(2, 1, 2, 2)" in str(err.value)

    def test_calls_leave_the_gc_allocation_count_flat(self):
        x, g = np.zeros((2, 3, 4, 5), np.float32), np.zeros((2, 3, 8, 10), np.float32)
        assert_gc_count_flat(lambda: bilinear_up2(x))
        assert_gc_count_flat(lambda: bilinear_up2_backward(g, x.shape))


class TestConcatSplit:
    def test_channel_counts(self):
        a = np.zeros((1, 2, 4, 4))
        b = np.zeros((1, 3, 4, 4))
        assert concat_channels(a, b).shape[1] == 5

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 2, 4, 5))
        a2, b2 = split_channels(concat_channels(a, b), 3)
        np.testing.assert_array_equal(a, a2)
        np.testing.assert_array_equal(b, b2)

    def test_prefix_channels_match(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((1, 4, 3, 3))
        b = rng.standard_normal((1, 2, 3, 3))
        cat = concat_channels(a, b)
        for i in range(4):
            np.testing.assert_array_equal(cat[:, i], a[:, i])

    def test_spatial_mismatch(self):
        with pytest.raises(DimensionError):
            concat_channels(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 4)))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 2),
        ca=st.integers(1, 4),
        cb=st.integers(1, 4),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_split_concat_identity(self, n, ca, cb, h, w, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, ca + cb, h, w))
        a, b = split_channels(x, ca)
        np.testing.assert_array_equal(concat_channels(a, b), x)
