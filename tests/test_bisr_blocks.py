"""The 1-bit layers' blocked forward against the unfused expression.

BiSRConv's forward redistributes, signs and packs its input, and computes
``x + rprelu(scale * raw)``, one row block (``layers._BLOCK_ELEMS``
elements) at a time; VanillaBinConv signs and packs its input through the
same blocked packer. These tests pin the bytes, dtype and strides against
the plain numpy expression, bound the transient memory, and check that a
NaN still raises from the blocked sign and that float raw sums (fan-in
beyond 32767) keep the int16 path's dtypes and bytes.
"""

import tracemalloc

import numpy as np
import pytest

from bisrnet import layers
from bisrnet.binarize import sign, ste_value
from bisrnet.bitpack import pack
from bisrnet.errors import ArgumentError
from bisrnet.layers import BiSRConv, VanillaBinConv
from bisrnet.tensor import conv2d_ref

from conftest import cached


def unfused(layer, x, surrogate=False):
    """x + where-form rprelu(scale * raw), one numpy expression per step.

    Numpy picks the output's memory order: from 256 KiB its temporary
    elision adds x into the channel-last RPReLU result in place, below that
    the sum takes x's order.
    """
    xr = layer.gain.value[None, :, None, None] * x + layer.shift.value[None, :, None, None]
    w = layer.weight.value
    if surrogate:
        alpha = float(layer.alpha.value)
        xb, wb = ste_value(xr, "tanh", alpha).astype(xr.dtype), ste_value(w, "clip").astype(w.dtype)
    else:
        xb, wb = sign(xr), sign(w)
    scale = np.asarray(np.mean(np.abs(w)), xr.dtype)
    y = scale * conv2d_ref(xb, wb, stride=1, pad=1, pad_value=-1.0)
    b, g, z = (p.value[None, :, None, None] for p in (layer.beta, layer.gamma, layer.zeta))
    return x + (np.where(y > g, y - g, b * (y - g)) + z)


def perturbed_layer(c, dtype, seed):
    rng = np.random.default_rng(seed)
    layer = BiSRConv(c, rng, dtype=dtype)
    for p in layer.params():
        p.value += (rng.standard_normal(p.value.shape) * 0.1).astype(dtype)
    return layer


def make_x(shape, channels_last, dtype, seed):
    rng = np.random.default_rng(seed)
    n, c, h, w = shape
    if channels_last:
        return rng.standard_normal((n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
    return rng.standard_normal(shape).astype(dtype)


CASES = {
    # 256 KiB exactly: the output turns channel-last, as the BinFusionDown
    # branches of a 256x256 reconstruction do.
    "channel_first_256k": ((1, 16, 64, 64), False, np.float32),
    "channel_first_below_256k": ((1, 16, 63, 64), False, np.float32),
    "channel_last_small": ((2, 8, 16, 16), True, np.float32),
    "channel_last_large": ((1, 28, 48, 56), True, np.float32),
    "float64_small": ((2, 8, 20, 24), False, np.float64),
    "float64_large": ((1, 12, 48, 64), True, np.float64),
}


def assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("surrogate", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_forward_matches_unfused(case, surrogate):
    shape, channels_last, dtype = CASES[case]
    layer = perturbed_layer(shape[1], dtype, seed=31)
    x = make_x(shape, channels_last, dtype, seed=32)
    with layers.surrogate(surrogate):
        got = layer.forward(x)
    assert_same(got, unfused(layer, x, surrogate))


# Block budgets for a (3, 4, 17, 3) input, whose rows hold 12 elements per
# image and 36 across the three: a block is a run of rows across all three
# images, 3 rows (3, 3, 3, 3, 3, 2) or 14 rows (14, 3).
BLOCK_SHAPE = (3, 4, 17, 3)


@pytest.mark.parametrize("block_elems,last_block", [(3 * 36, (3, 2)), (14 * 36, (3, 3))])
@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize("surrogate", [False, True])
def test_partial_last_block(monkeypatch, block_elems, last_block, channels_last, surrogate):
    monkeypatch.setattr(layers, "_BLOCK_ELEMS", block_elems)
    n, c, h, w = shape = BLOCK_SHAPE
    rows = layers._block_rows(n, h, w * c)
    assert (n, (h - 1) % rows + 1) == last_block
    layer = perturbed_layer(c, np.float32, seed=41)
    x = make_x(shape, channels_last, np.float32, seed=42)
    with layers.surrogate(surrogate):
        got = layer.forward(x)
    assert_same(got, unfused(layer, x, surrogate))


# (k, stride, pad) of the VanillaBinConvs the normal-module baselines build.
VANILLA_GEOMETRIES = pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (3, 1, 1), (4, 2, 1)])


@pytest.mark.parametrize("block_elems", [3 * 36, 14 * 36])
@pytest.mark.parametrize("channels_last", [False, True])
@VANILLA_GEOMETRIES
def test_vanilla_partial_last_block(monkeypatch, block_elems, channels_last, k, stride, pad):
    monkeypatch.setattr(layers, "_BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(43)
    layer = VanillaBinConv(4, 6, k, stride, pad, rng)
    x = make_x(BLOCK_SHAPE, channels_last, np.float32, seed=44)
    layer.forward(x)
    want = conv2d_ref(sign(x), sign(layer.weight.value), stride=stride, pad=pad, pad_value=-1.0)
    np.testing.assert_array_equal(cached(layer)[4], want)


@pytest.mark.parametrize("channels_last", [False, True])
def test_transient_memory_stays_below_one_input(channels_last):
    # The unblocked forward held x_r, its sign bits, scale * raw, the
    # RPReLU result and its integer factor at once: 21 MiB here against a
    # 7 MiB input.
    layer = perturbed_layer(28, np.float32, seed=51)
    x = make_x((1, 28, 256, 256), channels_last, np.float32, seed=52)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = layer.forward(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    raw = cached(layer)[4]
    assert peak - out.nbytes - raw.nbytes < x.nbytes + 4 * 2**20


@pytest.mark.parametrize("channels_last", [False, True])
def test_nan_in_last_block_raises(channels_last):
    layer = perturbed_layer(28, np.float32, seed=61)
    x = make_x((1, 28, 64, 64), channels_last, np.float32, seed=62)
    rows = layers._block_rows(1, 64, 64 * 28)
    assert rows < 64
    x[0, 27, 63, 63] = np.nan
    with pytest.raises(ArgumentError):
        layer.forward(x)


@pytest.mark.parametrize("channels_last", [False, True])
@VANILLA_GEOMETRIES
def test_vanilla_nan_in_last_block_raises(channels_last, k, stride, pad):
    layer = VanillaBinConv(28, 8, k, stride, pad, np.random.default_rng(63))
    x = make_x((1, 28, 64, 64), channels_last, np.float32, seed=64)
    x[0, 27, 63, 63] = np.nan
    with pytest.raises(ArgumentError):
        layer.forward(x)


def test_nan_from_redistribution_raises():
    # gain 0 times an infinite input: x is NaN-free but x_r is not.
    layer = perturbed_layer(8, np.float32, seed=71)
    layer.gain.value[3] = 0.0
    x = make_x((2, 8, 16, 16), False, np.float32, seed=72)
    x[1, 3, 15, 15] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ArgumentError):
        layer.forward(x)


def test_wide_fan_in_keeps_the_float_dtype():
    # A fan-in of 3641 * 9 = 32769 keeps the raw sums as float32; scale * raw
    # stays float32, as on the int16 path.
    rng = np.random.default_rng(91)
    layer = VanillaBinConv(3641, 2, 3, 1, 1, rng)
    x = rng.standard_normal((1, 3641, 2, 2)).astype(np.float32)
    out = layer.forward(x)
    raw = cached(layer)[4]
    assert raw.dtype == np.float32 and np.abs(raw).max() > 0
    assert out.dtype == np.float32
    scale = np.float32(np.mean(np.abs(layer.weight.value)))
    np.testing.assert_array_equal(out, scale * raw.astype(np.float32))


@pytest.mark.parametrize("make", [
    lambda rng: perturbed_layer(8, np.float32, seed=92),
    lambda rng: VanillaBinConv(8, 6, 3, 1, 1, rng),
], ids=["BiSRConv", "VanillaBinConv"])
def test_float_sums_give_the_int16_bytes(monkeypatch, make):
    # Forcing float sums on a narrow layer: output, input gradient and
    # parameter gradients keep the int16 path's dtypes and bytes.
    x = make_x((2, 8, 16, 16), False, np.float32, seed=93)
    runs = []
    for fan_in in (layers._INT16_FAN_IN, 0):
        monkeypatch.setattr(layers, "_INT16_FAN_IN", fan_in)
        layer = make(np.random.default_rng(94))
        out = layer.forward(x)
        runs.append((cached(layer)[4].dtype, [out, layer.backward(np.ones_like(out))]
                     + [p.grad for p in layer.params()]))
    (dt16, want), (dt_float, got) = runs
    assert (dt16, dt_float) == (np.int16, np.float32)
    for g, w in zip(got, want):
        assert_same(g, w)


@pytest.mark.parametrize("c", [1, 28, 64, 65])
def test_vanilla_sign_pack_sends_signed_zeros_to_bit_zero(c):
    # sign(0.0) = sign(-0.0) = -1, whose bit is 0.
    layer = VanillaBinConv(c, 2, 1, 1, 0, np.random.default_rng(95))
    x = make_x((2, c, 3, 4), False, np.float32, seed=96)
    x[0, 0, 0, :2] = [0.0, -0.0]
    x[1, -1, 2, 2:] = [-0.0, 0.0]
    bt = layer._sign_pack(x)
    assert bt.shape == x.shape
    np.testing.assert_array_equal(bt.words, pack(sign(x)).words)
    zeros = np.array([0.0, -0.0], np.float32).reshape(1, 2, 1, 1)
    assert not VanillaBinConv(2, 1, 1, 1, 0, np.random.default_rng(97))._sign_pack(zeros).words.any()
