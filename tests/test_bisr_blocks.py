"""BiSRConv's blocked forward against the unfused expression.

The forward redistributes, signs and packs its input, and computes
``x + rprelu(scale * raw)``, one row block (``layers._BLOCK_ELEMS``
elements) at a time. These tests pin its bytes, dtype and strides against
the plain numpy expression, bound its transient memory, and check that a
NaN still raises from the blocked sign.
"""

import tracemalloc

import numpy as np
import pytest

from bisrnet import layers
from bisrnet.binarize import sign, ste_value
from bisrnet.errors import ArgumentError
from bisrnet.layers import BiSRConv
from bisrnet.tensor import conv2d_ref


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
    assert_same(layer.forward(x, surrogate=surrogate), unfused(layer, x, surrogate))


# Block budgets for a (3, 4, 7, 9) input, whose rows hold 36 elements:
# runs of 3 rows (blocks of 3, 3, 1 rows per image) and pairs of whole
# images (blocks of 2 images, then 1).
@pytest.mark.parametrize("block_elems,last_block", [(3 * 36, (1, 1)), (2 * 7 * 36, (1, 7))])
@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize("surrogate", [False, True])
def test_partial_last_block(monkeypatch, block_elems, last_block, channels_last, surrogate):
    monkeypatch.setattr(layers, "_BLOCK_ELEMS", block_elems)
    n, c, h, w = shape = (3, 4, 7, 9)
    blocks = list(layers._blocks(n, h, layers._block_rows(n, h, w * c)))
    imgs, rows = blocks[-1]
    assert (len(range(n)[imgs]), len(range(h)[rows])) == last_block
    layer = perturbed_layer(c, np.float32, seed=41)
    x = make_x(shape, channels_last, np.float32, seed=42)
    assert_same(layer.forward(x, surrogate=surrogate), unfused(layer, x, surrogate))


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
    raw = layer._cache[4]
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


def test_nan_from_redistribution_raises():
    # gain 0 times an infinite input: x is NaN-free but x_r is not.
    layer = perturbed_layer(8, np.float32, seed=71)
    layer.gain.value[3] = 0.0
    x = make_x((2, 8, 16, 16), False, np.float32, seed=72)
    x[1, 3, 15, 15] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ArgumentError):
        layer.forward(x)
