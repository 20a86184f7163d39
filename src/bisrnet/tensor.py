"""Dense (n, c, h, w) tensor operations.

All activations and weights in this toolkit are plain numpy arrays in
(batch, channel, height, width) layout. float32 is the working precision;
gradient-check harnesses build everything in float64 instead. Every
function here is pure and deterministic for fixed inputs.

``conv2d_ref`` doubles as the independent oracle for the bit-packed
XNOR/popcount kernel, which is why padding takes an explicit fill value:
binarized feature maps pad with -1, real-valued ones with 0.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, DimensionError


def _require_4d(x, name="input"):
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"{name} must be 4-D (n, c, h, w), got shape {x.shape}")
    return x


def pad_constant(x, pad, value):
    """Pad the two spatial axes of a 4-D array with a constant."""
    if pad == 0:
        return x
    n, c, h, w = x.shape
    out = np.full((n, c, h + 2 * pad, w + 2 * pad), value, dtype=x.dtype)
    out[:, :, pad : pad + h, pad : pad + w] = x
    return out


def _im2col(xp, k, stride):
    """Window a padded 4-D array into (n, L, c*k*k) patch rows.

    Patch elements are ordered (channel, tap row, tap col), matching the
    weight layout w.reshape(c_out, -1).
    """
    n, c, hp, wp = xp.shape
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, ho * wo, c * k * k)
    return np.ascontiguousarray(cols), ho, wo


def conv2d_ref(x, weight, bias=None, stride=1, pad=0, pad_value=0.0):
    """Reference cross-correlation (no kernel flip).

    x: (n, c_in, h, w); weight: (c_out, c_in, k, k); bias: (c_out,) or None.
    Output spatial size is floor((h + 2*pad - k)/stride) + 1. The padding
    border is filled with ``pad_value``.
    """
    y, _ = conv2d_forward(x, weight, bias, stride, pad, pad_value)
    return y


def conv2d_forward(x, weight, bias=None, stride=1, pad=0, pad_value=0.0):
    """Like :func:`conv2d_ref` but also returns a cache for the backward pass."""
    x = _require_4d(x)
    weight = np.asarray(weight)
    if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
        raise DimensionError(f"weight must be (c_out, c_in, k, k), got {weight.shape}")
    if weight.shape[2] not in (1, 3, 4):
        raise DimensionError(f"kernel size {weight.shape[2]} not supported (use 1, 3 or 4)")
    if x.shape[1] != weight.shape[1]:
        raise DimensionError(
            f"input has {x.shape[1]} channels, weight expects {weight.shape[1]}"
        )
    if stride < 1:
        raise ArgumentError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ArgumentError(f"pad must be >= 0, got {pad}")

    c_out, c_in, k, _ = weight.shape
    xp = pad_constant(x, pad, np.asarray(pad_value, dtype=x.dtype))
    cols, ho, wo = _im2col(xp, k, stride)
    wmat = weight.reshape(c_out, -1)
    y = cols @ wmat.T  # (n, L, c_out)
    y = y.transpose(0, 2, 1).reshape(x.shape[0], c_out, ho, wo)
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (c_out,):
            raise DimensionError(f"bias must have shape ({c_out},), got {bias.shape}")
        y = y + bias[None, :, None, None]
    cache = (cols, weight.shape, x.shape, stride, pad, k)
    return y, cache


def conv2d_backward(cache, grad_out, weight):
    """Gradients of ``conv2d_forward`` w.r.t. input, weight and bias.

    ``weight`` must be the forward weight. Returns (grad_x, grad_w, grad_b)
    with grad_b = grad_out summed per output channel (callers without a bias
    simply ignore it). The constant padding receives no gradient.
    """
    cols, wshape, xshape, stride, pad, k = cache
    c_out = wshape[0]
    n, _, ho, wo = grad_out.shape
    go = grad_out.reshape(n, c_out, ho * wo).transpose(0, 2, 1)  # (n, L, c_out)

    grad_w = np.einsum("nlo,nlk->ok", go, cols).reshape(wshape)

    wmat = weight.reshape(c_out, -1)
    grad_cols = go @ wmat  # (n, L, c_in*k*k)
    c_in = wshape[1]
    g = grad_cols.reshape(n, ho, wo, c_in, k, k).transpose(0, 3, 4, 5, 1, 2)

    hp, wp = xshape[2] + 2 * pad, xshape[3] + 2 * pad
    gxp = np.zeros((n, c_in, hp, wp), dtype=grad_out.dtype)
    for dy in range(k):
        for dx in range(k):
            gxp[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride] += g[
                :, :, dy, dx
            ]
    grad_x = gxp[:, :, pad : pad + xshape[2], pad : pad + xshape[3]]
    grad_b = grad_out.sum(axis=(0, 2, 3))
    return grad_x, grad_w, grad_b


def conv2d_vjp(x, weight, grad_out, stride=1, pad=0, pad_value=0.0):
    """One-shot input/weight gradients when no forward cache was kept.

    ``pad_value`` must match the forward pass: the weight gradient sums
    input patches, and constant padding is part of those patches.
    """
    xp = pad_constant(_require_4d(x), pad, np.asarray(pad_value, dtype=x.dtype))
    k = weight.shape[2]
    cols, ho, wo = _im2col(xp, k, stride)
    cache = (cols, weight.shape, x.shape, stride, pad, k)
    gx, gw, _ = conv2d_backward(cache, grad_out, weight=weight)
    return gx, gw


def avg_pool2x2(x):
    """2x2 average pooling; requires even spatial dims."""
    x = _require_4d(x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"avg_pool2x2 needs even h, w; got {h}x{w}")
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def avg_pool2x2_backward(grad_out, in_shape):
    n, c, ho, wo = grad_out.shape
    g = grad_out[:, :, :, None, :, None] * np.asarray(0.25, dtype=grad_out.dtype)
    g = np.broadcast_to(g, (n, c, ho, 2, wo, 2))
    return g.reshape(in_shape)


def _up2_indices(m):
    # Output pixel i samples input at (i + 0.5)/2 - 0.5 (align-corners-false),
    # clamped at the edges.
    s = (np.arange(2 * m) + 0.5) / 2.0 - 0.5
    i0f = np.floor(s)
    t = s - i0f
    i0 = np.clip(i0f.astype(np.int64), 0, m - 1)
    i1 = np.clip(i0f.astype(np.int64) + 1, 0, m - 1)
    return i0, i1, t


def bilinear_up2(x):
    """2x bilinear upsampling, align-corners-false with edge clamping."""
    x = _require_4d(x)
    n, c, h, w = x.shape
    r0, r1, rt = _up2_indices(h)
    c0, c1, ct = _up2_indices(w)
    rt = rt.astype(x.dtype)[None, None, :, None]
    ct = ct.astype(x.dtype)[None, None, None, :]
    rows = x[:, :, r0, :] * (1 - rt) + x[:, :, r1, :] * rt
    out = rows[:, :, :, c0] * (1 - ct) + rows[:, :, :, c1] * ct
    return out


def bilinear_up2_backward(grad_out, in_shape):
    """Adjoint of :func:`bilinear_up2` (scatter the interpolation weights)."""
    n, c, h, w = in_shape
    r0, r1, rt = _up2_indices(h)
    c0, c1, ct = _up2_indices(w)
    rt = rt.astype(grad_out.dtype)[None, None, :, None]
    ct = ct.astype(grad_out.dtype)[None, None, None, :]
    # Undo the column interpolation first, then the rows.
    rows = np.zeros((n, c, 2 * h, w), dtype=grad_out.dtype)
    np.add.at(rows, (slice(None), slice(None), slice(None), c0), grad_out * (1 - ct))
    np.add.at(rows, (slice(None), slice(None), slice(None), c1), grad_out * ct)
    gx = np.zeros(in_shape, dtype=grad_out.dtype)
    rt2 = rt[:, :, :, 0][:, :, :, None]
    np.add.at(gx, (slice(None), slice(None), r0), rows * (1 - rt2))
    np.add.at(gx, (slice(None), slice(None), r1), rows * rt2)
    return gx


def concat_channels(a, b):
    a = _require_4d(a, "a")
    b = _require_4d(b, "b")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise DimensionError(f"cannot concat shapes {a.shape} and {b.shape}")
    return np.concatenate([a, b], axis=1)


def split_channels(x, at):
    x = _require_4d(x)
    if not 0 < at < x.shape[1]:
        raise DimensionError(f"split point {at} outside (0, {x.shape[1]})")
    return x[:, :at].copy(), x[:, at:].copy()
