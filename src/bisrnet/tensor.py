"""Dense (n, c, h, w) tensor operations.

All activations and weights in this toolkit are plain numpy arrays in
(batch, channel, height, width) layout. float32 is the working precision;
gradient-check harnesses build everything in float64 instead. Every
function here is pure and deterministic for fixed inputs.

Convolution is im2col plus GEMM, with one column copy loop, ``_copy_taps``,
into a destination whose memory order the caller picks. :func:`conv2d_forward`
copies tap rows, (n, c*k*k, L) memory in which row (c, dy, dx) holds channel
c's strided window for one tap, so every copy moves whole output rows. It
builds them one block of output rows at a time in an L2-sized buffer and
hands each block's transposed (L, c*k*k) view to one GEMM, so no full-size
column matrix exists. Each block writes only its own output rows, so the
blocks run on every CPU the process may use through :func:`split.run_rows`,
each CPU's run of blocks with its own buffer, and the bytes do not depend on
the CPU count. Blocks never drop below a minimum size, because OpenBLAS
rounds small GEMMs differently, and a transposed operand differently again:
a conv too small for such blocks runs one GEMM on C-ordered patch rows,
(n, L, c*k*k) memory, in the calling thread instead. That is every conv of
a training step. A stride-1 1x1 conv copies nothing when it can: its
columns are the input itself, and it runs as one GEMM. The output is
bit-identical to a single GEMM over the whole C-ordered column matrix, down
to the memory order: an (n, c_out, ho, wo) view of (n, ho, wo, c_out)
memory. :func:`conv2d_vjp` takes the forward input back and builds C-ordered
patch rows, so a caller keeps ``x`` for its backward, never the columns. Its
weight-gradient einsum sums in memory order, and over tap rows it would
round differently. Its input gradient goes through tap-row grad-cols, so
each tap's scatter reads whole rows. ``conv2d_ref`` is another name for
``conv2d_forward``, the dense oracle for the bit-packed XNOR/popcount kernel,
which is why padding takes an explicit fill value: binarized feature maps
pad with -1, real-valued ones with 0. It is the same code as the forward;
its independence comes from the tests, which check it against naive
references of their own.

Which convolutions exist is decided in one place, :func:`conv_out_shape`.
``conv2d_forward``, ``conv2d_vjp``, ``bitpack.bit_conv2d`` and the conv
layers (at construction and in ``count_macs``) all apply it, so they accept
the same arguments, refuse the rest with the same error, and agree on the
output size.

The two resamplers keep fixed memory orders too. :func:`avg_pool2x2`
keeps its input's order, and its backward returns C-contiguous memory.
:func:`bilinear_up2` writes a two-tap stencil into strided slices, one
axis at a time, and returns an (n, c, 2h, 2w) view of (n, 2h, 2w, c)
memory, like a conv output, whatever its input's order. Its adjoint
:func:`bilinear_up2_backward` adds each input pixel's terms in the order
``np.add.at`` would and returns C-contiguous memory, the order in which
the per-channel gradient sums after it round.
"""

import numpy as np

from . import split
from .errors import ArgumentError, DimensionError


def _require_4d(x, name="input"):
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"{name} must be 4-D (n, c, h, w), got shape {x.shape}")
    return x


def conv_out_shape(x_shape, w_shape, stride, pad):
    """The (n, c_out, ho, wo) output shape of a conv of an ``x_shape`` input
    with a ``w_shape`` weight, after checking every argument of the conv.

    The input must be 4-D with at least one image, and the weight
    (c_out, c_in, k, k) with k 1, 3 or 4 and the input's channel count:
    DimensionError otherwise. ``stride`` below 1 or ``pad`` below 0 raises
    ArgumentError. A kernel larger than the padded input raises
    DimensionError. Output size per spatial axis is
    floor((size + 2*pad - k)/stride) + 1.
    """
    if len(x_shape) != 4:
        raise DimensionError(f"input must be 4-D (n, c, h, w), got shape {tuple(x_shape)}")
    if len(w_shape) != 4 or w_shape[2] != w_shape[3]:
        raise DimensionError(f"weight must be (c_out, c_in, k, k), got {tuple(w_shape)}")
    n, c_in, h, w = x_shape
    if n < 1:
        raise DimensionError(f"input must hold at least one image, got shape {tuple(x_shape)}")
    c_out, w_c_in, k, _ = w_shape
    if k not in (1, 3, 4):
        raise DimensionError(f"kernel size {k} not supported (use 1, 3 or 4)")
    if c_in != w_c_in:
        raise DimensionError(f"input has {c_in} channels, weight expects {w_c_in}")
    if stride < 1:
        raise ArgumentError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ArgumentError(f"pad must be >= 0, got {pad}")
    ho, wo = ((size + 2 * pad - k) // stride + 1 for size in (h, w))
    if ho < 1 or wo < 1:
        raise DimensionError(
            f"padded input {(h + 2 * pad, w + 2 * pad)} is smaller than the {k}x{k} kernel"
        )
    return n, c_out, ho, wo


def pad_constant(x, pad, value):
    """Pad the two spatial axes of a 4-D array with a constant."""
    if pad == 0:
        return x
    n, c, h, w = x.shape
    out = np.full((n, c, h + 2 * pad, w + 2 * pad), value, dtype=x.dtype)
    out[:, :, pad : pad + h, pad : pad + w] = x
    return out


# Forward column blocks hold about _BLOCK_BYTES, so each block's tap rows
# stay in a core's L2 cache between being built and being multiplied (as
# bitpack's row blocks do).
_BLOCK_BYTES = 1 << 20
# OpenBLAS switches to small-matrix kernels, which round differently, below
# about 1e6 M*N*K, and those also round a transposed operand differently from
# a C-ordered one. A block that is not the whole conv keeps at least this
# many, so every block rounds like the one GEMM over the whole conv; a conv
# too small for such blocks runs that one GEMM on C-ordered patch rows.
_MIN_BLOCK_MNK = 1 << 23


def _copy_taps(xp, k, stride, r0, r1, taps):
    """Copy the columns of output rows [r0, r1) of a padded 4-D array.

    ``taps`` is an (n, c, k, k, r1 - r0, wo) view whose [:, :, dy, dx] holds
    each channel's strided window for tap (dy, dx); its memory order is the
    caller's. As tap rows, (n, c*k*k, L) memory, every copy moves whole
    output rows. As patch rows, (n, L, c*k*k) memory, the elements of one
    pixel are ordered (channel, tap row, tap col), matching the weight
    layout w.reshape(c_out, -1), but each copy writes with a stride of
    c*k*k elements.
    """
    wo = taps.shape[-1]
    for dy in range(k):
        rows = slice(r0 * stride + dy, (r1 - 1) * stride + dy + 1, stride)
        for dx in range(k):
            taps[:, :, dy, dx] = xp[:, :, rows, dx : dx + (wo - 1) * stride + 1 : stride]


def _patch_rows(xp, k, stride, ho, wo):
    """C-ordered (n, L, c*k*k) patch rows of a whole padded 4-D array whose
    conv output is ho x wo."""
    n, c = xp.shape[:2]
    cols = np.empty((n, ho, wo, c, k, k), xp.dtype)
    _copy_taps(xp, k, stride, 0, ho, cols.transpose(0, 3, 4, 5, 1, 2))
    return cols.reshape(n, ho * wo, c * k * k)


def conv2d_forward(x, weight, bias=None, stride=1, pad=0, pad_value=0.0):
    """Cross-correlation (no kernel flip) by blocked im2col and GEMM.

    x: (n, c_in, h, w); weight: (c_out, c_in, k, k); bias: (c_out,) or None.
    :func:`conv_out_shape` checks the arguments and gives the output
    shape. The padding border is filled with ``pad_value``. Keeps nothing
    for a backward pass: :func:`conv2d_vjp` rebuilds the columns from ``x``.

    The columns are built as tap rows, one block of output rows of one
    image at a time, in a buffer of about ``_BLOCK_BYTES``, and each block
    makes one GEMM into its rows of the output. The n * nb blocks (nb per
    image) run through :func:`split.run_rows` on every CPU the process may
    use, with one tap buffer per CPU. A block never has fewer than
    ``_MIN_BLOCK_MNK`` multiply-adds, so only a conv too small for two
    such blocks per image builds its whole column matrix, as C-ordered
    patch rows and one GEMM call over all images. A stride-1 1x1 conv with
    blocks makes one GEMM straight from the input's memory instead. The
    result is an (n, c_out, ho, wo) view of (n, ho, wo, c_out) memory. Its
    bytes and that memory order are both part of the bit-exact contract:
    later sums and GEMMs round in memory order.
    """
    x = _require_4d(x)
    weight = np.asarray(weight)
    n, c_out, ho, wo = conv_out_shape(x.shape, weight.shape, stride, pad)
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (c_out,):
            raise DimensionError(f"bias must have shape ({c_out},), got {bias.shape}")

    _, c_in, k, _ = weight.shape
    xp = pad_constant(x, pad, np.asarray(pad_value, dtype=x.dtype))
    kk = c_in * k * k
    rows = max(_BLOCK_BYTES // (wo * kk * xp.itemsize), -(-_MIN_BLOCK_MNK // (wo * c_out * kk)))
    nb = ho // rows
    wmat_t = weight.reshape(c_out, -1).T
    y = np.empty((n, ho * wo, c_out), np.result_type(xp, weight))
    if nb < 2:
        np.matmul(_patch_rows(xp, k, stride, ho, wo), wmat_t, out=y)
    elif k == 1 and stride == 1:
        # The tap rows of a 1x1 conv are its input: a view of C-ordered and of
        # channel-last memory alike. Split into row blocks, its 256x256 calls
        # ran no faster on two CPUs and slower on one (2-core x86 host).
        np.matmul(xp.reshape(n, c_in, ho * wo).transpose(0, 2, 1), wmat_t, out=y)
    else:
        def block(b, _, buf):
            # Block b is output rows [ho*j//nb, ho*(j+1)//nb) of image
            # b // nb, j = b % nb: rows..2*rows-1 rows each.
            i, j = divmod(b, nb)
            r0, r1 = ho * j // nb, ho * (j + 1) // nb
            taps = buf[: kk * (r1 - r0) * wo].reshape(1, c_in, k, k, r1 - r0, wo)
            _copy_taps(xp[i : i + 1], k, stride, r0, r1, taps)
            np.matmul(taps.reshape(kk, -1).T, wmat_t, out=y[i, r0 * wo : r1 * wo])

        # Each block writes only its own output rows, so the blocks run split
        # over the CPUs with the bytes of one serial pass.
        taps_size = -(-ho // nb) * wo * kk
        split.run_rows(block, n * nb, 1, lambda: (np.empty(taps_size, xp.dtype),))
    if bias is None:
        return y.transpose(0, 2, 1).reshape(n, c_out, ho, wo)
    # In place where the dtype allows. The view's strides are those of the
    # fresh array a bias add on the (n, c_out, ho, wo) view returns.
    y = np.add(y, bias, out=y if np.result_type(y, bias) == y.dtype else None)
    return y.reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2)


conv2d_ref = conv2d_forward


def conv2d_backward(cols, grad_out, weight, x_shape, stride, pad):
    """Column-space step of :func:`conv2d_vjp`.

    ``cols`` are the (n, L, c_in*k*k) C-ordered patch rows of the padded
    forward input and ``weight`` the forward weight. Returns (grad_x,
    grad_w); the constant padding receives no gradient.

    The grad-cols are tap rows, ``W^T @ go``, rather than the patch rows
    ``go @ W``, so each tap's scatter add reads whole rows. The two GEMMs
    need not sum in the same order. In float32 they gave the same bytes at
    every shape tried, which ``TestConvVjp`` and the golden digests pin for
    the training shapes; nothing guarantees it at other shapes. In float64,
    which only the finite-difference checks use, ``grad_x`` can differ from
    the patch-row form by an ulp (seen at c_in*k*k = 252).
    """
    c_out, c_in, k, _ = weight.shape
    n, _, ho, wo = grad_out.shape
    go = grad_out.reshape(n, c_out, ho * wo)
    grad_w = np.einsum("nol,nlk->ok", go, cols).reshape(weight.shape)

    # Grad-cols as tap rows (n, c_in*k*k, L): each tap's add reads whole rows.
    g = (weight.reshape(c_out, -1).T @ go).reshape(n, c_in, k, k, ho, wo)

    hp, wp = x_shape[2] + 2 * pad, x_shape[3] + 2 * pad
    gxp = np.zeros((n, c_in, hp, wp), dtype=grad_out.dtype)
    for dy in range(k):
        for dx in range(k):
            gxp[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride] += g[
                :, :, dy, dx
            ]
    return gxp[:, :, pad : pad + x_shape[2], pad : pad + x_shape[3]], grad_w


def conv2d_vjp(x, weight, grad_out, stride=1, pad=0, pad_value=0.0):
    """Gradients of :func:`conv2d_forward` w.r.t. x and weight: (grad_x, grad_w).

    Rebuilds the im2col columns from the forward input, so a layer caches
    ``x`` rather than columns k*k times its size (at stride 1).
    ``pad_value`` must match the forward pass: the weight gradient sums
    input patches, and constant padding is part of those patches. The bias
    gradient is ``grad_out.sum(axis=(0, 2, 3))``. ``grad_out`` must have
    the forward output's shape (n, c_out, ho, wo).
    """
    x = _require_4d(x)
    out_shape = conv_out_shape(x.shape, weight.shape, stride, pad)
    if np.shape(grad_out) != out_shape:
        raise DimensionError(
            f"grad_out {np.shape(grad_out)} is not the output {out_shape} of the conv"
        )
    xp = pad_constant(x, pad, np.asarray(pad_value, dtype=x.dtype))
    cols = _patch_rows(xp, weight.shape[2], stride, *out_shape[2:])
    return conv2d_backward(cols, grad_out, weight, x.shape, stride, pad)


def avg_pool2x2(x):
    """2x2 average pooling; requires even spatial dims."""
    x = _require_4d(x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"avg_pool2x2 needs even h, w; got {h}x{w}")
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def avg_pool2x2_backward(grad_out, in_shape):
    """Adjoint of :func:`avg_pool2x2`. ``grad_out`` must be (n, c, h/2,
    w/2) for ``in_shape`` (n, c, h, w); an odd h or w has no such shape."""
    n, c, h, w = in_shape
    if grad_out.shape != (n, c, h / 2, w / 2):
        raise DimensionError(
            f"grad_out {grad_out.shape} is not the 2x2 pool of input {tuple(in_shape)}"
        )
    ho, wo = h // 2, w // 2
    g = grad_out[:, :, :, None, :, None] * np.asarray(0.25, dtype=grad_out.dtype)
    g = np.broadcast_to(g, (n, c, ho, 2, wo, 2))
    return g.reshape(in_shape)


def _up2_along(x, out, axis):
    """Write the 2x bilinear stencil of ``x`` along ``axis`` into ``out``.

    Output 2j is x[j-1]/4 + 3x[j]/4 and output 2j+1 is 3x[j]/4 + x[j+1]/4,
    with x[-1] and x[m] clamped to the edge rows: the products and the one
    add that the align-corners-false gather formula makes per element.
    """
    # swapaxes, not np.moveaxis: each moveaxis call leaves the cyclic GC's
    # allocation count two higher, which moves its next run, and so how long
    # callers' garbage cycles hold their memory, with the number of calls.
    x, out = x.swapaxes(0, axis), out.swapaxes(0, axis)
    q, tq = x * np.asarray(0.25, x.dtype), x * np.asarray(0.75, x.dtype)
    np.add(np.concatenate([q[:1], q[:-1]]), tq, out=out[0::2])
    np.add(tq, np.concatenate([q[1:], q[-1:]]), out=out[1::2])


def bilinear_up2(x):
    """2x bilinear upsampling, align-corners-false with edge clamping.

    Interpolates the rows, then the columns. The result is an
    (n, c, 2h, 2w) view of (n, 2h, 2w, c) memory, as conv outputs are.
    """
    x = _require_4d(x)
    n, c, h, w = x.shape
    rows = np.empty((n, 2 * h, w, c), x.dtype).transpose(0, 3, 1, 2)
    _up2_along(x, rows, 2)
    out = np.empty((n, 2 * h, 2 * w, c), x.dtype).transpose(0, 3, 1, 2)
    _up2_along(rows, out, 3)
    return out


def _up2_adjoint(g, out, axis):
    """Add the adjoint of :func:`_up2_along` of ``g`` into zeroed ``out``.

    Each target adds its terms in the order ``np.add.at`` would scatter
    them through the gather formula's index arrays, so the sums match it
    bit for bit. With ev, od = g[0::2], g[1::2], target k adds ev[0]/4
    (k = 0 only), 3od[k]/4, ev[k+1]/4, od[k-1]/4, 3ev[k]/4, and od[m-1]/4
    (k = m-1 only), each where it exists.
    """
    g, o = g.swapaxes(0, axis), out.swapaxes(0, axis)
    q, tq = np.asarray(0.25, g.dtype), np.asarray(0.75, g.dtype)
    ev, od, m = g[0::2], g[1::2], o.shape[0]
    o[0] += ev[0] * q
    o += od * tq
    o[: m - 1] += ev[1:] * q
    o[1:] += od[: m - 1] * q
    o += ev * tq
    o[m - 1] += od[m - 1] * q


def bilinear_up2_backward(grad_out, in_shape):
    """Adjoint of :func:`bilinear_up2`: columns first, then rows.

    ``grad_out`` must be (n, c, 2h, 2w) for ``in_shape`` (n, c, h, w). The
    result is C-contiguous.
    """
    n, c, h, w = in_shape
    if grad_out.shape != (n, c, 2 * h, 2 * w):
        raise DimensionError(
            f"grad_out {grad_out.shape} is not the 2x upsample of input {tuple(in_shape)}"
        )
    rows = np.zeros((n, c, 2 * h, w), dtype=grad_out.dtype)
    _up2_adjoint(grad_out, rows, 3)
    gx = np.zeros((n, c, h, w), dtype=grad_out.dtype)
    _up2_adjoint(rows, gx, 2)
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
