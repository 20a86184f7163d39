"""Network layers with explicit forward/backward passes.

Every layer follows the same small protocol:

    params()            ordered list of Param objects
    forward(x, surrogate=False)
    backward(grad_out)  -> grad wrt the forward input; accumulates into
                           each Param.grad
    param_count()
    count_macs(h, w)    -> (conv multiply-accumulates, h_out, w_out)

``surrogate=True`` replaces every sign() by its smooth straight-through
surrogate, making the forward genuinely differentiable so that the analytic
backward can be validated against finite differences. In normal
(binarized) mode the same backward formulas act as the straight-through
approximation.

A layer owns its cache between a forward and the matching backward; the
single-writer contract is: never interleave two forwards of one layer
instance before calling backward.

Every layer derives from :class:`Layer`. A composite lists its sub-layers
in ``layers``, in parameter order, and the base derives ``params``,
``param_count`` and ``count_macs`` from them, running them in sequence so
that each one's output size is the next one's input size. A leaf
overrides ``params`` and ``count_macs``. A layer that keeps a cache sets
``_cache`` in forward and takes it back with ``_pop_cache()`` in
backward, which raises StateError when no forward came first; a composite
without a cache of its own gets the same check from its sub-layers.

A cache holds only what the backward cannot cheaply recompute, each at
its exact width:

- every convolution caches its input and never im2col columns, which are
  k*k times the input's size for a stride-1 k x k kernel; it takes its
  gradients from ``conv2d_vjp``, which rebuilds the columns from that
  input;
- :class:`BiSRConv` caches its input ``x`` plus the raw popcount sums,
  which are integers with ``|raw| <= k*k*c_in`` and so sit exactly in
  2-byte int16 (int32 beyond 32767). The redistributed input ``xr`` is
  recomputed from ``x`` in the backward by ``BiSRConv._redistribute``,
  whose per-element arithmetic the forward repeats block by block;
- :class:`ConvBlock` caches the leaky activation, the very array that
  ``conv2`` caches as its input, so the two share it.

Inference needs no separate mode.

:class:`BiSRConv` runs its elementwise forward in row blocks of about
2^16 elements, in buffers reused from block to block, so that no
full-size temporary exists besides the output and the cached sums. One
pass per block redistributes, signs and packs the input; after the
kernel, one pass per block computes ``x + rprelu(scale * raw)`` straight
into the output. Blocks are whole rows of channel-last memory, and the
per-channel parameters are tiled w times, so each ufunc runs rows w*c
long, not c. The output is channel-last when it holds at least 256 KiB
or when x is channel-last, and takes x's memory order otherwise.

Three building blocks make up the paper's modules:

- :class:`VanillaBinConv` is the 1-bit convolution: sign, mean-|w| weight
  scale, the XNOR/popcount kernel, and its backward. :class:`BiSRConv`
  extends it with redistribution, RPReLU and the residual; the
  ``Normal*`` baselines are configurations of it.
- :class:`TwoBranch` holds two parallel BiSRConv branches, ``branch_a``
  and ``branch_b``. :class:`BinFusionUp` concatenates them and
  :class:`BinFusionDown` averages them.
- :class:`Pool2` and :class:`Up2` are parameter-free 2x resamplers. Each
  downsample and upsample module is a :class:`Chain` of one of them and
  the layer that follows it.

BiSRConv, Conv2dFP, ConvBlock, BinDownsample, BinFusionDown, BinUpsample
and FPUp bind ``forward`` and ``backward`` in their own class body, even
where the body only names Chain's. The benchmark's per-layer trace
(``perfbench/tracer.py``) wraps the methods that each class defines
itself, so a class that only inherited them would vanish from its
per-layer times.
"""

import numpy as np

from . import bitpack
from .binarize import binarize_weights, sign, ste_grad, ste_value
from .errors import DimensionError, StateError
from .tensor import (
    avg_pool2x2,
    avg_pool2x2_backward,
    bilinear_up2,
    bilinear_up2_backward,
    concat_channels,
    conv2d_forward,
    conv2d_vjp,
    split_channels,
)

LEAKY_SLOPE = 0.2
ALPHA_FLOOR = 1e-3


class Param:
    """A learnable array plus its gradient accumulator."""

    __slots__ = ("name", "value", "grad", "min_value")

    def __init__(self, name, value, min_value=None):
        self.name = name
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)
        self.min_value = min_value

    def zero_grad(self):
        self.grad[...] = 0

    def __repr__(self):
        return f"Param({self.name}, shape={self.value.shape})"


def uniform_fan_in(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _rprelu_params(beta, gamma, zeta, dt, shape):
    """RPReLU's per-channel operands in dtype ``dt``, each reshaped to
    ``shape``: the bits of beta and of 1 - beta, as unsigned integers of
    dt's width, then gamma and zeta."""
    uint = np.dtype(f"u{dt.itemsize}")
    b, g, z = (np.asarray(p, dt).reshape(shape) for p in (beta, gamma, zeta))
    b_bits = b.view(uint)
    return b_bits, np.ones((), dt).view(uint) - b_bits, g, z


def _rprelu_into(y, out, factor, b_bits, one_minus_b_bits, g, z):
    """Write rprelu(y) into ``out``, which may be ``y`` itself; ``factor``
    is unsigned scratch of out's shape and width.

    The slope is 1 where y > g and beta elsewhere. Its bits come from
    integer arithmetic on the 0/1 mask: np.where branches per element and
    runs several times slower on a mixed mask. Multiplying by exactly 1 or
    beta rounds as the two branches do.
    """
    np.greater(y, g, out=factor)
    np.subtract(y, g, out=out)
    factor *= one_minus_b_bits
    factor += b_bits
    out *= factor.view(out.dtype)
    out += z
    return out


def rprelu(y, beta, gamma, zeta):
    """Per-channel shifted parametric rectifier.

    Channel i: y > gamma_i -> y - gamma_i + zeta_i, else
    beta_i * (y - gamma_i) + zeta_i. Continuous at y = gamma_i. The result
    takes ``y``'s memory order.
    """
    y = np.asarray(y)
    c = y.shape[1]
    if not (len(beta) == len(gamma) == len(zeta) == c):
        raise DimensionError(
            f"rprelu parameter length must equal channel count {c}"
        )
    dt = np.result_type(y, beta, gamma, zeta)
    prm = _rprelu_params(beta, gamma, zeta, dt, (1, c, 1, 1))
    out = np.empty_like(y, dtype=dt)
    return _rprelu_into(y, out, np.empty_like(out, dtype=prm[0].dtype), *prm)


# Elements per block of BiSRConv's elementwise passes. A float32 buffer of
# 2^16 elements holds 256 KiB, so the few buffers of a block stay in L2. On
# one (1, 28, 256, 256) call, 2^15-2^17 ran fastest; at 2^13 the per-call
# overhead of the dozen ufunc calls per block took over (one thread of a
# 2-core Xeon with 2 MiB of L2 per core, numpy 2.4).
_BLOCK_ELEMS = 1 << 16
# A BiSRConv output of at least this many bytes is channel-last.
_CHANNEL_LAST_BYTES = 1 << 18


def _block_rows(n, h, row_elems):
    """Rows per block: as many rows of ``row_elems`` elements as fit in
    _BLOCK_ELEMS, at least one and at most n*h."""
    return min(n * h, max(1, _BLOCK_ELEMS // row_elems))


def _blocks(n, h, rows):
    """(images, rows) index pairs that cover an (n, h) grid of rows in
    blocks of at most ``rows`` rows: groups of whole images where an image
    fits in a block, else runs of rows of one image. Every block is then a
    plain slice of an (n, h, w, c) view, and every buffer row block
    ``buf[:k*m]`` of a (rows, w, ...) buffer reshapes to it."""
    if rows >= h:
        for i in range(0, n, rows // h):
            yield slice(i, i + rows // h), slice(None)
    else:
        for i in range(n):
            for r in range(0, h, rows):
                yield slice(i, i + 1), slice(r, r + rows)


def _block_of(buf, like):
    """The first rows of a (rows, w, ...) buffer, shaped as the (k, m, w,
    ...) block ``like``."""
    k, m = like.shape[:2]
    return buf[: k * m].reshape((k, m) + buf.shape[1:])


def _tile_w(p, w):
    """A per-channel vector as a (w, c) block. Against a channel-last
    (..., w, c) block the inner loop then runs w*c long, not c."""
    out = np.empty((w, len(p)), p.dtype)
    out[...] = p
    return out


class Layer:
    """Base of every layer: parameters and MAC counts gathered from the
    sub-layers in ``layers``, and the backward-before-forward guard."""

    name = "layer"
    layers = ()
    _cache = None

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def param_count(self):
        return sum(p.value.size for p in self.params())

    def count_macs(self, h, w):
        total = 0
        for layer in self.layers:
            m, h, w = layer.count_macs(h, w)
            total += m
        return total, h, w

    def _pop_cache(self):
        if self._cache is None:
            raise StateError(f"{self.name}: backward() before forward()")
        cache, self._cache = self._cache, None
        return cache


class _Conv(Layer):
    """Weight and geometry shared by the convolution layers."""

    def __init__(self, c_in, c_out, k, stride, pad, rng, dtype, name):
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.pad = stride, pad
        self.name = name
        self.weight = Param(
            f"{name}.weight", uniform_fan_in(rng, (c_out, c_in, k, k), c_in * k * k, dtype)
        )

    def params(self):
        return [self.weight]

    def count_macs(self, h, w):
        ho = (h + 2 * self.pad - self.k) // self.stride + 1
        wo = (w + 2 * self.pad - self.k) // self.stride + 1
        return self.c_in * self.c_out * self.k * self.k * ho * wo, ho, wo


class VanillaBinConv(_Conv):
    """Plain 1-bit convolution: sign the input, binarize the weights with a
    mean-|w| scale, convolve. No redistribution, no RPReLU, no residual, so
    zero weights really do annihilate the signal. Used by the
    "normal"-module ablation baseline.

    ``_binconv`` and ``_binconv_backward`` are the binarized convolution
    and its straight-through backward, which BiSRConv shares.
    """

    alpha = None  # the tanh sharpness; only BiSRConv learns one

    def __init__(self, c_in, c_out, k, stride, pad, rng, dtype=np.float32,
                 ste="tanh", name="binconv"):
        super().__init__(c_in, c_out, k, stride, pad, rng, dtype, name)
        self.ste = ste

    def _operands(self, x, w_sign, surrogate, alpha):
        """The dense conv operands: (sign(x), sign(w)), or their surrogates."""
        if not surrogate:
            return sign(x), w_sign
        w = self.weight.value
        return ste_value(x, self.ste, alpha).astype(x.dtype), ste_value(w, "clip").astype(w.dtype)

    def _binconv(self, x, surrogate, bits=None):
        """Returns the cache (x, surrogate, w_sign, scale, raw, alpha), where
        raw = conv(sign(x), sign(w)) unscaled, with both signs replaced by
        their surrogates when ``surrogate``. On the sign path the raw sums
        are integers, kept as int16 where they fit; ``bits``, when given,
        is the packed input the kernel convolves in place of sign_pack(x)."""
        alpha = float(self.alpha.value) if self.alpha is not None else 1.0
        scale, w_sign = binarize_weights(self.weight.value)
        if surrogate:
            xb, wq = self._operands(x, w_sign, True, alpha)
            raw = conv2d_forward(xb, wq, stride=self.stride, pad=self.pad, pad_value=-1.0)
        else:
            # sign(x) goes straight into bits; the backward recomputes it.
            # int16 -> float is exact, so scale * raw and grad * raw keep
            # the bytes a float raw would give.
            n_bits = self.k * self.k * self.c_in
            raw = bitpack.bit_conv2d(
                bitpack.sign_pack(x) if bits is None else bits, bitpack.pack(w_sign),
                scale=1.0, stride=self.stride, pad=self.pad,
                out_dtype=np.int16 if n_bits <= np.iinfo(np.int16).max else np.int32,
            )
        return x, surrogate, w_sign, scale, raw, alpha

    def _binconv_backward(self, cache, grad):
        """Accumulates weight.grad; returns the gradient wrt the signed
        input. The weight path always backpropagates through the clip
        surrogate plus the derivative of the mean-|w| scale."""
        x, surrogate, w_sign, scale, raw, alpha = cache
        xb, wq = self._operands(x, w_sign, surrogate, alpha)
        gscale = float((grad * raw).sum())
        graw = grad * np.asarray(scale, grad.dtype)
        gxb, gwq = conv2d_vjp(xb, wq, graw, stride=self.stride, pad=self.pad, pad_value=-1.0)
        w = self.weight.value
        self.weight.grad += gwq * ste_grad(w, "clip") + (gscale / w.size) * w_sign
        return gxb

    def forward(self, x, surrogate=False):
        self._cache = self._binconv(x, surrogate)
        scale, raw = self._cache[3:5]
        return np.asarray(scale, x.dtype) * raw

    def backward(self, grad_out):
        cache = self._pop_cache()
        x, *_, alpha = cache
        return self._binconv_backward(cache, grad_out) * ste_grad(x, self.ste, alpha)


class BiSRConv(VanillaBinConv):
    """Channel-preserving binarized unit with a spectral-redistribution
    front end and a full-precision residual path.

    Pipeline: per-channel affine (gain, shift) -> sign -> 1-bit 3x3
    convolution scaled by mean|w| -> RPReLU -> add the untouched input.
    The 1-bit convolution runs on the XNOR/popcount kernel; padding is -1.
    The forward fuses the steps before the kernel into one blocked pass
    (:meth:`_sign_pack_redistributed`) and the steps after it into
    another (:meth:`_residual_rprelu`, which also states the output's
    memory order); the surrogate path shares the second.

    ``ste`` picks the backward surrogate for both activations and, when
    "tanh", adds a learnable sharpness alpha. The weight path always
    backpropagates through the clip surrogate so that alpha's gradient is
    exactly sum(g * x_r * (1 - tanh(alpha x_r)^2)).

    The cache is ``(x, surrogate, w_sign, scale, raw, alpha)``: the input
    plus the raw conv sums, which are int16 on the sign path. The
    redistributed input x_r is not kept; the backward recomputes it with
    :meth:`_redistribute`, which the surrogate forward calls and the sign
    forward repeats element for element, and the RPReLU pre-activation as
    scale * raw.
    """

    def __init__(self, channels, rng, dtype=np.float32, ste="tanh",
                 redistribute=True, alpha0=1.0, name="bisr"):
        super().__init__(channels, channels, 3, 1, 1, rng, dtype, ste, name)
        self.channels = channels
        self.redistribute = redistribute
        self.gain = Param(f"{name}.gain", np.ones(channels, dtype)) if redistribute else None
        self.shift = Param(f"{name}.shift", np.zeros(channels, dtype)) if redistribute else None
        self.alpha = (
            Param(f"{name}.alpha", np.asarray(alpha0, dtype), min_value=ALPHA_FLOOR)
            if ste == "tanh"
            else None
        )
        self.beta = Param(f"{name}.beta", np.full(channels, 0.25, dtype))
        self.gamma = Param(f"{name}.gamma", np.zeros(channels, dtype))
        self.zeta = Param(f"{name}.zeta", np.zeros(channels, dtype))

    def params(self):
        ps = [self.weight, self.gain, self.shift, self.alpha, self.beta, self.gamma, self.zeta]
        return [p for p in ps if p is not None]

    def _redistribute(self, x):
        """The per-channel affine x_r = gain * x + shift, or x itself."""
        if not self.redistribute:
            return x
        return self.gain.value[None, :, None, None] * x + self.shift.value[None, :, None, None]

    def _redistributed_dtype(self, x):
        """The dtype of ``self._redistribute(x)``."""
        if not self.redistribute:
            return x.dtype
        return np.result_type(self.gain.value, x, self.shift.value)

    def _sign_pack_redistributed(self, x):
        """bitpack.sign_pack(self._redistribute(x)), one block at a time,
        so that no full-size x_r or bit array exists. Each block computes
        gain * x + shift as :meth:`_redistribute` does, over channel-last
        rows against the parameters tiled w times."""
        n, c, h, w = x.shape
        rows = _block_rows(n, h, w * c)
        xv = x.transpose(0, 2, 3, 1)
        words = np.empty((n, h, w, bitpack.words_per_row(c)), np.uint64)
        bits = np.zeros((rows, w, words.shape[-1] * bitpack.WORD_BITS), bool)
        if self.redistribute:
            gain, shift = (_tile_w(p.value, w) for p in (self.gain, self.shift))
            xr = np.empty((rows, w, c), self._redistributed_dtype(x))
        for blk in _blocks(n, h, rows):
            xb = xv[blk]
            if self.redistribute:
                xb = np.multiply(gain, xb, out=_block_of(xr, xb))
                xb += shift
            words[blk] = bitpack.sign_words(xb, _block_of(bits, xb))
        return bitpack.BitTensor(shape=x.shape, words=words)

    def _residual_rprelu(self, x, scale, raw):
        """x + rprelu(scale * raw), one block at a time, straight into the
        output.

        ``scale`` is a 0-d array in x_r's dtype. ``raw`` is an (n, c, h, w)
        view of channel-last memory, as both convolutions return it. Each
        block runs scale * raw, the RPReLU passes and the residual add over
        channel-last rows w*c long, with the per-channel parameters tiled w
        times, in buffers reused from block to block. Every element sees
        the arithmetic of the unfused expression, in the same dtypes.

        The output is channel-last, like ``raw``, when it holds at least
        256 KiB or when ``x`` is channel-last; otherwise it takes ``x``'s
        memory order. That is the order numpy gives ``x + rprelu(y)``: from
        256 KiB its temporary elision adds x into rprelu's channel-last
        result in place. Later sums round in memory order, so the golden
        digests pin this rule.
        """
        n, c, h, w = x.shape
        params = (self.beta.value, self.gamma.value, self.zeta.value)
        dt = np.result_type(scale, raw, *params)
        out_dtype = np.result_type(x, dt)
        if x.size * out_dtype.itemsize >= _CHANNEL_LAST_BYTES:
            out = np.empty((n, h, w, c), out_dtype).transpose(0, 3, 1, 2)
        else:
            out = np.empty_like(x, dtype=out_dtype)
        rows = _block_rows(n, h, w * c)
        prm = _rprelu_params(*(_tile_w(p, w) for p in params), dt, (w, c))
        y = np.empty((rows, w, c), dt)
        factor = np.empty(y.shape, prm[0].dtype)
        xv, rv, ov = (a.transpose(0, 2, 3, 1) for a in (x, raw, out))
        for blk in _blocks(n, h, rows):
            xb = xv[blk]
            yb = np.multiply(scale, rv[blk], out=_block_of(y, xb))
            _rprelu_into(yb, yb, _block_of(factor, xb), *prm)
            np.add(xb, yb, out=ov[blk])
        return out

    def forward(self, x, surrogate=False):
        if x.shape[1] != self.channels:
            raise DimensionError(
                f"{self.name}: expected {self.channels} channels, got {x.shape[1]}"
            )
        if surrogate:
            cache = self._binconv(self._redistribute(x), True)
        else:
            cache = self._binconv(x, False, self._sign_pack_redistributed(x))
        self._cache = (x, *cache[1:])
        scale = np.asarray(cache[3], self._redistributed_dtype(x))
        return self._residual_rprelu(x, scale, cache[4])

    def backward(self, grad_out):
        x, *conv_cache = self._pop_cache()
        _, _, scale, raw, alpha = conv_cache
        if grad_out.shape != x.shape:
            raise DimensionError(
                f"{self.name}: grad shape {grad_out.shape} != activation {x.shape}"
            )
        # RPReLU backward, its mask recomputed from the pre-activation y.
        y = np.asarray(scale, x.dtype) * raw
        g = self.gamma.value[None, :, None, None]
        mask = y > g
        gy = grad_out * np.where(
            mask, np.asarray(1, grad_out.dtype), self.beta.value[None, :, None, None]
        )
        self.beta.grad += np.where(mask, 0, grad_out * (y - g)).sum(axis=(0, 2, 3))
        self.gamma.grad += (-gy).sum(axis=(0, 2, 3))
        self.zeta.grad += grad_out.sum(axis=(0, 2, 3))

        xr = self._redistribute(x)
        gxb = self._binconv_backward((xr, *conv_cache), gy)
        if self.alpha is not None:
            # ste_grad's tanh derivative alpha * d and alpha's gradient
            # share d = 1 - tanh(alpha x_r)^2.
            t = np.tanh(alpha * xr)
            d = 1.0 - t * t
            gxr = gxb * (alpha * d)
            self.alpha.grad += (gxb * xr * d).sum()
        else:
            gxr = gxb * ste_grad(xr, self.ste, alpha)
        if not self.redistribute:
            return gxr + grad_out
        self.gain.grad += (gxr * x).sum(axis=(0, 2, 3))
        self.shift.grad += gxr.sum(axis=(0, 2, 3))
        return gxr * self.gain.value[None, :, None, None] + grad_out


class Conv2dFP(_Conv):
    """Ordinary full-precision convolution layer with bias."""

    def __init__(self, c_in, c_out, k, stride=1, pad=0, rng=None,
                 dtype=np.float32, name="conv"):
        super().__init__(c_in, c_out, k, stride, pad, rng, dtype, name)
        self.bias = Param(f"{name}.bias", np.zeros(c_out, dtype))

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, surrogate=False):
        y = conv2d_forward(x, self.weight.value, self.bias.value, self.stride, self.pad, 0.0)
        self._cache = x
        return y

    def backward(self, grad_out):
        gx, gw = conv2d_vjp(self._pop_cache(), self.weight.value, grad_out,
                            self.stride, self.pad, 0.0)
        self.weight.grad += gw
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        return gx


class ConvBlock(Layer):
    """Full-precision residual block: x + conv(leaky(conv(x)))."""

    def __init__(self, channels, rng, dtype=np.float32, name="block"):
        self.channels = channels
        self.name = name
        self.conv1 = Conv2dFP(channels, channels, 3, 1, 1, rng, dtype, f"{name}.conv1")
        self.conv2 = Conv2dFP(channels, channels, 3, 1, 1, rng, dtype, f"{name}.conv2")
        self.layers = [self.conv1, self.conv2]

    def forward(self, x, surrogate=False):
        y1 = self.conv1.forward(x)
        slope = np.asarray(LEAKY_SLOPE, x.dtype)
        # conv2 caches a as its input; this cache is the same array. With a
        # positive slope, a > 0 exactly where y1 > 0, NaN and -0 included.
        self._cache = a = np.where(y1 > 0, y1, slope * y1)
        return x + self.conv2.forward(a)

    def backward(self, grad_out):
        a = self._pop_cache()
        ga = self.conv2.backward(grad_out)
        slope = np.asarray(LEAKY_SLOPE, ga.dtype)
        return self.conv1.backward(ga * np.where(a > 0, np.asarray(1, ga.dtype), slope)) + grad_out


class Chain(Layer):
    """Sequential composition of layers sharing the layer protocol."""

    def __init__(self, layers, name="chain"):
        self.layers = list(layers)
        self.name = name

    def forward(self, x, surrogate=False):
        for layer in self.layers:
            x = layer.forward(x, surrogate=surrogate)
        return x

    def backward(self, grad_out):
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


class Pool2(Layer):
    """Parameter-free 2x2 average pooling."""

    def __init__(self, name="pool2"):
        self.name = name

    def count_macs(self, h, w):
        return 0, h // 2, w // 2

    def forward(self, x, surrogate=False):
        self._cache = x.shape
        return avg_pool2x2(x)

    def backward(self, grad_out):
        return avg_pool2x2_backward(grad_out, self._pop_cache())


class Up2(Layer):
    """Parameter-free bilinear 2x upscale."""

    def __init__(self, name="up2"):
        self.name = name

    def count_macs(self, h, w):
        return 0, 2 * h, 2 * w

    def forward(self, x, surrogate=False):
        self._cache = x.shape
        return bilinear_up2(x)

    def backward(self, grad_out):
        return bilinear_up2_backward(grad_out, self._pop_cache())


class TwoBranch(Layer):
    """Two parallel channel-preserving BiSRConv branches of ``width``
    channels, named ``<name>.a`` and ``<name>.b``."""

    def __init__(self, width, rng, dtype, ste, redistribute, name):
        self.name = name
        self.branch_a = BiSRConv(width, rng, dtype, ste, redistribute, name=f"{name}.a")
        self.branch_b = BiSRConv(width, rng, dtype, ste, redistribute, name=f"{name}.b")
        self.layers = [self.branch_a, self.branch_b]


class BinFusionUp(TwoBranch):
    """Channel-doubling fusion: the downsample module without the pooling."""

    def __init__(self, channels, rng, dtype=np.float32, ste="tanh",
                 redistribute=True, name="bifu"):
        super().__init__(channels, rng, dtype, ste, redistribute, name)
        self.channels = channels

    def forward(self, x, surrogate=False):
        a = self.branch_a.forward(x, surrogate=surrogate)
        return concat_channels(a, self.branch_b.forward(x, surrogate=surrogate))

    def backward(self, grad_out):
        ga, gb = split_channels(grad_out, self.channels)
        return self.branch_a.backward(ga) + self.branch_b.backward(gb)


class BinFusionDown(TwoBranch):
    """Channel-halving fusion: split, run a BiSRConv on each half, average.

    Averaging (rather than summing) keeps activation magnitudes stable and
    still leaves each half's identity path unblocked.
    """

    def __init__(self, c_in, rng, dtype=np.float32, ste="tanh",
                 redistribute=True, name="bifd"):
        if c_in % 2:
            raise DimensionError(f"{name}: fusion-down needs even channels, got {c_in}")
        super().__init__(c_in // 2, rng, dtype, ste, redistribute, name)
        self.c_in = c_in
        self.half = c_in // 2

    def forward(self, x, surrogate=False):
        if x.shape[1] != self.c_in:
            raise DimensionError(f"{self.name}: expected {self.c_in} channels, got {x.shape[1]}")
        a, b = split_channels(x, self.half)
        half = np.asarray(0.5, x.dtype)
        return half * (
            self.branch_a.forward(a, surrogate=surrogate)
            + self.branch_b.forward(b, surrogate=surrogate)
        )

    def backward(self, grad_out):
        g = grad_out * np.asarray(0.5, grad_out.dtype)
        return concat_channels(self.branch_a.backward(g), self.branch_b.backward(g))


class BinDownsample(Chain):
    """Binarized downsample: average-pool, then two parallel
    channel-preserving BiSRConv branches concatenated to double the
    channels. Pooling and concatenation are the only reshapers, so each
    branch's identity path carries full-precision signal through.
    """

    def __init__(self, channels, rng, dtype=np.float32, ste="tanh",
                 redistribute=True, name="bids"):
        fusion = BinFusionUp(channels, rng, dtype, ste, redistribute, name)
        super().__init__([Pool2(f"{name}.pool"), fusion], name)
        self.branch_a, self.branch_b = fusion.branch_a, fusion.branch_b

    forward, backward = Chain.forward, Chain.backward


class BinUpsample(Chain):
    """Binarized upsample: bilinear 2x upscale followed by the
    channel-halving fusion."""

    def __init__(self, c_in, rng, dtype=np.float32, ste="tanh",
                 redistribute=True, name="bius"):
        self.fuse = BinFusionDown(c_in, rng, dtype, ste, redistribute, name=f"{name}.fuse")
        super().__init__([Up2(f"{name}.up"), self.fuse], name)

    forward, backward = Chain.forward, Chain.backward


class NormalDown(Chain):
    """Baseline downsample: direct reshape by a strided 1-bit conv4x4."""

    def __init__(self, channels, rng, dtype=np.float32, ste="tanh", name="ndown"):
        self.conv = VanillaBinConv(channels, 2 * channels, 4, 2, 1, rng, dtype, ste, f"{name}.conv")
        super().__init__([self.conv], name)


class NormalUp(Chain):
    """Baseline upsample: bilinear upscale, then a channel-halving 1-bit conv3x3."""

    def __init__(self, c_in, rng, dtype=np.float32, ste="tanh", name="nup"):
        self.conv = VanillaBinConv(c_in, c_in // 2, 3, 1, 1, rng, dtype, ste, f"{name}.conv")
        super().__init__([Up2(f"{name}.up"), self.conv], name)


class NormalFuse(Chain):
    """Baseline fusion: a single 1-bit conv1x1 reshaping the channels."""

    def __init__(self, c_in, c_out, rng, dtype=np.float32, ste="tanh", name="nfuse"):
        self.conv = VanillaBinConv(c_in, c_out, 1, 1, 0, rng, dtype, ste, f"{name}.conv")
        super().__init__([self.conv], name)


class FPUp(Chain):
    """Full-precision upsample: bilinear 2x then a channel-preserving conv3x3
    (channel reduction happens in the following skip-fusion conv1x1)."""

    def __init__(self, channels, rng, dtype=np.float32, name="fpup"):
        self.conv = Conv2dFP(channels, channels, 3, 1, 1, rng, dtype, f"{name}.conv")
        super().__init__([Up2(f"{name}.up"), self.conv], name)

    forward, backward = Chain.forward, Chain.backward
