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

Three building blocks make up the paper's modules:

- :class:`VanillaBinConv` is the 1-bit convolution: sign, mean-|w| weight
  scale, the XNOR/popcount kernel (or the dense path for 1x1 taps), and
  its backward. :class:`BiSRConv` extends it with redistribution, RPReLU
  and the residual; the ``Normal*`` baselines are configurations of it.
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
    conv2d_backward,
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


def rprelu(y, beta, gamma, zeta):
    """Per-channel shifted parametric rectifier.

    Channel i: y > gamma_i -> y - gamma_i + zeta_i, else
    beta_i * (y - gamma_i) + zeta_i. Continuous at y = gamma_i.
    """
    y = np.asarray(y)
    c = y.shape[1]
    if not (len(beta) == len(gamma) == len(zeta) == c):
        raise DimensionError(
            f"rprelu parameter length must equal channel count {c}"
        )
    b = np.asarray(beta)[None, :, None, None]
    g = np.asarray(gamma)[None, :, None, None]
    z = np.asarray(zeta)[None, :, None, None]
    shifted = y - g
    return np.where(y > g, shifted, b * shifted) + z


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

    def _binconv(self, x, surrogate):
        """Returns (scale * conv(sign(x), sign(w)), cache), with both signs
        replaced by their surrogates when ``surrogate``."""
        alpha = float(self.alpha.value) if self.alpha is not None else 1.0
        w = self.weight.value
        scale, w_sign = binarize_weights(w)
        if surrogate:
            xb = ste_value(x, self.ste, alpha).astype(x.dtype)
            wq = ste_value(w, "clip").astype(w.dtype)
        else:
            xb, wq = sign(x), w_sign
        if not surrogate and self.k in (3, 4):
            raw = bitpack.bit_conv2d(
                bitpack.pack(xb), bitpack.pack(wq),
                scale=1.0, stride=self.stride, pad=self.pad, out_dtype=x.dtype,
            )
        else:
            # 1x1 kernels have a single tap per channel; the dense product of
            # {-1,+1} operands is already exact integer arithmetic.
            raw, _ = conv2d_forward(
                xb, wq, stride=self.stride, pad=self.pad, pad_value=-1.0
            )
        return np.asarray(scale, x.dtype) * raw, (x, xb, wq, w_sign, scale, raw, alpha)

    def _binconv_backward(self, cache, grad):
        """Accumulates weight.grad; returns the gradients wrt the signed
        input and wrt x. The weight path always backpropagates through the
        clip surrogate plus the derivative of the mean-|w| scale."""
        x, xb, wq, w_sign, scale, raw, alpha = cache
        gscale = float((grad * raw).sum())
        graw = grad * np.asarray(scale, grad.dtype)
        gxb, gwq = conv2d_vjp(xb, wq, graw, stride=self.stride, pad=self.pad, pad_value=-1.0)
        w = self.weight.value
        self.weight.grad += gwq * ste_grad(w, "clip") + (gscale / w.size) * w_sign
        return gxb, gxb * ste_grad(x, self.ste, alpha)

    def forward(self, x, surrogate=False):
        y, self._cache = self._binconv(x, surrogate)
        return y

    def backward(self, grad_out):
        return self._binconv_backward(self._pop_cache(), grad_out)[1]


class BiSRConv(VanillaBinConv):
    """Channel-preserving binarized unit with a spectral-redistribution
    front end and a full-precision residual path.

    Pipeline: per-channel affine (gain, shift) -> sign -> 1-bit 3x3
    convolution scaled by mean|w| -> RPReLU -> add the untouched input.
    The 1-bit convolution runs on the XNOR/popcount kernel; padding is -1.

    ``ste`` picks the backward surrogate for both activations and, when
    "tanh", adds a learnable sharpness alpha. The weight path always
    backpropagates through the clip surrogate so that alpha's gradient is
    exactly sum(g * x_r * (1 - tanh(alpha x_r)^2)).
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

    def forward(self, x, surrogate=False):
        if x.shape[1] != self.channels:
            raise DimensionError(
                f"{self.name}: expected {self.channels} channels, got {x.shape[1]}"
            )
        xr = x
        if self.redistribute:
            xr = self.gain.value[None, :, None, None] * x + self.shift.value[None, :, None, None]
        y, conv_cache = self._binconv(xr, surrogate)
        self._cache = (x, *conv_cache)
        return x + rprelu(y, self.beta.value, self.gamma.value, self.zeta.value)

    def backward(self, grad_out):
        cache = self._pop_cache()
        x, xr, _, _, _, scale, raw, alpha = cache
        if grad_out.shape != x.shape:
            raise DimensionError(
                f"{self.name}: grad shape {grad_out.shape} != activation {x.shape}"
            )
        # RPReLU backward, its mask recomputed from the pre-activation y.
        y = np.asarray(scale, xr.dtype) * raw
        g = self.gamma.value[None, :, None, None]
        mask = y > g
        gy = grad_out * np.where(
            mask, np.asarray(1, grad_out.dtype), self.beta.value[None, :, None, None]
        )
        self.beta.grad += np.where(mask, 0, grad_out * (y - g)).sum(axis=(0, 2, 3))
        self.gamma.grad += (-gy).sum(axis=(0, 2, 3))
        self.zeta.grad += grad_out.sum(axis=(0, 2, 3))

        gxb, gxr = self._binconv_backward(cache[1:], gy)
        if self.alpha is not None:
            t = np.tanh(alpha * xr)
            self.alpha.grad += (gxb * xr * (1.0 - t * t)).sum()
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
        y, self._cache = conv2d_forward(
            x, self.weight.value, self.bias.value, self.stride, self.pad, 0.0
        )
        return y

    def backward(self, grad_out):
        gx, gw, gb = conv2d_backward(self._pop_cache(), grad_out, weight=self.weight.value)
        self.weight.grad += gw
        self.bias.grad += gb
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
        self._cache = y1 = self.conv1.forward(x)
        slope = np.asarray(LEAKY_SLOPE, x.dtype)
        return x + self.conv2.forward(np.where(y1 > 0, y1, slope * y1))

    def backward(self, grad_out):
        y1 = self._pop_cache()
        ga = self.conv2.backward(grad_out)
        slope = np.asarray(LEAKY_SLOPE, ga.dtype)
        return self.conv1.backward(ga * np.where(y1 > 0, np.asarray(1, ga.dtype), slope)) + grad_out


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
