"""Network layers with explicit forward/backward passes.

Every layer follows the same small protocol:

    params()            ordered list of Param objects: the layer's own, in
                        declaration order, then its sub-layers'
    forward(x)
    backward(grad_out)  -> grad wrt the forward input; accumulates into
                           each Param.grad
    param_count()
    count_macs(h, w)    -> (conv multiply-accumulates, h_out, w_out)

Inside ``with surrogate():`` every forward replaces each sign() by its
smooth straight-through surrogate, making the forward genuinely
differentiable so that the analytic backward can be validated against
finite differences. In normal (binarized) mode the same backward formulas
act as the straight-through approximation. ``VanillaBinConv._binconv``,
which both 1-bit layers run, is the one reader of the switch: it reads it
once per forward and records the choice in its cache, so a backward
follows its own forward's choice whatever the switch reads when the
backward runs. Within the package only ``Network.forward`` sets it, from
its ``surrogate`` keyword.

A layer owns its cache between a forward and the matching backward; the
single-writer contract is: never interleave two forwards of one layer
instance before calling backward.

Every layer derives from :class:`Layer`. A layer declares each Param it
learns once, through ``Layer._param(suffix, value, role)``, which names it
``<layer name>.<suffix>``, records the role that the checkpoint index
writes beside it and appends it to the layer's own parameters; that list
is what training, the Adam state and the checkpoint see. ``_param`` is
the only code that builds a Param and only ``Layer`` defines ``params``
(``tests/test_inference.py`` checks both), so no Param can be left out. A
composite lists its sub-layers in ``layers``, in parameter order, and the
base derives ``params``, ``param_count`` and ``count_macs`` from them,
running them in sequence so that each one's output size is the next
one's input size. A leaf overrides ``count_macs``.

One rule guards every backward. A forward that keeps a cache hands it to
``_save_cache(cache, out)`` once its output ``out`` exists, and the shape
and dtype of ``out`` are kept beside it; a forward that raises saves
nothing. The backward's first statement takes the cache back through
``_pop_cache(grad_out)``, which raises, naming the layer, StateError when
no forward came first, ArgumentError for a ``grad_out`` of another dtype
than the output's and DimensionError for one of another shape, which numpy
would otherwise broadcast. Only then does it clear the cache, so a refused
gradient changes nothing: every cache and Param.grad stays as it was and
the correct gradient can follow. A composite without a cache of its own
gets the same checks from the sub-layer whose output is its own.
:class:`BinFusionUp`, whose branches each see half of the gradient, saves
an empty cache so that the whole gradient is checked first.

``Layer._save_cache`` is the only code that assigns ``_cache``, and every
backward of a class that saves a cache starts with ``_pop_cache``
(``tests/test_inference.py`` checks both in the source). One switch
decides what it stores. By default it keeps the cache. Inside ``with
inference():`` it stores None, so an evaluation forward holds nothing
for a backward that will not come: the caches of a 256x256 forward are
most of its peak memory. The outputs are the same bytes either way. A
stale training cache is cleared too, so a backward after a cache-free
forward raises StateError. ``train.evaluate`` runs its forwards inside
the switch; training and the gradient checks run outside it.

A cache holds only what the backward cannot cheaply recompute, each at
its exact width:

- every convolution caches its input and never im2col columns, which are
  k*k times the input's size for a stride-1 k x k kernel; it takes its
  gradients from ``conv2d_vjp``, which rebuilds the columns from that
  input;
- both 1-bit layers cache their input ``x`` plus the raw popcount sums,
  which are integers with ``|raw| <= k*k*c_in`` and so sit exactly in
  2-byte int16, or in the layer's float type beyond a fan-in of 32767
  (float32 holds them exactly below 2^24). One method,
  ``VanillaBinConv._binconv``, builds that cache for both. The
  redistributed input ``xr`` is recomputed from ``x`` in the backward by
  ``_redistribute``, whose per-element arithmetic the forward repeats
  block by block;
- :class:`ConvBlock` caches the leaky activation, the very array that
  ``conv2`` caches as its input, so the two share it.

The 1-bit layers run their elementwise forward in row blocks of about
2^16 elements, in buffers reused from block to block, so that no
full-size temporary exists besides the output and the cached sums. One
pass per block redistributes (BiSRConv only), signs and packs the input;
after the kernel, BiSRConv's one pass per block computes
``x + rprelu(scale * raw)`` straight into the output. A block is a run of
rows across all n images, the kernel's block scheme too: the slice
``[:, r0:r1]`` of the channel-last (n, h, w, c) view, with the per-channel
parameters tiled w times, so each ufunc runs rows w*c long, not c. Its
buffers are the first r1 - r0 rows, ``[:, :r1 - r0]``, of (n, rows, w, ...)
scratch. BiSRConv's output is channel-last when it holds at least 256 KiB
or when x is channel-last, and takes x's memory order otherwise.

Both passes hand their block body to :func:`split.run_rows`, which runs
contiguous runs of blocks on every CPU in the process's affinity mask,
each run with its own buffers, as the kernel does with its row blocks. A
block writes only its own rows of the packed words or of the output, so
the bytes do not depend on the number of CPUs.

A conv layer computes in its weights' dtype. :class:`Conv2dFP` and both
1-bit layers raise ArgumentError, naming the layer and both dtypes, for an
input of any other dtype, so a float32 network fed float64 inputs stops at
its first layer. Every float array of a conv layer's forward, its output
included, then has that one dtype, and the backward rule keeps the
gradients they return and accumulate in it too. Both 1-bit layers put
their input through :func:`tensor.conv_out_shape` before anything reads
it, so an input of another rank or channel count raises DimensionError on
the sign and surrogate paths alike and leaves no cache.

Three building blocks make up the paper's modules:

- :class:`VanillaBinConv` holds the binarized-conv step of every 1-bit
  module: redistribution where the layer has a gain and shift, sign,
  mean-|w| weight scale, the XNOR/popcount kernel, and one
  straight-through backward. :class:`BiSRConv` adds RPReLU, the residual
  and the gain/shift gradients; the ``Normal*`` baselines are
  configurations of VanillaBinConv.
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

import contextlib
import contextvars

import numpy as np

from . import bitpack, split
from .binarize import binarize_weights, sign, ste_grad, ste_value
from .errors import ArgumentError, DimensionError, StateError
from .tensor import (
    avg_pool2x2,
    avg_pool2x2_backward,
    bilinear_up2,
    bilinear_up2_backward,
    concat_channels,
    conv2d_forward,
    conv2d_vjp,
    conv_out_shape,
    split_channels,
)

LEAKY_SLOPE = 0.2
ALPHA_FLOOR = 1e-3
# Whether a forward keeps its backward cache; :func:`inference` clears it.
_keep_caches = contextvars.ContextVar("keep_caches", default=True)
# Whether the 1-bit forwards run their surrogates; :func:`surrogate` sets it.
_use_surrogate = contextvars.ContextVar("use_surrogate", default=False)


@contextlib.contextmanager
def _switch(var, value):
    """Set ``var`` to ``value`` for the body of the with statement. The
    previous value comes back on exit, also on an exception, so the
    context nests. The setting belongs to the calling thread's context:
    other threads keep theirs."""
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


def inference():
    """Run the forwards inside without backward caches.

    Every layer's cache write stores None instead, so a forward holds
    nothing for a backward that will not come, and a backward afterwards
    raises StateError. It nests and stays in the calling thread.
    """
    return _switch(_keep_caches, False)


def surrogate(enabled=True):
    """Run the forwards inside with every sign() replaced by its smooth
    surrogate, or by sign() again with ``enabled=False``. It nests and
    stays in the calling thread."""
    return _switch(_use_surrogate, enabled)


class Param:
    """A learnable array, its gradient accumulator and the role that the
    checkpoint index records for it."""

    __slots__ = ("name", "value", "grad", "role", "min_value")

    def __init__(self, name, value, role, min_value=None):
        self.name = name
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)
        self.role = role
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
    # np.result_type reads a list as a structured dtype spec.
    beta, gamma, zeta = (np.asarray(p) for p in (beta, gamma, zeta))
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
# The widest fan-in k*k*c_in whose raw sums are kept as int16; wider ones
# are kept in the layer's float type.
_INT16_FAN_IN = np.iinfo(np.int16).max


def _block_rows(n, h, row_elems):
    """Rows per block: as many rows of ``row_elems`` elements in each of n
    images as fit in _BLOCK_ELEMS, at least one and at most h."""
    return min(h, max(1, _BLOCK_ELEMS // (n * row_elems)))


def _tile_w(p, w):
    """A per-channel vector as a (w, c) block. Against a channel-last
    (..., w, c) block the inner loop then runs w*c long, not c."""
    out = np.empty((w, len(p)), p.dtype)
    out[...] = p
    return out


class Layer:
    """Base of every layer: the layer's own parameters, then those of the
    sub-layers in ``layers``; MAC counts gathered from the sub-layers; and
    the backward-before-forward guard."""

    name = "layer"
    layers = ()
    _params = ()
    _cache = None

    def _param(self, suffix, value, role, min_value=None):
        """Declares the Param ``<name>.<suffix>`` with its checkpoint
        ``role``, after the ones declared before it, and returns it."""
        p = Param(f"{self.name}.{suffix}", value, role, min_value)
        self._params += (p,)
        return p

    def params(self):
        return [*self._params, *(p for layer in self.layers for p in layer.params())]

    def param_count(self):
        return sum(p.value.size for p in self.params())

    def count_macs(self, h, w):
        total = 0
        for layer in self.layers:
            m, h, w = layer.count_macs(h, w)
            total += m
        return total, h, w

    def _save_cache(self, cache, out=None):
        """The one writer of ``_cache``: keeps ``cache`` for the backward
        with the shape and dtype of the forward's output ``out``, or None
        inside :func:`inference` or when ``cache`` is None."""
        keep = cache is not None and _keep_caches.get()
        self._cache = (cache, out.shape, out.dtype) if keep else None

    def _pop_cache(self, grad_out):
        """The cache of the last forward, taken once. Raises StateError
        when no forward came first, ArgumentError for a ``grad_out`` of
        another dtype than that forward's output and DimensionError for
        one of another shape, before anything changes."""
        if self._cache is None:
            raise StateError(f"{self.name}: backward() before forward()")
        cache, shape, dtype = self._cache
        if grad_out.dtype != dtype:
            raise ArgumentError(
                f"{self.name}: grad_out dtype {grad_out.dtype} != output dtype {dtype}"
            )
        if grad_out.shape != shape:
            raise DimensionError(f"{self.name}: grad shape {grad_out.shape} != output {shape}")
        self._save_cache(None)
        return cache


class _Conv(Layer):
    """Weight and geometry shared by the convolution layers. The geometry
    goes through :func:`tensor.conv_out_shape` when the layer is built, so
    a conv the kernels would refuse fails here, not in its first forward."""

    def __init__(self, c_in, c_out, k, stride, pad, rng, dtype, name):
        conv_out_shape((1, c_in, k, k), (c_out, c_in, k, k), stride, pad)
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.pad = stride, pad
        self.name = name
        self.weight = self._param(
            "weight", uniform_fan_in(rng, (c_out, c_in, k, k), c_in * k * k, dtype), "conv_weight"
        )

    def _check_dtype(self, x):
        """Raises ArgumentError unless the input ``x`` has the weight's dtype."""
        dt = self.weight.value.dtype
        if x.dtype != dt:
            raise ArgumentError(f"{self.name}: input dtype {x.dtype} != weight dtype {dt}")

    def count_macs(self, h, w):
        _, _, ho, wo = conv_out_shape((1, self.c_in, h, w), self.weight.value.shape,
                                      self.stride, self.pad)
        return self.c_in * self.c_out * self.k * self.k * ho * wo, ho, wo


class VanillaBinConv(_Conv):
    """Plain 1-bit convolution: sign the input, binarize the weights with a
    mean-|w| scale, convolve. No redistribution, no RPReLU, no residual, so
    zero weights really do annihilate the signal. Used by the
    "normal"-module ablation baseline.

    It also holds the binarized-conv step that BiSRConv builds on,
    :meth:`_binconv`, and its straight-through backward,
    :meth:`_binconv_backward`. The cache is ``(x, surrogate, w_sign,
    scale, raw, alpha)``; the backward recomputes x_r from x.
    """

    alpha = None  # the tanh sharpness; only BiSRConv learns one
    gain = shift = None  # the redistribution affine; only BiSRConv has one

    def __init__(self, c_in, c_out, k, stride, pad, rng, dtype=np.float32,
                 ste="tanh", name="binconv"):
        super().__init__(c_in, c_out, k, stride, pad, rng, dtype, name)
        self.ste = ste

    def _redistribute(self, x):
        """The per-channel affine x_r = gain * x + shift, or x itself."""
        if self.gain is None:
            return x
        return self.gain.value[None, :, None, None] * x + self.shift.value[None, :, None, None]

    def _sign_pack(self, x):
        """bitpack.pack(sign(self._redistribute(x))), one block at a time,
        so that no full-size x_r or bit array exists. Each block computes
        gain * x + shift as :meth:`_redistribute` does, over channel-last
        rows against the parameters tiled w times."""
        n, c, h, w = x.shape
        rows = _block_rows(n, h, w * c)
        xv = x.transpose(0, 2, 3, 1)
        words = np.empty((n, h, w, bitpack.words_per_row(c)), np.uint64)
        if self.gain is not None:
            gain, shift = (_tile_w(p.value, w) for p in (self.gain, self.shift))

        def scratch():
            bits = np.zeros((n, rows, w, words.shape[-1] * bitpack.WORD_BITS), bool)
            return bits, None if self.gain is None else np.empty((n, rows, w, c), x.dtype)

        def block(r0, r1, bits, xr):
            xb = xv[:, r0:r1]
            if xr is not None:
                xb = np.multiply(gain, xb, out=xr[:, : r1 - r0])
                xb += shift
            words[:, r0:r1] = bitpack.sign_words(xb, bits[:, : r1 - r0])

        split.run_rows(block, h, rows, scratch)
        return bitpack.BitTensor(shape=x.shape, words=words)

    def _operands(self, xr, w_sign, surrogate, alpha):
        """The dense conv operands: (sign(x_r), sign(w)), or their surrogates."""
        if not surrogate:
            return sign(xr), w_sign
        return ste_value(xr, self.ste, alpha), ste_value(self.weight.value, "clip")

    def _binconv(self, x):
        """Convolves the layer input ``x`` and returns (scale, raw, cache):
        scale = mean|w|, raw = conv(sign(x_r), sign(w))
        unscaled, with both signs replaced by their surrogates inside
        :func:`surrogate`. On the sign path the raw sums are integers, kept
        as int16 where they fit and in x's float dtype beyond, and sign(x_r)
        goes straight into bits. The forward saves the cache with its
        output."""
        self._check_dtype(x)
        conv_out_shape(x.shape, self.weight.value.shape, self.stride, self.pad)
        surrogate = _use_surrogate.get()
        alpha = float(self.alpha.value) if self.alpha is not None else 1.0
        scale, w_sign = binarize_weights(self.weight.value)
        if surrogate:
            xb, wq = self._operands(self._redistribute(x), w_sign, True, alpha)
            raw = conv2d_forward(xb, wq, stride=self.stride, pad=self.pad, pad_value=-1.0)
        else:
            # int16 -> float is exact, so scale * raw and grad * raw keep
            # the bytes a float raw would give.
            n_bits = self.k * self.k * self.c_in
            raw = bitpack.bit_conv2d(
                self._sign_pack(x), bitpack.pack(w_sign), scale=1.0, stride=self.stride,
                pad=self.pad, out_dtype=np.int16 if n_bits <= _INT16_FAN_IN else x.dtype,
            )
        return scale, raw, (x, surrogate, w_sign, scale, raw, alpha)

    def _binconv_backward(self, cache, grad):
        """Takes the gradient wrt scale * raw; accumulates weight.grad, and
        alpha.grad where the layer learns one, and returns the gradient wrt
        x_r. The weight path always backpropagates through the clip
        surrogate plus the derivative of the mean-|w| scale, so alpha's
        gradient is exactly sum(g * x_r * (1 - tanh(alpha x_r)^2))."""
        x, surrogate, w_sign, scale, raw, alpha = cache
        xr = self._redistribute(x)
        xb, wq = self._operands(xr, w_sign, surrogate, alpha)
        gscale = float((grad * raw).sum())
        graw = grad * np.asarray(scale, grad.dtype)
        gxb, gwq = conv2d_vjp(xb, wq, graw, stride=self.stride, pad=self.pad, pad_value=-1.0)
        w = self.weight.value
        self.weight.grad += gwq * ste_grad(w, "clip") + (gscale / w.size) * w_sign
        if self.alpha is None:
            return gxb * ste_grad(xr, self.ste, alpha)
        # ste_grad's tanh derivative alpha * d and alpha's gradient share
        # d = 1 - tanh(alpha x_r)^2.
        t = np.tanh(alpha * xr)
        d = 1.0 - t * t
        self.alpha.grad += (gxb * xr * d).sum()
        return gxb * (alpha * d)

    def forward(self, x):
        scale, raw, cache = self._binconv(x)
        out = np.asarray(scale, x.dtype) * raw
        self._save_cache(cache, out)
        return out

    def backward(self, grad_out):
        return self._binconv_backward(self._pop_cache(grad_out), grad_out)


class BiSRConv(VanillaBinConv):
    """Channel-preserving binarized unit with a spectral-redistribution
    front end and a full-precision residual path.

    Pipeline: per-channel affine (gain, shift) -> sign -> 1-bit 3x3
    convolution scaled by mean|w| -> RPReLU -> add the untouched input.
    The steps up to the convolution are VanillaBinConv's. This class adds
    RPReLU and the residual, fused into one blocked pass
    (:meth:`_residual_rprelu`, which also states the output's memory
    order), and the gain/shift gradients. Like every conv layer it
    computes in its weights' dtype: the forward and the backward form the
    RPReLU pre-activation y = scale * raw in x's dtype, which the input
    check makes the parameters' dtype too.

    ``ste`` picks the backward surrogate for both activations and, when
    "tanh", adds a learnable sharpness alpha that starts at 1.
    """

    def __init__(self, channels, rng, dtype=np.float32, ste="tanh",
                 redistribute=True, name="bisr"):
        super().__init__(channels, channels, 3, 1, 1, rng, dtype, ste, name)
        if redistribute:
            self.gain = self._param("gain", np.ones(channels, dtype), "redistribution_gain")
            self.shift = self._param("shift", np.zeros(channels, dtype), "redistribution_shift")
        if ste == "tanh":
            self.alpha = self._param("alpha", np.asarray(1.0, dtype), "ste_sharpness", ALPHA_FLOOR)
        self.beta = self._param("beta", np.full(channels, 0.25, dtype), "rprelu_slope")
        self.gamma = self._param("gamma", np.zeros(channels, dtype), "rprelu_pivot")
        self.zeta = self._param("zeta", np.zeros(channels, dtype), "rprelu_offset")

    def _residual_rprelu(self, x, scale, raw):
        """x + rprelu(scale * raw), one block at a time, straight into the
        output.

        ``scale`` is a 0-d array in x's dtype. ``raw`` is an (n, c, h, w)
        view of channel-last memory, as both convolutions return it: int16
        sums, or sums in x's float dtype. Each block runs scale * raw, the
        RPReLU passes and the residual add over channel-last rows w*c long,
        with the per-channel parameters tiled w times, in buffers reused
        from block to block. y and the output are in x's dtype, which is
        the layer's, and every element sees the arithmetic of the unfused
        expression.

        The output is channel-last, like ``raw``, when it holds at least
        256 KiB or when ``x`` is channel-last; otherwise it takes ``x``'s
        memory order. That is the order numpy gives ``x + rprelu(y)``: from
        256 KiB its temporary elision adds x into rprelu's channel-last
        result in place. Later sums round in memory order. The stride
        checks of ``tests/test_bisr_blocks.py`` and
        ``test_layers.py::TestBiSRConv::test_output_bytes_and_memory_order_match_reference``
        pin this rule; the golden digests do not, as they hold with an
        output that is always channel-last.
        """
        n, c, h, w = x.shape
        if x.nbytes >= _CHANNEL_LAST_BYTES:
            out = np.empty((n, h, w, c), x.dtype).transpose(0, 3, 1, 2)
        else:
            out = np.empty_like(x)
        rows = _block_rows(n, h, w * c)
        params = (self.beta.value, self.gamma.value, self.zeta.value)
        prm = _rprelu_params(*(_tile_w(p, w) for p in params), x.dtype, (w, c))
        xv, rv, ov = (a.transpose(0, 2, 3, 1) for a in (x, raw, out))

        def scratch():
            return np.empty((n, rows, w, c), x.dtype), np.empty((n, rows, w, c), prm[0].dtype)

        def block(r0, r1, y, factor):
            yb = np.multiply(scale, rv[:, r0:r1], out=y[:, : r1 - r0])
            _rprelu_into(yb, yb, factor[:, : r1 - r0], *prm)
            np.add(xv[:, r0:r1], yb, out=ov[:, r0:r1])

        split.run_rows(block, h, rows, scratch)
        return out

    def forward(self, x):
        scale, raw, cache = self._binconv(x)
        out = self._residual_rprelu(x, np.asarray(scale, x.dtype), raw)
        self._save_cache(cache, out)
        return out

    def backward(self, grad_out):
        cache = self._pop_cache(grad_out)
        x, _, _, scale, raw, _ = cache
        # RPReLU backward, its mask recomputed from the pre-activation y.
        y = np.asarray(scale, x.dtype) * raw
        g = self.gamma.value[None, :, None, None]
        mask = y > g
        gy = grad_out * np.where(
            mask, np.asarray(1, grad_out.dtype), self.beta.value[None, :, None, None]
        )
        self.beta.grad += np.where(mask, 0, grad_out * (y - g)).sum(axis=(0, 2, 3))
        self.gamma.grad -= gy.sum(axis=(0, 2, 3))
        self.zeta.grad += grad_out.sum(axis=(0, 2, 3))

        gxr = self._binconv_backward(cache, gy)
        if self.gain is None:
            return gxr + grad_out
        self.gain.grad += (gxr * x).sum(axis=(0, 2, 3))
        self.shift.grad += gxr.sum(axis=(0, 2, 3))
        return gxr * self.gain.value[None, :, None, None] + grad_out


class Conv2dFP(_Conv):
    """Ordinary full-precision convolution layer with bias."""

    def __init__(self, c_in, c_out, k, stride, pad, rng, dtype=np.float32, name="conv"):
        super().__init__(c_in, c_out, k, stride, pad, rng, dtype, name)
        self.bias = self._param("bias", np.zeros(c_out, dtype), "conv_bias")

    def forward(self, x):
        self._check_dtype(x)
        y = conv2d_forward(x, self.weight.value, self.bias.value, self.stride, self.pad, 0.0)
        self._save_cache(x, y)
        return y

    def backward(self, grad_out):
        x = self._pop_cache(grad_out)
        gx, gw = conv2d_vjp(x, self.weight.value, grad_out, self.stride, self.pad, 0.0)
        self.weight.grad += gw
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        return gx


class ConvBlock(Layer):
    """Full-precision residual block: x + conv(leaky(conv(x)))."""

    def __init__(self, channels, rng, dtype=np.float32, name="block"):
        self.name = name
        self.conv1 = Conv2dFP(channels, channels, 3, 1, 1, rng, dtype, f"{name}.conv1")
        self.conv2 = Conv2dFP(channels, channels, 3, 1, 1, rng, dtype, f"{name}.conv2")
        self.layers = [self.conv1, self.conv2]

    def forward(self, x):
        y1 = self.conv1.forward(x)
        slope = np.asarray(LEAKY_SLOPE, x.dtype)
        # conv2 caches a as its input; this cache is the same array. With a
        # positive slope, a > 0 exactly where y1 > 0, NaN and -0 included.
        a = np.where(y1 > 0, y1, slope * y1)
        out = x + self.conv2.forward(a)
        self._save_cache(a, out)
        return out

    def backward(self, grad_out):
        a = self._pop_cache(grad_out)
        ga = self.conv2.backward(grad_out)
        slope = np.asarray(LEAKY_SLOPE, ga.dtype)
        return self.conv1.backward(ga * np.where(a > 0, np.asarray(1, ga.dtype), slope)) + grad_out


class Chain(Layer):
    """Sequential composition of layers sharing the layer protocol."""

    def __init__(self, layers, name="chain"):
        self.layers = list(layers)
        self.name = name

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
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
        if h % 2 or w % 2:
            raise DimensionError(f"{self.name}: 2x2 pooling needs even h, w; got {h}x{w}")
        return 0, h // 2, w // 2

    def forward(self, x):
        out = avg_pool2x2(x)
        self._save_cache(x.shape, out)
        return out

    def backward(self, grad_out):
        x_shape = self._pop_cache(grad_out)
        return avg_pool2x2_backward(grad_out, x_shape)


class Up2(Layer):
    """Parameter-free bilinear 2x upscale."""

    def __init__(self, name="up2"):
        self.name = name

    def count_macs(self, h, w):
        return 0, 2 * h, 2 * w

    def forward(self, x):
        out = bilinear_up2(x)
        self._save_cache(x.shape, out)
        return out

    def backward(self, grad_out):
        x_shape = self._pop_cache(grad_out)
        return bilinear_up2_backward(grad_out, x_shape)


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

    def forward(self, x):
        out = concat_channels(self.branch_a.forward(x), self.branch_b.forward(x))
        self._save_cache((), out)
        return out

    def backward(self, grad_out):
        self._pop_cache(grad_out)
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

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise DimensionError(f"{self.name}: expected (n, {self.c_in}, h, w), got {x.shape}")
        a, b = split_channels(x, self.half)
        half = np.asarray(0.5, x.dtype)
        return half * (self.branch_a.forward(a) + self.branch_b.forward(b))

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
