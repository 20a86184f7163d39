"""The U-shaped reconstruction network and its Params/OPs accounting.

Layout (channels, with C the base width and 2 downsample stages):

    input concat(H, M) [2*n_wavelengths]
      -> embedding: conv1x1 -> conv block          (C, always full precision)
      -> encoder:   block(C) -> down -> block(2C) -> down
      -> bottleneck: block(4C)
      -> decoder:   up -> skip concat -> fuse -> block(2C)
                    up -> skip concat -> fuse -> block(C)
      -> + shallow feature (global residual)
      -> mapping: conv1x1                          (n_wavelengths, full precision)

The encoder/bottleneck/decoder can each be swapped for binarized
counterparts independently; the embedding and mapping stages always stay
full precision. In the full-precision decoder the upsample keeps its
channel count and the skip-fusion conv1x1 does the reduction (6C->2C,
3C->C); the binarized upsample halves channels itself, so its skip fusion
reduces 4C->2C and 2C->C.

Cost accounting follows the 1-bit convention: one multiply-accumulate is
one OP, binarized parts count params/32 and OPs/64 (rounded to nearest),
and only convolution MACs are counted.
"""

from dataclasses import dataclass, field

import numpy as np

from . import layers
from .errors import ConfigError, DimensionError
from .layers import (
    BinDownsample,
    BinFusionDown,
    BinUpsample,
    BiSRConv,
    Chain,
    Conv2dFP,
    ConvBlock,
    FPUp,
    NormalDown,
    NormalFuse,
    NormalUp,
    VanillaBinConv,
)
from .tensor import concat_channels, split_channels

PARAMS_DIVISOR = 32
OPS_DIVISOR = 64
PART_NAMES = ("embedding", "encoder", "bottleneck", "decoder", "mapping")


def _check_spatial(h, w):
    """The input size rule of both the forward and the accounting: h and w
    are positive multiples of 4, so that both downsamples halve them
    exactly. Raises DimensionError otherwise."""
    if h <= 0 or w <= 0:
        raise DimensionError(f"spatial dims must be positive, got {h}x{w}")
    if h % 4 or w % 4:
        raise DimensionError("spatial dims must be divisible by 4 (two downsamples)")


@dataclass
class NetworkConfig:
    """Build-time switches.

    ste: backward surrogate for the binarized parts; "quad" selects the
    bounded polynomial (the unbounded variant exists in
    :mod:`bisrnet.binarize` for analysis only). module_style "normal"
    swaps in the ablation-baseline modules without identity paths.
    """

    base_channels: int = 28
    n_wavelengths: int = 28
    binarize_encoder: bool = True
    binarize_bottleneck: bool = True
    binarize_decoder: bool = True
    ste: str = "tanh"
    module_style: str = "binarized"
    redistribution: bool = True

    def __post_init__(self):
        if self.base_channels < 4 or self.base_channels % 4:
            raise ConfigError(
                f"base_channels must be a multiple of 4 (two halvings), got {self.base_channels}"
            )
        if self.n_wavelengths < 1:
            raise ConfigError("n_wavelengths must be positive")
        if self.ste not in ("clip", "quad", "tanh"):
            raise ConfigError(f"ste must be clip, quad or tanh, got {self.ste!r}")
        if self.module_style not in ("binarized", "normal"):
            raise ConfigError(f"module_style must be binarized or normal, got {self.module_style!r}")

    @property
    def layer_ste(self):
        # The practical quadratic surrogate is the bounded polynomial.
        return "quad_bounded" if self.ste == "quad" else self.ste

    @classmethod
    def bisrnet(cls, **kw):
        return cls(**kw)

    @classmethod
    def base_model(cls, **kw):
        kw.setdefault("binarize_encoder", False)
        kw.setdefault("binarize_bottleneck", False)
        kw.setdefault("binarize_decoder", False)
        return cls(**kw)

    @property
    def binarize_flags(self):
        return {
            "encoder": self.binarize_encoder,
            "bottleneck": self.binarize_bottleneck,
            "decoder": self.binarize_decoder,
        }


@dataclass
class PartCount:
    name: str
    binarized: bool
    params_f: int
    ops_f: int

    @property
    def params_b(self):
        return int(round(self.params_f / PARAMS_DIVISOR)) if self.binarized else self.params_f

    @property
    def ops_b(self):
        return int(round(self.ops_f / OPS_DIVISOR)) if self.binarized else self.ops_f


@dataclass
class Accounting:
    parts: list = field(default_factory=list)

    @property
    def total_params(self):
        return sum(p.params_b for p in self.parts)

    @property
    def total_ops(self):
        return sum(p.ops_b for p in self.parts)

    @property
    def total_params_f(self):
        return sum(p.params_f for p in self.parts)

    @property
    def total_ops_f(self):
        return sum(p.ops_f for p in self.parts)

    def rows(self):
        out = [(p.name, p.params_f, p.params_b, p.ops_f, p.ops_b) for p in self.parts]
        out.append(("total", self.total_params_f, self.total_params, self.total_ops_f, self.total_ops))
        return out


class Network:
    """Owns the five parts, the skip wiring, and the parameter registry."""

    def __init__(self, cfg, seed=0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        C = cfg.base_channels
        NL = cfg.n_wavelengths
        ste = cfg.layer_ste
        sr = cfg.redistribution
        bisr_style = cfg.module_style == "binarized"

        def block(channels, binarized, name):
            if not binarized:
                return ConvBlock(channels, rng, dtype, name)
            if bisr_style:
                convs = [BiSRConv(channels, rng, dtype, ste, sr, name=f"{name}.conv{i}")
                         for i in (1, 2)]
            else:
                convs = [VanillaBinConv(channels, channels, 3, 1, 1, rng, dtype, ste,
                                        f"{name}.conv{i}") for i in (1, 2)]
            return Chain(convs, name)

        def down(channels, binarized, name):
            if not binarized:
                return Conv2dFP(channels, 2 * channels, 4, 2, 1, rng, dtype, name)
            if bisr_style:
                return BinDownsample(channels, rng, dtype, ste, sr, name)
            return NormalDown(channels, rng, dtype, ste, name)

        def up(c_in, binarized, name):
            if not binarized:
                return FPUp(c_in, rng, dtype, name)
            if bisr_style:
                return BinUpsample(c_in, rng, dtype, ste, sr, name)
            return NormalUp(c_in, rng, dtype, ste, name)

        def fuse(c_skip_in, c_out, binarized, name):
            # c_skip_in: channels after concatenating the upsampled feature
            # with the skip feature.
            if not binarized:
                return Conv2dFP(c_skip_in, c_out, 1, 1, 0, rng, dtype, name)
            if bisr_style:
                return BinFusionDown(c_skip_in, rng, dtype, ste, sr, name)
            return NormalFuse(c_skip_in, c_out, rng, dtype, ste, name)

        be, bb, bd = cfg.binarize_encoder, cfg.binarize_bottleneck, cfg.binarize_decoder
        # The skip width of each U level, outermost first, and the channels
        # its upsample returns: the fp upsample keeps its input's 2c, the
        # binarized one halves it.
        widths = (C, 2 * C)
        up_out = [c if bd else 2 * c for c in widths]

        # The parts in parameter order, which is also the rng's draw order.
        self._parts = {
            "embedding": [Chain([Conv2dFP(2 * NL, C, 1, 1, 0, rng, dtype, "embedding.proj"),
                                 ConvBlock(C, rng, dtype, "embedding.refine")], "embedding")],
            "encoder": [layer for i, c in enumerate(widths, 1)
                        for layer in (block(c, be, f"encoder.block{i}"),
                                      down(c, be, f"encoder.down{i}"))],
            "bottleneck": [block(4 * C, bb, "bottleneck.block")],
            "decoder": [layer for i, c, u in zip((1, 2), widths[::-1], up_out[::-1])
                        for layer in (up(2 * c, bd, f"decoder.up{i}"),
                                      fuse(u + c, c, bd, f"decoder.fuse{i}"),
                                      block(c, bd, f"decoder.block{i}"))],
            "mapping": [Conv2dFP(C, NL, 1, 1, 0, rng, dtype, "mapping.proj")],
        }

        # The U levels, outermost first: encoder block and downsample, then
        # the decoder's upsample, skip fusion and block at the same
        # resolution, and the upsample's output channels.
        enc, dec = self._parts["encoder"], self._parts["decoder"]
        enc_levels = zip(enc[0::2], enc[1::2])
        dec_levels = list(zip(dec[0::3], dec[1::3], dec[2::3]))[::-1]
        self._levels = [(*e, *d, u) for e, d, u in zip(enc_levels, dec_levels, up_out)]

    def part_layers(self, part):
        return self._parts[part]

    def params(self):
        return [p for part in PART_NAMES for layer in self.part_layers(part) for p in layer.params()]

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()

    def forward(self, h_shifted, m_shifted, surrogate=False):
        """The reconstruction from (n, n_wavelengths, h, w) shifted data and
        mask inputs.

        ``surrogate=True`` replaces every sign() of the 1-bit parts by its
        smooth surrogate, so that finite differences can check the
        backward; the default keeps sign(). The keyword decides for this
        forward alone, also inside an enclosing ``layers.surrogate()``,
        whose setting comes back afterwards.
        """
        h_shifted = np.asarray(h_shifted)
        m_shifted = np.asarray(m_shifted)
        NL = self.cfg.n_wavelengths
        if h_shifted.shape != m_shifted.shape:
            raise DimensionError(
                f"data {h_shifted.shape} and mask {m_shifted.shape} inputs must align"
            )
        if h_shifted.ndim != 4 or h_shifted.shape[1] != NL:
            raise DimensionError(
                f"expected (n, {NL}, h, w) inputs, got {h_shifted.shape}"
            )
        _check_spatial(*h_shifted.shape[2:])

        with layers.surrogate(surrogate):
            xs = self._parts["embedding"][0].forward(concat_channels(h_shifted, m_shifted))
            xd = self._level_forward(self._levels, xs)
            return self._parts["mapping"][0].forward(xs + xd)

    def backward(self, grad_out):
        gsum = self._parts["mapping"][0].backward(grad_out)  # grad wrt xs + xd
        gxs = self._level_backward(self._levels, gsum) + gsum
        return split_channels(self._parts["embedding"][0].backward(gxs), self.cfg.n_wavelengths)

    def _level_forward(self, levels, x):
        """Runs the outermost of ``levels`` around the inner ones; the
        bottleneck sits inside the innermost."""
        if not levels:
            return self._parts["bottleneck"][0].forward(x)
        enc, down, up, fuse, dec, _ = levels[0]
        skip = enc.forward(x)
        inner = self._level_forward(levels[1:], down.forward(skip))
        u = up.forward(inner)
        return dec.forward(fuse.forward(concat_channels(u, skip)))

    def _level_backward(self, levels, grad):
        """Backward of :meth:`_level_forward` for the same ``levels``."""
        if not levels:
            return self._parts["bottleneck"][0].backward(grad)
        enc, down, up, fuse, dec, up_channels = levels[0]
        gu, gskip = split_channels(fuse.backward(dec.backward(grad)), up_channels)
        ginner = self._level_backward(levels[1:], up.backward(gu))
        return enc.backward(down.backward(ginner) + gskip)

    def count(self, input_h=256, input_w=256):
        """Per-part parameter and conv-MAC accounting at a given input size."""
        _check_spatial(input_h, input_w)
        flags = {"embedding": False, "mapping": False, **self.cfg.binarize_flags}
        acc = Accounting()
        h, w = input_h, input_w
        for part in PART_NAMES:
            layers = Chain(self.part_layers(part), part)
            ops_f, h, w = layers.count_macs(h, w)
            acc.parts.append(PartCount(part, flags[part], layers.param_count(), ops_f))
        return acc


def build(cfg, seed=0, dtype=np.float32):
    """Construct a network; identical (cfg, seed, dtype) gives identical weights."""
    return Network(cfg, seed=seed, dtype=dtype)
