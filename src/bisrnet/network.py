"""The U-shaped reconstruction network and its Params/OPs accounting.

Layout (channels, with C the base width and 2 downsample stages):

    input concat(H, M) [2*n_wavelengths]
      -> embedding: proj conv1x1 -> refine block   = xs (C, always full precision)
      -> encoder:   block1(C) = s1 -> down1 -> block2(2C) = s2 -> down2
      -> bottleneck: block(4C)
      -> decoder:   up1 -> concat s2 -> fuse1 -> block1(2C)
                    up2 -> concat s1 -> fuse2 -> block2(C) = xd
      -> xs + xd (global residual)
      -> mapping: proj conv1x1                     (n_wavelengths, full precision)

``Network.forward`` runs these modules in this order, and ``backward``
runs them in reverse.

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
    swaps in the ablation-baseline modules without identity paths. The
    values each of the two may take are ``STES`` and ``MODULE_STYLES``.
    """

    STES = ("clip", "quad", "tanh")
    MODULE_STYLES = ("binarized", "normal")

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
        for key, choices in (("ste", self.STES), ("module_style", self.MODULE_STYLES)):
            if getattr(self, key) not in choices:
                one_of = f"{', '.join(choices[:-1])} or {choices[-1]}"
                raise ConfigError(f"{key} must be {one_of}, got {getattr(self, key)!r}")

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
        # The channels that up1 and up2 return: the fp upsample keeps its
        # input's width, the binarized one halves it. Each fuse takes them
        # concatenated with its skip.
        self._up_channels = u1, u2 = (2 * C, C) if bd else (4 * C, 2 * C)

        # The parts in parameter order, which is also the rng's draw order.
        self._parts = {
            "embedding": [Chain([Conv2dFP(2 * NL, C, 1, 1, 0, rng, dtype, "embedding.proj"),
                                 ConvBlock(C, rng, dtype, "embedding.refine")], "embedding")],
            "encoder": [block(C, be, "encoder.block1"), down(C, be, "encoder.down1"),
                        block(2 * C, be, "encoder.block2"), down(2 * C, be, "encoder.down2")],
            "bottleneck": [block(4 * C, bb, "bottleneck.block")],
            "decoder": [
                up(4 * C, bd, "decoder.up1"), fuse(u1 + 2 * C, 2 * C, bd, "decoder.fuse1"),
                block(2 * C, bd, "decoder.block1"), up(2 * C, bd, "decoder.up2"),
                fuse(u2 + C, C, bd, "decoder.fuse2"), block(C, bd, "decoder.block2")],
            "mapping": [Conv2dFP(C, NL, 1, 1, 0, rng, dtype, "mapping.proj")],
        }

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

        (embedding,), (enc1, down1, enc2, down2), (bottleneck,), \
            (up1, fuse1, dec1, up2, fuse2, dec2), (mapping,) = self._parts.values()
        with layers.surrogate(surrogate):
            xs = embedding.forward(concat_channels(h_shifted, m_shifted))
            s1 = enc1.forward(xs)
            s2 = enc2.forward(down1.forward(s1))
            x = bottleneck.forward(down2.forward(s2))
            x = dec1.forward(fuse1.forward(concat_channels(up1.forward(x), s2)))
            xd = dec2.forward(fuse2.forward(concat_channels(up2.forward(x), s1)))
            return mapping.forward(xs + xd)

    def backward(self, grad_out):
        (embedding,), (enc1, down1, enc2, down2), (bottleneck,), \
            (up1, fuse1, dec1, up2, fuse2, dec2), (mapping,) = self._parts.values()
        u1, u2 = self._up_channels
        gsum = mapping.backward(grad_out)  # grad wrt xs + xd
        gu2, gs1 = split_channels(fuse2.backward(dec2.backward(gsum)), u2)
        gu1, gs2 = split_channels(fuse1.backward(dec1.backward(up2.backward(gu2))), u1)
        g = bottleneck.backward(up1.backward(gu1))
        # Each sum's left operand stays an unnamed temporary, which numpy
        # adds into in place (temporary elision). That fixes the sum's
        # memory order, and with it the bytes of later per-channel
        # reductions: naming it moves the golden grads digests.
        g = enc2.backward(down2.backward(g) + gs2)
        gxs = enc1.backward(down1.backward(g) + gs1) + gsum
        return split_channels(embedding.backward(gxs), self.cfg.n_wavelengths)

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
