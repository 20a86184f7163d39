"""Bit-packed {-1, +1} tensors and exact XNOR/popcount convolution.

Packing convention: bit 1 stands for +1 and bit 0 for -1. A logical
(n, c, h, w) tensor is packed along its channel axis: ``words`` has shape
(n, h, w, words_per_row(c)), and channel i of pixel (y, x) lives in bit
(i % 64) of word (i // 64), least-significant bit first. A weight
(c_out, c_in, k, k) is packed the same way into (c_out, k, k,
words_per_row(c_in)) words, so the channel vector of one tap of one output
channel sits in the same bit positions as the channel vector of one input
pixel.

Tail bits: bits past c in the last word are don't-care. :func:`pack` and
:func:`sign_pack` leave them 0, but a BitTensor built by hand may set
them; :func:`bit_conv2d` masks them out of both operands once per call.

The dot product of two {-1,+1} vectors of length n packed this way is

    n - 2 * popcount(a XOR b)

because agreeing positions contribute +1 and disagreeing ones -1.
:func:`bit_conv2d` applies that identity once per output pixel, to the
pixel's whole k x k receptive field. It packs the field into
ceil(k*k*c_in/64) patch words: tap t = dy*k + dx takes bits
[t*c_in, (t+1)*c_in), channel i at bit t*c_in + i, so a tap may straddle a
word boundary. Each output channel's weights are packed into the same
layout. With the input padded spatially by zero words (bit 0 = -1),

    conv[b, o, y, x] = c_in*k*k - 2 * sum over patch words q of
        popcount(patch[b, y, x, q] XOR wpatch[o, q])

so the kernel makes one XOR + popcount + add pass per patch word, and its
integer output matches the dense reference convolution with pad_value=-1
bit for bit. When c_in is a multiple of 64 the patch words are the
channel words of the taps, in tap order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError, DomainError

WORD_BITS = 64
_WORD_BYTES = WORD_BITS // 8
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_BLOCK_OUTPUTS = 1 << 16


def words_per_row(n_bits):
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def _pack_channels(bits):
    """Pack a boolean (n, c, h, w) array along c into (n, h, w, words) uint64
    words, LSB first, with zero tail bits."""
    n, c, h, w = bits.shape
    packed = np.packbits(np.ascontiguousarray(bits.transpose(0, 2, 3, 1)), axis=-1,
                         bitorder="little")
    n_bytes = words_per_row(c) * _WORD_BYTES
    if packed.shape[-1] != n_bytes:
        padded = np.zeros((n, h, w, n_bytes), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        packed = padded
    return packed.view("<u8")


def _tail_mask(n_bits):
    """Per-word validity mask for an n_bits-long packed vector."""
    nw = words_per_row(n_bits)
    mask = np.full(nw, _ALL_ONES, dtype=np.uint64)
    rem = n_bits % WORD_BITS
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


@dataclass(frozen=True)
class BitTensor:
    """A {-1,+1} tensor stored 1 bit per element.

    words has shape (n, h, w, words_per_row(c)), packed along channels;
    shape records the logical (n, c, h, w) extent.
    """

    shape: tuple
    words: np.ndarray

    @property
    def packed_bytes(self):
        return self.words.nbytes


def pack(x):
    """Pack a dense tensor whose elements are all exactly +1 or -1."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"pack() expects (n, c, h, w), got shape {x.shape}")
    if not np.all((x == 1) | (x == -1)):
        raise DomainError("pack() requires every element to be exactly +1 or -1")
    return BitTensor(shape=x.shape, words=_pack_channels(x > 0))


def sign_pack(x):
    """``pack(sign(x))`` straight from a real tensor: bit 1 where x > 0, bit
    0 where x <= 0 (including -0.0). NaN raises ArgumentError, as in sign."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"sign_pack() expects (n, c, h, w), got shape {x.shape}")
    if np.isnan(x).any():
        raise ArgumentError("sign() received NaN input")
    return BitTensor(shape=x.shape, words=_pack_channels(x > 0))


def unpack(bt, dtype=np.float32):
    """Expand a BitTensor back to a dense {-1,+1} tensor."""
    raw = np.ascontiguousarray(bt.words).view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, bitorder="little", count=bt.shape[1])
    bits = np.ascontiguousarray(bits.transpose(0, 3, 1, 2))
    return np.where(bits, 1, -1).astype(dtype)


def xnor_popcount_dot(a_words, b_words, n_bits):
    """{-1,+1} dot product of two packed bit vectors of valid length n_bits."""
    a_words = np.asarray(a_words, dtype=np.uint64).ravel()
    b_words = np.asarray(b_words, dtype=np.uint64).ravel()
    nw = words_per_row(n_bits)
    if a_words.size < nw or b_words.size < nw:
        raise ArgumentError(
            f"need {nw} words for {n_bits} bits, got {a_words.size} and {b_words.size}"
        )
    mask = _tail_mask(n_bits)
    agree = int(np.bitwise_count(~(a_words[:nw] ^ b_words[:nw]) & mask).sum())
    return 2 * agree - n_bits


def _place_field(dst, src, bit, width, tmp):
    """OR the ``width``-bit field ``src`` into the patch words ``dst`` at bit
    offset ``bit``: bit b of the patch is bit b % 64 of ``dst[..., b // 64]``.
    A field that crosses a word boundary is split into ``src << s`` and
    ``src >> (64 - s)``. ``src`` must have no set bit at or above ``width``;
    ``tmp`` is scratch of ``src``'s shape."""
    q, s = divmod(bit, WORD_BITS)
    lo = dst[..., q]
    if s == 0:
        np.bitwise_or(lo, src, out=lo)
        return
    np.left_shift(src, s, out=tmp)
    np.bitwise_or(lo, tmp, out=lo)
    if s + width > WORD_BITS:
        hi = dst[..., q + 1]
        np.right_shift(src, WORD_BITS - s, out=tmp)
        np.bitwise_or(hi, tmp, out=hi)


def _tap_fields(c_in, k):
    """(dy, dx, channel word j, patch bit offset, field width) for every
    channel word of every tap; tap t = dy*k + dx starts at bit t*c_in."""
    for dy in range(k):
        for dx in range(k):
            for j in range(words_per_row(c_in)):
                bit = (dy * k + dx) * c_in + j * WORD_BITS
                yield dy, dx, j, bit, min(WORD_BITS, c_in - j * WORD_BITS)


def bit_conv2d(x, w, scale=1.0, stride=1, pad=1, out_dtype=np.float32):
    """Binary convolution via XNOR/popcount; padding is -1 (bit 0).

    x: BitTensor (n, c_in, h, w); w: BitTensor (c_out, c_in, k, k); scale:
    a scalar. Returns scale * integer_conv as ``out_dtype``, equal
    elementwise to scale * conv2d_ref(unpack(x), unpack(w), stride=stride,
    pad=pad, pad_value=-1).

    Each output pixel's k*k taps of c_in bits are packed into
    ceil(k*k*c_in/64) patch words, tap t = dy*k + dx at bits
    [t*c_in, (t+1)*c_in); the weights are packed the same way, and the
    result is k*k*c_in - 2 * sum over patch words q of
    popcount(patch[q] XOR wpatch[o, q]). The result is an (n, c_out, ho, wo)
    view of (n, ho, wo, c_out) memory.
    """
    if not isinstance(x, BitTensor) or not isinstance(w, BitTensor):
        raise ArgumentError("bit_conv2d operates on BitTensor operands")
    n, c_in, h, wd = x.shape
    c_out, wc_in, k, k2 = w.shape
    if k != k2:
        raise DimensionError(f"weight kernel must be square, got {k}x{k2}")
    if wc_in != c_in:
        raise DimensionError(f"input has {c_in} channels, weight expects {wc_in}")
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    if ho <= 0 or wo <= 0:
        raise DimensionError(f"empty output for input {h}x{wd}, kernel {k}, pad {pad}")

    # Zero words pad spatially (every channel -1); the tail mask clears the
    # don't-care bits of both operands, so fields can be ORed side by side.
    mask = _tail_mask(c_in)
    xp = np.zeros((n, h + 2 * pad, wd + 2 * pad, mask.size), dtype=np.uint64)
    xp[:, pad : pad + h, pad : pad + wd] = x.words
    xp &= mask
    ww = w.words & mask
    n_bits = k * k * c_in
    fields = list(_tap_fields(c_in, k))
    wpatch = np.zeros((c_out, words_per_row(n_bits)), dtype=np.uint64)
    wtmp = np.empty(c_out, dtype=np.uint64)
    for dy, dx, j, bit, valid in fields:
        _place_field(wpatch, ww[:, dy, dx, j], bit, valid, wtmp)

    # Row blocks of about _BLOCK_OUTPUTS outputs keep their uint64 XORs,
    # uint8 counts and the mismatch sums in a core's L2 cache across all
    # patch-word passes. The sums fit the narrowest type holding n_bits.
    acc_dtype = np.uint8 if n_bits <= 0xFF else np.uint16 if n_bits <= 0xFFFF else np.int32
    rows = max(1, min(ho, _BLOCK_OUTPUTS // (n * wo * c_out)))
    patch = np.empty((n, rows, wo, wpatch.shape[1]), dtype=np.uint64)
    ptmp = np.empty((n, rows, wo), dtype=np.uint64)
    xor = np.empty((n, rows, wo, c_out), dtype=np.uint64)
    count = np.empty(xor.shape, dtype=np.uint8)
    acc = np.empty(xor.shape, dtype=acc_dtype)
    out = np.empty((n, ho, wo, c_out), dtype=out_dtype)
    col_end = stride * (wo - 1) + 1
    for r0 in range(0, ho, rows):
        m = min(rows, ho - r0)
        patch_m, ptmp_m, xor_m, count_m, acc_m = (
            patch[:, :m], ptmp[:, :m], xor[:, :m], count[:, :m], acc[:, :m])
        patch_m.fill(0)
        for dy, dx, j, bit, valid in fields:
            y0 = stride * r0 + dy
            view = xp[:, y0 : y0 + stride * (m - 1) + 1 : stride, dx : dx + col_end : stride, j]
            _place_field(patch_m, view, bit, valid, ptmp_m)
        for q in range(wpatch.shape[1]):
            np.bitwise_xor(patch_m[..., q, None], wpatch[:, q], out=xor_m)
            if q == 0:
                np.bitwise_count(xor_m, out=acc_m)
            else:
                np.bitwise_count(xor_m, out=count_m)
                np.add(acc_m, count_m, out=acc_m)
        # The sums are small integers, so n_bits - 2 * acc is exact in
        # float32 and float64. Later sums and GEMMs round in memory order,
        # so the (n, ho, wo, c_out) order is part of the network's
        # bit-exact output.
        out_m = out[:, r0 : r0 + m]
        np.multiply(acc_m, out.dtype.type(-2), out=out_m)
        np.add(out_m, out.dtype.type(n_bits), out=out_m)
    if scale != 1.0:
        np.multiply(out, np.asarray(scale, dtype=out_dtype), out=out)
    return out.transpose(0, 3, 1, 2)
