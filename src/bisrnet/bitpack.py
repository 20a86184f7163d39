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

Packing goes through :func:`sign_words`: each pixel's channel signs are
written into the first c of 64 * words_per_row(c) zeroed bools, and one
``packbits`` runs over the flat block, whose bytes, read as little-endian
uint64, are the words. A caller that builds its input block by block,
as BiSRConv does, packs each block into its rows of the words.

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

The passes run over planes. A block of output rows keeps its patch as one
contiguous plane per patch word q, holding word q of every pixel in the
block, and XORs that plane against output channel o's word q as a scalar.
Each XOR, popcount and add is then a unit-stride loop over a whole plane,
where a per-pixel broadcast against the c_out weight words would run an
inner loop only c_out long. The sums land in a (c_out, pixels) array and
are written to the channel-last result once per block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError, DomainError

WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_BLOCK_OUTPUTS = 1 << 12  # output pixels per row block, i.e. words per plane


def words_per_row(n_bits):
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def sign_words(x, bits):
    """The channel-packed words of sign(x) for a channel-last real block.

    x: (..., c); bits: bool scratch of shape (..., 64 * words_per_row(c))
    whose columns from c on are False. Writes ``x > 0`` into the first c
    columns and runs ``packbits`` over the flat block, so the words come
    out with zero tail bits. Returns (..., words_per_row(c)) uint64 words.
    NaN raises ArgumentError, as in sign. A caller that produces x block by
    block reuses one ``bits``: only its first c columns are ever written.
    """
    if np.isnan(x).any():
        raise ArgumentError("sign() received NaN input")
    np.greater(x, 0, out=bits[..., : x.shape[-1]])
    packed = np.packbits(bits, axis=None, bitorder="little").view("<u8")
    return packed.reshape(bits.shape[:-1] + (bits.shape[-1] // WORD_BITS,))


def _pack_channels(x):
    """Pack the signs of a real (n, c, h, w) array along c into (n, h, w,
    words) uint64 words, LSB first, with zero tail bits."""
    n, c, h, w = x.shape
    bits = np.zeros((n, h, w, words_per_row(c) * WORD_BITS), dtype=bool)
    return sign_words(x.transpose(0, 2, 3, 1), bits)


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
    """Pack a dense tensor whose elements are all exactly +1 or -1, in one
    :func:`sign_words` block."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"pack() expects (n, c, h, w), got shape {x.shape}")
    if not np.all((x == 1) | (x == -1)):
        raise DomainError("pack() requires every element to be exactly +1 or -1")
    return BitTensor(shape=x.shape, words=_pack_channels(x))


def sign_pack(x):
    """``pack(sign(x))`` straight from a real tensor: bit 1 where x > 0, bit
    0 where x <= 0 (including -0.0). NaN raises ArgumentError, as in sign."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"sign_pack() expects (n, c, h, w), got shape {x.shape}")
    return BitTensor(shape=x.shape, words=_pack_channels(x))


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
    popcount(patch[q] XOR wpatch[o, q]). Output rows are processed in
    blocks of about _BLOCK_OUTPUTS pixels; patch word q of a block is one
    contiguous plane over its n*rows*wo pixels, so every pass is a
    unit-stride sweep of a plane against one weight word. The result is an
    (n, c_out, ho, wo) view of (n, ho, wo, c_out) memory.

    ``out_dtype`` is a float type, or a signed integer type that holds
    +-k*k*c_in; an integer type returns the raw sums and needs
    scale == 1.0. Anything else raises ArgumentError.
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

    n_bits = k * k * c_in
    out_dtype = np.dtype(out_dtype)
    if out_dtype.kind not in "fi":
        raise ArgumentError(f"out_dtype must be a float or signed integer type, got {out_dtype}")
    if out_dtype.kind == "i":
        if scale != 1.0:
            raise ArgumentError(f"an integer out_dtype needs scale == 1.0, got {scale}")
        if np.iinfo(out_dtype).max < n_bits:
            raise ArgumentError(f"{out_dtype} cannot hold sums of up to +-{n_bits} bits")

    # Zero words pad spatially (every channel -1); the tail mask clears the
    # don't-care bits of both operands, so fields can be ORed side by side.
    mask = _tail_mask(c_in)
    xp = np.zeros((n, h + 2 * pad, wd + 2 * pad, mask.size), dtype=np.uint64)
    xp[:, pad : pad + h, pad : pad + wd] = x.words
    xp &= mask
    ww = w.words & mask
    fields = list(_tap_fields(c_in, k))
    nw = words_per_row(n_bits)
    # wpatch[q] holds patch word q of every output channel; as a (c_out, 1)
    # column it meets a whole plane with one scalar word per output channel.
    wpatch = np.zeros((nw, c_out), dtype=np.uint64)
    wtmp = np.empty(c_out, dtype=np.uint64)
    for dy, dx, j, bit, valid in fields:
        _place_field(wpatch.T, ww[:, dy, dx, j], bit, valid, wtmp)

    # Row blocks are sized by plane length (n*rows*wo pixels), not by total
    # outputs: with c_out = 28 or 112 the XOR pass ran at 0.35-0.55 ns per
    # word on planes of 4096 words or more and at 0.9-1.1 ns on planes of
    # 1024-2560 (one thread of a 2-core Xeon, numpy 2.4). The (c_out,
    # pixels) XORs, uint8 counts and mismatch sums then take a few MiB
    # whatever the image size. The sums take the narrowest type holding
    # n_bits.
    acc_dtype = np.uint8 if n_bits <= 0xFF else np.uint16 if n_bits <= 0xFFFF else np.int32
    rows = max(1, min(ho, _BLOCK_OUTPUTS // (n * wo)))
    planes = np.empty((nw, n * rows * wo), dtype=np.uint64)
    ptmp = np.empty(n * rows * wo, dtype=np.uint64)
    xor = np.empty((c_out, n * rows * wo), dtype=np.uint64)
    count = np.empty(xor.shape, dtype=np.uint8)
    acc = np.empty(xor.shape, dtype=acc_dtype)
    out = np.empty((n, ho, wo, c_out), dtype=out_dtype)
    col_end = stride * (wo - 1) + 1
    for r0 in range(0, ho, rows):
        m = min(rows, ho - r0)
        # The first n*m*wo words of each buffer row, so a partial last
        # block still has contiguous planes.
        px = n * m * wo
        planes_m, xor_m, count_m, acc_m = planes[:, :px], xor[:, :px], count[:, :px], acc[:, :px]
        planes_m.fill(0)
        patch_m = np.moveaxis(planes_m.reshape(nw, n, m, wo), 0, -1)
        ptmp_m = ptmp[:px].reshape(n, m, wo)
        for dy, dx, j, bit, valid in fields:
            y0 = stride * r0 + dy
            view = xp[:, y0 : y0 + stride * (m - 1) + 1 : stride, dx : dx + col_end : stride, j]
            _place_field(patch_m, view, bit, valid, ptmp_m)
        for q in range(nw):
            np.bitwise_xor(planes_m[q], wpatch[q, :, None], out=xor_m)
            if q == 0:
                np.bitwise_count(xor_m, out=acc_m)
            else:
                np.bitwise_count(xor_m, out=count_m)
                np.add(acc_m, count_m, out=acc_m)
        # The sums are small integers, so n_bits - 2 * acc is exact in
        # float32, float64 and any signed type that holds n_bits: where
        # -2 * acc wraps, adding n_bits wraps it back. Later sums and GEMMs
        # round in memory order, so the (n, ho, wo, c_out) order is part of
        # the network's bit-exact output.
        out_m = out[:, r0 : r0 + m]
        np.multiply(np.moveaxis(acc_m.reshape(c_out, n, m, wo), 0, -1), out.dtype.type(-2),
                    out=out_m)
        np.add(out_m, out.dtype.type(n_bits), out=out_m)
    if scale != 1.0:
        np.multiply(out, np.asarray(scale, dtype=out_dtype), out=out)
    return out.transpose(0, 3, 1, 2)
