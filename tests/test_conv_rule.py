"""One rule decides which convolutions exist: ``tensor.conv_out_shape``.

The dense conv, its VJP, the 1-bit kernel and the conv layers all apply
it. The table below runs every bad conv through every entry point that can
express it, and each one must raise the same exception with the same
message. A static check keeps the output-size formula inside the rule, so
no entry point can grow its own copy again.
"""

import ast

import numpy as np
import pytest

from bisrnet.bitpack import bit_conv2d, pack
from bisrnet.errors import ArgumentError, DimensionError
from bisrnet.layers import Conv2dFP, VanillaBinConv
from bisrnet.tensor import conv2d_forward, conv2d_vjp, conv_out_shape

from test_inference import package_scopes_where

X, W3 = (1, 4, 8, 8), (4, 4, 3, 3)
# (id, x shape, weight shape, stride, pad, error, message): every entry
# point raises ``error`` matching ``message``.
BAD_CONVS = [
    ("stride-0", X, W3, 0, 1, ArgumentError, "stride must be >= 1, got 0$"),
    ("stride-minus-2", X, W3, -2, 1, ArgumentError, "stride must be >= 1, got -2$"),
    ("pad-minus-1", X, W3, 1, -1, ArgumentError, "pad must be >= 0, got -1$"),
    ("channel-mismatch", X, (4, 3, 3, 3), 1, 1, DimensionError,
     "^input has 4 channels, weight expects 3$"),
    ("non-square", X, (4, 4, 3, 1), 1, 1, DimensionError,
     r"^weight must be \(c_out, c_in, k, k\), got \(4, 4, 3, 1\)$"),
    ("kernel-2", X, (4, 4, 2, 2), 1, 0, DimensionError,
     r"^kernel size 2 not supported \(use 1, 3 or 4\)$"),
    # VanillaBinConv(4, 4, 5, 1, 2) used to run a forward with sign() and
    # fail only inside surrogate(), where its oracle refused the kernel.
    ("kernel-5", X, (4, 4, 5, 5), 1, 2, DimensionError,
     r"^kernel size 5 not supported \(use 1, 3 or 4\)$"),
    ("kernel-beyond-padded-input", (1, 4, 2, 2), (4, 4, 4, 4), 1, 0, DimensionError,
     r"^padded input \(2, 2\) is smaller than the 4x4 kernel$"),
    # Row blocks are sized per image, so an empty batch has no blocks.
    ("empty-batch", (0, 4, 8, 8), W3, 1, 1, DimensionError,
     r"^input must hold at least one image, got shape \(0, 4, 8, 8\)$"),
    # pack() and BitTensor refuse a 3-D operand before bit_conv2d sees it.
    ("input-3d", (4, 8, 8), W3, 1, 1, DimensionError, r"\(n, c, h, w\)"),
]
# The cases a layer's (c_in, c_out, k, stride, pad) can express: a layer's
# weight is square and its c_in is the one it was built with.
LAYER_CASES = {"stride-0", "stride-minus-2", "pad-minus-1", "kernel-2", "kernel-5"}


def _forward(x_shape, w_shape, stride, pad):
    conv2d_forward(np.ones(x_shape, np.float32), np.ones(w_shape, np.float32),
                   stride=stride, pad=pad)


def _vjp(x_shape, w_shape, stride, pad):
    # grad_out has the size a stride-1, same-size conv gives, so a shape
    # check alone cannot refuse the channel and non-square cases.
    g = np.ones((x_shape[0], w_shape[0]) + x_shape[-2:], np.float32)
    conv2d_vjp(np.ones(x_shape, np.float32), np.ones(w_shape, np.float32), g, stride, pad)


def _bit(x_shape, w_shape, stride, pad):
    bit_conv2d(pack(np.ones(x_shape, np.float32)), pack(np.ones(w_shape, np.float32)),
               stride=stride, pad=pad)


def _layer(cls):
    def build(x_shape, w_shape, stride, pad):
        c_out, c_in, k, _ = w_shape
        return cls(c_in, c_out, k, stride, pad, np.random.default_rng(0))
    return build


def _count_macs(x_shape, w_shape, stride, pad):
    _layer(VanillaBinConv)(x_shape, w_shape, stride, pad).count_macs(*x_shape[2:])


# (id, entry point, the case ids it can express or None for all)
ENTRY_POINTS = [
    ("conv_out_shape", conv_out_shape, None),
    ("conv2d_forward", _forward, None),
    ("conv2d_vjp", _vjp, None),
    ("bit_conv2d", _bit, None),
    ("VanillaBinConv", _layer(VanillaBinConv), LAYER_CASES),
    ("Conv2dFP", _layer(Conv2dFP), LAYER_CASES),
    ("count_macs", _count_macs, LAYER_CASES | {"kernel-beyond-padded-input"}),
]
CONTRACT = [
    pytest.param(entry, *case[1:], id=f"{entry_id}-{case[0]}")
    for entry_id, entry, cases in ENTRY_POINTS
    for case in BAD_CONVS
    if cases is None or case[0] in cases
]


@pytest.mark.parametrize("entry,x_shape,w_shape,stride,pad,error,message", CONTRACT)
def test_every_entry_point_refuses_a_bad_conv_alike(entry, x_shape, w_shape, stride, pad,
                                                    error, message):
    with pytest.raises(error, match=message) as raised:
        entry(x_shape, w_shape, stride, pad)
    assert type(raised.value) is error


@pytest.mark.parametrize("x_shape,w_shape,stride,pad,want", [
    ((2, 3, 8, 8), (5, 3, 3, 3), 1, 1, (2, 5, 8, 8)),
    ((1, 4, 9, 7), (6, 4, 4, 4), 2, 1, (1, 6, 4, 3)),
    ((1, 4, 5, 6), (2, 4, 1, 1), 1, 0, (1, 2, 5, 6)),
    ((1, 4, 3, 3), (2, 4, 3, 3), 1, 0, (1, 2, 1, 1)),
])
def test_output_shape_is_that_of_the_dense_conv(x_shape, w_shape, stride, pad, want):
    x = np.ones(x_shape, np.float32)
    w = np.ones(w_shape, np.float32)
    assert conv_out_shape(x_shape, w_shape, stride, pad) == want
    assert conv2d_forward(x, w, stride=stride, pad=pad).shape == want
    assert bit_conv2d(pack(x), pack(w), stride=stride, pad=pad).shape == want


def computes_out_size(node):
    """``<expr> // stride + 1`` or ``<expr> // self.stride + 1``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 1):
        return False
    div = node.left
    if not (isinstance(div, ast.BinOp) and isinstance(div.op, ast.FloorDiv)):
        return False
    return getattr(div.right, "id", getattr(div.right, "attr", None)) == "stride"


def test_the_output_size_formula_lives_only_in_the_rule():
    assert package_scopes_where(computes_out_size) == ["tensor.conv_out_shape"]


def test_formula_check_sees_both_spellings():
    source = "def f(self, h, k, stride):\n    return (h - k) // stride + 1, (h - k) // self.stride + 1"
    assert [computes_out_size(node) for node in ast.walk(ast.parse(source))].count(True) == 2
