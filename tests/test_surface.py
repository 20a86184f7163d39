"""Pins on the program surface that other code is built against.

The CLI's option strings per subcommand are what users and config files
pass. The signatures below are the ones the benchmark in ``perfbench/``
calls or rebinds by name; a change to one of them breaks the benchmark of
every later checkout, so it must be deliberate and show up here.
"""

import argparse
import dataclasses
import inspect

import numpy as np
import pytest

from bisrnet import bitpack, cli, network, tensor, train

CLI_OPTIONS = {
    "simulate": ["--height", "--help", "--mask", "--noise", "--noise-bit-depth", "--out",
                 "--scene", "--seed", "--step", "--synth", "--wavelengths", "--width", "-h"],
    "train": ["--batch", "--binarize", "--channels", "--help", "--log-every", "--lr-max",
              "--lr-min", "--module-style", "--no-sr", "--noise", "--out", "--patch",
              "--scene-size", "--scenes", "--seed", "--ste", "--step", "--steps",
              "--wavelengths", "-h"],
    "eval": ["--binarize", "--channels", "--checkpoint", "--height", "--help",
             "--module-style", "--no-sr", "--out", "--pred", "--seed", "--ste", "--step",
             "--synth-scenes", "--target", "--wavelengths", "--width", "-h"],
    "count": ["--binarize", "--channels", "--height", "--help", "--module-style", "--no-sr",
              "--out", "--ste", "--wavelengths", "--width", "-h"],
    "ste-analyze": ["--alpha", "--half-width", "--help", "--out", "--points", "--ste", "-h"],
    "pack-bench": ["--help", "--out", "--seed", "--shape", "-h"],
}

REQUIRED = inspect.Parameter.empty

# (function, [(parameter name, default)]); every parameter is
# positional-or-keyword.
BENCHMARK_SIGNATURES = [
    (bitpack.bit_conv2d, [("x", REQUIRED), ("w", REQUIRED), ("scale", 1.0), ("stride", 1),
                          ("pad", 1), ("out_dtype", np.float32)]),
    (tensor.conv2d_forward, [("x", REQUIRED), ("weight", REQUIRED), ("bias", None),
                             ("stride", 1), ("pad", 0), ("pad_value", 0.0)]),
    (tensor.conv2d_backward, [("cols", REQUIRED), ("grad_out", REQUIRED), ("weight", REQUIRED),
                              ("x_shape", REQUIRED), ("stride", REQUIRED), ("pad", REQUIRED)]),
    (tensor.conv2d_vjp, [("x", REQUIRED), ("weight", REQUIRED), ("grad_out", REQUIRED),
                         ("stride", 1), ("pad", 0), ("pad_value", 0.0)]),
    (tensor.bilinear_up2, [("x", REQUIRED)]),
    (tensor.bilinear_up2_backward, [("grad_out", REQUIRED), ("in_shape", REQUIRED)]),
    (tensor.avg_pool2x2, [("x", REQUIRED)]),
    (network.build, [("cfg", REQUIRED), ("seed", 0), ("dtype", np.float32)]),
    (network.Network.part_layers, [("self", REQUIRED), ("part", REQUIRED)]),
    (network.Network.forward, [("self", REQUIRED), ("h_shifted", REQUIRED),
                               ("m_shifted", REQUIRED), ("surrogate", False)]),
    (train.evaluate, [("net", REQUIRED), ("scenes", REQUIRED), ("sys", REQUIRED)]),
    (train.ssim, [("pred", REQUIRED), ("target", REQUIRED)]),
    (train.psnr, [("pred", REQUIRED), ("target", REQUIRED)]),
]

# The TrainConfig fields the benchmark sets, by keyword and by assignment.
BENCHMARK_TRAIN_FIELDS = ("steps", "batch", "patch", "seed")


def test_cli_option_strings_per_subcommand():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions for o in a.option_strings)
           for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS


@pytest.mark.parametrize("fn, params", BENCHMARK_SIGNATURES,
                         ids=[fn.__qualname__ for fn, _ in BENCHMARK_SIGNATURES])
def test_benchmark_signature(fn, params):
    got = inspect.signature(fn).parameters.values()
    assert [(p.name, p.default) for p in got] == params
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in got)


def test_benchmark_train_config_fields():
    names = {f.name for f in dataclasses.fields(train.TrainConfig)}
    assert set(BENCHMARK_TRAIN_FIELDS) <= names
    cfg = train.TrainConfig(steps=3, batch=2, patch=32, seed=5)
    cfg.steps = 2
    assert (cfg.steps, cfg.batch, cfg.patch, cfg.seed) == (2, 2, 32, 5)
