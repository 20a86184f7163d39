"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 3 and 8 carry
the ``slow`` marker (finite differences over every layer kind; training
dynamics).
"""

import math
import time

import numpy as np
import pytest

from bisrnet import cassi, layers
from bisrnet.binarize import approx_error_area, approx_error_area_numeric
from bisrnet.bitpack import bit_conv2d, pack
from bisrnet.layers import (
    BinDownsample,
    BinFusionDown,
    BinFusionUp,
    BinUpsample,
    BiSRConv,
    Conv2dFP,
    ConvBlock,
    FPUp,
    NormalDown,
    NormalFuse,
    NormalUp,
)
from bisrnet.network import NetworkConfig, build
from bisrnet.tensor import avg_pool2x2, bilinear_up2, concat_channels, conv2d_ref, split_channels
from bisrnet.train import TrainConfig, psnr, ssim, synthetic_stream, train

from conftest import finite_difference_check


def report(n, name, detail=""):
    print(f"ACCEPTANCE {n} {name}: PASS {detail}")


def test_criterion_1_xnor_popcount_exactness():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        c_in = int(rng.integers(1, 9))
        c_out = int(rng.integers(1, 9))
        h = int(rng.integers(3, 17))
        w = int(rng.integers(3, 17))
        x = np.where(rng.random((n, c_in, h, w)) < 0.5, -1, 1).astype(np.float32)
        wts = np.where(rng.random((c_out, c_in, 3, 3)) < 0.5, -1, 1).astype(np.float32)
        got = bit_conv2d(pack(x), pack(wts), scale=1.0)
        want = conv2d_ref(x, wts, stride=1, pad=1, pad_value=-1.0)
        np.testing.assert_array_equal(got, want)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, "xnor/popcount exactness", f"(200 cases, {elapsed:.2f}s)")


def test_criterion_2_ste_error_areas():
    t0 = time.time()
    cases = [("clip", 1.0, 1.0), ("quad_bounded", 1.0, 2.0 / 3.0)]
    cases += [("tanh", a, 2.0 * math.log(2.0) / a) for a in (0.5, 1.0, 2.0, 8.0)]
    for kind, alpha, expected in cases:
        analytic = approx_error_area(kind, alpha)
        numeric = approx_error_area_numeric(kind, alpha)
        assert analytic == pytest.approx(expected, abs=1e-9), (kind, alpha)
        assert abs(analytic - numeric) < 1e-3, (kind, alpha)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, "surrogate error areas", f"({len(cases)} cases, {elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_3_gradient_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(7)

    def check(build_layer, shape, n_coords=4, rtol=1e-4, label=""):
        layer = build_layer(rng)
        x = rng.standard_normal(shape)
        with layers.surrogate():
            out = layer.forward(x)
        probe = rng.standard_normal(out.shape)

        def loss():
            with layers.surrogate():
                return float((layer.forward(x) * probe).sum())

        with layers.surrogate():
            layer.forward(x)
        gin = layer.backward(probe)
        targets = [(p.value, p.grad, p.name) for p in layer.params()]
        targets.append((x, gin, f"{label}.input"))
        finite_difference_check(loss, targets, rng, n_coords=n_coords, rtol=rtol)

    f64 = np.float64
    layer_builders = [
        ("BiSRConv", lambda r: BiSRConv(4, r, f64), (1, 4, 5, 5)),
        ("BiSRConv/clip", lambda r: BiSRConv(4, r, f64, ste="clip"), (1, 4, 5, 5)),
        ("BiSRConv/quad", lambda r: BiSRConv(4, r, f64, ste="quad_bounded"), (1, 4, 5, 5)),
        ("ConvBlock", lambda r: ConvBlock(4, r, f64), (1, 4, 6, 6)),
        ("Conv2dFP", lambda r: Conv2dFP(4, 6, 3, 1, 1, r, f64), (1, 4, 6, 6)),
        ("FPUp", lambda r: FPUp(4, r, f64), (1, 4, 4, 4)),
        ("BinDownsample", lambda r: BinDownsample(4, r, f64), (1, 4, 6, 6)),
        ("BinFusionUp", lambda r: BinFusionUp(4, r, f64), (1, 4, 6, 6)),
        ("BinFusionDown", lambda r: BinFusionDown(4, r, f64), (1, 4, 6, 6)),
        ("BinUpsample", lambda r: BinUpsample(4, r, f64), (1, 4, 6, 6)),
        ("NormalDown", lambda r: NormalDown(4, r, f64), (1, 4, 6, 6)),
        ("NormalUp", lambda r: NormalUp(4, r, f64), (1, 4, 6, 6)),
        ("NormalFuse", lambda r: NormalFuse(4, 2, r, f64), (1, 4, 6, 6)),
    ]
    for label, builder, shape in layer_builders:
        check(builder, shape, label=label)

    # Full tiny network at the looser network-level tolerance.
    net = build(NetworkConfig(base_channels=4, n_wavelengths=4), seed=8, dtype=f64)
    h_in = rng.random((1, 4, 16, 16))
    m_in = rng.random((1, 4, 16, 16))
    probe = rng.standard_normal((1, 4, 16, 16))

    def net_loss():
        return float((net.forward(h_in, m_in, surrogate=True) * probe).sum())

    net.forward(h_in, m_in, surrogate=True)
    net.zero_grads()
    gh, gm = net.backward(probe)
    targets = [(p.value, p.grad, p.name) for p in net.params()]
    targets += [(h_in, gh, "net.h"), (m_in, gm, "net.m")]
    finite_difference_check(net_loss, targets, rng, n_coords=2, rtol=1e-3)

    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, "gradient fidelity", f"({len(layer_builders)} layers + network, {elapsed:.1f}s)")


def test_criterion_4_accounting_rule_reproduction():
    t0 = time.time()
    rows = [
        ("encoder", 3390, 53, 177878, 5559),
        ("bottleneck", 1096, 17, 278889, 8715),
        ("decoder", 5005, 78, 186562, 5830),
    ]
    for name, ops_f_m, ops_b_m, params_f, params_b in rows:
        assert round(ops_f_m / 64) == ops_b_m, name
        assert round(params_f / 32) == params_b, name
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(4, "1/64 and 1/32 accounting rules", f"({len(rows)} rows, {elapsed:.2f}s)")


def test_criterion_5_architecture_accounting_band():
    t0 = time.time()
    bisr = build(NetworkConfig.bisrnet(), seed=0).count(256, 256)
    base = build(NetworkConfig.base_model(), seed=0).count(256, 256)
    checks = [
        ("BiSRNet params", bisr.total_params, 36_000),
        ("BiSRNet ops", bisr.total_ops, 1.18e9),
        ("base params", base.total_params, 634_000),
        ("base ops", base.total_ops, 10.52e9),
    ]
    details = []
    for name, got, target in checks:
        rel = got / target - 1.0
        assert abs(rel) < 0.15, f"{name}: {got} vs {target} ({rel:+.1%})"
        details.append(f"{name} {rel:+.1%}")
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(5, "architecture accounting band", f"({'; '.join(details)})")


def test_criterion_6_cassi_consistency():
    t0 = time.time()
    h, w, nb, step = 12, 16, 6, 2
    sys_ = cassi.CassiSystem(np.ones((h, w), dtype=np.float32), step=step, n_bands=nb)
    rng = np.random.default_rng(3)

    # Round trip: single-band scenes with an all-ones mask restore exactly.
    for band in range(nb):
        cube = np.zeros((nb, h, w), dtype=np.float32)
        cube[band] = (rng.integers(0, 65, (h, w)) / 64).astype(np.float32)
        back = cassi.shift_back(cassi.forward_capture(cube, sys_), sys_)
        np.testing.assert_array_equal(back[band], cube[band])

    # Linearity, exact: dyadic scene values and power-of-two coefficients
    # keep every float operation representable.
    s1 = (rng.integers(0, 65, (nb, h, w)) / 64).astype(np.float32)
    s2 = (rng.integers(0, 65, (nb, h, w)) / 64).astype(np.float32)
    a, b = np.float32(0.5), np.float32(0.25)
    mask = cassi.random_mask(4, h, w)
    msys = cassi.CassiSystem(mask, step=step, n_bands=nb)
    lhs = cassi.forward_capture(a * s1 + b * s2, msys)
    rhs = a * cassi.forward_capture(s1, msys) + b * cassi.forward_capture(s2, msys)
    np.testing.assert_array_equal(lhs, rhs)

    # Mask/data alignment: with only band n nonzero, shift-back channel n is
    # exactly (aligned mask channel n) * (cube band n).
    m3 = cassi.shift_mask(msys)
    for band in range(nb):
        cube = np.zeros((nb, h, w), dtype=np.float32)
        cube[band] = (rng.integers(0, 65, (h, w)) / 64).astype(np.float32)
        back = cassi.shift_back(cassi.forward_capture(cube, msys), msys)
        np.testing.assert_array_equal(back[band], m3[band] * cube[band])

    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(6, "capture/shift-back consistency", f"({elapsed:.2f}s)")


def test_criterion_7_full_precision_propagation():
    t0 = time.time()
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)

    def dead(mod):
        for p in mod.params():
            if p.name.endswith(".weight"):
                p.value[...] = 0
        return mod

    # Binarized modules reduce exactly to their linear skeletons.
    mod = dead(BinDownsample(4, rng))
    u = avg_pool2x2(x)
    np.testing.assert_array_equal(mod.forward(x), concat_channels(u, u))

    mod = dead(BinFusionUp(4, rng))
    np.testing.assert_array_equal(mod.forward(x), concat_channels(x, x))

    mod = dead(BinFusionDown(4, rng))
    a, b = split_channels(x, 2)
    np.testing.assert_array_equal(mod.forward(x), np.float32(0.5) * (a + b))

    mod = dead(BinUpsample(4, rng))
    up = bilinear_up2(x)
    ua, ub = split_channels(up, 2)
    np.testing.assert_array_equal(mod.forward(x), np.float32(0.5) * (ua + ub))

    # Normal modules block everything: dead weights give exactly zero.
    for mod in (NormalDown(4, rng), NormalUp(4, rng), NormalFuse(4, 2, rng)):
        out = dead(mod).forward(x)
        assert not out.any(), type(mod).__name__

    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(7, "blocked vs unblocked identity paths", f"({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_8_training_dynamics():
    t0 = time.time()

    # Part A: single-patch overfit, tiny network, 500 steps, deterministic.
    scene = cassi.synth_scene(0, 48, 48, 8)
    mask = cassi.random_mask(1, 48, 48)
    tcfg = TrainConfig(steps=500, batch=1, lr_max=4e-4, lr_min=1e-6, patch=48, seed=0)
    sys_ = cassi.CassiSystem(mask, step=2, n_bands=8)
    h_in = cassi.shift_back(cassi.forward_capture(scene, sys_), sys_)
    sample = (h_in[None], cassi.shift_mask(sys_)[None], scene[None])

    losses = []
    for _ in range(2):
        net = build(NetworkConfig(base_channels=8, n_wavelengths=8), seed=0)
        hist = train(net, tcfg, lambda step: sample)
        losses.append([h[2] for h in hist])
    assert losses[0] == losses[1], "overfit run is not bit-reproducible"
    first, last, lo = losses[0][0], losses[0][-1], min(losses[0])
    assert last < 0.5 * first, f"RMSE {first:.4f} -> {last:.4f} did not halve"
    assert lo < 0.5 * first

    # Part B: ablation direction. SR + tanh vs neither (clip), same seed,
    # same data stream and budget; the full unit must match or beat the
    # baseline in at least 4 of 5 seeds.
    def final_rmse(seed, ste, sr):
        cfg = NetworkConfig(base_channels=8, n_wavelengths=8, ste=ste, redistribution=sr)
        net = build(cfg, seed=seed)
        run_cfg = TrainConfig(steps=100, batch=2, patch=32, seed=seed)
        hist = train(net, run_cfg, synthetic_stream(8, run_cfg))
        return float(np.mean([h[2] for h in hist[-10:]]))

    wins = 0
    outcomes = []
    for seed in range(5):
        full = final_rmse(seed, "tanh", True)
        baseline = final_rmse(seed, "clip", False)
        wins += full <= baseline
        outcomes.append(f"seed{seed}: {full:.4f} vs {baseline:.4f}")
    assert wins >= 4, f"SR+tanh beat the baseline in only {wins}/5 seeds: {outcomes}"

    elapsed = time.time() - t0
    assert elapsed < 900.0
    report(8, "training dynamics", f"(overfit {first:.3f}->{last:.3f}; ablation {wins}/5; {elapsed:.0f}s)")


def test_criterion_9_metric_sanity():
    t0 = time.time()
    img = np.zeros((32, 32))
    assert psnr(img + 0.1, img) == pytest.approx(20.0, abs=1e-9)  # MSE 0.01
    rng = np.random.default_rng(0)
    same = rng.random((4, 24, 24))
    assert psnr(same, same) == 100.0
    assert ssim(same, same) == pytest.approx(1.0, abs=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(9, "metric closed forms", f"({elapsed:.2f}s)")
