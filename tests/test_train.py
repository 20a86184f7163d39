import math
import os
import re

import numpy as np
import pytest

from bisrnet import checkpoint
from bisrnet.cassi import CassiSystem, random_mask, synth_scene
from bisrnet.checkpoint import load_checkpoint, save_checkpoint
from bisrnet.errors import ArgumentError, DimensionError, DomainError, StateError
from bisrnet.hst import read_hst, write_hst
from bisrnet.layers import Param
from bisrnet.network import NetworkConfig, build
from bisrnet.train import (
    AdamState,
    TrainConfig,
    adam_step,
    cosine_lr,
    evaluate,
    psnr,
    rmse_loss,
    ssim,
    synthetic_stream,
    train,
)


class TestRmseLoss:
    def test_perfect_fit(self):
        x = np.ones((2, 3, 4, 4), dtype=np.float32)
        loss, _ = rmse_loss(x, x)
        assert loss == 0.0

    def test_constant_offset(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        loss, _ = rmse_loss(x + 0.25, x)
        assert loss == pytest.approx(0.25)
        loss, _ = rmse_loss(x - 0.25, x)
        assert loss == pytest.approx(0.25)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal((1, 2, 3, 3))
        target = rng.standard_normal((1, 2, 3, 3))
        _, grad = rmse_loss(pred, target)
        h = 1e-7
        flat = pred.reshape(-1)
        for i in rng.choice(flat.size, 6, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = rmse_loss(pred, target)
            flat[i] = orig - h
            dn, _ = rmse_loss(pred, target)
            flat[i] = orig
            np.testing.assert_allclose(grad.reshape(-1)[i], (up - dn) / (2 * h), rtol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            rmse_loss(np.zeros((1, 2)), np.zeros((2, 1)))

    def test_empty_input_rejected(self):
        # The mean of nothing would be nan, with only a RuntimeWarning.
        empty = np.zeros((0, 2, 3, 3), np.float32)
        with pytest.raises(DimensionError, match=r"non-empty arrays, got shape \(0, 2, 3, 3\)"):
            rmse_loss(empty, empty)


class TestAdam:
    def make_param(self, value):
        return Param("p", np.asarray(value, dtype=np.float32))

    def test_zero_grad_no_move(self):
        p = self.make_param([1.0, -2.0])
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.1)
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_first_step_magnitude_and_direction(self):
        # With constant gradient g, the first update is
        # lr * g / (|g| + eps) ~= lr * sign(g).
        p = self.make_param([1.0, 1.0])
        p.grad[...] = [0.5, -2.0]
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.01)
        np.testing.assert_allclose(p.value, [1.0 - 0.01, 1.0 + 0.01], rtol=1e-5)

    def test_min_value_clamp(self):
        p = Param("alpha", np.asarray(0.0011, dtype=np.float32), min_value=1e-3)
        p.grad[...] = 100.0
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.5)
        assert p.value >= 1e-3

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            p = self.make_param(np.linspace(-1, 1, 8))
            state = AdamState.for_params([p])
            for t in range(5):
                p.grad[...] = np.sin(np.arange(8) + t)
                adam_step([p], state, lr=0.03)
            runs.append(p.value.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestCosineLR:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert cosine_lr(100, 100, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert cosine_lr(50, 100, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_out_of_range(self):
        with pytest.raises(ArgumentError):
            cosine_lr(101, 100, 1e-3, 1e-5)

    def test_schedule_without_steps_rejected(self):
        with pytest.raises(ArgumentError, match="total steps must be >= 1, got 0"):
            cosine_lr(0, 0, 1e-3, 1e-5)


class TestMetrics:
    @pytest.mark.parametrize("metric", [psnr, ssim], ids=["psnr", "ssim"])
    def test_no_bands_rejected(self, metric):
        empty = np.zeros((0, 16, 16))
        with pytest.raises(DimensionError, match=r"non-empty images, got shape \(0, 16, 16\)"):
            metric(empty, empty)

    def test_psnr_of_empty_bands_rejected(self):
        empty = np.zeros((2, 0, 0))
        with pytest.raises(DimensionError, match=r"non-empty images, got shape \(2, 0, 0\)"):
            psnr(empty, empty)

    def test_identical_images(self):
        rng = np.random.default_rng(1)
        img = rng.random((4, 32, 32))
        assert psnr(img, img) == 100.0
        assert ssim(img, img) == pytest.approx(1.0)

    def test_known_mse(self):
        img = np.zeros((32, 32))
        noisy = img + 0.1  # MSE = 0.01
        assert psnr(noisy, img) == pytest.approx(20.0)

    def test_ssim_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.random((24, 24))
        b = rng.random((24, 24))
        assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-12)

    def test_psnr_direct_recomputation(self):
        rng = np.random.default_rng(3)
        a = rng.random((3, 20, 20))
        b = rng.random((3, 20, 20))
        got = psnr(a, b)
        want = np.mean(
            [10 * math.log10(1.0 / np.mean((a[i] - b[i]) ** 2)) for i in range(3)]
        )
        assert got == pytest.approx(want, abs=1e-6)

    def test_psnr_casts_band_by_band_with_the_whole_cube_bytes(self):
        # float -> float64 is exact, so casting each band alone gives the
        # bytes of the formula that casts the whole cube first.
        def whole_cube_psnr(pred, target):
            pred = np.asarray(pred, dtype=np.float64)
            target = np.asarray(target, dtype=np.float64)
            vals = []
            for p, t in zip(pred, target):
                mse = float(np.mean((p - t) ** 2))
                vals.append(100.0 if mse < 1e-10 else min(10.0 * math.log10(1.0 / mse), 100.0))
            return float(np.mean(vals))

        rng = np.random.default_rng(5)
        for dt in (np.float32, np.float64):
            a = rng.random((5, 33, 21)).astype(dt)
            b = rng.random((5, 33, 21)).astype(dt)
            channel_last = np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)
            assert psnr(a, b) == whole_cube_psnr(a, b)
            assert psnr(channel_last, b) == whole_cube_psnr(channel_last, b)

    @staticmethod
    def per_window_ssim(a, b):
        """Unvectorized per-window recomputation of the SSIM map, averaged
        over bands."""
        x = np.arange(11) - 5.0
        g1 = np.exp(-(x * x) / (2 * 1.5 * 1.5))
        g1 /= g1.sum()
        win = np.outer(g1, g1)
        c1, c2 = 0.01**2, 0.03**2
        if a.ndim == 2:
            a, b = a[None], b[None]
        bands = []
        for pa_band, pb_band in zip(a, b):
            vals = []
            h, w = pa_band.shape
            for r in range(h - 10):
                for c in range(w - 10):
                    pa = pa_band[r : r + 11, c : c + 11]
                    pb = pb_band[r : r + 11, c : c + 11]
                    mu_a = (pa * win).sum()
                    mu_b = (pb * win).sum()
                    va = (pa * pa * win).sum() - mu_a**2
                    vb = (pb * pb * win).sum() - mu_b**2
                    cov = (pa * pb * win).sum() - mu_a * mu_b
                    vals.append(
                        ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
                    )
            bands.append(np.mean(vals))
        return float(np.mean(bands))

    def test_ssim_direct_recomputation(self):
        # 13x14 and 19x30 end in a partial filter tile along each axis;
        # 11x11 has one output, and 3x27x20 has 17x10 outputs per band.
        rng = np.random.default_rng(4)
        for shape in [(13, 14), (11, 11), (19, 30), (3, 27, 20)]:
            a = rng.random(shape)
            b = rng.random(shape)
            assert ssim(a, b) == pytest.approx(self.per_window_ssim(a, b), abs=1e-12), shape

    def test_ssim_of_float32_is_that_of_its_float64_cast(self):
        rng = np.random.default_rng(6)
        a = rng.random((3, 40, 29), dtype=np.float32)
        b = rng.random((3, 40, 29), dtype=np.float32)
        assert ssim(a, b) == ssim(a.astype(np.float64), b.astype(np.float64))

    def test_ssim_matches_the_per_map_filter(self):
        # The earlier implementation: five separable 'valid' filters per
        # band through sliding windows, on float64 copies of the cube.
        from numpy.lib.stride_tricks import sliding_window_view

        def filter_valid(img, k):
            rows = sliding_window_view(img, k.size, axis=0) @ k
            return sliding_window_view(rows, k.size, axis=1) @ k

        def reference_ssim(pred, target):
            x = np.arange(11) - 5.0
            k = np.exp(-(x * x) / (2 * 1.5 * 1.5))
            k /= k.sum()
            c1, c2 = 0.01**2, 0.03**2
            vals = []
            for p, t in zip(pred.astype(np.float64), target.astype(np.float64)):
                mu_p = filter_valid(p, k)
                mu_t = filter_valid(t, k)
                var_p = filter_valid(p * p, k) - mu_p * mu_p
                var_t = filter_valid(t * t, k) - mu_t * mu_t
                cov = filter_valid(p * t, k) - mu_p * mu_t
                num = (2 * mu_p * mu_t + c1) * (2 * cov + c2)
                den = (mu_p * mu_p + mu_t * mu_t + c1) * (var_p + var_t + c2)
                vals.append(float(np.mean(num / den)))
            return float(np.mean(vals))

        rng = np.random.default_rng(7)
        target = rng.random((4, 64, 64), dtype=np.float32)
        pred = np.clip(target + 0.1 * rng.standard_normal(target.shape, np.float32), 0, 1)
        assert ssim(pred, target) == pytest.approx(reference_ssim(pred, target), abs=1e-12)

    @pytest.mark.parametrize("metric", [psnr, ssim], ids=["psnr", "ssim"])
    @pytest.mark.parametrize("shape", [(), (16,), (1, 2, 16, 16)], ids=["0d", "1d", "4d"])
    def test_metrics_reject_other_ranks(self, metric, shape):
        # psnr used to score a 1-D pair 0.0 dB, average a 4-D batch per
        # item and raise a bare TypeError at 0-d.
        with pytest.raises(DimensionError, match="2-D or 3-D"):
            metric(np.zeros(shape), np.zeros(shape))

    def test_too_small_for_ssim(self):
        with pytest.raises(DimensionError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def tiny_net(seed=0, **cfg_kw):
    cfg_kw.setdefault("base_channels", 8)
    cfg_kw.setdefault("n_wavelengths", 8)
    return build(NetworkConfig(**cfg_kw), seed=seed)


class TestTrainLoop:
    def test_history_length_and_format(self):
        net = tiny_net()
        cfg = TrainConfig(steps=3, batch=1, patch=16, seed=0)
        hist = train(net, cfg, synthetic_stream(8, cfg))
        assert len(hist) == 3
        steps, lrs, losses = zip(*hist)
        assert steps == (0, 1, 2)
        assert all(lr > 0 for lr in lrs)
        assert all(np.isfinite(losses))

    def test_reproducible_history(self):
        hists = []
        for _ in range(2):
            net = tiny_net(seed=3)
            cfg = TrainConfig(steps=4, batch=1, patch=16, seed=7)
            hists.append(train(net, cfg, synthetic_stream(8, cfg)))
        assert hists[0] == hists[1]  # bit-identical losses and lrs

    def test_noise_flag_changes_stream(self):
        cfg_a = TrainConfig(steps=1, batch=1, patch=16, seed=7, noise=False)
        cfg_b = TrainConfig(steps=1, batch=1, patch=16, seed=7, noise=True)
        ha = synthetic_stream(8, cfg_a)(0)[0]
        hb = synthetic_stream(8, cfg_b)(0)[0]
        assert not np.array_equal(ha, hb)

    def test_evaluate_perfect_predictor_rows(self):
        # Force the network aside: evaluating target == prediction hits the
        # metric caps.
        rows = [("scene0", psnr(np.ones((4, 16, 16)), np.ones((4, 16, 16))),
                 ssim(np.ones((4, 16, 16)), np.ones((4, 16, 16))))]
        assert rows[0][1] == 100.0
        assert rows[0][2] == pytest.approx(1.0)

    def test_non_finite_loss_raises_at_its_step(self):
        net = tiny_net(seed=2)
        cfg = TrainConfig(steps=4, batch=1, patch=16, seed=0)
        stream = synthetic_stream(8, cfg)

        def batch_fn(step):
            h_in, m_in, target = stream(step)
            if step == 2:
                target[0, 0, 0, 0] = np.nan
            return h_in, m_in, target

        with pytest.raises(DomainError, match=r"^step 2: loss is nan$"):
            train(net, cfg, batch_fn)
        assert all(np.isfinite(p.value).all() for p in net.params())

    def test_non_finite_grad_names_step_and_first_param(self, monkeypatch):
        net = tiny_net(seed=2)
        params = net.params()
        backward = net.backward

        def poisoned(grad):
            out = backward(grad)
            params[7].grad.flat[0] = np.inf
            params[3].grad.flat[-1] = -np.inf
            return out

        monkeypatch.setattr(net, "backward", poisoned)
        cfg = TrainConfig(steps=2, batch=1, patch=16, seed=0)
        before = [p.value.copy() for p in params]
        msg = rf"^step 0: gradient of {re.escape(params[3].name)} is not finite$"
        with pytest.raises(DomainError, match=msg):
            train(net, cfg, synthetic_stream(8, cfg))
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.value, b)

    def test_evaluate_reports_per_scene(self):
        net = tiny_net(seed=1)
        scenes = [synth_scene(s, 16, 16, 8) for s in range(2)]
        sys = CassiSystem(random_mask(0, 16, 16), step=2, n_bands=8)
        rows, avg = evaluate(net, scenes, sys)
        assert len(rows) == 2
        assert avg[0] == pytest.approx(np.mean([r[1] for r in rows]))

    def test_evaluate_without_scenes_rejected(self):
        sys = CassiSystem(random_mask(0, 16, 16), step=2, n_bands=8)
        with pytest.raises(ArgumentError, match="at least one scene"):
            evaluate(tiny_net(seed=1), [], sys)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = tiny_net(seed=5)
        cfg = TrainConfig(steps=2, batch=1, patch=16, seed=1)
        train(net, cfg, synthetic_stream(8, cfg))
        save_checkpoint(net, tmp_path / "ckpt")
        other = tiny_net(seed=6)
        load_checkpoint(other, tmp_path / "ckpt")
        for pa, pb in zip(net.params(), other.params()):
            np.testing.assert_array_equal(pa.value, pb.value)
        rng = np.random.default_rng(0)
        h_in = rng.random((1, 8, 16, 16), dtype=np.float32)
        m_in = rng.random((1, 8, 16, 16), dtype=np.float32)
        np.testing.assert_array_equal(net.forward(h_in, m_in), other.forward(h_in, m_in))

    def test_mismatched_architecture_rejected(self, tmp_path):
        net = tiny_net(seed=5)
        save_checkpoint(net, tmp_path / "ckpt")
        other = build(NetworkConfig(base_channels=8, n_wavelengths=8, ste="clip"), seed=0)
        with pytest.raises(StateError):
            load_checkpoint(other, tmp_path / "ckpt")

    @pytest.mark.parametrize("fault", ["missing", "size"])
    def test_failed_load_changes_no_parameter(self, tmp_path, fault):
        # The fault is in the last parameter, so every other one is read
        # and checked before the load fails.
        save_checkpoint(tiny_net(seed=5), tmp_path / "ckpt")
        index = tmp_path / "ckpt" / "index.txt"
        lines = index.read_text().splitlines()
        name, _, role, fname = lines[-1].split("\t")
        lines[-1:] = [] if fault == "missing" else [f"{name}\t1\t{role}\t{fname}"]
        index.write_text("\n".join(lines) + "\n")
        net = tiny_net(seed=6)
        before = [p.value.copy() for p in net.params()]
        with pytest.raises(StateError, match=name):
            load_checkpoint(net, tmp_path / "ckpt")
        for p, value in zip(net.params(), before):
            np.testing.assert_array_equal(p.value, value)

    @pytest.mark.parametrize("fault, line_no, message", [
        ("tab", 4, "expected 4 tab-separated fields, got 3"),
        ("shape", 2, "shape '8x8' is neither 'scalar' nor comma-separated sizes"),
        ("twice", 3, "parameter .* is listed twice"),
    ], ids=["tab", "shape", "twice"])
    def test_malformed_index_line_rejected(self, tmp_path, fault, line_no, message):
        save_checkpoint(tiny_net(seed=5), tmp_path / "ckpt")
        index = tmp_path / "ckpt" / "index.txt"
        lines = index.read_text().splitlines()
        if fault == "tab":
            lines[3] = lines[3].replace("\t", " ", 1)
        elif fault == "shape":
            name, _, role, fname = lines[1].split("\t")
            lines[1] = f"{name}\t8x8\t{role}\t{fname}"
        else:
            lines[2] = lines[0]
        index.write_text("\n".join(lines) + "\n")
        net = tiny_net(seed=6)
        before = [p.value.copy() for p in net.params()]
        where = re.escape(f"{index}, line {line_no}: ")
        with pytest.raises(StateError, match=f"^{where}{message}$"):
            load_checkpoint(net, tmp_path / "ckpt")
        for p, value in zip(net.params(), before):
            np.testing.assert_array_equal(p.value, value)

    def test_good_save_layout(self, tmp_path):
        net = tiny_net(seed=5)
        params = net.params()
        save_checkpoint(net, tmp_path / "ckpt")
        names = [f"{i:04d}.hst" for i in range(len(params))]
        assert sorted(os.listdir(tmp_path / "ckpt")) == names + ["index.txt"]
        lines = (tmp_path / "ckpt" / "index.txt").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == [p.name for p in params]
        assert [line.split("\t")[3] for line in lines] == names
        for p, fname in zip(params, names):
            stored = read_hst(tmp_path / "ckpt" / fname)
            np.testing.assert_array_equal(stored.reshape(p.value.shape), p.value)

    def test_failed_save_leaves_no_index(self, tmp_path, monkeypatch):
        save_checkpoint(tiny_net(seed=5), tmp_path / "ckpt")
        calls = []

        def failing_write(path, arr):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            write_hst(path, arr)

        monkeypatch.setattr(checkpoint, "write_hst", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tiny_net(seed=6), tmp_path / "ckpt")
        with pytest.raises(IOError, match="checkpoint index not found"):
            load_checkpoint(tiny_net(seed=7), tmp_path / "ckpt")
