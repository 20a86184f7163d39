"""Loss, optimizer, schedule, metrics, and the training/evaluation loops."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import cassi, layers
from .errors import ArgumentError, DimensionError, DomainError

LOSS_FLOOR = 1e-12
PSNR_CAP_DB = 100.0
PSNR_MSE_FLOOR = 1e-10
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def rmse_loss(pred, target):
    """Root-mean-square error and its gradient w.r.t. pred.

    grad = (pred - target) / (N * loss), with the loss floored at 1e-12 to
    keep the gradient finite at an exact fit.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise DimensionError(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    loss = float(np.sqrt(np.mean(diff.astype(np.float64) ** 2)))
    grad = diff / np.asarray(pred.size * max(loss, LOSS_FLOOR), pred.dtype)
    return loss, grad


def cosine_lr(t, total, lr_max, lr_min):
    """Cosine annealing from lr_max at t=0 to lr_min at t=total."""
    if not 0 <= t <= total:
        raise ArgumentError(f"step {t} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / total))


@dataclass
class AdamState:
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(
            m=[np.zeros_like(p.value, dtype=np.float64) for p in params],
            v=[np.zeros_like(p.value, dtype=np.float64) for p in params],
        )


def adam_step(params, state, lr):
    """One bias-corrected Adam update in place, with the ADAM_* constants.

    Parameters carrying a min_value (the tanh sharpness alphas) are clamped
    after the update.
    """
    if len(state.m) != len(params):
        raise DimensionError("optimizer state does not mirror the parameter list")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad.astype(np.float64)
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        update = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p.value[...] = p.value - update.astype(p.value.dtype)
        if p.min_value is not None:
            np.maximum(p.value, p.min_value, out=p.value)


def psnr(pred, target):
    """Peak SNR in dB for a peak of 1, averaged over bands for 3-D inputs,
    capped at 100."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"pred {pred.shape} vs target {target.shape}")
    if pred.ndim == 2:
        pred, target = pred[None], target[None]
    vals = []
    for p, t in zip(pred, target):
        mse = float(np.mean((p - t) ** 2))
        if mse < PSNR_MSE_FLOOR:
            vals.append(PSNR_CAP_DB)
        else:
            vals.append(min(10.0 * math.log10(1.0 / mse), PSNR_CAP_DB))
    return float(np.mean(vals))


def _gaussian_window(size, sigma):
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


_SSIM_WINDOW = _gaussian_window(11, 1.5)


def _filter_valid(img, kernel):
    """Separable 'valid' correlation with a 1-D kernel along both axes."""
    from numpy.lib.stride_tricks import sliding_window_view

    rows = sliding_window_view(img, kernel.size, axis=0) @ kernel
    return sliding_window_view(rows, kernel.size, axis=1) @ kernel


def ssim(pred, target):
    """Single-scale SSIM for a peak of 1, with an 11x11 Gaussian window
    (sigma 1.5).

    Band images below the window size are rejected. 3-D inputs are scored
    per band and averaged.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"pred {pred.shape} vs target {target.shape}")
    if pred.ndim == 2:
        pred, target = pred[None], target[None]
    k = _SSIM_WINDOW
    if min(pred.shape[-2:]) < k.size:
        raise DimensionError(f"images must be at least {k.size}x{k.size} for SSIM")
    c1 = 0.01**2
    c2 = 0.03**2
    vals = []
    for p, t in zip(pred, target):
        mu_p = _filter_valid(p, k)
        mu_t = _filter_valid(t, k)
        var_p = _filter_valid(p * p, k) - mu_p * mu_p
        var_t = _filter_valid(t * t, k) - mu_t * mu_t
        cov = _filter_valid(p * t, k) - mu_p * mu_t
        num = (2 * mu_p * mu_t + c1) * (2 * cov + c2)
        den = (mu_p * mu_p + mu_t * mu_t + c1) * (var_p + var_t + c2)
        vals.append(float(np.mean(num / den)))
    return float(np.mean(vals))


@dataclass
class TrainConfig:
    steps: int = 500
    batch: int = 2
    lr_max: float = 4e-4
    lr_min: float = 1e-6
    patch: int = 48
    seed: int = 0
    noise: bool = False

    def __post_init__(self):
        if self.batch < 1:
            raise ArgumentError("batch must be >= 1")
        if self.lr_min > self.lr_max:
            raise ArgumentError("lr_min must not exceed lr_max")
        if self.steps < 1:
            raise ArgumentError("steps must be >= 1")


def make_sample(scene, mask2d, sys_step, cfg, sample_seed):
    """Build one (h_input, m_input, target) training triple.

    Crops/augments the scene and mask, simulates the capture (optionally
    with shot noise), shifts it back, and pairs it with the aligned mask
    channels. Deterministic in sample_seed.
    """
    cube, mask = cassi.crop_augment(scene, mask2d, cfg.patch, sample_seed)
    sys = cassi.CassiSystem(mask, step=sys_step, n_bands=cube.shape[0])
    y = cassi.forward_capture(cube, sys)
    if cfg.noise:
        y = cassi.add_shot_noise(y, seed=sample_seed)
    h_in = cassi.shift_back(y, sys)
    m_in = cassi.shift_mask(sys)
    return h_in, m_in, cube


def synthetic_stream(n_bands, cfg, scene_size=None, n_scenes=4, sys_step=2):
    """Deterministic batch generator over a pool of synthetic scenes.

    batch_fn(step) stacks cfg.batch samples; the crop, augmentation and
    noise seeds derive from (cfg.seed, step, slot), so sample order is a
    pure function of the config. Scenes are ``scene_size`` square, or
    2 * cfg.patch when it is None.
    """
    if n_scenes < 1:
        raise ArgumentError(f"scene pool size must be at least 1, got {n_scenes}")
    size = 2 * cfg.patch if scene_size is None else scene_size
    scenes = [
        cassi.synth_scene(cfg.seed * 1000 + i, size, size, n_bands)
        for i in range(n_scenes)
    ]
    mask = cassi.random_mask(cfg.seed * 1000 + 999, size, size)

    def batch_fn(step):
        hs, ms, ts = [], [], []
        for slot in range(cfg.batch):
            seed_int = (cfg.seed * 1_000_003 + step * 1009 + slot) % (2**32)
            scene = scenes[(step * cfg.batch + slot) % len(scenes)]
            h_in, m_in, cube = make_sample(scene, mask, sys_step, cfg, seed_int)
            hs.append(h_in)
            ms.append(m_in)
            ts.append(cube)
        return np.stack(hs), np.stack(ms), np.stack(ts)

    return batch_fn


def train(net, cfg, batch_fn, log_every=0):
    """Run cfg.steps Adam updates; returns [(step, lr, loss), ...].

    A non-finite loss, or a non-finite gradient in any parameter, raises
    DomainError naming the step (and the first such parameter, in
    ``net.params()`` order) before the update can spread it into the
    weights.
    """
    params = net.params()
    state = AdamState.for_params(params)
    history = []
    for step in range(cfg.steps):
        h_in, m_in, target = batch_fn(step)
        pred = net.forward(h_in.astype(net.dtype), m_in.astype(net.dtype))
        loss, grad = rmse_loss(pred, target.astype(net.dtype))
        if not math.isfinite(loss):
            raise DomainError(f"step {step}: loss is {loss}")
        net.zero_grads()
        net.backward(grad)
        for p in params:
            if not np.isfinite(p.grad).all():
                raise DomainError(f"step {step}: gradient of {p.name} is not finite")
        lr = cosine_lr(step, cfg.steps, cfg.lr_max, cfg.lr_min)
        adam_step(params, state, lr)
        history.append((step, lr, loss))
        if log_every and step % log_every == 0:
            print(f"step {step:5d}  lr {lr:.3e}  rmse {loss:.5f}")
    return history


def evaluate(net, scenes, sys):
    """Reconstruct each scene from its clean simulated snapshot.

    Returns ([(name, psnr_db, ssim), ...], (avg_psnr, avg_ssim)). The
    forwards run under :func:`layers.inference`, keeping no backward caches.
    """
    m_in = cassi.shift_mask(sys)[None]
    rows = []
    for i, cube in enumerate(scenes):
        y = cassi.forward_capture(cube, sys)
        h_in = cassi.shift_back(y, sys)[None]
        with layers.inference():
            pred = net.forward(h_in.astype(net.dtype), m_in.astype(net.dtype))[0]
        rows.append((f"scene{i}", psnr(pred, cube), ssim(pred, cube)))
    avg = (
        float(np.mean([r[1] for r in rows])),
        float(np.mean([r[2] for r in rows])),
    )
    return rows, avg


__all__ = [
    "AdamState",
    "TrainConfig",
    "adam_step",
    "cosine_lr",
    "evaluate",
    "make_sample",
    "psnr",
    "rmse_loss",
    "ssim",
    "synthetic_stream",
    "train",
]
