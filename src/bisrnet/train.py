"""Loss, optimizer, schedule, metrics, and the training/evaluation loops."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import cassi, layers, split
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
    keep the gradient finite at an exact fit. Empty arrays raise
    DimensionError.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise DimensionError(f"pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise DimensionError(f"rmse_loss needs non-empty arrays, got shape {pred.shape}")
    diff = pred - target
    loss = float(np.sqrt(np.mean(diff.astype(np.float64) ** 2)))
    grad = diff / np.asarray(pred.size * max(loss, LOSS_FLOOR), pred.dtype)
    return loss, grad


def cosine_lr(t, total, lr_max, lr_min):
    """Cosine annealing from lr_max at t=0 to lr_min at t=total."""
    if total < 1:
        raise ArgumentError(f"total steps must be >= 1, got {total}")
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


def _image_pair(pred, target):
    """``pred`` and ``target`` as arrays of one 3-D (bands, h, w) shape, a
    2-D image as one band. Any other shape or rank, or an empty image,
    raises DimensionError."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise DimensionError(f"pred {pred.shape} vs target {target.shape}")
    if pred.ndim == 2:
        pred, target = pred[None], target[None]
    if pred.ndim != 3:
        raise DimensionError(f"PSNR and SSIM take 2-D or 3-D images, got shape {pred.shape}")
    if pred.size == 0:
        raise DimensionError(f"PSNR and SSIM take non-empty images, got shape {pred.shape}")
    return pred, target


def psnr(pred, target):
    """Peak SNR in dB for a peak of 1, averaged over bands for 3-D inputs,
    capped at 100. Other ranks raise DimensionError, as in :func:`ssim`.

    Each band is cast to float64 on its own, inside the subtraction, so no
    float64 copy of the whole cube is made; the cast is exact, so the
    result is that of the cube cast whole.
    """
    pred, target = _image_pair(pred, target)
    vals = []
    for p, t in zip(pred, target):
        d = np.subtract(p, t, dtype=np.float64)
        mse = float(np.mean(d * d))
        if mse < PSNR_MSE_FLOOR:
            vals.append(PSNR_CAP_DB)
        else:
            vals.append(min(10.0 * math.log10(1.0 / mse), PSNR_CAP_DB))
    return float(np.mean(vals))


def _gaussian_window(size, sigma):
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _toeplitz_band(kernel, tile):
    """The (tile + k - 1, tile) matrix whose column j holds the k-tap kernel
    in rows j..j+k-1. For v with tile + k - 1 entries along an axis, ``v @
    band`` (last axis) or ``band.T @ v`` (first axis) gives ``tile``
    consecutive outputs of v's valid correlation with the kernel."""
    band = np.zeros((tile + kernel.size - 1, tile))
    for j in range(tile):
        band[j:j + kernel.size, j] = kernel
    return band


_SSIM_WINDOW = _gaussian_window(11, 1.5)
_SSIM_TILE = 8
_SSIM_BAND = _toeplitz_band(_SSIM_WINDOW, _SSIM_TILE)


def _band_tiles(n_out):
    """(output slice, input slice, band block) for each tile of at most
    _SSIM_TILE of the n_out valid outputs along one axis. A shorter last
    tile of m outputs takes the band's top-left (m + k - 1, m) block."""
    for i in range(0, n_out, _SSIM_TILE):
        m = min(_SSIM_TILE, n_out - i)
        block = _SSIM_BAND[: m + _SSIM_WINDOW.size - 1, :m]
        yield slice(i, i + m), slice(i, i + block.shape[0]), block


def ssim(pred, target):
    """Single-scale SSIM for a peak of 1, with an 11x11 Gaussian window
    (sigma 1.5) over valid positions only.

    Band images below the window size are rejected. 3-D inputs are scored
    per band and averaged.

    Each band is cast into a reused (h, 5, w) float64 buffer of its five
    maps p, t, p*p, t*t and p*t. The separable Gaussian filter then runs
    as GEMMs on tiles of _SSIM_TILE outputs against one Toeplitz band of
    the window: down the rows on all five maps at once, then along the
    columns. The SSIM map is formed in place in three reused (ho, wo)
    buffers. The bands run through :func:`split.run_rows` on every CPU the
    process may use, each CPU's run of bands with its own set of these
    buffers. Memory therefore grows with the CPU count, one buffer set per
    CPU, but not with the band count, and no float64 copy of the cube is
    made; float32 inputs score exactly as their float64 casts. Each band's
    mean lands in its own slot, and the mean over the bands runs in band
    order, so the result does not depend on the CPU count.
    """
    pred, target = _image_pair(pred, target)
    n = _SSIM_WINDOW.size
    h, w = pred.shape[1:]
    if min(h, w) < n:
        raise DimensionError(f"images must be at least {n}x{n} for SSIM")
    ho, wo = h - n + 1, w - n + 1
    c1 = 0.01**2
    c2 = 0.03**2
    vals = np.empty(len(pred))

    def scratch():
        maps = np.empty((h, 5, w))
        rows = np.empty((ho, 5, w))  # the maps filtered down the rows
        moments = np.empty((ho, 5, wo))  # and along the columns: local means
        return maps, rows, moments, np.empty((ho, wo)), np.empty((ho, wo)), np.empty((ho, wo))

    def band(i, _, maps, rows, moments, a, b, c):
        row_in, row_out = maps.reshape(h, 5 * w), rows.reshape(ho, 5 * w)
        col_in, col_out = rows.reshape(ho * 5, w), moments.reshape(ho * 5, wo)
        mu_p, mu_t, e_pp, e_tt, e_pt = moments.transpose(1, 0, 2)
        maps[:, 0] = pred[i]
        maps[:, 1] = target[i]
        np.multiply(maps[:, 0], maps[:, 0], out=maps[:, 2])
        np.multiply(maps[:, 1], maps[:, 1], out=maps[:, 3])
        np.multiply(maps[:, 0], maps[:, 1], out=maps[:, 4])
        for out, win, block in _band_tiles(ho):
            np.matmul(block.T, row_in[win], out=row_out[out])
        for out, win, block in _band_tiles(wo):
            np.matmul(col_in[:, win], block, out=col_out[:, out])
        # num = (2 mu_p mu_t + c1) (2 cov + c2), into a
        np.multiply(mu_p, mu_t, out=a)
        np.subtract(e_pt, a, out=b)
        b *= 2
        b += c2
        a *= 2
        a += c1
        a *= b
        # den = (mu_p^2 + mu_t^2 + c1) (var_p + var_t + c2), into b
        np.multiply(mu_p, mu_p, out=b)
        np.multiply(mu_t, mu_t, out=c)
        e_pp -= b
        e_tt -= c
        b += c
        b += c1
        e_pp += e_tt
        e_pp += c2
        b *= e_pp
        a /= b
        vals[i] = np.mean(a)

    # Each band writes only its own entry of vals, so the bands run split
    # over the CPUs, and the mean over them runs in band order.
    split.run_rows(band, len(pred), 1, scratch)
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
        if self.patch < 1:
            raise ArgumentError(f"patch must be >= 1, got {self.patch}")


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
    No scene raises ArgumentError: there is no average to report.
    """
    m_in = cassi.shift_mask(sys)[None]
    rows = []
    for i, cube in enumerate(scenes):
        y = cassi.forward_capture(cube, sys)
        h_in = cassi.shift_back(y, sys)[None]
        with layers.inference():
            pred = net.forward(h_in.astype(net.dtype), m_in.astype(net.dtype))[0]
        rows.append((f"scene{i}", psnr(pred, cube), ssim(pred, cube)))
    if not rows:
        raise ArgumentError("evaluate needs at least one scene")
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
