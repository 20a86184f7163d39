"""Single-disperser snapshot capture simulation and its inverse shift.

The optical model: a coded aperture modulates every spectral band of the
(n_bands, H, W) cube, the disperser then shifts band n right by
``step * n`` columns, and the detector sums the shifted bands into one 2-D
measurement of width W + step * (n_bands - 1).

``shift_back`` extracts window [step*n, step*n + W) of the measurement
into channel n, undoing the dispersion so every channel is spatially
aligned with the scene (band 0 anchors the window convention). With that
convention the aligned per-channel mask is the coded aperture itself photon
for photon, which is what ``shift_mask`` returns for every band.

Synthetic scenes replace full reference datasets for desk-scale training:
smooth low-frequency spatial fields whose band weights vary slowly along
the spectral axis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError, DomainError


@dataclass
class CassiSystem:
    """Coded aperture, dispersion step, and band count."""

    mask2d: np.ndarray
    step: int = 2
    n_bands: int = 28

    def __post_init__(self):
        # A copy: later writes to the caller's array must not reach the aperture.
        self.mask2d = np.array(self.mask2d, dtype=np.float32)
        if self.mask2d.ndim != 2:
            raise DimensionError(f"mask must be 2-D, got shape {self.mask2d.shape}")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not (self.mask2d.min() >= 0 and self.mask2d.max() <= 1):
            raise DomainError("mask values must lie in [0, 1]")
        if self.step < 0:
            raise ArgumentError(f"dispersion step must be >= 0, got {self.step}")
        if self.n_bands < 1:
            raise ArgumentError(f"band count must be >= 1, got {self.n_bands}")

    @property
    def measurement_width(self):
        return self.mask2d.shape[1] + self.step * (self.n_bands - 1)


def forward_capture(cube, sys):
    """Simulate a snapshot: modulate, disperse, integrate.

    cube: (n_bands, H, W) scene. Returns the (H, W + step*(n_bands-1))
    measurement.
    """
    cube = np.asarray(cube)
    h, w = sys.mask2d.shape
    if cube.shape != (sys.n_bands, h, w):
        raise DimensionError(
            f"cube shape {cube.shape} does not match ({sys.n_bands}, {h}, {w})"
        )
    y = np.zeros((h, sys.measurement_width), dtype=np.float64)
    for n in range(sys.n_bands):
        off = sys.step * n
        y[:, off : off + w] += sys.mask2d * cube[n]
    return y.astype(np.float32)


def shift_back(measurement, sys):
    """Extract per-band windows from a measurement into an (n_bands, H, W) cube."""
    measurement = np.asarray(measurement)
    h, w = sys.mask2d.shape
    if measurement.shape != (h, sys.measurement_width):
        raise DimensionError(
            f"measurement shape {measurement.shape} != ({h}, {sys.measurement_width})"
        )
    out = np.empty((sys.n_bands, h, w), dtype=np.float32)
    for n in range(sys.n_bands):
        off = sys.step * n
        out[n] = measurement[:, off : off + w]
    return out


def shift_mask(sys):
    """Per-band masks aligned to the shift-back windows.

    Band n's mask sits at its dispersed position on the wide canvas, and
    shift_back reads channel n through that same window, so channel n holds
    exactly the mask values that modulated cube band n during capture: the
    coded aperture itself, so the mask is broadcast over the bands into one
    contiguous float32 array.
    """
    h, w = sys.mask2d.shape
    return np.ascontiguousarray(np.broadcast_to(sys.mask2d, (sys.n_bands, h, w)), np.float32)


def add_shot_noise(measurement, bit_depth=11, seed=0):
    """Photon-counting noise at a detector bit depth.

    The measurement is normalized by its own maximum to [0, 2^bit_depth - 1]
    photon counts, each count replaced by a Poisson draw, then rescaled.
    ``bit_depth`` runs from 1 to 62: numpy's Poisson sampler rejects a mean
    of 2^63 - 1. A non-finite or negative measurement raises DomainError.
    """
    if not 1 <= bit_depth <= 62:
        raise ArgumentError(f"bit_depth must be in 1..62, got {bit_depth}")
    y = np.asarray(measurement)
    if not np.isfinite(y).all():
        raise DomainError("shot noise needs a finite measurement")
    if (y < 0).any():
        raise DomainError("shot noise needs a non-negative measurement")
    peak = float(y.max())
    if peak == 0.0:
        return y.astype(np.float32).copy()
    rng = np.random.default_rng(seed)
    full_scale = float(2**bit_depth - 1)
    counts = rng.poisson(y.astype(np.float64) / peak * full_scale)
    return (counts * (peak / full_scale)).astype(np.float32)


def synth_scene(seed, h, w, n_bands):
    """Smooth synthetic hyperspectral scene with values in [0, 1].

    A mixture of low-frequency 2-D cosine fields; each field's contribution
    drifts slowly across bands so neighbouring bands stay correlated.
    """
    if h < 1 or w < 1 or n_bands < 1:
        raise ArgumentError("scene dims must be positive")
    rng = np.random.default_rng(seed)
    n_components = 6
    ys, xs = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
    bands = np.arange(n_bands) / max(n_bands, 2)
    cube = np.zeros((n_bands, h, w), dtype=np.float64)
    for _ in range(n_components):
        fy, fx = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        field = np.cos(2 * np.pi * (fy * ys + fx * xs) + phase)
        f_spec = rng.uniform(0.25, 1.0)
        spec_phase = rng.uniform(0, 2 * np.pi)
        weights = rng.uniform(0.3, 1.0) * np.cos(2 * np.pi * f_spec * bands + spec_phase)
        cube += weights[:, None, None] * field[None]
    lo, hi = cube.min(), cube.max()
    cube = (cube - lo) / (hi - lo) if hi > lo else np.zeros_like(cube)
    return cube.astype(np.float32)


def random_mask(seed, h, w, density=0.5):
    """Seeded binary coded aperture."""
    rng = np.random.default_rng(seed)
    return (rng.random((h, w)) < density).astype(np.float32)


def crop_augment(cube, mask2d, patch, seed):
    """Aligned random crop plus a random dihedral-8 transform.

    The same crop offsets, rotation count and flip are applied to the scene
    cube and the mask so their pixels stay registered.
    """
    cube = np.asarray(cube)
    mask2d = np.asarray(mask2d)
    _, h, w = cube.shape
    if mask2d.shape != (h, w):
        raise DimensionError(f"mask {mask2d.shape} does not match scene spatial dims ({h}, {w})")
    if patch > min(h, w):
        raise ArgumentError(f"patch {patch} exceeds scene size {h}x{w}")
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, h - patch + 1))
    c = int(rng.integers(0, w - patch + 1))
    k = int(rng.integers(0, 4))
    flip = bool(rng.integers(0, 2))
    cc = cube[:, r : r + patch, c : c + patch]
    mm = mask2d[r : r + patch, c : c + patch]
    cc = np.rot90(cc, k, axes=(1, 2))
    mm = np.rot90(mm, k)
    if flip:
        cc = cc[:, :, ::-1]
        mm = mm[:, ::-1]
    return np.ascontiguousarray(cc), np.ascontiguousarray(mm)
