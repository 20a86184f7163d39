"""Sign binarization and its backward-pass surrogates.

Four surrogate kinds are supported:

    "clip"          piecewise linear, +-1 outside [-1, 1]
    "quad"          piecewise quadratic 2x + x^2 / 2x - x^2 (overshoots 1
                    inside (0, 1); kept for reference)
    "quad_bounded"  the standard bounded polynomial 2x - x^2 / 2x + x^2
    "tanh"          tanh(alpha * x) with a tunable sharpness alpha > 0

As alpha grows, tanh(alpha*x) converges to sign(x) pointwise and the total
approximation error area 2*ln(2)/alpha shrinks to zero, which is the whole
point of making alpha learnable.
"""

import math

import numpy as np

from .errors import ArgumentError

STE_KINDS = ("clip", "quad", "quad_bounded", "tanh")
QUADRATURE_SAMPLES = 400_001


def sign(x):
    """+1 where x > 0, -1 where x <= 0 (so sign(0) = -1)."""
    x = np.asarray(x)
    if np.isnan(x).any():
        raise ArgumentError("sign() received NaN input")
    one = np.asarray(1, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    return np.where(x > 0, one, -one)


def _check_kind(kind, alpha):
    if kind not in STE_KINDS:
        raise ArgumentError(f"unknown surrogate kind {kind!r}; expected one of {STE_KINDS}")
    if kind == "tanh" and not alpha > 0:
        raise ArgumentError(f"tanh surrogate needs alpha > 0, got {alpha}")


def ste_value(x, kind, alpha=1.0):
    """Evaluate the surrogate itself (the smooth stand-in for sign)."""
    _check_kind(kind, alpha)
    x = np.asarray(x, dtype=np.float64 if np.asarray(x).dtype.kind != "f" else None)
    if kind == "clip":
        return np.clip(x, -1.0, 1.0)
    if kind == "tanh":
        return np.tanh(alpha * x)
    pos = 2.0 * x + x * x if kind == "quad" else 2.0 * x - x * x
    neg = 2.0 * x - x * x if kind == "quad" else 2.0 * x + x * x
    out = np.where(x > 0, pos, neg)
    return np.where(np.abs(x) >= 1, np.sign(x), out)


def ste_grad(x, kind, alpha=1.0):
    """Derivative of :func:`ste_value`; the zero branch applies at |x| = 1."""
    _check_kind(kind, alpha)
    x = np.asarray(x, dtype=np.float64 if np.asarray(x).dtype.kind != "f" else None)
    if kind == "clip":
        return (np.abs(x) < 1).astype(x.dtype)
    if kind == "tanh":
        t = np.tanh(alpha * x)
        return alpha * (1.0 - t * t)
    inner = 2.0 + 2.0 * np.abs(x) if kind == "quad" else 2.0 - 2.0 * np.abs(x)
    return np.where(np.abs(x) < 1, inner, 0.0)


def binarize_weights(w):
    """Mean-|w| scaling: returns (scale, signs) with scale = mean(|w|)."""
    w = np.asarray(w)
    if w.size == 0:
        raise ArgumentError("binarize_weights() needs a non-empty array")
    return float(np.mean(np.abs(w))), sign(w)


def approx_error_area(kind, alpha=1.0):
    """Closed-form integral of |sign(x) - surrogate(x)| over the real line."""
    _check_kind(kind, alpha)
    if kind == "clip":
        return 1.0
    if kind == "quad_bounded":
        return 2.0 / 3.0
    if kind == "quad":
        # The unbounded polynomial crosses 1 at sqrt(2)-1 and overshoots after.
        return 2.0 * (8.0 * math.sqrt(2.0) - 9.0) / 3.0
    return 2.0 * math.log(2.0) / alpha


def approx_error_area_numeric(kind, alpha=1.0):
    """Quadrature cross-check of :func:`approx_error_area`.

    Integrates |sign - surrogate| by the trapezoid rule over
    QUADRATURE_SAMPLES points of [-h, h]: h is 2 for the piecewise kinds
    (the integrand vanishes beyond |x|=1) and 50/alpha for tanh, wide enough
    that the tail is < 1e-21.
    """
    _check_kind(kind, alpha)
    half_width = 2.0 if kind != "tanh" else 50.0 / alpha
    xs = np.linspace(-half_width, half_width, QUADRATURE_SAMPLES)
    diff = np.abs(sign(xs) - ste_value(xs, kind, alpha))
    return float(np.trapezoid(diff, xs))
