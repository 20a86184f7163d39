import numpy as np

from bisrnet.binarize import sign
from bisrnet.tensor import conv2d_ref


def cached(layer):
    """What a layer's last forward kept for its backward, which ``_cache``
    holds beside the shape and dtype of that forward's output."""
    return layer._cache[0]


def bisr_reference(x, layer):
    """Straight-line recomposition of a BiSRConv forward from primitives.

    Kept independent of the layer's own forward: redistribution, sign,
    dense reference convolution with -1 padding and mean-|w| scaled sign
    weights, RPReLU in its plain five-temporary form, residual add.
    """
    if layer.gain is not None:
        xr = layer.gain.value[None, :, None, None] * x + layer.shift.value[None, :, None, None]
    else:
        xr = x
    w = layer.weight.value
    scale = np.asarray(np.mean(np.abs(w)), x.dtype)
    y = scale * conv2d_ref(sign(xr), sign(w), stride=1, pad=1, pad_value=-1.0)
    b, g, z = (p.value[None, :, None, None] for p in (layer.beta, layer.gamma, layer.zeta))
    return x + (np.where(y > g, y - g, b * (y - g)) + z)


def relative_error(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def finite_difference_check(loss_fn, targets, rng, n_coords=6, h=1e-6, rtol=1e-4):
    """Compare analytic gradients against central finite differences.

    targets: list of (array, analytic_grad, label). Arrays are perturbed in
    place (float64 expected). Samples up to n_coords coordinates per array;
    vectors and scalars are checked exhaustively.
    """
    worst = 0.0
    for arr, grad, label in targets:
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        if flat.size <= max(n_coords, 8):
            idx = np.arange(flat.size)
        else:
            idx = rng.choice(flat.size, size=n_coords, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            dn = loss_fn()
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            err = relative_error(gflat[i], fd)
            worst = max(worst, err)
            assert err < rtol, f"{label}[{i}]: analytic {gflat[i]:.8g} vs fd {fd:.8g} (rel {err:.2e})"
    return worst
