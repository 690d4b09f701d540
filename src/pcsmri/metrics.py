"""Image quality metrics for reconstructions against a ground truth.

All scalar metrics compare magnitude images: complex inputs are reduced
with abs() first. PSNR and SSIM are asymmetric (the second argument is
the reference supplying peak and dynamic range); RMSE and NMSE are the
usual l2 quantities. An optional boolean support restricts the
comparison to the region where the reconstruction is defined.
"""

import math

import numpy as np

from .errors import ConfigError, ShapeError

PSNR_TEXT_CAP = 99.99

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


def _magnitude_pair(rec, gt, support):
    rec = np.abs(np.asarray(rec)).astype(float)
    gt = np.abs(np.asarray(gt)).astype(float)
    if rec.shape != gt.shape:
        raise ShapeError(f"shape mismatch: {rec.shape} vs {gt.shape}")
    if support is not None:
        support = np.asarray(support, dtype=bool)
        if support.shape != gt.shape:
            raise ShapeError(
                f"support shape {support.shape} does not match images {gt.shape}"
            )
        if not support.any():
            raise ConfigError("support region is empty")
    return rec, gt, support


def psnr(rec, gt):
    """10*log10(peak^2 / MSE) with peak = max(gt). Identical inputs give inf.

    Text reports cap the infinity at PSNR_TEXT_CAP; the raw value here
    is the honest sentinel.
    """
    rec, gt, _ = _magnitude_pair(rec, gt, None)
    peak = gt.max()
    if peak == 0:
        raise ConfigError("psnr reference image is all zero")
    mse = float(np.mean((rec - gt) ** 2))
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(peak**2 / mse)


def rmse(rec, gt):
    """sqrt(mean squared magnitude error)."""
    rec, gt, _ = _magnitude_pair(rec, gt, None)
    return float(np.sqrt(np.mean((rec - gt) ** 2)))


def nmse(rec, gt):
    """||rec - gt||^2 / ||gt||^2 on magnitudes."""
    rec, gt, _ = _magnitude_pair(rec, gt, None)
    denom = float(np.sum(gt**2))
    if denom == 0:
        raise ConfigError("nmse reference image is all zero")
    return float(np.sum((rec - gt) ** 2)) / denom


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma**2))
    win = np.outer(g, g)
    return win / win.sum()


def _windowed_mean(img, win):
    # valid-mode weighted local means without a scipy dependency
    view = np.lib.stride_tricks.sliding_window_view(img, win.shape)
    return np.einsum("ijkl,kl->ij", view, win)


def ssim(rec, gt, support=None):
    """Mean local SSIM, 11x11 Gaussian window (sigma 1.5), K1/K2 standard.

    Dynamic range is max(gt) - min(gt). When a support mask is given,
    only windows centered on support pixels contribute to the mean.
    """
    rec, gt, support = _magnitude_pair(rec, gt, support)
    if min(gt.shape) < _SSIM_WINDOW:
        raise ShapeError(
            f"images must be at least {_SSIM_WINDOW} pixels per side, got {gt.shape}"
        )
    if np.array_equal(rec, gt):
        return 1.0
    span = float(gt.max() - gt.min())
    if span == 0:
        span = max(float(gt.max()), 1.0)
    c1 = (_SSIM_K1 * span) ** 2
    c2 = (_SSIM_K2 * span) ** 2
    win = _gaussian_window(_SSIM_WINDOW, _SSIM_SIGMA)
    mu_r = _windowed_mean(rec, win)
    mu_g = _windowed_mean(gt, win)
    rr = _windowed_mean(rec * rec, win) - mu_r**2
    gg = _windowed_mean(gt * gt, win) - mu_g**2
    rg = _windowed_mean(rec * gt, win) - mu_r * mu_g
    ssim_map = ((2 * mu_r * mu_g + c1) * (2 * rg + c2)) / (
        (mu_r**2 + mu_g**2 + c1) * (rr + gg + c2)
    )
    if support is None:
        return float(ssim_map.mean())
    half = _SSIM_WINDOW // 2
    centers = support[half:half + ssim_map.shape[0], half:half + ssim_map.shape[1]]
    if not centers.any():
        raise ConfigError("support leaves no valid SSIM windows")
    return float(ssim_map[centers].mean())


def evaluate(rec, gt, support=None):
    """All four scalar metrics as a dict: psnr, ssim, rmse, nmse.

    With a support mask, PSNR/RMSE/NMSE are computed over the support
    pixels only and SSIM over windows centered there.
    """
    rec_m, gt_m, support = _magnitude_pair(rec, gt, support)
    if support is not None:
        rec_flat, gt_flat = rec_m[support], gt_m[support]
    else:
        rec_flat, gt_flat = rec_m, gt_m
    return {
        "psnr": psnr(rec_flat, gt_flat),
        "ssim": ssim(rec_m, gt_m, support=support),
        "rmse": rmse(rec_flat, gt_flat),
        "nmse": nmse(rec_flat, gt_flat),
    }
