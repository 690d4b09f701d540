"""Coil sensitivity estimation from the fully sampled calibration region.

``estimate_maps`` alone cuts the central ACS block out of each coil's
k-space, apodizes it with a 2D Hann window, transforms it to a
low-resolution coil image and normalizes that by the root-sum-of-squares
combination. This is the classical smooth-map estimate; it is exact when
the true maps are band-limited to the ACS.
"""

import numpy as np

from .errors import EstimationError, ShapeError, _check_count
from .masks import acs_band
from .operators import SensitivitySet, _check_multicoil
from .transforms import ifft2c


def estimate_maps(ksp, acs_width, mask=None, apodize=True):
    """Estimate normalized coil maps from the ACS block of measured k-space.

    Parameters
    ----------
    ksp : (coils, H, W) complex array
        Measured k-space; only the central ACS block is read, and it must be finite.
    acs_width : int
        Side length of that block, from 1 to min(H, W) (ShapeError). A
        negative or non-integral width raises ConfigError; 12.0 counts as 12.
    mask : SamplingMask, optional
        When given, verifies the ACS columns are sampled.
    apodize : bool
        Apply a 2D Hann window over the ACS block before the inverse
        transform. Suppresses truncation ringing in the estimates.
    """
    ksp = _check_multicoil(np.asarray(ksp))
    nc, h, w = ksp.shape
    acs_width = _check_count(acs_width, "acs_width", minimum=0)
    if not 0 < acs_width <= min(h, w):
        raise ShapeError(
            f"acs_width {acs_width} out of range for grid ({h}, {w})"
        )
    rows, cols = slice(*acs_band(h, acs_width)), slice(*acs_band(w, acs_width))
    if mask is not None:
        if (mask.height, mask.width) != (h, w):
            raise ShapeError(
                f"mask ({mask.height}, {mask.width}) does not match k-space ({h}, {w})"
            )
        if not mask.line_selected[cols].all():
            raise EstimationError(
                "calibration region is not fully sampled by the mask"
            )
    block = ksp[:, rows, cols]
    bad = block[~np.isfinite(block)]
    if bad.size:
        raise EstimationError(f"calibration region holds non-finite value {bad[0]}")
    if apodize:
        hann = np.hanning(acs_width + 2)[1:-1]
        # window in float64 precision: complex64 k-space becomes complex128
        block = block * np.outer(hann, hann)
    if not np.any(block):
        raise EstimationError("calibration region contains no signal")
    acs = np.zeros((nc, h, w), dtype=block.dtype)
    acs[:, rows, cols] = block
    return SensitivitySet.from_profiles(ifft2c(acs))
