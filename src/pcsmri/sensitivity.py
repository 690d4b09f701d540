"""Coil sensitivity estimation from the fully sampled calibration region.

The central ACS block of each coil's k-space is apodized with a 2D Hann
window, transformed to a low-resolution coil image, and normalized by
the root-sum-of-squares combination. This is the classical smooth-map
estimate; it is exact when the true maps are band-limited to the ACS.
"""

import numpy as np

from .errors import EstimationError, ShapeError
from .masks import acs_band
from .operators import SUPPORT_THRESHOLD, SensitivitySet, _check_multicoil
from .transforms import ifft2c


def extract_acs(ksp, acs_width, mask=None):
    """Zero out everything outside the central acs_width x acs_width block.

    Returns a full-grid array so no FFT re-centering is needed. When a
    mask is given, the ACS columns must all be sampled lines.
    """
    ksp = _check_multicoil(np.asarray(ksp))
    nc, h, w = ksp.shape
    if not 0 < acs_width <= min(h, w):
        raise ShapeError(
            f"acs_width {acs_width} out of range for grid ({h}, {w})"
        )
    r0, r1 = acs_band(h, acs_width)
    c0, c1 = acs_band(w, acs_width)
    if mask is not None:
        if (mask.height, mask.width) != (h, w):
            raise ShapeError(
                f"mask ({mask.height}, {mask.width}) does not match data ({h}, {w})"
            )
        if not mask.line_selected[c0:c1].all():
            raise EstimationError(
                "calibration region is not fully sampled by the mask"
            )
    acs = np.zeros_like(ksp)
    acs[:, r0:r1, c0:c1] = ksp[:, r0:r1, c0:c1]
    return acs


def estimate_maps(ksp, acs_width, mask=None, apodize=True,
                  threshold=SUPPORT_THRESHOLD):
    """Estimate normalized coil maps from the ACS block of measured k-space.

    Parameters
    ----------
    ksp : (coils, H, W) complex array
        Measured k-space, zero-filled at unsampled positions.
    acs_width : int
        Side length of the central calibration block.
    mask : SamplingMask, optional
        When given, verifies the ACS columns are sampled.
    apodize : bool
        Apply a 2D Hann window over the ACS block before the inverse
        transform. Suppresses truncation ringing in the estimates.
    threshold : float
        Support is where the low-resolution RSS exceeds this fraction
        of its peak.
    """
    acs = extract_acs(ksp, acs_width, mask=mask)
    if apodize:
        _, h, w = acs.shape
        r0, r1 = acs_band(h, acs_width)
        c0, c1 = acs_band(w, acs_width)
        hann = np.hanning(acs_width + 2)[1:-1]
        # window in float64 precision: complex64 k-space becomes complex128
        acs = acs.astype(np.result_type(acs, np.float64), copy=False)
        acs[:, r0:r1, c0:c1] *= np.outer(hann, hann)
    if not np.any(acs):
        raise EstimationError("calibration region contains no signal")
    return SensitivitySet.from_profiles(ifft2c(acs), threshold)
