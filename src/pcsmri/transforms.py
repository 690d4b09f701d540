"""Centered unitary 2D Fourier transforms, l2 norm and inner product.

Conventions used throughout the package:

* images and k-space grids are complex numpy arrays of shape (H, W),
  optionally with leading batch axes such as a coil axis (Nc, H, W);
* k-space is always centered, i.e. the DC bin sits at index
  (H // 2, W // 2), matching how sampling masks are displayed;
* the transform pair is unitary (norm="ortho"), so fft2c/ifft2c are
  exact adjoints and inverses of each other and preserve the l2 norm.
  The closed-form data-consistency update relies on this. Each transform
  runs in place on a private shifted copy, so its input is never touched.
"""

import numpy as np

from .errors import ShapeError

_AXES = (-2, -1)


def _centered(transform, x, name):
    x = np.asarray(x)
    if x.ndim < 2:
        raise ShapeError(f"{name} must have at least 2 dimensions, got {x.ndim}")
    if x.shape[-1] == 0 or x.shape[-2] == 0:
        raise ShapeError(f"{name} has a zero-sized dimension: {x.shape}")
    buf = np.fft.ifftshift(x, axes=_AXES)
    buf = buf.astype(np.result_type(buf, np.complex64), copy=False)
    transform(buf, axes=_AXES, norm="ortho", out=buf)
    return np.fft.fftshift(buf, axes=_AXES)


def fft2c(img):
    """Centered, unitarily normalized 2D DFT over the last two axes."""
    return _centered(np.fft.fftn, img, "image")


def ifft2c(ksp):
    """Inverse of :func:`fft2c` (exact to round-off)."""
    return _centered(np.fft.ifftn, ksp, "k-space")


def l2_norm(x):
    return float(np.linalg.norm(np.asarray(x).ravel()))


def inner_product(a, b):
    """<a, b> = sum conj(a) * b (conjugate-linear in the first argument)."""
    if np.shape(a) != np.shape(b):
        raise ShapeError(f"shape mismatch: {np.shape(a)} vs {np.shape(b)}")
    return complex(np.vdot(a, b))
