"""Centered unitary 2D Fourier transforms and the l2 norm.

Conventions used throughout the package:

* images and k-space grids are complex numpy arrays of shape (H, W),
  optionally with leading batch axes such as a coil axis (Nc, H, W);
* k-space is always centered, i.e. the DC bin sits at index
  (H // 2, W // 2), matching how sampling masks are displayed;
* the transform pair is unitary (norm="ortho"), so fft2c/ifft2c are
  exact adjoints and inverses of each other and preserve the l2 norm.
  The closed-form data-consistency update relies on this. Each transform
  runs in place on a private shifted copy, so its input is never touched.

Both transforms take an optional ``lines``: one bool flag per k-space
column, shape (W,), such as ``SamplingMask.line_selected``. Then
``fft2c(img, lines)`` returns only the n flagged columns, shape
(..., H, n), and ``ifft2c(ksp, lines)`` takes those n columns and treats
every other column as zero. Each costs one full-size 1-D FFT along W and
an H-axis FFT of the n columns only. The W centering becomes a phase per
column, exactly +-1 for even W, and the H shifts move only the (..., H, n)
columns, so no full-grid shift is made. Results agree with the full
transform followed by (or preceded by zero-filling to) the flagged
columns to round-off. The column phase and the H centering are decided
here only: ``_columns`` gives the phase, ``_h_forward``/``_h_inverse``
shift the columns these transforms take, and ``_sampled_index`` builds
the flat index through which the solver's in-place data-consistency
step gathers the columns of its own W spectrum with the H shift folded
in, in FFT row order, and scatters them back.
"""

import numpy as np

from .errors import ShapeError

_AXES = (-2, -1)


def _checked(x, name):
    x = np.asarray(x)
    if x.ndim < 2:
        raise ShapeError(f"{name} must have at least 2 dimensions, got {x.ndim}")
    if x.shape[-1] == 0 or x.shape[-2] == 0:
        raise ShapeError(f"{name} has a zero-sized dimension: {x.shape}")
    return x


def _centered(transform, x, axes=_AXES):
    buf = np.fft.ifftshift(x, axes=axes)
    buf = buf.astype(np.result_type(buf, np.complex64), copy=False)
    transform(buf, axes=axes, norm="ortho", out=buf)
    return np.fft.fftshift(buf, axes=axes)


def _columns(lines, width=None):
    """Width, uncentered frequencies of the flagged columns, W-centering phase."""
    lines = np.asarray(lines)
    if (lines.dtype != bool or lines.ndim != 1 or lines.size == 0
            or (width is not None and lines.size != width)):
        raise ShapeError(
            f"lines must be one bool flag per column, shape ({width or 'W'},); "
            f"got {lines.dtype} of shape {lines.shape}"
        )
    width, c = lines.size, lines.size // 2
    f = (np.flatnonzero(lines) - c) % width
    # ifftshift along W multiplies frequency f by exp(2 pi i f c / W)
    if width % 2:
        return width, f, np.exp(2j * np.pi * ((f * c) % width) / width)
    return width, f, 1.0 - 2.0 * (f % 2)


def _sampled_index(columns, shape):
    """Flat index of the (Nc, H, n) bins of n columns of a C-ordered (Nc, H, W) stack.

    Entry [l, i, j] addresses element (l, (i + H//2) % H, columns[j]): row
    i is in FFT order, so gathering through it applies the H ifftshift of
    ``_h_forward`` to the columns, and scattering results back through it
    undoes that shift, for odd and even H. The columns are the uncentered
    frequencies f of ``_columns`` in a W spectrum, or the flagged indices
    themselves in centered k-space.
    """
    n_coils, height, width = shape
    rows = (np.arange(height) + height // 2) % height
    return ((np.arange(n_coils)[:, None, None] * height + rows[:, None]) * width
            + columns)


def _h_forward(cols, phase):
    """Centered k-space bins of columns taken from an uncentered W spectrum.

    ``cols`` is ``spectrum[..., f]`` for the unitary FFT along W and the
    (f, phase) of ``_columns``, shape (..., H, n); it is overwritten. The
    caller takes the columns, so a temporary spectrum is freed before the
    H transform allocates.
    """
    cols *= phase
    return _centered(np.fft.fftn, cols, axes=(-2,))


def _h_inverse(ksp, phase):
    """Inverse of ``_h_forward``: the W-spectrum columns f of the bins ksp."""
    cols = _centered(np.fft.ifftn, ksp, axes=(-2,))
    cols *= np.conj(phase)
    return cols


def fft2c(img, lines=None):
    """Centered, unitarily normalized 2D DFT over the last two axes.

    With ``lines``, only the flagged columns, of shape (..., H, n).
    """
    x = _checked(img, "image")
    if lines is None:
        return _centered(np.fft.fftn, x)
    _, f, phase = _columns(lines, x.shape[-1])
    return _h_forward(np.fft.fft(x, axis=-1, norm="ortho")[..., f], phase)


def ifft2c(ksp, lines=None):
    """Inverse of :func:`fft2c` (exact to round-off).

    With ``lines``, ksp holds the flagged columns only, (..., H, n), and
    every other column is zero.
    """
    if lines is None:
        return _centered(np.fft.ifftn, _checked(ksp, "k-space"))
    width, f, phase = _columns(lines)
    ksp = np.asarray(ksp)
    if ksp.ndim < 2 or ksp.shape[-2] == 0 or ksp.shape[-1] != f.size:
        raise ShapeError(
            f"k-space columns {ksp.shape} do not match the {f.size} flagged lines"
        )
    # allocated before the small temporaries, so that it can take the place
    # of a freed full-size array instead of growing the heap
    img = np.zeros((*ksp.shape[:-1], width), np.result_type(ksp, np.complex64))
    img[..., f] = _h_inverse(ksp, phase)
    return np.fft.ifft(img, axis=-1, norm="ortho", out=img)


def l2_norm(x):
    return float(np.linalg.norm(np.asarray(x).ravel()))
