"""Centered unitary 2D Fourier transforms and the l2 norm.

Conventions used throughout the package:

* images and k-space grids are complex numpy arrays of shape (H, W),
  optionally with leading batch axes such as a coil axis (Nc, H, W);
* k-space is always centered, i.e. the DC bin sits at index
  (H // 2, W // 2), matching how sampling masks are displayed;
* the transform pair is unitary (norm="ortho"), so fft2c/ifft2c are
  exact adjoints and inverses of each other and preserve the l2 norm.
  The closed-form data-consistency update relies on this. No transform
  writes to its input.

Both transforms take an optional ``lines``: one bool flag per k-space
column, shape (W,), such as ``SamplingMask.line_selected``. Then
``fft2c(img, lines)`` returns only the n flagged columns, shape
(..., H, n), and ``ifft2c(ksp, lines)`` takes those, every other
column being zero; both agree with the full transforms to round-off. They
and the solver's data-consistency step share one private pair:
``_sampled_forward`` runs a full-size FFT along W, gathers the columns
through a flat index (``_sampled_index``) that reads the rows in FFT
order, folding in the H centering, applies the W-centering phase of
``_columns`` and runs the H FFT in place on the gathered bins, left in
FFT row order; ``_sampled_inverse`` undoes each step in reverse.
"""

import numpy as np

from .errors import ShapeError


def _checked(x, name):
    x = np.asarray(x)
    if x.ndim < 2:
        raise ShapeError(f"{name} must have at least 2 dimensions, got {x.ndim}")
    if x.shape[-1] == 0 or x.shape[-2] == 0:
        raise ShapeError(f"{name} has a zero-sized dimension: {x.shape}")
    return x


def _centered(transform, x):
    buf = np.fft.ifftshift(x, axes=(-2, -1))
    buf = buf.astype(np.result_type(buf, np.complex64), copy=False)
    transform(buf, axes=(-2, -1), norm="ortho", out=buf)
    return np.fft.fftshift(buf, axes=(-2, -1))


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
    """Flat index of the (..., H, n) bins of n columns of a C-ordered (..., H, W) stack.

    Entry [..., i, j] addresses element (..., (i + H//2) % H, columns[j]):
    rows in FFT order, so a gather applies the H ifftshift and a scatter
    undoes it. The columns are the frequencies f of ``_columns`` in a W
    spectrum, or the flagged indices themselves in centered k-space.
    """
    *batch, height, width = shape
    rows = (np.arange(height) + height // 2) % height
    planes = np.arange(np.prod(batch, dtype=int)).reshape(*batch, 1, 1)
    return (planes * height + rows[:, None]) * width + columns


def _sampled_forward(x, index, phase, out=None):
    """C-contiguous bins, in FFT row order, of the columns f of a (..., H, W) stack x.

    ``index`` and ``phase`` are those of f (``_sampled_index(f, x.shape)``,
    ``_columns``); x's W spectrum goes to ``out`` (x itself: in place).
    """
    spectrum = np.fft.fft(x, axis=-1, norm="ortho", out=out)
    k = spectrum.reshape(-1).take(index)
    k *= phase
    return np.fft.fft(k, axis=-2, norm="ortho", out=k)


def _sampled_inverse(k, index, phase, stack, out):
    """Inverse of ``_sampled_forward`` into ``stack``, a C-contiguous W spectrum.

    The H inverse of k goes to ``out`` and over the indexed columns; the
    other columns keep what the stack held. Returns the stack, in place.
    """
    cols = np.fft.ifft(k, axis=-2, norm="ortho", out=out)
    cols *= np.conj(phase)
    stack.reshape(-1)[index] = cols
    return np.fft.ifft(stack, axis=-1, norm="ortho", out=stack)


def fft2c(img, lines=None):
    """Centered, unitarily normalized 2D DFT over the last two axes.

    With ``lines``, only the flagged columns, of shape (..., H, n).
    """
    x = _checked(img, "image")
    if lines is None:
        return _centered(np.fft.fftn, x)
    _, f, phase = _columns(lines, x.shape[-1])
    k = _sampled_forward(x, _sampled_index(f, x.shape), phase)
    return np.fft.fftshift(k, axes=-2)


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
        raise ShapeError(f"k-space columns {ksp.shape} do not match the "
                         f"{f.size} flagged lines")
    # allocated before the small temporaries, so that it can take the place
    # of a freed full-size array instead of growing the heap
    img = np.zeros((*ksp.shape[:-1], width), np.result_type(ksp, np.complex64))
    k = np.fft.ifftshift(ksp, axes=-2).astype(img.dtype, copy=False)
    return _sampled_inverse(k, _sampled_index(f, img.shape), phase, img, out=k)


def l2_norm(x):
    return float(np.linalg.norm(np.asarray(x).ravel()))
