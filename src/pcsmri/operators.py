"""Multi-coil acquisition physics: forward model, adjoint and coil combination.

The per-coil forward model is y_l = U F S_l x + n_l, with U the line
mask, F the centered unitary 2D DFT and S_l the coil sensitivity map.
Measured data is materialized zero-filled on the full grid (U^H y), so
every operator takes or returns full (Nc, H, W) k-space; forward transforms
only the sampled columns (the ``lines`` of ``fft2c``). U^H U is a mask.
Noise is injected on sampled lines only; unsampled positions are never
measured.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, _check_seed, _check_weight
from .transforms import fft2c, ifft2c

SUPPORT_THRESHOLD = 1e-3  # fraction of peak RSS intensity


def _check_multicoil(y, name="k-space"):
    y = np.asarray(y)
    if y.ndim != 3 or y.shape[0] < 1:
        raise ShapeError(f"{name} must have shape (coils, H, W), got {y.shape}")
    return y


@dataclass(frozen=True)
class SensitivitySet:
    """Normalized coil maps S_l with their common support region.

    The support is not empty, sum_l |S_l|^2 = 1 on it (to 1e-6, so no NaN)
    and the maps are exactly zero off it, or ConfigError is raised. Images
    are defined as 0 off support. ``energy`` is sum_l |S_l|^2 (read-only).
    """

    maps: np.ndarray
    support: np.ndarray
    energy: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        maps = np.asarray(self.maps, dtype=np.complex128).copy()
        maps = _check_multicoil(maps, "sensitivity maps")
        support = np.asarray(self.support, dtype=bool).copy()
        if support.shape != maps.shape[1:]:
            raise ShapeError(
                f"support shape {support.shape} does not match maps {maps.shape}"
            )
        energy = np.sum(np.abs(maps) ** 2, axis=0)
        if not (support.any() and np.all(np.abs(energy[support] - 1.0) <= 1e-6)):
            raise ConfigError("maps need unit RSS on a non-empty support")
        if np.any(maps[:, ~support] != 0):
            raise ConfigError("maps must be exactly zero off support")
        for arr in (maps, support, energy):
            arr.setflags(write=False)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "energy", energy)

    @property
    def n_coils(self):
        return self.maps.shape[0]

    @property
    def shape(self):
        return self.maps.shape[1:]

    @classmethod
    def from_profiles(cls, profiles):
        """Normalize raw coil profiles by their RSS inside the support.

        Support is where the RSS exceeds ``SUPPORT_THRESHOLD`` times its
        peak. Single-precision profiles are normalized in single precision.
        """
        profiles = np.asarray(profiles)
        profiles = _check_multicoil(
            profiles.astype(np.result_type(profiles, np.complex64), copy=False)
        )
        rss = rss_combine(profiles)
        support = rss > SUPPORT_THRESHOLD * rss.max()
        maps = np.where(support, profiles / np.where(support, rss, 1.0), 0)
        return cls(maps, support)


def _check_geometry(sens, mask=None, image=None, coils=None, name="k-space",
                    blend=None):
    """Raise ShapeError unless mask, image, coils and a v_map match the maps."""
    if mask is not None and (mask.height, mask.width) != sens.shape:
        raise ShapeError(
            f"mask ({mask.height}, {mask.width}) does not match maps {sens.shape}"
        )
    if image is not None and np.shape(image) != sens.shape:
        raise ShapeError(
            f"image shape {np.shape(image)} does not match maps {sens.shape}"
        )
    if np.ndim(blend) and np.shape(blend) != sens.shape:
        raise ShapeError(
            f"v_map shape {np.shape(blend)} does not match maps {sens.shape}"
        )
    if coils is not None and np.shape(coils) != sens.maps.shape:
        raise ShapeError(
            f"{name} shape {np.shape(coils)} does not match maps {sens.maps.shape}"
        )


def forward(x, sens, mask, noise_sigma=0.0, seed=None):
    """Simulate y_l = U F S_l x + n_l for every coil.

    Complex Gaussian noise of std ``noise_sigma`` per real component is
    added on sampled lines only. Output is zero-filled at unsampled
    positions. Deterministic for a given seed: the real and the imaginary
    parts of the noise are two full-grid normal draws, in that order, of
    which only the sampled columns are used.
    """
    _check_geometry(sens, mask, image=x)
    noise_sigma = _check_weight(noise_sigma, "noise_sigma", minimum=0)
    seed = _check_seed(seed)
    s = mask.line_selected
    cols = fft2c(sens.maps * x, s)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        for part in (cols.real, cols.imag):
            part += noise_sigma * rng.standard_normal(sens.maps.shape)[..., s]
    y = np.zeros(sens.maps.shape, dtype=cols.dtype)
    y[..., s] = cols
    return y


def _combine(maps, coils):
    """sum_l conj(S_l)*c_l, adding the coils left to right.

    Bit-identical to np.sum(..., axis=0) without its two coil-stack
    temporaries, except on a 1x1 grid: there the coil axis is contiguous,
    and np.sum adds 4 or more coils pairwise.
    """
    out = np.conj(maps[0]) * coils[0]
    for s_l, c_l in zip(maps[1:], coils[1:]):
        out += np.conj(s_l) * c_l
    return out


def adjoint(y, sens, mask):
    """The exact adjoint of the noiseless forward: ``zero_filled`` of U^H U y."""
    _check_geometry(sens, mask, coils=y)
    return zero_filled(np.where(mask.line_selected, y, 0), sens)


def zero_filled(y, sens):
    """Coil-combined inverse FFT of zero-filled data: the initial estimate."""
    _check_geometry(sens, coils=y)
    return _combine(sens.maps, ifft2c(y))


def rss_combine(imgs):
    """Root sum of squares over the coil axis: sqrt(sum_l |img_l|^2)."""
    imgs = _check_multicoil(imgs, "coil images")
    return np.sqrt(np.sum(np.abs(imgs) ** 2, axis=0))
