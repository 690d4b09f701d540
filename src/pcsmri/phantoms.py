"""Synthetic ground truth: phantoms, coil profiles and full test cases.

Everything here is deterministic given a seed, so simulated cases can
be regenerated bit-exactly from their manifest parameters.
"""

import numpy as np

from .errors import ConfigError, ShapeError, _check_count, _check_seed
from .masks import MASK_KINDS, make_preset_mask
from .operators import SensitivitySet, forward

# (value, a, b, x0, y0, phi_deg), axes and centers in [-1, 1] coordinates
_SHEPP_LOGAN = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)

PHANTOM_KINDS = ("shepp_logan", "resolution_bars", "smooth_blobs")


def _unit_grid(height, width):
    v = np.linspace(-1.0, 1.0, height)[:, None]
    u = np.linspace(-1.0, 1.0, width)[None, :]
    return u, v


def _shepp_logan(height, width):
    u, v = _unit_grid(height, width)
    img = np.zeros((height, width))
    for value, a, b, x0, y0, phi in _SHEPP_LOGAN:
        rad = np.deg2rad(phi)
        du, dv = u - x0, v - y0
        ur = du * np.cos(rad) + dv * np.sin(rad)
        vr = -du * np.sin(rad) + dv * np.cos(rad)
        img += value * ((ur / a) ** 2 + (vr / b) ** 2 <= 1.0)
    return img


def resolution_bar_columns(height, width):
    """Column intervals (start, stop) of the bar-pattern bright bars.

    Bars are vertical, intensity 1, spanning rows height//8 to
    height - height//8. Groups of 4 bars share one width; widths double
    per group (1, 2, 4, ...) while the group fits between the side
    margins. Within a group, bars alternate with equal-width gaps.
    """
    margin = width // 8
    intervals = []
    start = margin
    w = 1
    while start + 7 * w <= width - margin:
        for k in range(4):
            lo = start + 2 * k * w
            intervals.append((lo, lo + w))
        start += 8 * w
        w *= 2
    return intervals


def _resolution_bars(height, width):
    img = np.zeros((height, width))
    r0, r1 = height // 8, height - height // 8
    for lo, hi in resolution_bar_columns(height, width):
        img[r0:r1, lo:hi] = 1.0
    return img


def _smooth_blobs(height, width, rng):
    u, v = _unit_grid(height, width)
    img = np.zeros((height, width))
    for _ in range(6):
        cu, cv = rng.uniform(-0.8, 0.8, size=2)
        sigma = rng.uniform(0.1, 0.3)
        amp = rng.uniform(0.5, 1.0)
        img += amp * np.exp(-((u - cu) ** 2 + (v - cv) ** 2) / (2.0 * sigma**2))
    peak = img.max()
    if peak > 0:
        img /= peak
    return img


def make_phantom(height, width, kind="shepp_logan", rng_seed=None,
                 phase_ramp=False):
    """Build a nonnegative test image in [0, 1], returned as complex.

    The image has zero phase unless phase_ramp is set, which multiplies
    in a fixed linear phase so complex code paths are exercised without
    changing the magnitude.
    """
    height, width = (_check_count(n, "phantom side", minimum=0)
                     for n in (height, width))
    rng_seed = _check_seed(rng_seed)
    if height < 16 or width < 16:
        raise ShapeError(f"phantom dimensions must be >= 16, got ({height}, {width})")
    if kind == "shepp_logan":
        img = _shepp_logan(height, width)
    elif kind == "resolution_bars":
        img = _resolution_bars(height, width)
    elif kind == "smooth_blobs":
        img = _smooth_blobs(height, width, np.random.default_rng(rng_seed))
    else:
        raise ConfigError(
            f"unknown phantom kind {kind!r}, expected one of {PHANTOM_KINDS}"
        )
    img = np.clip(img, 0.0, 1.0).astype(np.complex128)
    if phase_ramp:
        u, v = _unit_grid(height, width)
        img = img * np.exp(1j * np.pi * (0.3 * u + 0.2 * v))
    return img


def make_coil_profiles(height, width, n_coils, rng_seed=None):
    """Smooth complex coil profiles with strictly positive RSS.

    Coil magnitudes are a constant floor plus a Gaussian bump centered
    at equiangular positions around the field of view (slightly
    jittered by the seed); phase is a smooth per-coil ramp. A single
    coil gets a flat magnitude so that trivial one-coil cases reduce to
    the plain Fourier model.
    """
    n_coils = _check_count(n_coils, "n_coils")
    height, width = (_check_count(n, "profile side", minimum=0)
                     for n in (height, width))
    rng_seed = _check_seed(rng_seed)
    if height < 1 or width < 1:
        raise ShapeError("profile dimensions must be positive")
    rng = np.random.default_rng(rng_seed)
    u, v = _unit_grid(height, width)
    profiles = np.empty((n_coils, height, width), dtype=np.complex128)
    for l in range(n_coils):
        angle = 2.0 * np.pi * l / n_coils + rng.uniform(-0.1, 0.1)
        if n_coils == 1:
            mag = np.ones((height, width))
        else:
            cu, cv = 0.55 * np.cos(angle), 0.55 * np.sin(angle)
            sigma = 0.35 * (1.0 + rng.uniform(-0.05, 0.05))
            mag = 0.1 + 0.9 * np.exp(
                -((u - cu) ** 2 + (v - cv) ** 2) / (2.0 * sigma**2)
            )
        phase = np.cos(angle) * u + np.sin(angle) * v + 0.1 * u * v
        profiles[l] = mag * np.exp(1j * phase)
    return profiles


def simulate_case(height, width, n_coils=4, phantom="shepp_logan",
                  mask_kind="random", r=4.0, acs_width=24, preset=None,
                  noise_sigma=0.0, seed=0, phase_ramp=False):
    """Generate one synthetic acquisition: (x_gt, sens, y, mask).

    A preset name (one of PRESETS) overrides mask_kind/r/acs_width.
    This is the only preset path of ``pcsmri simulate``: it passes
    --preset, or just the mask flags it was given, so the defaults here
    are the CLI's too. The returned mask records the realized kind,
    acceleration and ACS width. The seed drives four independent streams
    (phantom, coils, mask, noise), so the case is reproducible bit-exactly.
    """
    seed = _check_count(seed, "seed", minimum=0)
    sub = np.random.SeedSequence(seed).generate_state(4)
    x_gt = make_phantom(height, width, phantom, rng_seed=int(sub[0]),
                        phase_ramp=phase_ramp)
    profiles = make_coil_profiles(height, width, n_coils, rng_seed=int(sub[1]))
    sens = SensitivitySet.from_profiles(profiles)
    del profiles  # the maps are a normalized copy; free it before forward
    if preset is not None:
        mask = make_preset_mask(preset, height, width, seed=int(sub[2]))
    elif mask_kind in MASK_KINDS:
        mask = MASK_KINDS[mask_kind](height, width, r, acs_width, seed=int(sub[2]))
    else:
        raise ConfigError(f"unknown mask kind {mask_kind!r}")
    y = forward(x_gt, sens, mask, noise_sigma=noise_sigma, seed=int(sub[3]))
    return x_gt, sens, y, mask
