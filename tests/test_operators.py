"""Multi-coil forward model: adjointness, dense oracle equality, noise."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_read_only, random_complex
from oracles import dense_adjoint_apply, dense_forward_apply
from pcsmri import (
    ConfigError,
    SamplingMask,
    SensitivitySet,
    ShapeError,
    adjoint,
    forward,
    ifft2c,
    make_coil_profiles,
    make_random_mask,
    rss_combine,
    zero_filled,
)
from pcsmri.operators import SUPPORT_THRESHOLD


def _random_sens(rng, n_coils, h, w):
    profiles = random_complex(rng, (n_coils, h, w))
    return SensitivitySet.from_profiles(profiles)


def test_forward_adjoint_inner_product_identity():
    # <A x, y> == <x, A^H y> on 20 random 3-coil instances
    rng = np.random.default_rng(0)
    for trial in range(20):
        sens = _random_sens(rng, 3, 16, 16)
        mask = make_random_mask(16, 16, 2.0, 4, seed=trial)
        x = random_complex(rng, (16, 16))
        y = random_complex(rng, (3, 16, 16))
        lhs = np.vdot(forward(x, sens, mask), y)
        rhs = np.vdot(x, adjoint(y, sens, mask))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_forward_matches_dense_matrix():
    rng = np.random.default_rng(1)
    for trial in range(5):
        sens = _random_sens(rng, 3, 8, 8)
        mask = make_random_mask(8, 8, 2.0, 2, seed=trial)
        x = random_complex(rng, (8, 8))
        got = forward(x, sens, mask)
        want = dense_forward_apply(x, sens.maps, mask.line_selected)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_adjoint_matches_dense_matrix():
    rng = np.random.default_rng(2)
    sens = _random_sens(rng, 3, 8, 8)
    mask = make_random_mask(8, 8, 2.0, 2, seed=9)
    y = random_complex(rng, (3, 8, 8))
    np.testing.assert_allclose(
        adjoint(y, sens, mask),
        dense_adjoint_apply(y, sens.maps, mask.line_selected),
        atol=1e-10,
    )


def test_forward_zeroes_unsampled_lines():
    rng = np.random.default_rng(3)
    sens = _random_sens(rng, 2, 16, 16)
    mask = make_random_mask(16, 16, 4.0, 4, seed=0)
    y = forward(random_complex(rng, (16, 16)), sens, mask, noise_sigma=0.1, seed=5)
    assert np.all(y[:, :, ~mask.line_selected] == 0)
    assert np.any(y[:, :, mask.line_selected] != 0)


def test_forward_noise_is_seeded_and_sized():
    rng = np.random.default_rng(4)
    sens = _random_sens(rng, 2, 64, 64)
    mask = make_random_mask(64, 64, 1.0, 8, seed=0)  # fully sampled
    x = np.zeros((64, 64), dtype=complex)
    y1 = forward(x, sens, mask, noise_sigma=0.5, seed=7)
    y2 = forward(x, sens, mask, noise_sigma=0.5, seed=7)
    y3 = forward(x, sens, mask, noise_sigma=0.5, seed=8)
    np.testing.assert_array_equal(y1, y2)
    assert not np.array_equal(y1, y3)
    # per-component std: zero signal leaves pure noise on every line
    assert np.std(y1.real) == pytest.approx(0.5, rel=0.05)
    assert np.std(y1.imag) == pytest.approx(0.5, rel=0.05)

    noiseless = forward(x, sens, mask)
    np.testing.assert_array_equal(noiseless, np.zeros_like(y1))
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError):
            forward(x, sens, mask, noise_sigma=bad)
    # the seed is judged whether or not noise draws from it
    for sigma, bad in itertools.product((0.0, 0.5), (-1, 2.5)):
        with pytest.raises(ConfigError, match="seed"):
            forward(x, sens, mask, noise_sigma=sigma, seed=bad)


@settings(max_examples=40, deadline=None)
@given(n_coils=st.integers(1, 5), h=st.integers(1, 17), w=st.integers(1, 17),
       complex64=st.booleans(), sigma=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 2**32 - 1))
@example(n_coils=3, h=1, w=1, complex64=False, sigma=0.0, seed=0)
@example(n_coils=4, h=1, w=1, complex64=True, sigma=0.3, seed=1)
@example(n_coils=3, h=16, w=16, complex64=False, sigma=0.0, seed=5)
@example(n_coils=2, h=17, w=12, complex64=True, sigma=0.3, seed=6)
def test_zero_filled_is_the_unmasked_adjoint(n_coils, h, w, complex64, sigma,
                                             seed):
    rng = np.random.default_rng(seed)
    sens = _random_sens(rng, n_coils, h, w)
    mask = SamplingMask(h, w, rng.random(w) < 0.5, 0, 2.0)
    s = mask.line_selected
    dtype = np.complex64 if complex64 else np.complex128
    # any y: the adjoint is zero_filled of y with the unsampled columns zeroed
    y = random_complex(rng, (n_coils, h, w)).astype(dtype)
    got = adjoint(y, sens, mask)
    assert got.dtype == np.complex128
    np.testing.assert_array_equal(got, zero_filled(np.where(s, y, 0), sens))
    # measured data is already zero off-mask, so both combinations agree
    measured = forward(random_complex(rng, (h, w)), sens, mask, sigma,
                       seed=seed).astype(dtype)
    np.testing.assert_array_equal(adjoint(measured, sens, mask),
                                  zero_filled(measured, sens))
    # the coils are added left to right, as np.sum does off a 1x1 grid
    if h * w > 1:
        np.testing.assert_array_equal(
            zero_filled(y, sens), np.sum(np.conj(sens.maps) * ifft2c(y), axis=0))


def test_rss_combine_matches_definition():
    rng = np.random.default_rng(6)
    imgs = random_complex(rng, (4, 5, 6))
    np.testing.assert_allclose(
        rss_combine(imgs), np.sqrt((np.abs(imgs) ** 2).sum(axis=0)), atol=1e-12
    )
    with pytest.raises(ShapeError):
        rss_combine(imgs[0])


def test_sensitivity_set_normalization_invariants():
    rng = np.random.default_rng(7)
    profiles = make_coil_profiles(24, 24, 4, rng_seed=0)
    sens = SensitivitySet.from_profiles(profiles)
    energy = np.sum(np.abs(sens.maps) ** 2, axis=0)
    assert np.max(np.abs(energy[sens.support] - 1.0)) <= 1e-6
    assert np.all(sens.maps[:, ~sens.support] == 0)
    assert sens.n_coils == 4
    assert sens.shape == (24, 24)
    assert_read_only(sens.maps)
    assert_read_only(sens.support)
    # the x-update denominator reads this cached sum, so it must be exact
    np.testing.assert_array_equal(sens.energy, energy)
    assert_read_only(sens.energy)

    # normalized phase is preserved: maps keep the profile phases
    ratio = sens.maps[1][sens.support] / profiles[1][sens.support]
    assert np.allclose(ratio.imag, 0.0, atol=1e-12)


def test_sensitivity_set_rejects_bad_maps():
    good = np.full((2, 4, 4), np.sqrt(0.5), dtype=complex)
    support = np.ones((4, 4), dtype=bool)
    SensitivitySet(good, support)
    with pytest.raises(ConfigError):
        SensitivitySet(good * 1.01, support)  # breaks unit RSS
    off = support.copy()
    off[0, 0] = False
    with pytest.raises(ConfigError):
        SensitivitySet(good, off)  # nonzero off support
    with pytest.raises(ShapeError):
        SensitivitySet(good, support[:3])
    with pytest.raises(ShapeError):
        SensitivitySet(good[0], support)
    with pytest.raises(ConfigError):
        SensitivitySet.from_profiles(np.zeros((2, 4, 4)))


def test_sensitivity_set_rejects_nan_and_an_empty_support():
    good = np.full((2, 4, 4), np.sqrt(0.5), dtype=complex)
    support = np.ones((4, 4), dtype=bool)
    nan = good.copy()
    nan[1, 2, 3] = np.nan
    with pytest.raises(ConfigError):
        SensitivitySet(nan, support)  # NaN on the support
    with pytest.raises(ConfigError):
        SensitivitySet(np.zeros((2, 4, 4)), np.zeros((4, 4), dtype=bool))
    profiles = make_coil_profiles(8, 8, 2, rng_seed=1)
    profiles[0, 3, 3] = np.nan
    for bad in (np.zeros((2, 8, 8)), np.full((2, 8, 8), np.nan), profiles):
        with pytest.raises(ConfigError):
            SensitivitySet.from_profiles(bad)


def test_support_threshold_trims_low_signal():
    profiles = np.zeros((1, 4, 4), dtype=complex)
    profiles[0] = 1.0
    profiles[0, 0, 0] = SUPPORT_THRESHOLD / 2  # below the peak fraction
    sens = SensitivitySet.from_profiles(profiles)
    assert not sens.support[0, 0]
    assert sens.support.sum() == 15
    assert sens.maps[0, 0, 0] == 0


def test_geometry_mismatches_raise():
    rng = np.random.default_rng(8)
    sens = _random_sens(rng, 2, 16, 16)
    mask = make_random_mask(16, 16, 2.0, 4, seed=0)
    bad_mask = make_random_mask(16, 12, 2.0, 4, seed=0)
    x = random_complex(rng, (16, 16))
    y = forward(x, sens, mask)
    with pytest.raises(ShapeError):
        forward(x[:12], sens, mask)
    with pytest.raises(ShapeError):
        forward(x, sens, bad_mask)
    with pytest.raises(ShapeError):
        adjoint(y[:1], sens, mask)
    with pytest.raises(ShapeError):
        adjoint(y[0], sens, mask)
    with pytest.raises(ShapeError):
        zero_filled(y[:, :12], sens)
