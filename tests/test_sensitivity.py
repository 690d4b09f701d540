"""Coil map estimation from the autocalibration block."""

import numpy as np
import pytest

from pcsmri import (
    ConfigError,
    EstimationError,
    SamplingMask,
    SensitivitySet,
    ShapeError,
    acs_band,
    estimate_maps,
    fft2c,
    ifft2c,
    make_coil_profiles,
    make_phantom,
    make_random_mask,
)


def _true_case(h=64, w=64, n_coils=4, acs=24):
    phantom = make_phantom(h, w, kind="shepp_logan")
    sens = SensitivitySet.from_profiles(make_coil_profiles(h, w, n_coils, rng_seed=3))
    ksp = fft2c(sens.maps * phantom)
    return phantom, sens, ksp, acs


def test_estimate_maps_validates_mask_and_width():
    rng = np.random.default_rng(1)
    ksp = rng.standard_normal((1, 16, 16)) + 1j * rng.standard_normal((1, 16, 16))
    good = make_random_mask(16, 16, 2.0, 6, seed=0)
    estimate_maps(ksp, 6, mask=good)

    lines = np.zeros(16, dtype=bool)
    lines[7:9] = True
    narrow = SamplingMask(16, 16, lines, 2, 8.0)
    with pytest.raises(EstimationError):
        estimate_maps(ksp, 6, mask=narrow)  # calibration columns unsampled

    wrong_grid = make_random_mask(16, 12, 2.0, 6, seed=0)
    with pytest.raises(ShapeError):
        estimate_maps(ksp, 6, mask=wrong_grid)
    with pytest.raises(ShapeError):
        estimate_maps(ksp, 0)
    with pytest.raises(ShapeError):
        estimate_maps(ksp, 17)
    with pytest.raises(ShapeError):
        estimate_maps(ksp[0], 6)


def test_estimated_maps_recover_smooth_profiles():
    phantom, sens, ksp, acs = _true_case()
    est = estimate_maps(ksp, acs)
    # the SensitivitySet constructor has already enforced normalization;
    # check the estimate approximates the truth where the object is bright
    strong = sens.support & est.support & (np.abs(phantom) > 0.15)
    assert strong.sum() > 1000
    err = np.abs(est.maps - sens.maps)[:, strong]
    assert np.median(err) < 0.02
    assert err.mean() < 0.05


def test_estimated_support_covers_the_object():
    phantom, sens, ksp, acs = _true_case()
    est = estimate_maps(ksp, acs)
    bright = np.abs(phantom) > 0.3
    assert (est.support & bright).sum() / bright.sum() > 0.95


def test_estimation_accepts_a_consistent_mask():
    phantom, sens, ksp, acs = _true_case()
    mask = make_random_mask(64, 64, 2.0, acs, seed=4)
    masked = np.where(mask.line_selected, ksp, 0)
    est = estimate_maps(masked, acs, mask=mask)
    assert est.maps.shape == sens.maps.shape
    # only the ACS block feeds the estimate, so masking outside it is free
    est_full = estimate_maps(ksp, acs)
    np.testing.assert_allclose(est.maps, est_full.maps, atol=1e-12)


def test_apodization_changes_and_smooths_the_estimate():
    phantom, sens, ksp, acs = _true_case()
    est_apo = estimate_maps(ksp, acs, apodize=True)
    est_raw = estimate_maps(ksp, acs, apodize=False)
    assert not np.allclose(est_apo.maps, est_raw.maps)
    # ringing shows up as high-frequency content in the map estimates
    def roughness(maps):
        return float(np.abs(np.diff(np.abs(maps), axis=1)).mean())
    assert roughness(est_apo.maps) < roughness(est_raw.maps)


@pytest.mark.parametrize("apodize", [True, False], ids=["hann", "raw"])
@pytest.mark.parametrize("dtype", ["<c8", "<c16"])
def test_estimate_maps_equals_the_full_grid_window_formula(dtype, apodize):
    # oracle: the Hann window as a full (H, W) grid, zero outside the ACS
    # block, multiplied into the whole zero-filled k-space
    phantom, sens, ksp, acs = _true_case(h=45, w=38, n_coils=3, acs=12)
    rng = np.random.default_rng(4)
    ksp = (ksp + 0.01 * (rng.standard_normal(ksp.shape)
                         + 1j * rng.standard_normal(ksp.shape))).astype(dtype)
    (r0, r1), (c0, c1) = acs_band(45, acs), acs_band(38, acs)
    block = np.zeros_like(ksp)
    block[:, r0:r1, c0:c1] = ksp[:, r0:r1, c0:c1]
    if apodize:
        win = np.zeros((45, 38))
        win[r0:r1, c0:c1] = np.outer(np.hanning(r1 - r0 + 2)[1:-1],
                                     np.hanning(c1 - c0 + 2)[1:-1])
        block = block * win
    want = SensitivitySet.from_profiles(ifft2c(block))
    got = estimate_maps(ksp, acs, apodize=apodize)
    assert got.maps.dtype == want.maps.dtype
    np.testing.assert_array_equal(got.maps, want.maps)
    np.testing.assert_array_equal(got.support, want.support)


def test_estimate_maps_acs_width_is_integral():
    _, _, ksp, acs = _true_case()
    want = estimate_maps(ksp, acs)
    np.testing.assert_array_equal(estimate_maps(ksp, float(acs)).maps, want.maps)
    for bad in (acs + 0.5, float("nan"), str(acs)):
        with pytest.raises(ConfigError):
            estimate_maps(ksp, bad)


def test_empty_calibration_region_raises():
    with pytest.raises(EstimationError):
        estimate_maps(np.zeros((2, 32, 32), dtype=complex), 8)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)],
                         ids=["nan", "inf", "imaginary-inf"])
def test_non_finite_calibration_data_raises(value):
    # the window and the RSS normalization would turn it into NaN maps
    _, _, ksp, acs = _true_case()
    ksp = ksp.copy()
    ksp[1, 32, 32] = value  # the centre of the ACS block
    with pytest.raises(EstimationError, match="calibration region.*non-finite"):
        estimate_maps(ksp, acs)
    ksp[1, 32, 32] = 0.0
    ksp[1, 0, 0] = value  # outside the block: never read
    estimate_maps(ksp, acs)
