"""Synthetic phantoms, coil profiles and end-to-end case simulation."""

import numpy as np
import pytest

from pcsmri import (
    ConfigError,
    ShapeError,
    forward,
    make_coil_profiles,
    make_phantom,
    rss_combine,
    simulate_case,
    zero_filled,
)
from pcsmri.phantoms import PHANTOM_KINDS, resolution_bar_columns


def test_phantom_range_shape_and_dtype():
    for kind in PHANTOM_KINDS:
        img = make_phantom(48, 40, kind=kind, rng_seed=0)
        assert img.shape == (48, 40)
        assert img.dtype == np.complex128
        assert np.all(img.imag == 0)
        assert img.real.min() >= 0.0
        assert img.real.max() <= 1.0
        assert img.real.max() > 0.5  # something actually in view


def test_phantom_rejects_tiny_grids_and_unknown_kinds():
    with pytest.raises(ShapeError):
        make_phantom(15, 64)
    with pytest.raises(ShapeError):
        make_phantom(64, 8)
    with pytest.raises(ConfigError):
        make_phantom(32, 32, kind="checkerboard")
    for bad in (16.5, "16"):
        with pytest.raises(ConfigError):
            make_phantom(bad, 16)
    # judged even where the kind draws nothing from it
    for kind in PHANTOM_KINDS:
        for seed in (-1, 2.5):
            with pytest.raises(ConfigError, match="seed"):
                make_phantom(16, 16, kind, rng_seed=seed)


def test_shepp_logan_landmarks():
    img = make_phantom(128, 128).real
    assert img[64, 64] > 0.0  # brain tissue at center
    assert img[64, 2] == 0.0  # outside the skull
    assert img[5, 64] == 0.0
    # dark ventricle right of center (u = 0.22 maps near column 78)
    assert img[64, 78] < img[64, 64]


def test_phase_ramp_preserves_magnitude():
    flat = make_phantom(32, 32)
    ramped = make_phantom(32, 32, phase_ramp=True)
    np.testing.assert_allclose(np.abs(ramped), np.abs(flat), atol=1e-12)
    assert np.abs(ramped.imag).max() > 0


def test_resolution_bars_match_the_published_layout():
    height, width = 64, 96
    intervals = resolution_bar_columns(height, width)
    assert len(intervals) >= 8
    widths = [hi - lo for lo, hi in intervals]
    assert widths[:4] == [1, 1, 1, 1]
    assert widths[4:8] == [2, 2, 2, 2]
    img = make_phantom(height, width, kind="resolution_bars").real
    r0, r1 = height // 8, height - height // 8
    for lo, hi in intervals:
        assert np.all(img[r0:r1, lo:hi] == 1.0)
    # gaps between the first group's bars are dark
    lo0, hi0 = intervals[0]
    assert np.all(img[r0:r1, hi0] == 0.0)
    assert np.all(img[:r0] == 0.0)


def test_smooth_blobs_depend_on_seed():
    a = make_phantom(32, 32, kind="smooth_blobs", rng_seed=1)
    b = make_phantom(32, 32, kind="smooth_blobs", rng_seed=1)
    c = make_phantom(32, 32, kind="smooth_blobs", rng_seed=2)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.real.max() == pytest.approx(1.0)


def test_coil_profiles_are_smooth_and_bounded():
    for h, w in ((64, 64), (128, 128)):
        profiles = make_coil_profiles(h, w, 4, rng_seed=0)
        mags = np.abs(profiles)
        assert mags.min() >= 0.1 - 1e-12  # constant floor keeps RSS positive
        assert mags.max() <= 1.0 + 1e-12
        step = max(
            np.abs(np.diff(mags, axis=1)).max(),
            np.abs(np.diff(mags, axis=2)).max(),
        )
        assert step < 0.1  # per-pixel magnitude change stays gentle


def test_coil_profiles_vary_and_encode():
    profiles = make_coil_profiles(64, 64, 4, rng_seed=0)
    # distinct coils illuminate distinct regions
    brightest = [np.unravel_index(np.abs(p).argmax(), p.shape) for p in profiles]
    assert len(set(brightest)) == 4
    # phases differ across coils, giving complex-valued encoding
    phases = np.angle(profiles)
    assert np.abs(phases[0] - phases[1]).max() > 0.5


def test_single_coil_profile_is_flat():
    profiles = make_coil_profiles(32, 32, 1, rng_seed=0)
    np.testing.assert_allclose(np.abs(profiles[0]), 1.0, atol=1e-12)


def test_coil_profiles_validate_arguments():
    with pytest.raises(ConfigError):
        make_coil_profiles(32, 32, 0)
    with pytest.raises(ShapeError):
        make_coil_profiles(0, 32, 2)
    with pytest.raises(ConfigError):
        make_coil_profiles(8, 8, 2.5)
    with pytest.raises(ConfigError):
        make_coil_profiles(8.5, 8, 2)
    with pytest.raises(ConfigError, match="seed"):
        make_coil_profiles(8, 8, 2, rng_seed=-1)


def test_simulate_case_is_deterministic():
    a = simulate_case(32, 32, n_coils=3, r=2.0, acs_width=8, noise_sigma=0.05,
                      seed=9)
    b = simulate_case(32, 32, n_coils=3, r=2.0, acs_width=8, noise_sigma=0.05,
                      seed=9.0)  # an integral float seed is that integer
    for left, right in zip(a, b):
        if hasattr(left, "maps"):
            np.testing.assert_array_equal(left.maps, right.maps)
        elif hasattr(left, "line_selected"):
            np.testing.assert_array_equal(left.line_selected, right.line_selected)
        else:
            np.testing.assert_array_equal(left, right)


def test_simulate_case_seed_changes_every_stream():
    a = simulate_case(32, 32, n_coils=3, phantom="smooth_blobs", r=2.0,
                      acs_width=8, noise_sigma=0.05, seed=1)
    b = simulate_case(32, 32, n_coils=3, phantom="smooth_blobs", r=2.0,
                      acs_width=8, noise_sigma=0.05, seed=2)
    assert not np.array_equal(a[0], b[0])
    assert not np.array_equal(a[1].maps, b[1].maps)
    assert not np.array_equal(a[3].line_selected, b[3].line_selected)


def test_simulate_case_noiseless_consistency():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=3)
    np.testing.assert_array_equal(y, forward(gt, sens, mask))
    assert np.all(y[:, :, ~mask.line_selected] == 0)
    # zero-filled estimate lands on the object's support
    x0 = zero_filled(y, sens)
    assert not np.any(np.abs(x0[~sens.support]) > 0)


def test_simulate_case_preset_overrides_mask_parameters():
    gt, sens, y, mask = simulate_case(320, 320, n_coils=2, r=2.0, acs_width=8,
                                      preset="cardiac", seed=4)
    assert mask.kind == "random"
    assert mask.acceleration == 8.0
    assert mask.acs_width == 24
    assert mask.n_selected == round(320 / 8.0)
    assert 0.115 <= mask.sampling_ratio <= 0.135


def test_simulate_case_equispaced_and_errors():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, mask_kind="equispaced",
                                      r=2.0, acs_width=8, seed=5)
    assert mask.kind == "equispaced"
    with pytest.raises(ConfigError):
        simulate_case(32, 32, mask_kind="radial", seed=0)
    with pytest.raises(ConfigError):
        simulate_case(32, 32, phantom="checkerboard", seed=0)
    # a case is reproducible from its seed, so None is no seed here
    for seed in (-1, 2.5, None):
        with pytest.raises(ConfigError, match="seed"):
            simulate_case(16, 16, n_coils=2, r=2, acs_width=4, seed=seed)


def test_simulate_case_phase_ramp_flag():
    flat, _, _, _ = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8, seed=6)
    ramped, _, _, _ = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                    seed=6, phase_ramp=True)
    np.testing.assert_allclose(np.abs(ramped), np.abs(flat), atol=1e-12)
    assert np.abs(ramped.imag).max() > 0


def test_simulated_coils_leave_no_dead_zones():
    gt, sens, y, mask = simulate_case(64, 64, n_coils=4, r=4.0, acs_width=12,
                                      seed=7)
    # RSS of the raw profiles is bounded away from zero, so the support
    # covers the full grid and no object pixel is invisible
    assert sens.support.all()
    assert rss_combine(np.abs(sens.maps)).min() > 0.99


def test_simulate_case_takes_an_integral_float_acs_width():
    got = simulate_case(32, 48, n_coils=2, r=3.0, acs_width=12.0, seed=4)
    want = simulate_case(32, 48, n_coils=2, r=3.0, acs_width=12, seed=4)
    np.testing.assert_array_equal(got[2], want[2])
    np.testing.assert_array_equal(got[3].line_selected, want[3].line_selected)
    assert type(got[3].acs_width) is int and got[3].acs_width == 12
    for bad in (12.5, float("nan"), "12"):
        with pytest.raises(ConfigError):
            simulate_case(32, 48, n_coils=2, r=3.0, acs_width=bad, seed=4)
