"""Image metrics against scalar-loop and definitional recomputations."""

import math

import numpy as np
import pytest

from conftest import random_complex
from oracles import nmse_scalar, psnr_scalar, rmse_scalar, ssim_scalar
from pcsmri import (
    ConfigError,
    ShapeError,
    evaluate,
    nmse,
    psnr,
    rmse,
    ssim,
)


def _pair(seed, shape=(24, 20)):
    rng = np.random.default_rng(seed)
    gt = np.abs(random_complex(rng, shape)) + 0.1
    rec = gt + 0.05 * rng.standard_normal(shape)
    return rec, gt


def test_psnr_matches_scalar_loop():
    for seed in range(5):
        rec, gt = _pair(seed)
        assert abs(psnr(rec, gt) - psnr_scalar(rec, gt)) <= 1e-10


def test_rmse_and_nmse_match_scalar_loops():
    for seed in range(5):
        rec, gt = _pair(seed + 10)
        assert abs(rmse(rec, gt) - rmse_scalar(rec, gt)) <= 1e-12
        assert abs(nmse(rec, gt) - nmse_scalar(rec, gt)) <= 1e-12


def test_metrics_reduce_complex_inputs_to_magnitudes():
    rng = np.random.default_rng(3)
    rec = random_complex(rng, (16, 16))
    gt = random_complex(rng, (16, 16))
    assert psnr(rec, gt) == psnr(np.abs(rec), np.abs(gt))
    assert rmse(rec, gt) == rmse(np.abs(rec), np.abs(gt))
    assert nmse(rec, gt) == nmse(np.abs(rec), np.abs(gt))
    assert ssim(rec, gt) == ssim(np.abs(rec), np.abs(gt))
    # phase-only changes are invisible to every scalar metric
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, (16, 16)))
    assert psnr(rec * phase, gt) == pytest.approx(psnr(rec, gt))


def test_identical_images_hit_the_exact_edge_cases():
    rec, gt = _pair(4)
    assert psnr(gt, gt) == math.inf
    assert ssim(gt, gt) == 1.0
    assert rmse(gt, gt) == 0.0
    assert nmse(gt, gt) == 0.0


def test_psnr_uses_reference_peak():
    gt = np.zeros((8, 8))
    gt[0, 0] = 2.0
    rec = np.zeros((8, 8))
    rec[0, 0] = 1.0
    # mse = 1/64, peak = 2 -> 10*log10(4*64)
    assert psnr(rec, gt) == pytest.approx(10 * math.log10(256.0))
    # swapped arguments use peak 1 instead, so the metric is asymmetric
    assert psnr(gt, rec) == pytest.approx(10 * math.log10(64.0))


def test_zero_reference_raises():
    zero = np.zeros((8, 8))
    one = np.ones((8, 8))
    with pytest.raises(ConfigError):
        psnr(one, zero)
    with pytest.raises(ConfigError):
        nmse(one, zero)
    assert rmse(one, zero) == 1.0  # rmse needs no reference scale


def test_ssim_matches_definitional_loop():
    for seed in range(3):
        rec, gt = _pair(seed + 20)
        assert abs(ssim(rec, gt) - ssim_scalar(rec, gt)) <= 1e-6


def test_ssim_support_restricts_window_centers():
    rec, gt = _pair(30, shape=(26, 22))
    support = np.zeros((26, 22), dtype=bool)
    support[8:18, 6:16] = True
    got = ssim(rec, gt, support=support)
    want = ssim_scalar(rec, gt, support=support)
    assert abs(got - want) <= 1e-6
    assert got != pytest.approx(ssim(rec, gt))


def test_ssim_flat_reference_falls_back_to_a_positive_range():
    flat = np.full((16, 16), 3.0)
    noisy = flat + 0.01 * np.random.default_rng(0).standard_normal((16, 16))
    value = ssim(noisy, flat)
    assert np.isfinite(value)
    assert 0.9 < value <= 1.0


def test_ssim_shape_and_support_validation():
    rec, gt = _pair(31)
    with pytest.raises(ShapeError):
        ssim(rec[:10], gt[:10])  # smaller than the 11x11 window
    with pytest.raises(ShapeError):
        ssim(rec, gt[:, :10])
    with pytest.raises(ConfigError):
        ssim(rec, gt, support=np.zeros_like(gt, dtype=bool))
    edge_only = np.zeros_like(gt, dtype=bool)
    edge_only[0, 0] = True  # no valid window is centered at the corner
    with pytest.raises(ConfigError):
        ssim(rec, gt, support=edge_only)


def test_evaluate_bundles_all_metrics():
    rec, gt = _pair(33)
    out = evaluate(rec, gt)
    assert sorted(out) == ["nmse", "psnr", "rmse", "ssim"]
    assert out["psnr"] == pytest.approx(psnr(rec, gt))
    assert out["ssim"] == pytest.approx(ssim(rec, gt))
    assert out["rmse"] == pytest.approx(rmse(rec, gt))
    assert out["nmse"] == pytest.approx(nmse(rec, gt))


def test_evaluate_restricts_scalars_to_the_support():
    rec, gt = _pair(34, shape=(26, 22))
    support = np.zeros((26, 22), dtype=bool)
    support[6:20, 5:17] = True
    out = evaluate(rec, gt, support=support)
    assert out["psnr"] == pytest.approx(psnr(rec[support], gt[support]))
    assert out["rmse"] == pytest.approx(rmse(rec[support], gt[support]))
    assert out["nmse"] == pytest.approx(nmse(rec[support], gt[support]))
    assert out["ssim"] == pytest.approx(ssim(rec, gt, support=support))
