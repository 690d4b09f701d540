"""Proximal operators: closed forms, transform identities, the TV dual
solver against a long-run oracle, and the external denoiser protocol."""

import ast
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import make_stub, random_complex
from oracles import (
    haar_bands_scalar,
    tv_denoise_dual_oracle,
    tv_denoise_reference,
    tv_primal_objective,
    tv_scalar,
)
from pcsmri import (
    ConfigError,
    ExternalPrior,
    HaarPrior,
    PriorExecutionError,
    ShapeError,
    SoftThresholdPrior,
    TikhonovPrior,
    TotalVariationPrior,
    make_prior,
    priors,
)
from pcsmri.priors import (
    _soft_threshold,
    haar2_forward,
    haar2_inverse,
    tv_denoise,
    tv_value,
)


def _prox_objective(prior, z, x, beta, lam):
    return 0.5 * beta * float(np.sum(np.abs(z - x) ** 2)) + lam * prior.value(z)


def _assert_prox_is_a_minimizer(prior, x, beta, lam, trials=25, scale=1e-3):
    # no random perturbation of the prox output may lower its objective
    rng = np.random.default_rng(42)
    z = prior.prox_info(x, beta, lam)[0]
    base = _prox_objective(prior, z, x, beta, lam)
    for _ in range(trials):
        probe = z + scale * random_complex(rng, z.shape)
        assert _prox_objective(prior, probe, x, beta, lam) >= base - 1e-10


def test_soft_threshold_scalar_formula():
    rng = np.random.default_rng(0)
    x = random_complex(rng, (6, 5))
    t = 0.8
    got, l1 = _soft_threshold(x, t)
    for i in range(6):
        for j in range(5):
            mag = abs(x[i, j])
            want = (max(mag - t, 0.0) / mag) * x[i, j]
            assert abs(got[i, j] - want) <= 1e-12
    assert l1 == pytest.approx(float(np.sum(np.abs(got))), rel=1e-14)
    np.testing.assert_array_equal(_soft_threshold(x, 0.0)[0], x)
    assert np.all(_soft_threshold(0.1 * x, 10.0)[0] == 0)


def test_tikhonov_prox_closed_form_and_optimality():
    rng = np.random.default_rng(1)
    x = random_complex(rng, (8, 8))
    prior = TikhonovPrior()
    beta, lam = 0.7, 0.2
    z = prior.prox_info(x, beta, lam)[0]
    np.testing.assert_allclose(z, (beta / (beta + 2 * lam)) * x, atol=1e-14)
    # stationarity of 0.5*beta||z - x||^2 + lam ||z||^2
    grad = beta * (z - x) + 2 * lam * z
    assert np.abs(grad).max() <= 1e-12
    _assert_prox_is_a_minimizer(prior, x, beta, lam)
    assert prior.value(x) == pytest.approx(float(np.sum(np.abs(x) ** 2)))
    z2, info = prior.prox_info(x, beta, lam)
    np.testing.assert_array_equal(z2, z)
    assert info.converged is True


def test_image_soft_threshold_prior():
    rng = np.random.default_rng(2)
    x = random_complex(rng, (8, 8))
    prior = SoftThresholdPrior()
    beta, lam = 2.0, 0.5
    np.testing.assert_allclose(
        prior.prox_info(x, beta, lam)[0], _soft_threshold(x, lam / beta)[0],
        atol=1e-14
    )
    np.testing.assert_array_equal(prior.prox_info(x, beta, 0.0)[0], x)
    assert prior.value(x) == pytest.approx(float(np.sum(np.abs(x))))
    _assert_prox_is_a_minimizer(prior, x, beta, lam)


def test_prox_rejects_bad_parameters():
    x = np.zeros((4, 4), dtype=complex)
    for prior in (TikhonovPrior(), SoftThresholdPrior(), HaarPrior(),
                  TotalVariationPrior()):
        with pytest.raises(ConfigError):
            prior.prox_info(x, 0.0, 0.1)
        with pytest.raises(ConfigError):
            prior.prox_info(x, -1.0, 0.1)
        with pytest.raises(ConfigError):
            prior.prox_info(x, 1.0, -0.1)


def _assert_shrinkage_optimality(x, z, t, tol=1e-9):
    """0 in (z - x) + t*d|z| per complex entry: |x| <= t where z = 0, and
    x - z = t*z/|z| elsewhere, i.e. z points along x with |x| = |z| + t
    (the form that stays exact to round-off for tiny nonzero z)."""
    zero = np.abs(z) <= tol
    assert np.all(np.abs(x[zero]) <= t + tol)
    x, z = x[~zero], z[~zero]
    np.testing.assert_allclose(np.abs(x), np.abs(z) + t, rtol=1e-12, atol=tol)
    along = np.conj(x) * z / np.abs(x)  # z's components along and across x
    np.testing.assert_allclose(along.imag, 0.0, atol=tol)
    assert np.all(along.real > 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.floats(0.1, 10.0),
       st.floats(0.05, 20.0), st.floats(0.0, 2.0), st.integers(0, 999))
def test_closed_form_prox_optimality_conditions(hh, wh, scale, beta, lam, seed):
    x = scale * random_complex(np.random.default_rng(seed), (2 * hh, 2 * wh))
    t = lam / beta
    z = TikhonovPrior().prox_info(x, beta, lam)[0]
    stationarity = beta * (z - x) + 2.0 * lam * z
    assert np.abs(stationarity).max() <= 1e-13 * (beta + 2.0 * lam) * (
        1.0 + np.abs(x).max())
    _assert_shrinkage_optimality(
        x, SoftThresholdPrior().prox_info(x, beta, lam)[0], t)
    x_bands = haar2_forward(x)
    z_bands = haar2_forward(HaarPrior().prox_info(x, beta, lam)[0])
    np.testing.assert_allclose(z_bands[0], x_bands[0], rtol=0, atol=1e-12 * scale)
    for xb, zb in zip(x_bands[1:], z_bands[1:]):
        _assert_shrinkage_optimality(xb, zb, t)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["tikhonov", "soft_threshold_image",
                             "soft_threshold_haar", "total_variation"]),
       hh=st.integers(1, 8), wh=st.integers(1, 8), scale=st.floats(1e-3, 1e3),
       beta=st.floats(0.05, 20.0), lam=st.floats(0.0, 2.0),
       seed=st.integers(0, 999))
def test_prox_reports_the_penalty_at_its_result(kind, hh, wh, scale, beta, lam,
                                                seed):
    # solve logs F with info.penalty in place of prior.value(z)
    x = scale * random_complex(np.random.default_rng(seed), (2 * hh, 2 * wh))
    prior = make_prior(kind)
    z, info = prior.prox_info(x, beta, lam * scale, prior.new_dual(x.shape))
    value = prior.value(z)
    # Haar bands shrunk to zero come back from z as round-off of x's scale
    bound = max(value, prior.value(x)) if kind == "soft_threshold_haar" else value
    assert abs(info.penalty - value) <= 1e-14 * bound
    assert info.converged is True or kind == "total_variation"


def test_haar_round_trip_and_orthonormality():
    rng = np.random.default_rng(3)
    x = random_complex(rng, (10, 14))
    bands = haar2_forward(x)
    np.testing.assert_allclose(haar2_inverse(*bands), x, atol=1e-12)
    coeff_energy = sum(float(np.sum(np.abs(b) ** 2)) for b in bands)
    assert coeff_energy == pytest.approx(float(np.sum(np.abs(x) ** 2)))


def test_haar_bands_match_block_sums():
    rng = np.random.default_rng(4)
    x = random_complex(rng, (6, 8))
    for got, want in zip(haar2_forward(x), haar_bands_scalar(x)):
        np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24),
       st.sampled_from([np.float32, np.complex64, np.float64, np.complex128]),
       st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_haar_pair_property(hh, wh, dtype, scale, seed):
    rng = np.random.default_rng(seed)
    shape = (2 * hh, 2 * wh)
    if np.issubdtype(dtype, np.complexfloating):
        x = (scale * random_complex(rng, shape)).astype(dtype)
    else:
        x = (scale * rng.standard_normal(shape)).astype(dtype)
    # single-precision input is promoted before any sum, so every dtype
    # meets the double-precision bound
    tol = 1e-12 * np.abs(x).max()
    double = np.result_type(dtype, np.float64)
    bands = haar2_forward(x)
    for got, want in zip(bands, haar_bands_scalar(x.astype(double))):
        assert got.dtype == double and got.shape == (hh, wh)
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    back = haar2_inverse(*bands)
    assert back.dtype == double
    np.testing.assert_allclose(back, x, rtol=0, atol=tol)
    # the inverse keeps the bands' common dtype, single precision included
    assert haar2_inverse(*(b.astype(dtype) for b in bands)).dtype == dtype
    # a real approximation band with complex details gives a complex image
    ll, lh, hl, hh_band = haar2_forward(x.astype(np.complex128))
    mixed = haar2_inverse(ll.real, lh, hl, hh_band)
    assert mixed.dtype == np.complex128
    for got, want in zip(haar2_forward(mixed), (ll.real, lh, hl, hh_band)):
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    for odd in ((2 * hh + 1, 2 * wh), (2 * hh, 2 * wh - 1)):
        with pytest.raises(ShapeError):
            haar2_forward(np.zeros(odd, dtype=dtype))


def test_haar_requires_even_dimensions():
    with pytest.raises(ShapeError):
        haar2_forward(np.zeros((5, 8)))
    with pytest.raises(ShapeError):
        haar2_forward(np.zeros((8, 7)))
    with pytest.raises(ShapeError):
        haar2_forward(np.zeros(8))


def test_haar_prior_thresholds_details_only():
    rng = np.random.default_rng(5)
    x = random_complex(rng, (8, 8))
    prior = HaarPrior()
    beta, lam = 1.5, 0.3
    z = prior.prox_info(x, beta, lam)[0]
    ll_in, lh_in, hl_in, hh_in = haar2_forward(x)
    ll_out, lh_out, hl_out, hh_out = haar2_forward(z)
    np.testing.assert_allclose(ll_out, ll_in, atol=1e-12)
    t = lam / beta
    np.testing.assert_allclose(lh_out, _soft_threshold(lh_in, t)[0], atol=1e-12)
    np.testing.assert_allclose(hl_out, _soft_threshold(hl_in, t)[0], atol=1e-12)
    np.testing.assert_allclose(hh_out, _soft_threshold(hh_in, t)[0], atol=1e-12)
    detail_l1 = sum(float(np.sum(np.abs(b))) for b in (lh_in, hl_in, hh_in))
    assert prior.value(x) == pytest.approx(detail_l1)
    _assert_prox_is_a_minimizer(prior, x, beta, lam)


def test_tv_value_matches_scalar_loop():
    rng = np.random.default_rng(6)
    z = random_complex(rng, (7, 9))
    assert tv_value(z) == pytest.approx(tv_scalar(z), rel=1e-12)
    assert tv_value(np.full((5, 5), 2.0 + 1.0j)) == pytest.approx(0.0, abs=1e-12)


def test_tv_denoise_matches_long_run_dual_oracle():
    rng = np.random.default_rng(7)
    base = np.zeros((16, 16), dtype=complex)
    base[4:10, 5:12] = 1.0
    base[8:13, 2:6] = 0.5 + 0.3j
    noisy = base + 0.15 * random_complex(rng, (16, 16))
    theta = 0.2
    z_star = tv_denoise_dual_oracle(noisy, theta, steps=100_000)
    z_pkg, _, _ = tv_denoise(noisy, theta, iterations=4000, tol=1e-13)
    obj_star = tv_primal_objective(z_star, noisy, theta)
    obj_pkg = tv_primal_objective(z_pkg, noisy, theta)
    assert abs(obj_pkg - obj_star) <= 1e-4 * obj_star
    assert np.abs(z_pkg - z_star).max() <= 5e-3


def test_tv_denoise_theta_zero_is_identity():
    rng = np.random.default_rng(8)
    x = random_complex(rng, (12, 12))
    z, converged, n_iter = tv_denoise(x, 0.0)
    np.testing.assert_array_equal(z, x)
    assert converged is True


def test_tv_denoise_tiny_weights_stay_within_four_theta_of_x():
    # a checkerboard of peak 1 has the largest gradient, and a unit dual
    # the largest div p; below 2.983e-154, x/theta would overflow for it
    x = np.where(np.indices((16, 16)).sum(axis=0) % 2, 1.0, -1.0) + 0j
    for theta in (1.0001 * 2.983e-154, 0.9999 * 2.983e-154, 1e-300,
                  np.finfo(float).tiny):
        dual = np.ones((2, 16, 16), dtype=np.complex128) / np.sqrt(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, converged, _ = tv_denoise(x, theta, iterations=5, dual=dual)
        assert converged is True
        assert np.all(np.isfinite(z)) and np.all(np.isfinite(dual))
        assert np.abs(z - x).max() <= 4 * theta
    # below the smallest normal double, theta acts as 0: z is a copy of x
    z, converged, n_iter = tv_denoise(x, 2.2e-313)
    np.testing.assert_array_equal(z, x)
    assert z is not x and converged is True and n_iter == 0


def test_tv_denoise_reports_convergence():
    rng = np.random.default_rng(9)
    x = random_complex(rng, (16, 16))
    _, converged_short, n_short = tv_denoise(x, 0.3, iterations=1, tol=1e-12)
    assert converged_short is False
    assert n_short == 1
    _, converged_long, n_long = tv_denoise(x, 0.3, iterations=5000, tol=1e-8)
    assert converged_long is True
    assert n_long < 5000


def _dual_magnitude(p):
    return np.sqrt(np.abs(p[0]) ** 2 + np.abs(p[1]) ** 2)


def _certified(x, theta, z, tol):
    """P - D <= tol*P for the ROF problem, from z alone (not the loop's gap)."""
    primal = 0.5 * np.sum(np.abs(z - x) ** 2) + theta * tv_value(z)
    dual_value = 0.5 * np.sum(np.abs(x) ** 2) - 0.5 * np.sum(np.abs(z) ** 2)
    slack = 1e-12 * (primal + np.sum(np.abs(x) ** 2))
    return primal - dual_value <= tol * primal + slack


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.floats(0.01, 2.0),
       st.floats(1e-6, 1e-2), st.integers(0, 999))
def test_tv_denoise_gap_certificate(h, w, theta, tol, seed):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, (h, w))
    # a feasible warm start, |p| <= 1, with some pixels on the boundary
    dual = random_complex(rng, (2, h, w))
    radius = np.where(rng.random((h, w)) < 0.3, 1.0, rng.random((h, w)))
    dual *= radius / _dual_magnitude(dual)
    start = dual.copy()
    z, converged, n_iter = tv_denoise(x, theta, iterations=2000, tol=tol,
                                      dual=dual)
    assert _dual_magnitude(dual).max() <= 1 + 1e-12
    assert n_iter == 0 or not np.array_equal(dual, start)
    if not converged:
        return
    assert _certified(x, theta, z, tol)
    # the buffer holds the certified dual: restarting from it takes no step
    z_again, converged_again, n_again = tv_denoise(x, theta, iterations=2000,
                                                   tol=tol, dual=dual)
    assert converged_again is True and n_again == 0
    np.testing.assert_array_equal(z_again, z)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.floats(-300, 300),
       st.floats(-3, 3), st.integers(0, 999))
def test_tv_denoise_certificate_holds_at_extreme_weights(h, w, log_theta,
                                                         log_peak, seed):
    # theta from 1e-300 to 1e300 and images of peak 1e-3 to 1e3, cold and
    # warm-started from the same theta: no warning, a finite z, and every
    # reported convergence certified by the gap of z itself
    rng = np.random.default_rng(seed)
    x = random_complex(rng, (h, w))
    x *= 10.0 ** log_peak / np.abs(x).max()
    theta = 10.0 ** log_theta
    dual = np.zeros((2, h, w), dtype=np.complex128)
    for _ in ("cold", "warm"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, converged, _ = tv_denoise(x, theta, iterations=200, dual=dual)
        assert np.all(np.isfinite(z))
        assert _dual_magnitude(dual).max() <= 1 + 1e-12
        assert not converged or _certified(x, theta, z, 1e-3)


def test_tv_denoise_rejects_a_wrong_dual_buffer():
    x = np.ones((4, 6), dtype=complex)
    for bad in (np.zeros((2, 6, 4), complex), np.zeros((2, 4, 6), np.complex64),
                np.zeros((4, 6), complex),
                # the right shape and dtype, but its flat views would be copies
                np.zeros((2, 4, 6), complex, order="F"),
                np.zeros((2, 4, 12), complex)[:, :, ::2]):
        with pytest.raises(ShapeError, match="tv dual"):
            tv_denoise(x, 0.1, dual=bad)
    # the image itself may have any layout
    rng = np.random.default_rng(14)
    x = random_complex(rng, (4, 6))
    want, _, _ = tv_denoise(x, 0.1)
    for view in (np.asfortranarray(x), random_complex(rng, (8, 12))[::2, ::2],
                 random_complex(rng, (4, 6))[::-1, ::-1]):
        view[...] = x
        got, _, _ = tv_denoise(view, 0.1)
        np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12),
       st.one_of(st.floats(-4, 2), st.floats(-150, 150)),
       st.floats(-10, -1), st.integers(0, 40), st.booleans(), st.booleans(),
       st.integers(0, 999))
def test_tv_denoise_is_the_reference_loop_bit_for_bit(h, w, log_theta, log_tol,
                                                      iterations, warm, fortran,
                                                      seed):
    # the workspace, flat shifts and reciprocal change no bit of a step:
    # z, the step count, the verdict, TV(z) and every dual entry div reads
    rng = np.random.default_rng(seed)
    x = random_complex(rng, (h, w))
    if fortran:
        x = np.asfortranarray(x)
    dual = np.zeros((2, h, w), dtype=np.complex128)
    if warm:
        # |p| <= 1, the entries div ignores included (and nonzero)
        dual = random_complex(rng, (2, h, w))
        dual *= rng.random((h, w)) / _dual_magnitude(dual)
    theta, tol = 10.0 ** log_theta, 10.0 ** log_tol
    want_dual = dual.copy()
    want_z, want_converged, want_n, want_tv = tv_denoise_reference(
        x, theta, iterations, tol, want_dual)
    info = {}
    z, converged, n_iter = tv_denoise(x, theta, iterations, tol, dual, info=info)
    np.testing.assert_array_equal(z, want_z)
    assert (converged, n_iter, info["tv"]) == (want_converged, want_n, want_tv)
    np.testing.assert_array_equal(dual[0, :-1, :], want_dual[0, :-1, :])
    np.testing.assert_array_equal(dual[1, :, :-1], want_dual[1, :, :-1])
    assert not dual[0, -1, :].any() and not dual[1, :, -1].any()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(0, 999))
def test_numpy_divides_complex_by_real_as_a_reciprocal_product(n, seed):
    # tv_denoise and x_update rely on this identity to be bit-identical to
    # the division they replaced (+0 and -0 compare equal, NaN to NaN)
    rng = np.random.default_rng(seed)
    num = random_complex(rng, (n,)) * 10.0 ** rng.uniform(-300, 300, n)
    num.real[rng.random(n) < 0.2] = 0.0
    num.real[rng.random(n) < 0.2] = -0.0
    num.imag[rng.random(n) < 0.2] = -0.0
    den = 10.0 ** rng.uniform(-310, 300, n)
    den[0] = 1e-310
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 1/1e-310 overflows in both forms
        quotient = num / den
        product = num * np.reciprocal(den)
    np.testing.assert_array_equal(quotient, product)


def test_tv_prior_wires_theta_and_convergence_through():
    rng = np.random.default_rng(10)
    x = random_complex(rng, (16, 16))
    prior = TotalVariationPrior(iterations=300, tol=1e-10)
    beta, lam = 2.0, 0.5
    z = prior.prox_info(x, beta, lam)[0]
    want, _, _ = tv_denoise(x, lam / beta, iterations=300, tol=1e-10)
    np.testing.assert_array_equal(z, want)
    assert prior.value(x) == pytest.approx(tv_value(x))

    starved = TotalVariationPrior(iterations=1, tol=1e-14)
    _, info = starved.prox_info(x, beta, lam)
    assert info.converged is False


def test_tv_denoise_reduces_the_primal_objective():
    rng = np.random.default_rng(11)
    x = random_complex(rng, (16, 16))
    theta = 0.25
    z, _, _ = tv_denoise(x, theta, iterations=500)
    assert tv_primal_objective(z, x, theta) < tv_primal_objective(x, x, theta)


def test_external_prior_identity_stub(tmp_path):
    cmd = make_stub(tmp_path, "identity.py", conftest.IDENTITY_STUB)
    prior = ExternalPrior(cmd, exchange_dir=tmp_path / "xch")
    rng = np.random.default_rng(12)
    x = random_complex(rng, (8, 8))
    z = prior.prox_info(x, beta=1.0, lam=0.0)[0]
    np.testing.assert_array_equal(z, x)  # c16 exchange is bit-exact
    assert prior.value(x) is None
    z2, info = prior.prox_info(x, beta=1.0, lam=0.0)
    np.testing.assert_array_equal(z2, x)
    assert info == (True, None)


def test_external_prior_transforms_data(tmp_path):
    cmd = make_stub(tmp_path, "halve.py", conftest.HALVE_STUB)
    prior = ExternalPrior(cmd, exchange_dir=tmp_path / "xch")
    rng = np.random.default_rng(13)
    x = random_complex(rng, (4, 6))
    np.testing.assert_allclose(prior.prox_info(x, 1.0, 0.5)[0], 0.5 * x,
                               atol=1e-15)


def test_external_prior_argv_protocol(tmp_path):
    cmd = make_stub(tmp_path, "argv.py", conftest.ARGV_STUB)
    exchange = tmp_path / "xch"
    prior = ExternalPrior(cmd, exchange_dir=exchange)
    x = np.ones((4, 4), dtype=complex)
    prior.prox_info(x, beta=0.25, lam=0.125)
    argv = (tmp_path / "argv.py.argv").read_text().splitlines()
    private = Path(argv[0]).parent
    assert private.parent == exchange
    assert private.name.startswith("pcsmri-prior-")
    assert argv == [
        str(private / "prior_in"),
        str(private / "prior_out"),
        repr(0.25),
        repr(0.125),
    ]
    # the per-call directory is gone once the call returns
    assert not private.exists() and list(exchange.iterdir()) == []


def test_external_prior_failure_reports_exit_code_and_stderr(tmp_path):
    cmd = make_stub(tmp_path, "fail.py", conftest.FAIL_STUB)
    prior = ExternalPrior(cmd, exchange_dir=tmp_path / "xch")
    with pytest.raises(PriorExecutionError, match="code 3.*denoiser exploded"):
        prior.prox_info(np.ones((4, 4), dtype=complex), 1.0, 0.0)


def test_external_prior_never_reuses_stale_output(tmp_path):
    exchange = tmp_path / "xch"
    ok = ExternalPrior(make_stub(tmp_path, "identity.py", conftest.IDENTITY_STUB),
                       exchange_dir=exchange)
    x = np.ones((4, 4), dtype=complex)
    ok.prox_info(x, 1.0, 0.0)

    # same exchange dir, but this command writes nothing at all
    noop = ExternalPrior(make_stub(tmp_path, "noop.py", conftest.NOOP_STUB),
                         exchange_dir=exchange)
    with pytest.raises(PriorExecutionError, match="unreadable output"):
        noop.prox_info(x, 1.0, 0.0)


def test_external_priors_sharing_exchange_dir_run_concurrently(tmp_path):
    # each call sleeps inside its exchange, so concurrent calls overlap
    sleep = "\n    import time\n    time.sleep(0.05)"
    exchange = tmp_path / "xch"
    identity = ExternalPrior(make_stub(tmp_path, "identity.py",
                                       sleep + conftest.IDENTITY_STUB),
                             exchange_dir=exchange)
    halve = ExternalPrior(make_stub(tmp_path, "halve.py",
                                    sleep + conftest.HALVE_STUB),
                          exchange_dir=exchange)
    rng = np.random.default_rng(14)
    calls = [(prior, random_complex(rng, (6, 8)))
             for _ in range(4) for prior in (identity, halve)]
    sequential = [prior.prox_info(x, 1.0, 0.0)[0] for prior, x in calls]
    with ThreadPoolExecutor(2) as pool:
        concurrent = list(pool.map(
            lambda call: call[0].prox_info(call[1], 1.0, 0.0)[0], calls))
    for want, got in zip(sequential, concurrent):
        np.testing.assert_array_equal(got, want)
    assert list(exchange.iterdir()) == []


def test_external_prior_rejects_wrong_shape_output(tmp_path):
    body = """
        import shutil
        import numpy as np
        src, dst = sys.argv[1], sys.argv[2]
        data = np.fromfile(src, dtype="<c16")
        data[: data.size // 2].tofile(dst)
        hdr = open(src + ".hdr").read().replace("width: 8", "width: 4")
        open(dst + ".hdr", "w").write(hdr)
    """
    cmd = make_stub(tmp_path, "crop.py", body)
    prior = ExternalPrior(cmd, exchange_dir=tmp_path / "xch")
    with pytest.raises(PriorExecutionError, match="shape"):
        prior.prox_info(np.ones((8, 8), dtype=complex), 1.0, 0.0)


def test_external_prior_validates_construction(tmp_path):
    with pytest.raises(ConfigError):
        ExternalPrior([])
    with pytest.raises(ConfigError):
        ExternalPrior("denoise", timeout=0)
    prior = ExternalPrior("denoise --flag", exchange_dir=tmp_path)
    assert prior.command == ["denoise", "--flag"]
    # without an exchange dir nothing is created until prox runs
    assert ExternalPrior("denoise").exchange_dir is None


def test_external_prior_default_exchange_dir_is_removed(tmp_path, monkeypatch):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    cmd = make_stub(tmp_path, "argv.py", conftest.ARGV_STUB)
    prior = ExternalPrior(cmd)
    x = random_complex(np.random.default_rng(5), (6, 6))
    np.testing.assert_array_equal(prior.prox_info(x, 1.0, 0.0)[0], x)
    in_path = Path((tmp_path / "argv.py.argv").read_text().splitlines()[0])
    assert in_path.parent.parent == scratch
    assert in_path.parent.name.startswith("pcsmri-prior-")
    assert list(scratch.iterdir()) == []


def test_external_prior_missing_executable(tmp_path):
    prior = ExternalPrior(str(tmp_path / "no_such_binary"),
                          exchange_dir=tmp_path / "xch")
    with pytest.raises(PriorExecutionError, match="cannot run"):
        prior.prox_info(np.ones((4, 4), dtype=complex), 1.0, 0.0)


def test_make_prior_factory():
    assert isinstance(make_prior("tikhonov"), TikhonovPrior)
    assert isinstance(make_prior("soft_threshold_image"), SoftThresholdPrior)
    assert isinstance(make_prior("soft_threshold_haar"), HaarPrior)
    tv = make_prior("total_variation", iterations=77, tol=1e-5)
    assert isinstance(tv, TotalVariationPrior)
    assert tv.iterations == 77
    assert tv.tol == 1e-5
    ext = make_prior("external", command="denoise")
    assert isinstance(ext, ExternalPrior)

    with pytest.raises(ConfigError, match="unknown prior kind"):
        make_prior("wavelet")
    with pytest.raises(ConfigError, match="bad parameters"):
        make_prior("tikhonov", iterations=5)
    with pytest.raises(ConfigError, match="tv iterations"):
        make_prior("total_variation", iterations=7.9)
    assert make_prior("total_variation", iterations=7.0).iterations == 7


def test_prior_kind_labels():
    assert TikhonovPrior.kind == "tikhonov"
    assert SoftThresholdPrior.kind == "soft_threshold_image"
    assert HaarPrior.kind == "soft_threshold_haar"
    assert TotalVariationPrior.kind == "total_variation"
    assert ExternalPrior.kind == "external"


def test_only_the_solver_the_cli_and_the_package_import_priors():
    # the scalar judges live beside ConfigError in errors.py, so masks,
    # operators, phantoms and sensitivity reach them without the prior
    # module and its subprocess and container imports; every import
    # statement counts, also one inside a function, relative or absolute
    def imports_priors(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "pcsmri.priors" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            return (module in (".priors", "pcsmri.priors")
                    or module in (".", "pcsmri")
                    and any(alias.name == "priors" for alias in node.names))
        return False

    package = Path(priors.__file__).parent
    importers = [path.name for path in sorted(package.glob("*.py"))
                 if any(map(imports_priors, ast.walk(ast.parse(path.read_text()))))]
    assert importers == ["__init__.py", "cli.py", "solver.py"]
