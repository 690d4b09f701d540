"""Proximal operators: closed forms, transform identities, the TV dual
solver against a long-run oracle, and the external denoiser protocol."""

import tempfile
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
    z = prior.prox(x, beta, lam)
    base = _prox_objective(prior, z, x, beta, lam)
    for _ in range(trials):
        probe = z + scale * random_complex(rng, z.shape)
        assert _prox_objective(prior, probe, x, beta, lam) >= base - 1e-10


def test_soft_threshold_scalar_formula():
    rng = np.random.default_rng(0)
    x = random_complex(rng, (6, 5))
    t = 0.8
    got = _soft_threshold(x, t)
    for i in range(6):
        for j in range(5):
            mag = abs(x[i, j])
            want = (max(mag - t, 0.0) / mag) * x[i, j]
            assert abs(got[i, j] - want) <= 1e-12
    np.testing.assert_array_equal(_soft_threshold(x, 0.0), x)
    assert np.all(_soft_threshold(0.1 * x, 10.0) == 0)


def test_tikhonov_prox_closed_form_and_optimality():
    rng = np.random.default_rng(1)
    x = random_complex(rng, (8, 8))
    prior = TikhonovPrior()
    beta, lam = 0.7, 0.2
    z = prior.prox(x, beta, lam)
    np.testing.assert_allclose(z, (beta / (beta + 2 * lam)) * x, atol=1e-14)
    # stationarity of 0.5*beta||z - x||^2 + lam ||z||^2
    grad = beta * (z - x) + 2 * lam * z
    assert np.abs(grad).max() <= 1e-12
    _assert_prox_is_a_minimizer(prior, x, beta, lam)
    assert prior.value(x) == pytest.approx(float(np.sum(np.abs(x) ** 2)))
    z2, converged = prior.prox_info(x, beta, lam)
    np.testing.assert_array_equal(z2, z)
    assert converged is True


def test_image_soft_threshold_prior():
    rng = np.random.default_rng(2)
    x = random_complex(rng, (8, 8))
    prior = SoftThresholdPrior()
    beta, lam = 2.0, 0.5
    np.testing.assert_allclose(
        prior.prox(x, beta, lam), _soft_threshold(x, lam / beta), atol=1e-14
    )
    np.testing.assert_array_equal(prior.prox(x, beta, 0.0), x)
    assert prior.value(x) == pytest.approx(float(np.sum(np.abs(x))))
    _assert_prox_is_a_minimizer(prior, x, beta, lam)


def test_prox_rejects_bad_parameters():
    x = np.zeros((4, 4), dtype=complex)
    for prior in (TikhonovPrior(), SoftThresholdPrior(), HaarPrior(),
                  TotalVariationPrior()):
        with pytest.raises(ConfigError):
            prior.prox(x, 0.0, 0.1)
        with pytest.raises(ConfigError):
            prior.prox(x, -1.0, 0.1)
        with pytest.raises(ConfigError):
            prior.prox(x, 1.0, -0.1)


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
    z = TikhonovPrior().prox(x, beta, lam)
    stationarity = beta * (z - x) + 2.0 * lam * z
    assert np.abs(stationarity).max() <= 1e-13 * (beta + 2.0 * lam) * (
        1.0 + np.abs(x).max())
    _assert_shrinkage_optimality(x, SoftThresholdPrior().prox(x, beta, lam), t)
    x_bands = haar2_forward(x)
    z_bands = haar2_forward(HaarPrior().prox(x, beta, lam))
    np.testing.assert_allclose(z_bands[0], x_bands[0], rtol=0, atol=1e-12 * scale)
    for xb, zb in zip(x_bands[1:], z_bands[1:]):
        _assert_shrinkage_optimality(xb, zb, t)


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
    z = prior.prox(x, beta, lam)
    ll_in, lh_in, hl_in, hh_in = haar2_forward(x)
    ll_out, lh_out, hl_out, hh_out = haar2_forward(z)
    np.testing.assert_allclose(ll_out, ll_in, atol=1e-12)
    t = lam / beta
    np.testing.assert_allclose(lh_out, _soft_threshold(lh_in, t), atol=1e-12)
    np.testing.assert_allclose(hl_out, _soft_threshold(hl_in, t), atol=1e-12)
    np.testing.assert_allclose(hh_out, _soft_threshold(hh_in, t), atol=1e-12)
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


def test_tv_denoise_reports_convergence():
    rng = np.random.default_rng(9)
    x = random_complex(rng, (16, 16))
    _, converged_short, n_short = tv_denoise(x, 0.3, iterations=1, tol=1e-12)
    assert converged_short is False
    assert n_short == 1
    _, converged_long, n_long = tv_denoise(x, 0.3, iterations=5000, tol=1e-8)
    assert converged_long is True
    assert n_long < 5000


def test_tv_prior_wires_theta_and_convergence_through():
    rng = np.random.default_rng(10)
    x = random_complex(rng, (16, 16))
    prior = TotalVariationPrior(iterations=300, tol=1e-10)
    beta, lam = 2.0, 0.5
    z = prior.prox(x, beta, lam)
    want, _, _ = tv_denoise(x, lam / beta, iterations=300, tol=1e-10)
    np.testing.assert_array_equal(z, want)
    assert prior.value(x) == pytest.approx(tv_value(x))

    starved = TotalVariationPrior(iterations=1, tol=1e-14)
    _, converged = starved.prox_info(x, beta, lam)
    assert converged is False


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
    z = prior.prox(x, beta=1.0, lam=0.0)
    np.testing.assert_array_equal(z, x)  # c16 exchange is bit-exact
    assert prior.value(x) is None
    z2, converged = prior.prox_info(x, beta=1.0, lam=0.0)
    np.testing.assert_array_equal(z2, x)
    assert converged is True


def test_external_prior_transforms_data(tmp_path):
    cmd = make_stub(tmp_path, "halve.py", conftest.HALVE_STUB)
    prior = ExternalPrior(cmd, exchange_dir=tmp_path / "xch")
    rng = np.random.default_rng(13)
    x = random_complex(rng, (4, 6))
    np.testing.assert_allclose(prior.prox(x, 1.0, 0.5), 0.5 * x, atol=1e-15)


def test_external_prior_argv_protocol(tmp_path):
    cmd = make_stub(tmp_path, "argv.py", conftest.ARGV_STUB)
    exchange = tmp_path / "xch"
    prior = ExternalPrior(cmd, exchange_dir=exchange)
    x = np.ones((4, 4), dtype=complex)
    prior.prox(x, beta=0.25, lam=0.125)
    argv = (tmp_path / "argv.py.argv").read_text().splitlines()
    assert argv == [
        str(exchange / "prior_in"),
        str(exchange / "prior_out"),
        repr(0.25),
        repr(0.125),
    ]


def test_external_prior_failure_reports_exit_code_and_stderr(tmp_path):
    cmd = make_stub(tmp_path, "fail.py", conftest.FAIL_STUB)
    prior = ExternalPrior(cmd, exchange_dir=tmp_path / "xch")
    with pytest.raises(PriorExecutionError, match="code 3.*denoiser exploded"):
        prior.prox(np.ones((4, 4), dtype=complex), 1.0, 0.0)


def test_external_prior_never_reuses_stale_output(tmp_path):
    exchange = tmp_path / "xch"
    ok = ExternalPrior(make_stub(tmp_path, "identity.py", conftest.IDENTITY_STUB),
                       exchange_dir=exchange)
    x = np.ones((4, 4), dtype=complex)
    ok.prox(x, 1.0, 0.0)
    assert (exchange / "prior_out").exists()

    # same exchange dir, but this command writes nothing at all
    noop = ExternalPrior(make_stub(tmp_path, "noop.py", conftest.NOOP_STUB),
                         exchange_dir=exchange)
    with pytest.raises(PriorExecutionError, match="unreadable output"):
        noop.prox(x, 1.0, 0.0)


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
        prior.prox(np.ones((8, 8), dtype=complex), 1.0, 0.0)


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
    np.testing.assert_array_equal(prior.prox(x, 1.0, 0.0), x)
    in_path = Path((tmp_path / "argv.py.argv").read_text().splitlines()[0])
    assert in_path.parent.parent == scratch
    assert in_path.parent.name.startswith("pcsmri-prior-")
    assert list(scratch.iterdir()) == []


def test_external_prior_missing_executable(tmp_path):
    prior = ExternalPrior(str(tmp_path / "no_such_binary"),
                          exchange_dir=tmp_path / "xch")
    with pytest.raises(PriorExecutionError, match="cannot run"):
        prior.prox(np.ones((4, 4), dtype=complex), 1.0, 0.0)


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
