"""Block updates against dense oracles, objective bookkeeping, limits."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import make_stub, random_complex
from oracles import (
    dc_blend_scalar_oracle,
    dc_normal_equation_oracle,
    objective_scalar_oracle,
    x_update_normal_equation_oracle,
)
from pcsmri import (
    ConfigError,
    DivergenceError,
    ExternalPrior,
    ProtocolError,
    SamplingMask,
    SensitivitySet,
    ShapeError,
    SolverConfig,
    TikhonovPrior,
    TotalVariationPrior,
    forward,
    make_prior,
    make_random_mask,
    simulate_case,
    solve,
    zero_filled,
)
from pcsmri.priors import tv_denoise
from pcsmri.solver import SolverState, dc_update, objective, x_update


def _instance(seed, h=8, w=8, n_coils=3, r=2.0, acs=2):
    rng = np.random.default_rng(seed)
    sens = SensitivitySet.from_profiles(random_complex(rng, (n_coils, h, w)))
    mask = make_random_mask(h, w, r, acs, seed=seed)
    x = random_complex(rng, (h, w))
    y = forward(x, sens, mask, noise_sigma=0.05, seed=seed)
    return rng, sens, mask, x, y


def test_dc_update_matches_dense_normal_equations():
    for seed in range(5):
        _, sens, mask, x, y = _instance(seed)
        got = dc_update(x, y, sens, mask, alpha=0.7)
        want = dc_normal_equation_oracle(x, y, sens.maps, mask.line_selected, 0.7)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_dc_update_blend_matches_scalar_recomputation():
    rng, sens, mask, x, y = _instance(11)
    for v in (0.0, 0.35, 1.0):
        got = dc_update(x, y, sens, mask, alpha=1.3, v=v)
        want = dc_blend_scalar_oracle(x, y, sens.maps, mask.line_selected, 1.3, v)
        np.testing.assert_allclose(got, want, atol=1e-10)
    vmap = rng.uniform(0.0, 1.0, (8, 8))
    got = dc_update(x, y, sens, mask, alpha=1.3, v=vmap)
    want = dc_blend_scalar_oracle(x, y, sens.maps, mask.line_selected, 1.3, vmap)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_dc_update_keeps_unsampled_bins():
    from pcsmri import fft2c

    _, sens, mask, x, y = _instance(12)
    m = dc_update(x, y, sens, mask, alpha=0.9)
    k_pred = fft2c(sens.maps * x)
    k_new = fft2c(m)
    np.testing.assert_allclose(
        k_new[:, :, ~mask.line_selected], k_pred[:, :, ~mask.line_selected],
        atol=1e-12,
    )


def test_dc_update_blend_zero_is_inert():
    _, sens, mask, x, y = _instance(13)
    m = dc_update(x, y, sens, mask, alpha=0.9, v=0.0)
    np.testing.assert_allclose(m, sens.maps * x, atol=1e-12)


def test_dc_update_small_alpha_pins_sampled_bins_to_data():
    from pcsmri import fft2c

    _, sens, mask, x, y = _instance(14)
    m = dc_update(x, y, sens, mask, alpha=1e-12)
    k_new = fft2c(m)
    np.testing.assert_allclose(
        k_new[:, :, mask.line_selected], y[:, :, mask.line_selected], atol=1e-9
    )


def test_x_update_matches_dense_normal_equations():
    for seed in range(5):
        rng, sens, mask, x, _ = _instance(seed + 20)
        z = random_complex(rng, (8, 8))
        m = random_complex(rng, (3, 8, 8))
        got = x_update(z, m, sens, alpha=0.7, beta=0.3)
        want = x_update_normal_equation_oracle(z, m, sens.maps, 0.7, 0.3)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_x_update_reduces_to_z_off_support():
    rng = np.random.default_rng(30)
    profiles = random_complex(rng, (2, 8, 8))
    profiles[:, :, :2] = 0  # two empty columns fall outside the support
    sens = SensitivitySet.from_profiles(profiles)
    assert not sens.support[:, :2].any()
    z = random_complex(rng, (8, 8))
    m = random_complex(rng, (2, 8, 8))
    x = x_update(z, m, sens, alpha=5.0, beta=0.5)
    np.testing.assert_allclose(x[:, :2], z[:, :2], atol=1e-12)


def test_block_update_validation():
    _, sens, mask, x, y = _instance(31)
    m = sens.maps * x
    state = SolverState(x=x, z=x, m=m, t=0)
    prior = TikhonovPrior()
    # every block and the objective check each weight it takes the same way
    weight_calls = {
        "alpha": (lambda a: dc_update(x, y, sens, mask, alpha=a),
                  lambda a: x_update(x, m, sens, alpha=a, beta=1.0),
                  lambda a: objective(state, y, sens, mask, a, 1.0, 0.1, prior)),
        "beta": (lambda b: x_update(x, m, sens, alpha=1.0, beta=b),
                 lambda b: objective(state, y, sens, mask, 1.0, b, 0.1, prior),
                 lambda b: prior.prox_info(x, b, 0.1)),
        "lambda": (lambda lam: objective(state, y, sens, mask, 1.0, 1.0, lam, prior),
                   lambda lam: prior.prox_info(x, 1.0, lam),
                   lambda lam: tv_denoise(x, lam)),
    }
    for name, calls in weight_calls.items():
        bad = (np.nan, np.inf, -np.inf, -1.0, None, "x")
        for call in calls:
            for value in bad + ((0.0,) if name != "lambda" else ()):
                with pytest.raises(ConfigError, match="and finite"):
                    call(value)
            call(1.0)
    with pytest.raises(ConfigError):
        dc_update(x, y, sens, mask, alpha=1.0, v=1.5)
    with pytest.raises(ShapeError):
        dc_update(x[:4], y, sens, mask, alpha=1.0)
    with pytest.raises(ConfigError):
        x_update(x, sens.maps * x, sens, alpha=1.0, beta=0.0)
    with pytest.raises(ShapeError):
        x_update(x, (sens.maps * x)[:1], sens, alpha=1.0, beta=1.0)


def test_objective_matches_scalar_recomputation():
    rng, sens, mask, x, y = _instance(32)
    z = random_complex(rng, (8, 8))
    m = random_complex(rng, (3, 8, 8))
    state = SolverState(x=x, z=z, m=m, t=1)
    for kind in ("tikhonov", "soft_threshold_image", "soft_threshold_haar",
                 "total_variation"):
        got = objective(state, y, sens, mask, 0.7, 0.3, 0.05, make_prior(kind))
        want = objective_scalar_oracle(
            z, m, x, y, sens.maps, mask.line_selected, 0.7, 0.3, 0.05, kind
        )
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    # a soft blend weights sampled bins by v*alpha/(1 + alpha - v)
    for v in (0.35, rng.uniform(0.0, 1.0, (8, 8))):
        got = objective(state, y, sens, mask, 0.7, 0.3, 0.05,
                        make_prior("soft_threshold_haar"), v)
        want = objective_scalar_oracle(
            z, m, x, y, sens.maps, mask.line_selected, 0.7, 0.3, 0.05,
            "soft_threshold_haar", v=v,
        )
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_objective_skips_unknown_external_penalty(tmp_path):
    rng, sens, mask, x, y = _instance(33)
    z = random_complex(rng, (8, 8))
    m = random_complex(rng, (3, 8, 8))
    state = SolverState(x=x, z=z, m=m, t=1)
    ext = ExternalPrior("true")
    got = objective(state, y, sens, mask, 0.7, 0.3, 0.05, ext)
    want = objective_scalar_oracle(
        z, m, x, y, sens.maps, mask.line_selected, 0.7, 0.3, 0.0, None
    )
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("kind,lam", [
    ("tikhonov", 0.05),
    ("soft_threshold_image", 0.01),
    ("soft_threshold_haar", 0.01),
])
def test_objective_history_non_increasing(kind, lam):
    gt, sens, y, mask = simulate_case(64, 64, n_coils=3, r=4.0, acs_width=12,
                                      noise_sigma=0.01, seed=2)
    cfg = SolverConfig(prior=make_prior(kind), alpha=1.0, beta=1.0, lam=lam,
                       iterations=20)
    _, state = solve(y, sens, mask, cfg)
    hist = np.asarray(state.objective_history)
    assert hist.size == 21
    assert state.objective_includes_prior is True
    assert np.all(np.diff(hist) <= 1e-9 * max(1.0, hist[0]))


def test_objective_history_non_increasing_tv_within_inner_tolerance():
    gt, sens, y, mask = simulate_case(64, 64, n_coils=3, r=4.0, acs_width=12,
                                      noise_sigma=0.01, seed=2)
    cfg = SolverConfig(prior=TotalVariationPrior(iterations=200, tol=1e-8),
                       alpha=1.0, beta=1.0, lam=0.01, iterations=20)
    _, state = solve(y, sens, mask, cfg)
    hist = np.asarray(state.objective_history)
    # the filtering step is exact only up to the inner dual tolerance
    assert np.all(np.diff(hist) <= 1e-6 * max(1.0, hist[0]))


@cache
def _blend_case():
    return simulate_case(32, 32, n_coils=2, r=3.0, acs_width=6,
                         noise_sigma=0.02, seed=4)


def _random_v_map(seed):
    rng = np.random.default_rng(seed)
    # interior values plus bins pinned at both ends of [0, 1]
    return np.choose(rng.integers(0, 3, (32, 32)),
                     [rng.uniform(0.0, 1.0, (32, 32)), 0.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["tikhonov", "soft_threshold_image",
                             "soft_threshold_haar"]),
       v=st.floats(0.0, 1.0) | st.integers(0, 2**32 - 1).map(_random_v_map),
       alpha=st.floats(0.05, 20.0), beta=st.floats(0.05, 20.0),
       lam=st.floats(0.0, 0.1))
def test_objective_non_increasing_for_every_blend(kind, v, alpha, beta, lam):
    _, sens, y, mask = _blend_case()
    cfg = SolverConfig(prior=make_prior(kind), alpha=alpha, beta=beta, lam=lam,
                       iterations=8, dc_blend_v=v)
    _, state = solve(y, sens, mask, cfg)
    hist = np.asarray(state.objective_history)
    assert np.all(np.diff(hist) <= 1e-9 * max(1.0, hist[0]))


def test_objective_history_entry_zero_is_the_starting_point():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.02, seed=3)
    lam = 0.03
    cfg = SolverConfig(prior=make_prior("tikhonov"), alpha=0.8, beta=1.2,
                       lam=lam, iterations=1)
    _, state = solve(y, sens, mask, cfg)
    x0 = zero_filled(y, sens)
    want = objective_scalar_oracle(
        x0, sens.maps * x0, x0, y, sens.maps, mask.line_selected,
        0.8, 1.2, lam, "tikhonov",
    )
    assert state.objective_history[0] == pytest.approx(want, rel=1e-10)


def test_alpha_limit_pins_m_to_modulated_image():
    gt, sens, y, mask = simulate_case(64, 64, n_coils=3, r=4.0, acs_width=12,
                                      noise_sigma=0.01, seed=2)
    cfg = SolverConfig(prior=TikhonovPrior(), alpha=1e12, beta=1.0, lam=0.0,
                       iterations=2)
    _, state = solve(y, sens, mask, cfg)
    num = np.linalg.norm(state.m - sens.maps * state.x)
    den = np.linalg.norm(sens.maps * state.x)
    assert num / den <= 1e-4


@pytest.mark.parametrize("kind", [
    "tikhonov", "soft_threshold_image", "soft_threshold_haar", "total_variation",
])
def test_full_sampling_noiseless_recovers_ground_truth(kind):
    gt, sens, y, mask = simulate_case(64, 64, n_coils=3, r=4.0, acs_width=12,
                                      seed=2)
    full = make_random_mask(64, 64, 1.0, 12, seed=0)
    yf = forward(gt, sens, full)
    cfg = SolverConfig(prior=make_prior(kind), alpha=1.0, beta=1.0, lam=0.0,
                       iterations=5)
    x, _ = solve(yf, sens, full, cfg)
    assert np.abs((x - gt)[sens.support]).max() <= 1e-6


def test_full_sampling_with_identity_external_prior(tmp_path):
    cmd = make_stub(tmp_path, "identity.py", conftest.IDENTITY_STUB)
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=4)
    full = make_random_mask(32, 32, 1.0, 8, seed=0)
    yf = forward(gt, sens, full)
    cfg = SolverConfig(prior=ExternalPrior(cmd, exchange_dir=tmp_path / "xch"),
                       alpha=1.0, beta=1.0, lam=0.0, iterations=3)
    x, state = solve(yf, sens, full, cfg)
    assert np.abs((x - gt)[sens.support]).max() <= 1e-6
    assert state.objective_includes_prior is False


def test_identity_external_prior_reproduces_unregularized_path(tmp_path):
    # z = x either way, so the iterates must agree to round-off
    cmd = make_stub(tmp_path, "identity.py", conftest.IDENTITY_STUB)
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.02, seed=5)
    cfg_ext = SolverConfig(prior=ExternalPrior(cmd, exchange_dir=tmp_path / "x"),
                           alpha=0.7, beta=1.1, lam=0.0, iterations=4)
    cfg_tik = SolverConfig(prior=TikhonovPrior(), alpha=0.7, beta=1.1, lam=0.0,
                           iterations=4)
    x_ext, st_ext = solve(y, sens, mask, cfg_ext)
    x_tik, st_tik = solve(y, sens, mask, cfg_tik)
    np.testing.assert_allclose(x_ext, x_tik, atol=1e-10)
    np.testing.assert_allclose(
        st_ext.objective_history, st_tik.objective_history, atol=1e-10
    )


def test_fixed_point_is_preserved():
    gt, sens, _, _ = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8, seed=6)
    full = make_random_mask(32, 32, 1.0, 8, seed=0)
    yf = forward(gt, sens, full)
    cfg = SolverConfig(prior=TikhonovPrior(), alpha=1.0, beta=1.0, lam=0.0,
                       iterations=10)
    x, state = solve(yf, sens, full, cfg)
    # zero-filled already equals gt here, and iterating must not drift
    assert np.abs((x - gt)[sens.support]).max() <= 1e-8
    hist = np.asarray(state.objective_history)
    assert hist.max() <= 1e-12


def test_empty_mask_raises_protocol_error():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=7)
    empty = SamplingMask(32, 32, np.zeros(32, dtype=bool), 0, 32.0)
    cfg = SolverConfig(prior=TikhonovPrior(), iterations=1)
    with pytest.raises(ProtocolError):
        solve(np.zeros_like(y), sens, empty, cfg)


def test_divergence_error_names_the_failing_step(tmp_path):
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=8)
    bad = y.copy()
    bad[0, 0, np.flatnonzero(mask.line_selected)[0]] = np.nan
    cfg = SolverConfig(prior=TikhonovPrior(), iterations=1)
    with pytest.raises(DivergenceError, match="initial estimate"):
        solve(bad, sens, mask, cfg)

    cmd = make_stub(tmp_path, "nan.py", conftest.NAN_STUB)
    cfg = SolverConfig(prior=ExternalPrior(cmd, exchange_dir=tmp_path / "xch"),
                       iterations=2)
    with pytest.raises(DivergenceError, match="filtering step.*iteration 1"):
        solve(y, sens, mask, cfg)


def test_config_validation():
    prior = TikhonovPrior()
    with pytest.raises(ConfigError):
        SolverConfig(prior="tikhonov")
    with pytest.raises(ConfigError):
        SolverConfig(prior=prior, iterations=0)
    with pytest.raises(ConfigError):
        SolverConfig(prior=prior, alpha=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(prior=prior, beta=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(prior=prior, lam=-0.5)
    with pytest.raises(ConfigError):
        SolverConfig(prior=prior, alpha=[1.0, 2.0], iterations=3)
    with pytest.raises(ConfigError):
        SolverConfig(prior=prior, lam=[0.1, np.nan], iterations=2)
    with pytest.raises(ConfigError):
        SolverConfig(prior=prior, dc_blend_v=-0.1)
    with pytest.raises(ConfigError):
        SolverConfig(prior=prior, dc_blend_v=np.ones((2, 2, 2)))
    for bad in (np.nan, np.inf, np.full((32, 32), np.nan),
                np.where(np.eye(4) > 0, np.inf, 0.5)):
        with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
            SolverConfig(prior=prior, dc_blend_v=bad)
    # lam may be zero, alpha and beta may not
    SolverConfig(prior=prior, lam=0.0)


def test_schedules_index_one_based():
    cfg = SolverConfig(prior=TikhonovPrior(), alpha=[1.0, 2.0, 3.0],
                       beta=0.5, lam=[0.0, 0.1, 0.2], iterations=3)
    assert cfg.params_at(1) == (1.0, 0.5, 0.0)
    assert cfg.params_at(3) == (3.0, 0.5, 0.2)


def test_constant_schedule_equals_scalar_config():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.02, seed=9)
    scalar = SolverConfig(prior=TikhonovPrior(), alpha=0.9, beta=1.1, lam=0.02,
                          iterations=4)
    listed = SolverConfig(prior=TikhonovPrior(), alpha=[0.9] * 4, beta=[1.1] * 4,
                          lam=[0.02] * 4, iterations=4)
    x1, st1 = solve(y, sens, mask, scalar)
    x2, st2 = solve(y, sens, mask, listed)
    np.testing.assert_array_equal(x1, x2)
    assert st1.objective_history == st2.objective_history


def test_record_history_collects_every_iterate():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.02, seed=10)
    cfg = SolverConfig(prior=TikhonovPrior(), lam=0.02, iterations=3,
                       record_history=True)
    x, state = solve(y, sens, mask, cfg)
    assert len(state.x_history) == 4
    np.testing.assert_array_equal(state.x_history[0], zero_filled(y, sens))
    np.testing.assert_array_equal(state.x_history[-1], x)
    off = SolverConfig(prior=TikhonovPrior(), lam=0.02, iterations=3)
    _, state_off = solve(y, sens, mask, off)
    assert state_off.x_history == []


def test_inner_solver_warnings_surface_in_state():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.02, seed=11)
    cfg = SolverConfig(prior=TotalVariationPrior(iterations=1, tol=1e-14),
                       lam=0.05, iterations=3)
    _, state = solve(y, sens, mask, cfg)
    assert len(state.warnings) == 3
    assert "iteration 1" in state.warnings[0]


def test_final_objective_matches_reported_history():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.02, seed=12)
    cfg = SolverConfig(prior=TikhonovPrior(), alpha=0.8, beta=1.3, lam=0.01,
                       iterations=5)
    _, state = solve(y, sens, mask, cfg)
    recomputed = objective(state, y, sens, mask, 0.8, 1.3, 0.01, TikhonovPrior())
    assert recomputed == pytest.approx(state.objective_history[-1], rel=1e-12)


def test_solver_geometry_validation():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=13)
    cfg = SolverConfig(prior=TikhonovPrior(), iterations=1)
    with pytest.raises(ShapeError):
        solve(y[:1], sens, mask, cfg)
    wrong = make_random_mask(32, 24, 2.0, 8, seed=0)
    with pytest.raises(ShapeError):
        solve(y, sens, wrong, cfg)
