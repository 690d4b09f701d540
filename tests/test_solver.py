"""Block updates against dense oracles, objective bookkeeping, limits."""

import itertools
import operator
import re
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import cache, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    fft2c,
    forward,
    ifft2c,
    make_prior,
    make_random_mask,
    simulate_case,
    solve,
    zero_filled,
)
from pcsmri.priors import tv_denoise
from pcsmri import solver
from pcsmri.solver import SolverState, _gather, dc_update, objective, x_update


def _instance(seed, h=8, w=8, n_coils=3, r=2.0, acs=2):
    rng = np.random.default_rng(seed)
    sens = SensitivitySet.from_profiles(random_complex(rng, (n_coils, h, w)))
    mask = make_random_mask(h, w, r, acs, seed=seed)
    x = random_complex(rng, (h, w))
    y = forward(x, sens, mask, noise_sigma=0.05, seed=seed)
    return rng, sens, mask, x, y


def test_dc_update_matches_dense_normal_equations():
    # odd W runs the complex column phase, odd H the unequal H shifts
    for (h, w), seed in itertools.product([(8, 8), (7, 8), (8, 9), (7, 9)],
                                          range(5)):
        _, sens, mask, x, y = _instance(seed, h=h, w=w)
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
        # the coils add left to right, as np.sum does off a 1x1 grid
        summed = np.sum(np.conj(sens.maps) * m, axis=0)
        np.testing.assert_array_equal(
            got, (0.3 * z + 0.7 * summed) / (0.3 + 0.7 * sens.energy))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4),
       st.floats(-300, 300), st.floats(-300, 300), st.integers(0, 999))
@example(1, 1, 4, 0.0, 0.0, 4)  # np.sum adds these 4 coils pairwise
def test_x_update_is_the_division_form_bit_for_bit(h, w, n_coils, log_alpha,
                                                   log_beta, seed):
    # x_update multiplies by the reciprocal of beta + alpha*sum|S|^2; numpy's
    # complex-by-real division computes the same product (signed zeros aside).
    # The oracle adds the coils left to right, as x_update does.
    rng = np.random.default_rng(seed)
    sens = SensitivitySet.from_profiles(random_complex(rng, (n_coils, h, w)))
    z = random_complex(rng, (h, w))
    m = random_complex(rng, (n_coils, h, w))
    alpha, beta = 10.0 ** log_alpha, 10.0 ** log_beta
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow to inf is in both forms
        got = x_update(z, m, sens, alpha, beta)
        summed = reduce(operator.add, np.conj(sens.maps) * m)
        want = (alpha * summed + beta * z) / (beta + alpha * sens.energy)
    np.testing.assert_array_equal(got, want)


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


def test_one_tv_prior_serves_solves_without_state():
    cases = [simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                           noise_sigma=0.02, seed=seed) for seed in (21, 22)]

    def run(prior, case):
        _, sens, y, mask = case
        x, state = solve(y, sens, mask, SolverConfig(prior=prior, lam=0.02,
                                                     iterations=6))
        return x, state.objective_history

    fresh = [run(TotalVariationPrior(), case) for case in cases]
    # the warm-start dual belongs to each solve, never to the shared prior
    shared = TotalVariationPrior()
    back_to_back = [run(shared, case) for case in cases]
    with ThreadPoolExecutor(2) as pool:
        concurrent = list(pool.map(lambda case: run(shared, case), cases))
    for got in (back_to_back, concurrent):
        for (x, history), (x_fresh, history_fresh) in zip(got, fresh):
            np.testing.assert_array_equal(x, x_fresh)
            assert history == history_fresh


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


def test_kspace_on_unsampled_columns_raises_protocol_error():
    # fully sampled data with an undersampling mask: without the check the
    # start would read bins that DC and the objective never see
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=7)
    cfg = SolverConfig(prior=TikhonovPrior(), iterations=1)
    full = SamplingMask(32, 32, np.ones(32, dtype=bool), 8, 1.0)
    y_full = forward(gt, sens, full)
    first = np.flatnonzero(~mask.line_selected)[0]
    with pytest.raises(ProtocolError, match=f"unsampled column {first} "):
        solve(y_full, sens, mask, cfg)
    one = y.copy()
    col = np.flatnonzero(~mask.line_selected)[-1]
    one[1, 5, col] = 1e-30
    with pytest.raises(ProtocolError, match=rf"column {col} \(1 such columns\)"):
        solve(one, sens, mask, cfg)
    # zeroing the unsampled columns, as the docs say, is accepted
    x, _ = solve(np.where(mask.line_selected, y_full, 0), sens, mask, cfg)
    assert np.all(np.isfinite(x))


def test_divergence_error_names_the_failing_step(tmp_path):
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=8)
    bad = y.copy()
    col = np.flatnonzero(mask.line_selected)[0]
    bad[0, 0, col] = np.nan
    cfg = SolverConfig(prior=TikhonovPrior(), iterations=1)
    # non-finite measured data is bad input, not divergence
    with pytest.raises(ProtocolError,
                       match=rf"sampled bin \(coil 0, row 0, column {col}\)"):
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


def test_blend_must_be_real_and_numeric():
    prior = TikhonovPrior()
    for bad in (0.5 + 3j, np.full((32, 32), 0.5 + 1e-9j), "abc", "0.5", None,
                [[0.5, 0.5], [0.5]]):
        with pytest.raises(ConfigError, match="dc_blend_v must be"):
            SolverConfig(prior=prior, dc_blend_v=bad)
    # a zero imaginary part is dropped exactly
    assert SolverConfig(prior=prior, dc_blend_v=0.5 + 0j).dc_blend_v == 0.5
    v_map = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
    cfg = SolverConfig(prior=prior, dc_blend_v=v_map.astype(np.complex64))
    np.testing.assert_array_equal(cfg.dc_blend_v, v_map.astype(np.float32))


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


def test_solve_transforms_forward_once_per_iteration(monkeypatch):
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.02, seed=14)
    full, lines = sens.maps.shape, (*sens.maps.shape[:-1], mask.n_selected)
    calls = []

    def counted(name):
        transform = getattr(np.fft, name)

        def run(a, *args, axis=-1, axes=None, **kwargs):
            calls.append((name.startswith("i"), np.shape(a),
                          tuple(axes) if axes is not None else (axis,)))
            if axes is not None:
                return transform(a, *args, axes=axes, **kwargs)
            return transform(a, *args, axis=axis, **kwargs)
        return run

    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(name))
    for iterations in (1, 4):
        calls.clear()
        solve(y, sens, mask, SolverConfig(prior=TikhonovPrior(), lam=0.02,
                                          iterations=iterations))
        # zero_filled: the one 2D transform
        assert [c for c in calls if c[2] == (-2, -1)] == [(True, full, (-2, -1))]
        # one forward full-width transform along W in each DC step and one for
        # the objective at t = 0, one inverse in each DC step
        along_w = [c[:2] for c in calls if c[2] == (-1,)]
        assert sorted(along_w) == ([(False, full)] * (iterations + 1)
                                   + [(True, full)] * iterations)
        # the H transforms see the sampled lines only
        along_h = [c[:2] for c in calls if c[2] == (-2,)]
        assert sorted(along_h) == ([(False, lines)] * (iterations + 1)
                                   + [(True, lines)] * iterations)
        assert len(calls) == 4 * iterations + 3


def test_solve_allocates_one_coil_stack_at_its_first_dc_step(monkeypatch):
    gt, sens, y, mask = simulate_case(64, 64, n_coils=8, r=8.0, acs_width=4,
                                      noise_sigma=0.02, seed=16)
    stack = sens.maps.nbytes
    rises, start = [], []
    real = solver._objective_from_blocks

    def end_of_iteration(*args):
        value = real(*args)
        # the most memory held above what the iteration started with
        rises.append(tracemalloc.get_traced_memory()[1] - start[-1])
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return value

    monkeypatch.setattr(solver, "_objective_from_blocks", end_of_iteration)
    cfg = SolverConfig(prior=make_prior("soft_threshold_haar"), lam=0.01,
                       iterations=5)
    tracemalloc.start()
    try:
        start.append(tracemalloc.get_traced_memory()[0])
        _, state = solve(y, sens, mask, cfg)
    finally:
        tracemalloc.stop()
    assert len(rises) == 5
    # the first DC step allocates the coil stack the solve then keeps ...
    assert rises[0] >= stack and state.m.nbytes == stack
    # ... and no later iteration allocates another one
    assert max(rises[1:]) < stack, (rises, stack)


def test_solve_gathers_once_and_never_calls_objective(monkeypatch):
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.02, seed=14)
    gathers = []

    def counted(*args):
        gathers.append(args)
        return _gather(*args)

    def forbidden(*args):
        raise AssertionError("solve called objective")

    monkeypatch.setattr("pcsmri.solver._gather", counted)
    monkeypatch.setattr("pcsmri.solver.objective", forbidden)
    for kind in ("tikhonov", "total_variation"):
        gathers.clear()
        solve(y, sens, mask, SolverConfig(prior=make_prior(kind), lam=0.02,
                                          iterations=3, dc_blend_v=0.5))
        assert len(gathers) == 1


@pytest.mark.parametrize("kind", ["total_variation", "soft_threshold_haar"])
def test_a_non_finite_objective_raises_divergence_naming_the_iteration(kind):
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.01, seed=1)
    # lam*R(x_0) overflows: F_0 is inf although x_0 is finite
    cfg = SolverConfig(prior=make_prior(kind), lam=1e307, iterations=2)
    with pytest.raises(DivergenceError, match="objective.*iteration 0"):
        solve(y, sens, mask, cfg)


def test_a_non_finite_objective_after_the_start_names_its_iteration(monkeypatch):
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.01, seed=1)
    monkeypatch.setattr(solver, "_objective_from_blocks", lambda *args: np.inf)
    with pytest.raises(DivergenceError, match="objective.*iteration 1"):
        solve(y, sens, mask, SolverConfig(prior=TikhonovPrior(), iterations=2))


@pytest.mark.parametrize("lam", [2.2e-313, 1.7e-187])
def test_a_tiny_tv_weight_solves_like_lambda_zero(lam):
    # x/theta would overflow at 1.7e-187, and 2.2e-313 is subnormal
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=13)

    def run(weight):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return solve(y, sens, mask, SolverConfig(
                prior=make_prior("total_variation"), lam=weight, iterations=2))

    x, state = run(lam)
    x_zero, _ = run(0.0)
    np.testing.assert_array_equal(x, x_zero)
    assert state.warnings == []


def test_tv_at_a_huge_weight_rises_only_on_flagged_iterations():
    # theta = 1e300: the prox is capped, and says so, wherever F rises
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      noise_sigma=0.01, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, state = solve(y, sens, mask, SolverConfig(
            prior=make_prior("total_variation"), lam=1e300, iterations=6))
    history = state.objective_history
    assert np.all(np.isfinite(history)) and history[-1] < history[0]
    flagged = {t for t in range(1, 7) if any(
        w.endswith(f"iteration {t}") for w in state.warnings)}
    rises = {t for t in range(1, 7) if history[t] > history[t - 1]}
    assert rises <= flagged


@pytest.mark.parametrize("v", ["one", "half", "map"])
def test_objective_history_matches_recomputation_without_buffer(v):
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=3.0, acs_width=6,
                                      noise_sigma=0.02, seed=15)
    v = {"one": 1.0, "half": 0.5, "map": _random_v_map(15)}[v]
    prior = make_prior("soft_threshold_haar")

    def run(iterations):
        return solve(y, sens, mask, SolverConfig(
            prior=prior, alpha=0.8, beta=1.2, lam=0.01, iterations=iterations,
            dc_blend_v=v, record_history=True))

    _, full = run(5)
    _, early = run(2)
    # the 2-iteration solve stops at the full solve's third iterate
    np.testing.assert_array_equal(early.x, full.x_history[2])
    for state, t in ((full, 5), (early, 2)):
        # the data term comes from fft2c(state.m)
        recomputed = objective(state, y, sens, mask, 0.8, 1.2, 0.01, prior, v)
        assert recomputed == pytest.approx(full.objective_history[t], rel=1e-12)


def _new_bins(k, y, s, alpha, v):
    """k + w/(w + alpha)*(y - k) on the sampled columns s, centered."""
    v_s = v[:, s] if np.ndim(v) else v
    weight = v_s * alpha / (alpha + 1.0 - v_s)
    return k + weight / (weight + alpha) * (y[..., s] - k)


def test_dc_update_leaves_the_new_bins_in_the_record():
    rng, sens, mask, x, y = _instance(16)
    s = mask.line_selected
    k = fft2c(sens.maps * x, s)
    for v in (1.0, 0.35, rng.uniform(0.0, 1.0, (8, 8))):
        data = _gather(y, sens, mask, v)
        data.k_new[...] = np.nan
        m = dc_update(x, y, sens, mask, 0.7, v, data=data)
        np.testing.assert_array_equal(m, dc_update(x, y, sens, mask, 0.7, v))
        # the returned stack reads back the new bins, which the record
        # holds in FFT row order
        k_new = _new_bins(k, y, s, 0.7, v)
        for got in (fft2c(m, s), fft2c(m)[..., s],
                    np.fft.fftshift(data.k_new, axes=-2)):
            np.testing.assert_allclose(got, k_new, rtol=0, atol=1e-12)
    out = np.empty(sens.maps.shape, dtype=complex)
    for bad in (out[:1], out[..., :-1], out.astype(np.complex64), out[0]):
        with pytest.raises(ShapeError, match="out must be complex128"):
            dc_update(x, y, sens, mask, 0.7, 1.0, out=bad)


def test_dc_update_with_the_solve_record_is_bit_identical():
    rng, sens, mask, x, y = _instance(17)
    # complex64 k-space, as the CLI loads it, included
    for y, v in itertools.product((y, y.astype(np.complex64)),
                                  (1.0, 0.0, 0.35, rng.uniform(0.0, 1.0, (8, 8)))):
        data = _gather(y, sens, mask, v)
        m = dc_update(x, y, sens, mask, 0.7, v, data=data)
        k_plain = data.k_new.copy()
        # with and without the record, into a fresh or a used coil stack
        for gathered, reuse in itertools.product((False, True), (False, True)):
            record = _gather(y, sens, mask, v) if gathered else None
            if gathered:
                record.k_new[...] = np.nan
            out = np.full_like(m, np.nan) if reuse else None
            got = dc_update(x, y, sens, mask, 0.7, v, data=record, out=out)
            np.testing.assert_array_equal(got, m)
            if gathered:
                np.testing.assert_array_equal(record.k_new, k_plain)
            assert got is out if reuse else got is not m
        if np.ndim(v) == 0:
            # a scalar blend weighs complex64 data in double, as a v_map does
            np.testing.assert_array_equal(
                dc_update(x, y, sens, mask, 0.7, np.full((8, 8), v)), m)


def test_dc_update_refuses_an_out_it_cannot_scatter_into():
    # the sampled bins are written through out's flat view, which for a
    # non-contiguous out is a copy: the update would be lost without an error
    _, sens, mask, x, y = _instance(18)
    shape = sens.maps.shape
    wide = np.full(shape[:-1] + (2 * shape[-1],), np.nan, dtype=complex)
    fortran = np.full(shape, np.nan, dtype=complex, order="F")
    for bad in (wide[..., ::2], fortran):
        with pytest.raises(ShapeError, match="out must be C-contiguous"):
            dc_update(x, y, sens, mask, 0.7, out=bad)
    assert np.all(np.isnan(wide)) and np.all(np.isnan(fortran))


@settings(max_examples=80, deadline=None)
@given(h=st.integers(2, 13), w=st.integers(4, 13), n_coils=st.integers(1, 4),
       v_map=st.booleans(), complex64=st.booleans(), alpha=st.floats(0.05, 20.0),
       seed=st.integers(0, 2**32 - 1))
def test_dc_update_flat_index_matches_the_line_transforms(h, w, n_coils, v_map,
                                                          complex64, alpha, seed):
    # odd and even H and W: the flat index folds in both H shifts
    rng = np.random.default_rng(seed)
    sens = SensitivitySet.from_profiles(random_complex(rng, (n_coils, h, w)))
    mask = make_random_mask(h, w, 2.0, 2, seed=seed % 1000)
    s = mask.line_selected
    x = random_complex(rng, (h, w))
    y = forward(x + random_complex(rng, (h, w)), sens, mask)
    y = y.astype(np.complex64) if complex64 else y
    v = rng.uniform(0.0, 1.0, (h, w)) if v_map else rng.uniform(0.0, 1.0)
    m = dc_update(x, y, sens, mask, alpha, v)
    # with the solve's record, into a used coil stack: the same bits
    data, out = _gather(y, sens, mask, v), np.full_like(m, np.nan)
    got = dc_update(x, y, sens, mask, alpha, v, data=data, out=out)
    np.testing.assert_array_equal(got, m)
    # the record holds the new bins k + w/(w + alpha)*(y - k), fft2c reads
    # them back from m, and m adds the inverse transform of their change to S x
    k = fft2c(sens.maps * x, s)
    k_new = _new_bins(k, y, s, alpha, v)
    for bins in (np.fft.fftshift(data.k_new, axes=-2), fft2c(m, s)):
        np.testing.assert_allclose(bins, k_new, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m, sens.maps * x + ifft2c(k_new - k, s), rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("kind", ["tikhonov", "soft_threshold_image",
                                  "soft_threshold_haar", "total_variation"])
def test_every_logged_objective_matches_the_direct_formula(kind):
    # F_t comes from the blocks and the R(z_t) the prox reported; objective
    # recomputes it from the iterates of a solve stopped at t
    gt, sens, y, mask = _blend_case()
    prior = make_prior(kind)
    for v in (0.6, _random_v_map(19)):
        def run(iterations):
            return solve(y, sens, mask, SolverConfig(
                prior=prior, alpha=0.8, beta=1.2, lam=0.01,
                iterations=iterations, dc_blend_v=v))[1]

        history = run(4).objective_history
        for t in range(1, 5):
            state = run(t)
            assert state.objective_history == history[:t + 1]
            direct = objective(state, y, sens, mask, 0.8, 1.2, 0.01, prior, v)
            assert history[t] == pytest.approx(direct, rel=1e-12)


_LOG_ALPHA = st.floats(-300.0, 12.0).map(lambda e: 10.0 ** e)
_LOG_BETA = st.floats(-8.0, 12.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["tikhonov", "soft_threshold_image",
                             "soft_threshold_haar", "total_variation"]),
       v=st.floats(0.0, 1.0) | st.integers(0, 2**32 - 1).map(_random_v_map),
       iterations=st.integers(1, 3),
       alpha=_LOG_ALPHA | st.lists(_LOG_ALPHA, min_size=3, max_size=3),
       beta=_LOG_BETA | st.lists(_LOG_BETA, min_size=3, max_size=3),
       lam=st.just(0.0) | st.floats(1e-4, 0.1))
def test_objective_from_the_blocks_matches_the_direct_formula(kind, v, iterations,
                                                              alpha, beta, lam):
    # solve logs F at t >= 1 from the blocks; objective recomputes it from m.
    # v = 0 with lam = 0 gives F_0 = 0, so the gate's floor is 1/2 ||y||^2.
    _, sens, y, mask = _blend_case()
    alpha = alpha[:iterations] if isinstance(alpha, list) else alpha
    beta = beta[:iterations] if isinstance(beta, list) else beta
    prior = make_prior(kind)
    cfg = SolverConfig(prior=prior, alpha=alpha, beta=beta, lam=lam,
                       iterations=iterations, dc_blend_v=v)
    _, state = solve(y, sens, mask, cfg)
    direct = objective(state, y, sens, mask, *cfg.params_at(iterations), prior, v)
    scale = max(state.objective_history[0], 0.5 * np.vdot(y, y).real)
    assert abs(state.objective_history[-1] - direct) <= 1e-12 * scale
    x0 = state.x0
    assert state.objective_history[0] == pytest.approx(objective(
        SolverState(x=x0, z=x0, m=sens.maps * x0, t=0), y, sens, mask,
        *cfg.params_at(1), prior, v), rel=1e-12)


@pytest.mark.parametrize("field, index", [
    ("x", np.s_[:, :1]), ("z", np.s_[:1]), ("m", np.s_[:1]),
], ids=["x-32x1", "z-1x32", "m-one-coil"])
def test_objective_rejects_iterates_of_the_wrong_shape(field, index):
    # a wrong shape must raise, not broadcast into a finite wrong value
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=13)
    prior = TikhonovPrior()
    _, state = solve(y, sens, mask, SolverConfig(prior=prior, iterations=2))
    assert objective(state, y, sens, mask, 1.0, 1.0, 0.0, prior) == pytest.approx(
        state.objective_history[-1], rel=1e-12)
    setattr(state, field, getattr(state, field)[index])
    with pytest.raises(ShapeError, match="does not match maps"):
        objective(state, y, sens, mask, 1.0, 1.0, 0.0, prior)


def test_solver_geometry_validation():
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=13)
    cfg = SolverConfig(prior=TikhonovPrior(), iterations=1)
    with pytest.raises(ShapeError):
        solve(y[:1], sens, mask, cfg)
    wrong = make_random_mask(32, 24, 2.0, 8, seed=0)
    with pytest.raises(ShapeError):
        solve(y, sens, wrong, cfg)


@pytest.mark.parametrize("fault", ["no-lines", "unsampled-column", "non-finite-bin"])
def test_solve_dc_update_and_objective_refuse_the_same_y(fault):
    gt, sens, y, mask = simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8,
                                      seed=7)
    y = y.copy()
    if fault == "no-lines":
        mask, message = (SamplingMask(32, 32, np.zeros(32, dtype=bool), 0, 32.0),
                         "mask selects no lines")
    elif fault == "unsampled-column":
        col = np.flatnonzero(~mask.line_selected)[0]
        y[1, 3, col] = 1e-3
        message = f"nonzero on unsampled column {col} "
    else:
        col = np.flatnonzero(mask.line_selected)[0]
        y[0, 5, col] = np.inf
        message = rf"sampled bin \(coil 0, row 5, column {col}\)"
    prior = TikhonovPrior()
    state = SolverState(x=gt, z=gt, m=sens.maps * gt, t=0)
    errors = set()
    for call in (lambda: solve(y, sens, mask, SolverConfig(prior=prior)),
                 lambda: dc_update(gt, y, sens, mask, 1.0),
                 lambda: objective(state, y, sens, mask, 1.0, 1.0, 0.0, prior)):
        with pytest.raises(ProtocolError, match=message) as caught:
            call()
        errors.add(str(caught.value))
    assert len(errors) == 1


@cache
def _admission_case(h, w):
    return simulate_case(h, w, n_coils=2, r=2.0, acs_width=4, noise_sigma=0.01,
                         seed=h * 100 + w)


_LOG_WEIGHT = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=120, deadline=None)
@given(h=st.integers(16, 33), w=st.integers(16, 33),
       kind=st.sampled_from(["tikhonov", "soft_threshold_image",
                             "soft_threshold_haar", "total_variation"]),
       alpha=_LOG_WEIGHT, beta=_LOG_WEIGHT, lam=_LOG_WEIGHT,
       iterations=st.integers(1, 3))
def test_an_admitted_solve_returns_or_diverges(h, w, kind, alpha, beta, lam,
                                               iterations):
    # an analytic prior at alpha, beta <= 1e12 must descend; TV and larger
    # weights may end in DivergenceError instead
    descends = kind != "total_variation" and max(alpha, beta) <= 1e12
    _, sens, y, mask = _admission_case(h, w)
    try:
        cfg = SolverConfig(prior=make_prior(kind), alpha=alpha, beta=beta,
                           lam=lam, iterations=iterations)
        solver._admit(y, sens, mask, cfg)
    except (ConfigError, ShapeError) as refused:
        # refused where it enters, and solve refuses it with the same error
        if isinstance(refused, ShapeError):
            with pytest.raises(ShapeError, match=re.escape(str(refused))):
                solve(y, sens, mask, cfg)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            x, state = solve(y, sens, mask, cfg)
        except DivergenceError:
            if descends:
                raise
            return
    # an overflow numpy warns about ends in DivergenceError, never in an x
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.all(np.isfinite(x))
    if descends:
        history = state.objective_history
        assert all(later <= earlier + 1e-9 * history[0]
                   for earlier, later in zip(history, history[1:]))
