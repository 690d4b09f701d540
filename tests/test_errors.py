"""Property test for the scalar judges of errors.py at every public entry point.

A bad scalar (None, a string, bytes, a bool, a complex number, a list of
such values, NaN or an infinity) given to any numeric parameter raises ConfigError naming
that parameter, never a TypeError or ValueError from numpy or math. None
is a valid seed where a function draws fresh entropy for it.
"""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcsmri import (
    ConfigError,
    ExternalPrior,
    SamplingMask,
    SolverConfig,
    TikhonovPrior,
    TotalVariationPrior,
    acs_band,
    estimate_maps,
    forward,
    make_coil_profiles,
    make_equispaced_mask,
    make_phantom,
    make_random_mask,
    simulate_case,
)


@functools.cache
def _case():
    return simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8, seed=0)


def _forward(**kwargs):
    gt, sens, _, mask = _case()
    return forward(gt, sens, mask, **kwargs)


def _estimate_maps(acs_width):
    return estimate_maps(_case()[2], acs_width)


def _solver_config(**kwargs):
    return SolverConfig(prior=TikhonovPrior(), **kwargs)


def _external_prior(timeout):
    return ExternalPrior(["true"], timeout=timeout)


# (entry point, valid keyword arguments, {parameter: the name its refusal gives})
ENTRY_POINTS = [
    (make_random_mask, dict(height=16, width=16, r=4.0, acs_width=4, seed=0),
     dict(height="mask dimension", width="mask dimension", r="acceleration",
          acs_width="acs_width", seed="seed")),
    (make_equispaced_mask, dict(height=16, width=16, r=4.0, acs_width=4, seed=0),
     dict(height="mask dimension", width="mask dimension", r="acceleration",
          acs_width="acs_width", seed="seed")),
    (SamplingMask, dict(height=4, width=4, line_selected=np.ones(4), acs_width=2,
                        acceleration=1.0, seed=0),
     dict(height="mask dimension", width="mask dimension", acs_width="acs_width",
          acceleration="acceleration", seed="seed")),
    (acs_band, dict(width=16, acs_width=4), dict(width="width", acs_width="acs_width")),
    (simulate_case, dict(height=32, width=32, n_coils=2, r=2.0, acs_width=8,
                         noise_sigma=0.01, seed=0),
     dict(height="phantom side", width="phantom side", n_coils="n_coils",
          r="acceleration", acs_width="acs_width", noise_sigma="noise_sigma",
          seed="seed")),
    (make_phantom, dict(height=16, width=16, rng_seed=0),
     dict(height="phantom side", width="phantom side", rng_seed="seed")),
    (make_coil_profiles, dict(height=8, width=8, n_coils=2, rng_seed=0),
     dict(height="profile side", width="profile side", n_coils="n_coils",
          rng_seed="seed")),
    (_estimate_maps, dict(acs_width=8), dict(acs_width="acs_width")),
    (_forward, dict(noise_sigma=0.01, seed=0),
     dict(noise_sigma="noise_sigma", seed="seed")),
    (_solver_config, dict(alpha=1.0, beta=1.0, lam=0.0, iterations=3),
     dict(alpha="alpha", beta="beta", lam="lambda", iterations="iterations")),
    (TotalVariationPrior, dict(iterations=5, tol=1e-3),
     dict(iterations="tv iterations", tol="tv tol")),
    (_external_prior, dict(timeout=1.0), dict(timeout="timeout")),
]

# seeds that take None for fresh entropy
NONE_IS_VALID = {(make_random_mask, "seed"), (make_equispaced_mask, "seed"),
                 (SamplingMask, "seed"), (make_phantom, "rng_seed"),
                 (make_coil_profiles, "rng_seed"), (_forward, "seed")}

PARAMETERS = [(call, valid, param, name) for call, valid, names in ENTRY_POINTS
              for param, name in names.items()]

BAD_SCALARS = st.one_of(
    st.sampled_from([None, True, False, np.True_, "4", b"4", 4 + 1j,
                     np.complex128(4 + 1j), np.complex64(4),
                     math.nan, math.inf, -math.inf]),
    st.text(max_size=4), st.binary(max_size=4))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(PARAMETERS),
       st.one_of(BAD_SCALARS, st.lists(BAD_SCALARS, max_size=3)))
def test_a_bad_scalar_raises_config_error_naming_its_parameter(parameter, value):
    call, valid, param, name = parameter
    assume(value is not None or (call, param) not in NONE_IS_VALID)
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} "):
        call(**{**valid, param: value})
