"""Property tests for the shared geometry check of the operators and HQS blocks.

Every entry point validates its arrays (and a per-pixel DC blend map)
against the coil maps through one helper; these tests resize exactly one
axis of one argument and require a ShapeError from each caller, then
check forward/adjoint adjointness on random odd and even grids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex
from pcsmri import (
    SamplingMask,
    SensitivitySet,
    ShapeError,
    SolverConfig,
    SolverState,
    TikhonovPrior,
    adjoint,
    dc_update,
    forward,
    solve,
    x_update,
    zero_filled,
)
from pcsmri.solver import objective
from pcsmri.transforms import inner_product, l2_norm

PRIOR = TikhonovPrior()


def _mask(h, w, rng):
    lines = rng.random(w) < 0.5
    lines[w // 2] = True
    return SamplingMask(h, w, lines, 0, 2.0)


def _case(n_coils, h, w, seed):
    rng = np.random.default_rng(seed)
    sens = SensitivitySet.from_profiles(random_complex(rng, (n_coils, h, w)))
    mask = _mask(h, w, rng)
    x = random_complex(rng, (h, w))
    return {"sens": sens, "mask": mask, "x": x, "y": forward(x, sens, mask),
            "m": sens.maps * x, "v": rng.uniform(0.0, 1.0, (h, w)), "rng": rng}


def _state(c):
    return SolverState(x=c["x"], z=c["x"], m=c["m"], t=0)


# each entry point and the arguments it validates against the maps
CALLS = {
    "forward": (lambda c: forward(c["x"], c["sens"], c["mask"]), ("x", "mask")),
    "adjoint": (lambda c: adjoint(c["y"], c["sens"], c["mask"]), ("y", "mask")),
    "zero_filled": (lambda c: zero_filled(c["y"], c["sens"]), ("y",)),
    "dc_update": (lambda c: dc_update(c["x"], c["y"], c["sens"], c["mask"], 1.0,
                                      c["v"]), ("x", "y", "mask", "v")),
    "x_update": (lambda c: x_update(c["x"], c["m"], c["sens"], 1.0, 1.0),
                 ("x", "m")),
    "objective": (lambda c: objective(_state(c), c["y"], c["sens"], c["mask"],
                                      1.0, 1.0, 0.1, PRIOR, c["v"]),
                  ("y", "mask", "v")),
    "solve": (lambda c: solve(c["y"], c["sens"], c["mask"], SolverConfig(
        prior=PRIOR, iterations=1, dc_blend_v=c["v"])), ("y", "mask", "v")),
}


def _resize(arr, axis, grow):
    """Copy of arr with one more (or one fewer) entry along axis."""
    if grow:
        pad = [(0, 0)] * arr.ndim
        pad[axis] = (0, 1)
        return np.pad(arr, pad)
    return np.take(arr, range(arr.shape[axis] - 1), axis=axis)


@st.composite
def mismatches(draw):
    name = draw(st.sampled_from(sorted(CALLS)))
    field = draw(st.sampled_from(CALLS[name][1]))
    if field == "mask":
        axis = None
    else:
        axis = draw(st.sampled_from((0, 1) if field in ("x", "v") else (0, 1, 2)))
    shape = (draw(st.integers(1, 3)), draw(st.integers(2, 9)),
             draw(st.integers(2, 9)))
    return name, field, axis, shape, draw(st.booleans()), draw(st.integers(0, 999))


@settings(max_examples=150, deadline=None)
@given(mismatches())
def test_one_axis_mismatch_raises_shape_error(case):
    name, field, axis, (n_coils, h, w), grow, seed = case
    c = _case(n_coils, h, w, seed)
    CALLS[name][0](c)  # the consistent case passes the check
    if field == "mask":
        c["mask"] = _mask(h, w + 1 if grow or w == 2 else w - 1, c["rng"])
    else:
        c[field] = _resize(c[field], axis, grow or c[field].shape[axis] == 1)
    with pytest.raises(ShapeError):
        CALLS[name][0](c)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(2, 9), st.integers(2, 9),
       st.integers(0, 999))
def test_forward_and_adjoint_stay_adjoint(n_coils, h, w, seed):
    c = _case(n_coils, h, w, seed)
    y = random_complex(c["rng"], (n_coils, h, w))
    ax = forward(c["x"], c["sens"], c["mask"])
    lhs = inner_product(ax, y)
    rhs = inner_product(c["x"], adjoint(y, c["sens"], c["mask"]))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, l2_norm(ax) * l2_norm(y))
