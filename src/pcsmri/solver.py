"""Half-quadratic-splitting reconstruction loop.

The penalized objective being minimized is

    F(z, m, x) = 1/2 sum_l ||sqrt(w) U (F m_l - y_l)||^2 + lam*R(z)
               + (alpha/2) sum_l ||m_l - S_l x||^2
               + (beta/2) ||z - x||^2

and one iteration alternates three exact block updates, each reading
the previous x: the filtering step z = prox_{lam/beta R}(x), the
per-coil data-consistency step on sampled k-space bins, and the
closed-form auxiliary update for x. The DC step moves every sampled
bin to the exact weighted minimizer (w*y + alpha*k)/(w + alpha), with
k = F S_l x and the data weight w = v*alpha/(alpha + 1 - v) of the blend
v (a scalar or a per-pixel map); v = 1 gives w = 1, exact consistency.
Every block is therefore minimized exactly (TV up to its inner
tolerance), so F is non-increasing across iterations for every v as
long as alpha, beta and lam stay constant.

m_l lives in image domain throughout; its k-space form only appears
transiently inside the data-consistency update.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ProtocolError
from .operators import _check_geometry, zero_filled
from .priors import Prior, _check_count, _check_weight
from .transforms import fft2c, ifft2c, l2_norm


def _as_schedule(value, name, t_total, allow_zero):
    """Normalize a scalar or length-T sequence to a tuple of checked floats."""
    seq = list(value) if np.ndim(value) else [value] * t_total
    if len(seq) != t_total:
        raise ConfigError(
            f"{name} schedule has {len(seq)} entries, expected {t_total}"
        )
    return tuple(_check_weight(v, name, allow_zero) for v in seq)


def _check_blend(v):
    """A scalar v in [0, 1] as float, or a read-only (H, W) map of them."""
    arr = np.array(v, dtype=float)
    if arr.ndim not in (0, 2):
        raise ConfigError("dc_blend_v must be a scalar or a 2D per-pixel map")
    bad = arr[~((arr >= 0.0) & (arr <= 1.0))]
    if bad.size:
        raise ConfigError(f"dc_blend_v must lie in [0, 1], got {bad[0]}")
    if arr.ndim == 0:
        return float(arr)
    arr.setflags(write=False)
    return arr


@dataclass
class SolverConfig:
    """Penalty weights, iteration budget and prior for one solve.

    alpha, beta and lam accept either a scalar applied to every
    iteration or a length-``iterations`` schedule. dc_blend_v is the
    soft-consistency weight: 1 enforces exact agreement with measured
    bins, 0 ignores them; a per-pixel (H, W) map is also accepted.
    """

    prior: Prior
    alpha: object = 1.0
    beta: object = 1.0
    lam: object = 0.0
    iterations: int = 3
    dc_blend_v: object = 1.0
    record_history: bool = False

    def __post_init__(self):
        if not isinstance(self.prior, Prior):
            raise ConfigError(f"prior must be a Prior instance, got {self.prior!r}")
        self.iterations = _check_count(self.iterations, "iterations")
        self.alpha = _as_schedule(self.alpha, "alpha", self.iterations, False)
        self.beta = _as_schedule(self.beta, "beta", self.iterations, False)
        self.lam = _as_schedule(self.lam, "lambda", self.iterations, True)
        self.dc_blend_v = _check_blend(self.dc_blend_v)

    def params_at(self, t):
        """(alpha, beta, lam) for iteration t, 1-based."""
        return self.alpha[t - 1], self.beta[t - 1], self.lam[t - 1]


@dataclass
class SolverState:
    """Iterates and objective trace of a finished (or failed) solve."""

    x: np.ndarray
    z: np.ndarray
    m: np.ndarray
    t: int
    objective_history: list = field(default_factory=list)
    objective_includes_prior: bool = True
    warnings: list = field(default_factory=list)
    x_history: list = field(default_factory=list)


def _data_weight(sens, mask, alpha, v):
    """Checked alpha, and w = v*alpha/(alpha + 1 - v) in float64 on sampled columns."""
    alpha = _check_weight(alpha, "alpha")
    v = _check_blend(v)
    _check_geometry(sens, mask, blend=v)
    v = np.broadcast_to(v, sens.shape)[:, mask.line_selected]
    return alpha, v * alpha / (alpha + (1.0 - v))


def dc_update(x_prev, y, sens, mask, alpha, v=1.0):
    """Per-coil data-consistency step, solved bin by bin in k-space.

    With k = fft2c(S_l * x_prev), each sampled bin moves to
    (w*y + alpha*k)/(w + alpha), the exact minimizer of the coil
    subproblem under the data weight w = v*alpha/(alpha + 1 - v) that
    ``objective`` applies for the same blend v (w = 1 at v = 1, exact
    consistency); unsampled bins keep k. Returns per-coil images.
    """
    alpha, w = _data_weight(sens, mask, alpha, v)
    _check_geometry(sens, image=x_prev, coils=y)
    s = mask.line_selected
    k = fft2c(sens.maps * x_prev)
    k[..., s] = (w * y[..., s] + alpha * k[..., s]) / (w + alpha)
    return ifft2c(k)


def x_update(z, m, sens, alpha, beta):
    """Auxiliary update: x = (beta*z + alpha*sum_l S_l^H m_l) / (beta + alpha*sum_l |S_l|^2).

    With normalized maps the denominator is beta + alpha on support and
    beta off support (where x reduces to z).
    """
    alpha, beta = _check_weight(alpha, "alpha"), _check_weight(beta, "beta")
    _check_geometry(sens, image=z, coils=m, name="coil images")
    num = beta * np.asarray(z) + alpha * np.sum(np.conj(sens.maps) * m, axis=0)
    return num / (beta + alpha * sens.energy)


def objective(state, y, sens, mask, alpha, beta, lam, prior, v=1.0):
    """Evaluate the full penalized objective at the state's iterates.

    Sampled bins of the data term carry the weight w = v*alpha/(alpha +
    1 - v) for the DC blend v (1 for exact consistency). For the external
    prior R is unknown; the value is reported without the lam*R term
    (state.objective_includes_prior records this).
    """
    alpha, w = _data_weight(sens, mask, alpha, v)
    beta, lam = _check_weight(beta, "beta"), _check_weight(lam, "lambda", True)
    _check_geometry(sens, coils=y)
    residual = (fft2c(state.m) - y)[..., mask.line_selected] * np.sqrt(w)
    total = (0.5 * l2_norm(residual) ** 2
             + 0.5 * alpha * l2_norm(state.m - sens.maps * state.x) ** 2
             + 0.5 * beta * l2_norm(state.z - state.x) ** 2)
    r = prior.value(state.z)
    return total if r is None else total + lam * r


def _check_finite(arr, step, t):
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(
            f"{step} produced non-finite values at iteration {t}"
        )


def solve(y, sens, mask, config):
    """Run the full reconstruction from measured k-space.

    Starts from the zero-filled estimate (t = 0: z = x and m_l = S_l x)
    and alternates the three block updates for config.iterations rounds.
    Returns (x, state); the state carries the objective at t = 0..T,
    evaluated with alpha, beta, lam of round max(t, 1) and the blend v,
    and inner-solver warnings.
    """
    _check_geometry(sens, mask, coils=y, blend=config.dc_blend_v)
    if mask.n_selected == 0:
        raise ProtocolError("mask selects no lines; nothing was measured")
    prior = config.prior
    x = zero_filled(y, sens)
    _check_finite(x, "initial estimate", 0)
    state = SolverState(x=x, z=x.copy(), m=sens.maps * x, t=0,
                        objective_includes_prior=prior.value(x) is not None)
    for t in range(config.iterations + 1):
        alpha, beta, lam = config.params_at(max(t, 1))
        if t:
            z, converged = prior.prox_info(state.x, beta, lam)
            if not converged:
                state.warnings.append(
                    f"prior inner solver did not reach tolerance at iteration {t}"
                )
            _check_finite(z, "filtering step", t)
            m = dc_update(state.x, y, sens, mask, alpha, config.dc_blend_v)
            _check_finite(m, "data-consistency step", t)
            x = x_update(z, m, sens, alpha, beta)
            _check_finite(x, "auxiliary update", t)
            state.x, state.z, state.m, state.t = x, z, m, t
        state.objective_history.append(objective(
            state, y, sens, mask, alpha, beta, lam, prior, config.dc_blend_v))
        if config.record_history:
            state.x_history.append(state.x.copy())
    return state.x, state
