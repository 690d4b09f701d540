"""Half-quadratic-splitting reconstruction loop.

The penalized objective being minimized is

    F(z, m, x) = 1/2 sum_l ||U F m_l - y_l||^2 + lam*R(z)
               + (alpha/2) sum_l ||m_l - S_l x||^2
               + (beta/2) ||z - x||^2

and one iteration alternates three exact block updates, each reading
the previous x: the filtering step z = prox_{lam/beta R}(x), the
per-coil data-consistency step on sampled k-space bins, and the
closed-form auxiliary update for x. With exact data consistency
(dc_blend_v = 1) every block is minimized exactly (TV up to its inner
tolerance), so F is non-increasing across iterations. A soft blend
(v < 1) moves sampled bins only part of the way, so its DC step is not
the minimizer of this F and the reported value can rise.

m_l lives in image domain throughout; its k-space form only appears
transiently inside the data-consistency update.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ProtocolError
from .masks import apply_mask
from .operators import _check_geometry, zero_filled
from .priors import Prior, _check_count
from .transforms import fft2c, ifft2c, l2_norm


def _as_schedule(value, name, t_total, allow_zero):
    """Normalize a scalar or length-T sequence to a tuple of floats."""
    if np.isscalar(value):
        seq = [float(value)] * t_total
    else:
        seq = [float(v) for v in value]
        if len(seq) != t_total:
            raise ConfigError(
                f"{name} schedule has {len(seq)} entries, expected {t_total}"
            )
    for v in seq:
        if not np.isfinite(v) or v < 0 or (v == 0 and not allow_zero):
            bound = ">= 0" if allow_zero else "> 0"
            raise ConfigError(f"{name} must be {bound} and finite, got {v}")
    return tuple(seq)


def _check_blend(v):
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        v = float(arr)
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"dc_blend_v must lie in [0, 1], got {v}")
        return v
    if arr.ndim != 2:
        raise ConfigError("dc_blend_v must be a scalar or a 2D per-pixel map")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ConfigError("dc_blend_v map values must lie in [0, 1]")
    arr = arr.copy()
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


def dc_update(x_prev, y, sens, mask, alpha, v=1.0):
    """Per-coil data-consistency step, solved bin by bin in k-space.

    Sampled bins move to (y + alpha*k)/(1 + alpha), the exact minimizer
    of the coil subproblem; unsampled bins keep k = fft2c(S_l * x_prev).
    The soft weight v blends the consistent value with the untouched one
    on sampled bins (v=1 is exact consistency; for v < 1 the step is no
    longer the minimizer of the objective above). Returns per-coil images.
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    v = _check_blend(v)
    _check_geometry(sens, mask, image=x_prev, coils=y)
    k = fft2c(sens.maps * x_prev)
    k_dc = (y + alpha * k) / (1.0 + alpha)
    blended = v * k_dc + (1.0 - v) * k
    return ifft2c(np.where(mask.line_selected, blended, k))


def x_update(z, m, sens, alpha, beta):
    """Auxiliary update: x = (beta*z + alpha*sum_l S_l^H m_l) / (beta + alpha*sum_l |S_l|^2).

    With normalized maps the denominator is beta + alpha on support and
    beta off support (where x reduces to z).
    """
    if alpha <= 0 or beta <= 0:
        raise ConfigError(f"alpha and beta must be > 0, got {alpha}, {beta}")
    _check_geometry(sens, image=z, coils=m, name="coil images")
    num = beta * np.asarray(z) + alpha * np.sum(np.conj(sens.maps) * m, axis=0)
    return num / (beta + alpha * sens.energy)


def _objective_value(z, m, x, y, sens, mask, alpha, beta, lam, prior):
    data = 0.5 * l2_norm(apply_mask(fft2c(m) - y, mask)) ** 2
    coupling = 0.5 * alpha * l2_norm(m - sens.maps * x) ** 2
    tie = 0.5 * beta * l2_norm(z - x) ** 2
    total = data + coupling + tie
    r = prior.value(z)
    if r is None:
        return total, False
    return total + lam * r, True


def objective(state, y, sens, mask, alpha, beta, lam, prior):
    """Evaluate the full penalized objective at the state's iterates.

    For the external prior R is unknown; the value is reported without
    the lam*R term (state.objective_includes_prior records this).
    """
    _check_geometry(sens, mask, coils=y)
    value, _ = _objective_value(
        state.z, state.m, state.x, y, sens, mask, alpha, beta, lam, prior
    )
    return value


def _check_finite(arr, step, t):
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(
            f"{step} produced non-finite values at iteration {t}"
        )


def solve(y, sens, mask, config):
    """Run the full reconstruction from measured k-space.

    Starts from the zero-filled estimate and alternates the three block
    updates for config.iterations rounds. Returns (x, state); the state
    carries the objective history (entry 0 is the starting point with
    z = x and m_l = S_l x, so the trace is non-increasing for exact
    priors with dc_blend_v = 1) and inner-solver warnings.
    """
    _check_geometry(sens, mask, coils=y)
    if mask.n_selected == 0:
        raise ProtocolError("mask selects no lines; nothing was measured")
    prior = config.prior
    x = zero_filled(y, sens)
    _check_finite(x, "initial estimate", 0)
    z = x.copy()
    m = sens.maps * x
    a1, b1, l1 = config.params_at(1)
    value, includes_prior = _objective_value(
        z, m, x, y, sens, mask, a1, b1, l1, prior
    )
    state = SolverState(
        x=x, z=z, m=m, t=0,
        objective_history=[value],
        objective_includes_prior=includes_prior,
    )
    if config.record_history:
        state.x_history.append(x.copy())
    for t in range(1, config.iterations + 1):
        alpha, beta, lam = config.params_at(t)
        z, converged = prior.prox_info(x, beta, lam)
        if not converged:
            state.warnings.append(
                f"prior inner solver did not reach tolerance at iteration {t}"
            )
        _check_finite(z, "filtering step", t)
        m = dc_update(x, y, sens, mask, alpha, config.dc_blend_v)
        _check_finite(m, "data-consistency step", t)
        x = x_update(z, m, sens, alpha, beta)
        _check_finite(x, "auxiliary update", t)
        value, includes_prior = _objective_value(
            z, m, x, y, sens, mask, alpha, beta, lam, prior
        )
        state.x, state.z, state.m, state.t = x, z, m, t
        state.objective_history.append(value)
        state.objective_includes_prior &= includes_prior
        if config.record_history:
            state.x_history.append(x.copy())
    return x, state
