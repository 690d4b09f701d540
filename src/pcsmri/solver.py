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
Every block is therefore minimized exactly (TV up to its duality gap),
so F is non-increasing across iterations for every v as long as alpha,
beta and lam stay constant. That stops above about 1e20 in alpha or beta,
where the iterates' round-off times the weight reaches F.

m_l lives in image domain. The DC step writes S_l x into one coil stack
and transforms it in place with the sampled-column pair of
``transforms``: the forward leaves F_W S_l x in the stack and returns
k = F_s(S_l x) on the sampled columns s, and the inverse writes
F_H^-1 k_new over those columns, which held F_H^-1 k, and transforms
back along W. With dk = k_new - k

    m_l = F_W^-1 (F_W S_l x + U_W^H F_H^-1 dk) = S_l x + F^H U^H dk

to round-off, with no full 2D transform and no second stack. k, y and
k_new are held in the pair's FFT row order.

``solve`` judges its input once, at entry, with ``_admit``, which the CLI
also runs on every config before it writes anything: ``_gather`` checks y,
the mask and the blend and gathers the measured sampled columns, and the
prior's ``new_dual`` checks the image shape. The start, m_0 = S x_0 and
z_0 = x_0 (neither stored), has zero coupling and tie terms, so F_0 comes
from that record and R(x_0). For t >= 1 F is the two block minima at
x_{t-1} less the exact decrease of the x update:

    F_t = 1/2 alpha/(1 + alpha) sum_bins v D + (beta/2) ||z_t - x_{t-1}||^2
          + lam R(z_t) - 1/2 <(alpha E + beta) d, d>

with D = sum_l |y_l - k_l|^2 per sampled bin (the DC step leaves it in
the record), E = sum_l |S_l|^2 and d = x_{t-1} - x_t. The first term is
the DC minimum 1/2 w alpha/(w + alpha) |y - k|^2 per bin; the next two
are the prox objective at the z it returned, R(z_t) as the prox reports
it (``priors.ProxInfo``), so TV's inexact z is covered; the last is exact,
as the x update minimizes a quadratic with diagonal Hessian alpha E + beta.
No weight divides another, so F stays resolved as alpha or beta -> 0.

So F at t reads no coil stack, and each DC step overwrites the previous
m in place (its ``out=``): a solve allocates one coil stack, at its first
DC step. ``solve`` raises DivergenceError for a non-finite F. ``objective``
evaluates F directly, from state.m. It, the start and the block
evaluator all sum F's terms in one helper, ``_total``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DivergenceError, ProtocolError, ShapeError,
                     _check_count, _check_weight)
from .operators import _check_geometry, _combine, zero_filled
from .priors import Prior
from .transforms import (_columns, _sampled_forward, _sampled_index,
                         _sampled_inverse, fft2c, l2_norm)


def _as_schedule(value, name, t_total, minimum=None):
    """Normalize a scalar or length-T sequence to a tuple of checked floats."""
    try:
        scalar = np.ndim(value) == 0
    except ValueError:  # a ragged list, or bytes numpy cannot decode
        scalar = False
    seq = [value] * t_total if scalar else list(value)
    if len(seq) != t_total:
        raise ConfigError(
            f"{name} schedule has {len(seq)} entries, expected {t_total}"
        )
    return tuple(_check_weight(v, name, minimum) for v in seq)


def _check_blend(v):
    """A real scalar v in [0, 1] as float, or a read-only (H, W) map of them."""
    try:
        arr = np.asarray(v)
    except ValueError as exc:  # a ragged nesting
        raise ConfigError(f"dc_blend_v must be a regular array: {exc}") from None
    if arr.dtype.kind not in "biufc":
        raise ConfigError(f"dc_blend_v must be numeric, got {arr.dtype} input")
    if arr.dtype.kind == "c" and np.any(arr.imag):
        raise ConfigError(f"dc_blend_v must be real, got {arr[arr.imag != 0][0]}")
    arr = np.array(arr.real, dtype=float)
    if arr.ndim not in (0, 2):
        raise ConfigError("dc_blend_v must be a scalar or a 2D per-pixel map")
    bad = arr[~((arr >= 0.0) & (arr <= 1.0))]
    if bad.size:
        raise ConfigError(f"dc_blend_v must lie in [0, 1], got {bad[0]}")
    arr.setflags(write=False)
    return float(arr) if arr.ndim == 0 else arr


@dataclass
class SolverConfig:
    """Penalty weights, iteration budget and prior for one solve.

    alpha, beta and lam accept either a scalar applied to every
    iteration or a length-``iterations`` schedule, with lam/beta finite at
    every iteration (it is the prox threshold). dc_blend_v is the
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
        self.alpha = _as_schedule(self.alpha, "alpha", self.iterations)
        self.beta = _as_schedule(self.beta, "beta", self.iterations)
        self.lam = _as_schedule(self.lam, "lambda", self.iterations, minimum=0)
        # lam/beta is every kind's prox threshold (TV's weight theta)
        for t, (lam, beta) in enumerate(zip(self.lam, self.beta), start=1):
            if not np.isfinite(lam / beta):
                raise ConfigError(f"lambda/beta must be finite, got lambda = {lam} "
                                  f"and beta = {beta} at iteration {t}")
        self.dc_blend_v = _check_blend(self.dc_blend_v)

    def params_at(self, t):
        """(alpha, beta, lam) for iteration t, 1-based."""
        return self.alpha[t - 1], self.beta[t - 1], self.lam[t - 1]


@dataclass
class SolverState:
    """Iterates and objective trace of a finished (or failed) solve.

    ``x0`` is the zero-filled estimate the solve started from.
    """

    x: np.ndarray
    z: np.ndarray
    m: np.ndarray
    t: int
    x0: np.ndarray | None = None
    objective_history: list = field(default_factory=list)
    objective_includes_prior: bool = True
    warnings: list = field(default_factory=list)
    x_history: list = field(default_factory=list)


@dataclass(frozen=True)
class _Data:
    """y on the sampled bins and the checked blend v, gathered once.

    y_s holds the (Nc, H, n) bins of the sampled columns s in FFT row
    order, y_s[l, i, j] = y[l, (i + H//2) % H, s_j], as the sampled-column
    pair of ``transforms`` reads them through the flat index ``g`` with
    ``phase``. Each DC step leaves its new bins in ``k_new`` and the (H, n)
    sum_l |y_l - k_l|^2 of the bins it read in ``misfit``, so a record
    serves one solve at a time. v is a 0-d float64 array or a v_map's
    (H, n) sampled entries in the same order, so w promotes complex64 data
    alike in both cases and broadcasts against the bins.
    """

    s: np.ndarray
    y_s: np.ndarray
    v: object
    g: np.ndarray
    phase: np.ndarray
    k_new: np.ndarray
    misfit: np.ndarray

    def weight(self, alpha):
        """w = v*alpha/(alpha + 1 - v) for a checked alpha."""
        return self.v * alpha / (alpha + (1.0 - self.v))

    def centered_misfit(self, k):
        """sum_l |k_l - y_l|^2 per bin of centered bins k, as fft2c(..., s) has them."""
        return _coil_energy(np.subtract(np.fft.ifftshift(k, axes=-2), self.y_s,
                                        dtype=complex))


def _coil_energy(d, out=None):
    """sum_l |d_l|^2 per bin of a C-contiguous complex128 (Nc, H, n) stack."""
    parts = d.view(np.float64)  # (Nc, H, 2n): real and imaginary parts
    squares = np.einsum("lij,lij->ij", parts, parts)
    return np.add(squares[:, 0::2], squares[:, 1::2], out=out)


def _gather(y, sens, mask, v):
    """The record of y's sampled bins and the checked blend for mask.line_selected.

    y must be measured data, as ``forward`` leaves it: ProtocolError names a
    mask that selects no line, else the first unselected column where y is
    nonzero or the first sampled bin where it is not finite.
    """
    v = np.asarray(_check_blend(v))
    _check_geometry(sens, mask, coils=y, blend=v)
    s = mask.line_selected
    if mask.n_selected == 0:
        raise ProtocolError("mask selects no lines; nothing was measured")
    stray = np.flatnonzero(~s & np.any(y, axis=(0, 1)))
    if stray.size:
        raise ProtocolError(f"k-space is nonzero on unsampled column {stray[0]} "
                            f"({stray.size} such columns); zero them first")
    _, f, phase = _columns(s, mask.width)
    g = _sampled_index(f, sens.maps.shape)
    # y and a v_map are centered along W, so they are read at s itself
    at_s = _sampled_index(np.flatnonzero(s), sens.maps.shape)
    y_s = np.ravel(y).take(at_s)
    if not np.all(np.isfinite(y_s)):
        bad = np.argwhere(~np.isfinite(np.asarray(y)[..., s]))
        coil, row, j = bad[0]
        raise ProtocolError(
            f"k-space is not finite at sampled bin (coil {coil}, row {row}, "
            f"column {np.flatnonzero(s)[j]}) ({len(bad)} such bins)")
    return _Data(s, y_s, v if v.ndim == 0 else v.ravel().take(at_s[0]),
                 g, phase, np.empty(g.shape, dtype=complex), np.empty(g.shape[1:]))


def _admit(y, sens, mask, config):
    """(record, dual) for a solve of config on (y, sens, mask): the one judge.

    ``solve`` runs it at entry and the CLI on every config before it writes
    anything, so ``sweep`` refuses what ``recon`` refuses, with its error.
    """
    return (_gather(y, sens, mask, config.dc_blend_v),
            config.prior.new_dual(sens.shape))


def dc_update(x_prev, y, sens, mask, alpha, v=1.0, *, data=None, out=None):
    """Per-coil data-consistency step, solved bin by bin in k-space.

    With k = fft2c(S_l * x_prev) on the sampled columns, each sampled bin
    moves to k + w/(w + alpha)*(y - k) = (w*y + alpha*k)/(w + alpha), the
    exact minimizer of the coil subproblem under the data weight
    w = v*alpha/(alpha + 1 - v) that ``objective`` applies for the same
    blend v (w = 1 at v = 1, exact consistency); unsampled bins keep k.
    Returns S_l * x_prev plus the inverse transform of that change, in one
    coil stack: ``out`` (a C-contiguous complex128 (Nc, H, W) buffer whose
    contents are overwritten) if given, else a new one. ``data`` is the
    record ``solve`` gathers once from (y, mask, v), else gathered (and y
    judged) here; its ``k_new`` receives the new sampled bins, in FFT row
    order, and its ``misfit`` sum_l |y_l - k_l|^2 per sampled bin.
    """
    if data is None:
        data = _gather(y, sens, mask, v)
    alpha = _check_weight(alpha, "alpha")
    if out is not None and (out.shape, out.dtype) != (sens.maps.shape, complex):
        raise ShapeError(f"out must be complex128 of shape {sens.maps.shape}")
    if out is not None and not out.flags.c_contiguous:
        # its flat view would be a copy, and the scatter into it lost
        raise ShapeError("out must be C-contiguous")
    _check_geometry(sens, image=x_prev)
    w = data.weight(alpha)
    m = np.multiply(sens.maps, x_prev, out=out)
    k = _sampled_forward(m, data.g, data.phase, out=m)
    # k_new = k + w/(w + alpha)*(y - k)
    k_new = np.subtract(data.y_s, k, out=data.k_new)
    _coil_energy(k_new, out=data.misfit)
    k_new *= w / (w + alpha)
    k_new += k
    # the sampled columns of F_W(S x) held F_H^-1 k: replacing them adds the change
    return _sampled_inverse(k_new, data.g, data.phase, m, out=k)


def x_update(z, m, sens, alpha, beta):
    """Auxiliary update: x = (beta*z + alpha*sum_l S_l^H m_l) / (beta + alpha*sum_l |S_l|^2).

    With normalized maps the denominator is beta + alpha on support and
    beta off support (where x reduces to z).
    """
    alpha, beta = _check_weight(alpha, "alpha"), _check_weight(beta, "beta")
    _check_geometry(sens, image=z, coils=m, name="coil images")
    x = _combine(sens.maps, np.asarray(m))
    x *= alpha
    x += beta * np.asarray(z)
    denom = alpha * sens.energy
    denom += beta
    # the bits of x /= denom: numpy divides complex by real as a product
    # with the reciprocal
    x *= np.reciprocal(denom, out=denom)
    return x


def objective(state, y, sens, mask, alpha, beta, lam, prior, v=1.0):
    """Evaluate the full penalized objective at the state's iterates.

    Sampled bins of the data term carry the weight w = v*alpha/(alpha +
    1 - v) for the DC blend v (1 for exact consistency). For the external
    prior R is unknown; the value is reported without the lam*R term
    (state.objective_includes_prior records this). y is judged as in
    ``solve``.
    """
    data = _gather(y, sens, mask, v)
    alpha = _check_weight(alpha, "alpha")
    beta, lam = _check_weight(beta, "beta"), _check_weight(lam, "lambda", 0)
    _check_geometry(sens, image=state.x)
    _check_geometry(sens, image=state.z, coils=state.m, name="coil images")
    r2 = data.centered_misfit(fft2c(state.m, data.s))
    return _total(np.sum(data.weight(alpha) * r2),
                  alpha * l2_norm(state.m - sens.maps * state.x) ** 2
                  + beta * l2_norm(state.z - state.x) ** 2, prior.value(state.z), lam)


def _total(data, quadratic, penalty, lam):
    """F = (data + quadratic)/2 + lam*penalty; a penalty of None (external
    prior, R unknown) drops that term."""
    total = float(0.5 * (data + quadratic))
    return total if penalty is None else total + lam * penalty


def _objective_from_blocks(data, sens, x_prev, x, z, alpha, beta, lam, penalty):
    """``objective`` after a solve iteration, without the coil stack m.

    x_prev is the x the DC step read (it left sum_l |y_l - k_l|^2 in
    data.misfit), (z, x) the iteration's prox and x update and penalty the
    R(z) the prox reported; see the module docstring.
    """
    step, delta = z - x_prev, x_prev - x
    descent = np.vdot(delta, (alpha * sens.energy + beta) * delta).real
    return _total(alpha / (1.0 + alpha) * np.sum(data.v * data.misfit),
                  beta * np.vdot(step, step).real - descent, penalty, lam)


def _check_finite(arr, step, t):
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(
            f"{step} produced non-finite values at iteration {t}"
        )


def _log_objective(state, value, t):
    """Append F at iteration t to the history; DivergenceError if it is not finite."""
    _check_finite(value, "objective", t)
    state.objective_history.append(value)


def solve(y, sens, mask, config):
    """Run the full reconstruction from measured k-space.

    Starts from the zero-filled estimate x_0 (z_0 = x_0, m_0 = S x_0, never
    stored) and alternates the three block updates for config.iterations
    rounds. Returns (x, state); the state carries the objective at
    t = 0..T, evaluated with alpha, beta, lam of round max(t, 1) and the
    blend v (F_0 from the record gathered at entry, F at t >= 1 from the
    blocks, both summed by ``_total``), and inner-solver warnings. The
    prior's ``dual``, the record (with the DC step's ``k_new``) and the
    coil stack m belong to this solve: TV warm-starts from the previous
    dual, and each DC step overwrites the previous m. A non-finite x or F
    raises DivergenceError naming the iteration.
    Before any transform, ``_admit`` refuses a y that is not measured data
    (ProtocolError naming its first bad column or bin) and an image shape
    the prior cannot filter (ShapeError).
    """
    data, dual = _admit(y, sens, mask, config)
    prior = config.prior
    x = zero_filled(y, sens)
    _check_finite(x, "initial estimate", 0)
    penalty = prior.value(x)
    state = SolverState(x=x, z=x, m=None, t=0, x0=x,
                        objective_includes_prior=penalty is not None)
    alpha, beta, lam = config.params_at(1)
    # m_0 = S x_0 and z_0 = x_0: the coupling and tie terms are exactly zero
    r2 = data.centered_misfit(fft2c(sens.maps * x, data.s))
    _log_objective(state, _total(np.sum(data.weight(alpha) * r2), 0.0, penalty, lam), 0)
    if config.record_history:
        state.x_history.append(x.copy())
    for t in range(1, config.iterations + 1):
        alpha, beta, lam = config.params_at(t)
        x_prev = state.x
        z, info = prior.prox_info(x_prev, beta, lam, dual)
        if not info.converged:
            state.warnings.append(
                f"prior inner solver did not reach tolerance at iteration {t}"
            )
        # F at t reads no coil stack: DC overwrites the previous one in place
        m = dc_update(x_prev, y, sens, mask, alpha, config.dc_blend_v,
                      data=data, out=state.m)
        x = x_update(z, m, sens, alpha, beta)
        if not np.all(np.isfinite(x)):
            # x carries any NaN or inf of z or m; name the first step that made one
            _check_finite(z, "filtering step", t)
            _check_finite(m, "data-consistency step", t)
            _check_finite(x, "auxiliary update", t)
        state.x, state.z, state.m, state.t = x, z, m, t
        _log_objective(state, _objective_from_blocks(
            data, sens, x_prev, x, z, alpha, beta, lam, info.penalty), t)
        if config.record_history:
            state.x_history.append(x.copy())
    return state.x, state
