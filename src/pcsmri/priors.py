"""Regularization priors R(z) and their proximal operators.

Each prior answers two questions: the filtering update
argmin_z (beta/2)||z - x||^2 + lam*R(z), and the penalty value R(z)
itself, exposed as ``value(z)`` for objective tracking. The update has
one entry point on the base class: ``prox_info(x, beta, lam)`` checks
once that beta > 0 and lam >= 0 are finite and calls the kind's
``_prox(x, beta, lam)`` hook, which returns ``(z, converged)``; ``prox``
returns z alone.
Analytic kinds solve the prox in closed form and always converge; total
variation runs an inner dual iteration and reports whether it met its
tolerance; the external kind shells out to a user-supplied denoiser
through a file-exchange protocol and reports no value.
"""

import contextlib
import shlex
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .container import _sidecar, load_image, save_image
from .errors import ConfigError, PriorExecutionError, ShapeError

_SQRT2 = np.sqrt(2.0)


def _soft_threshold(x, threshold):
    """Complex magnitude shrinkage: shrink |x| by threshold, keep phase."""
    mag = np.abs(x)
    scale = np.maximum(mag - threshold, 0.0) / np.where(mag > 0, mag, 1.0)
    return scale * x


def _check_count(value, name):
    """Return value as an int >= 1; integral floats such as 3.0 pass."""
    try:
        if int(value) == value and value >= 1:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be an integer >= 1, got {value}")


def _check_weight(value, name, allow_zero=False):
    """Return value as a finite float > 0 (>= 0 with allow_zero)."""
    try:
        weight = float(value)
    except (TypeError, ValueError, OverflowError):
        weight = np.nan
    if np.isfinite(weight) and (weight > 0 or allow_zero and weight == 0):
        return weight
    bound = ">= 0" if allow_zero else "> 0"
    raise ConfigError(f"{name} must be {bound} and finite, got {value}")


class Prior:
    """Interface shared by all prior kinds; subclasses implement _prox."""

    kind = "base"

    def prox(self, x, beta, lam):
        """argmin_z (beta/2)||z - x||^2 + lam*R(z)."""
        return self.prox_info(x, beta, lam)[0]

    def prox_info(self, x, beta, lam):
        """Like prox, also reporting inner-solver convergence."""
        return self._prox(x, _check_weight(beta, "beta"),
                          _check_weight(lam, "lambda", allow_zero=True))

    def _prox(self, x, beta, lam):
        """(z, converged) for beta > 0 and lam >= 0, already checked."""
        raise NotImplementedError

    def value(self, z):
        """R(z), or None for kinds whose penalty is not evaluable."""
        raise NotImplementedError


class TikhonovPrior(Prior):
    """R(z) = ||z||^2. Prox is the exact shrink-toward-zero scaling."""

    kind = "tikhonov"

    def _prox(self, x, beta, lam):
        return (beta / (beta + 2.0 * lam)) * np.asarray(x), True

    def value(self, z):
        return float(np.sum(np.abs(z) ** 2))


class SoftThresholdPrior(Prior):
    """R(z) = sum |z|, elementwise complex magnitudes.

    Prox shrinks every pixel magnitude by lam/beta and preserves phase.
    """

    kind = "soft_threshold_image"

    def _prox(self, x, beta, lam):
        return _soft_threshold(np.asarray(x), lam / beta), True

    def value(self, z):
        return float(np.sum(np.abs(z)))


def haar2_forward(x):
    """Single-level orthonormal 2D Haar split into (ll, lh, hl, hh) bands."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2D image, got shape {x.shape}")
    h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"Haar transform needs even dimensions, got ({h}, {w})")
    lo = (x[0::2, :] + x[1::2, :]) / _SQRT2
    hi = (x[0::2, :] - x[1::2, :]) / _SQRT2
    ll = (lo[:, 0::2] + lo[:, 1::2]) / _SQRT2
    lh = (lo[:, 0::2] - lo[:, 1::2]) / _SQRT2
    hl = (hi[:, 0::2] + hi[:, 1::2]) / _SQRT2
    hh = (hi[:, 0::2] - hi[:, 1::2]) / _SQRT2
    return ll, lh, hl, hh


def haar2_inverse(ll, lh, hl, hh):
    """Inverse of haar2_forward."""
    hh2, wh2 = np.asarray(ll).shape
    lo = np.empty((hh2, 2 * wh2), dtype=np.result_type(ll, lh, hl, hh))
    hi = np.empty_like(lo)
    lo[:, 0::2] = (ll + lh) / _SQRT2
    lo[:, 1::2] = (ll - lh) / _SQRT2
    hi[:, 0::2] = (hl + hh) / _SQRT2
    hi[:, 1::2] = (hl - hh) / _SQRT2
    x = np.empty((2 * hh2, 2 * wh2), dtype=lo.dtype)
    x[0::2, :] = (lo + hi) / _SQRT2
    x[1::2, :] = (lo - hi) / _SQRT2
    return x


class HaarPrior(Prior):
    """R(z) = l1 norm of the detail bands of a single-level Haar transform.

    The transform is orthonormal, so thresholding the detail
    coefficients by lam/beta is the exact prox. The approximation band
    passes through untouched. Dimensions must be even.
    """

    kind = "soft_threshold_haar"

    def _prox(self, x, beta, lam):
        ll, lh, hl, hh = haar2_forward(x)
        t = lam / beta
        return haar2_inverse(
            ll, _soft_threshold(lh, t), _soft_threshold(hl, t), _soft_threshold(hh, t)
        ), True

    def value(self, z):
        _, lh, hl, hh = haar2_forward(z)
        return float(np.sum(np.abs(lh)) + np.sum(np.abs(hl)) + np.sum(np.abs(hh)))


def _grad2(u):
    """Forward differences with zero at the far boundary, shape (2, H, W)."""
    g = np.zeros((2,) + u.shape, dtype=u.dtype)
    g[0, :-1, :] = u[1:, :] - u[:-1, :]
    g[1, :, :-1] = u[:, 1:] - u[:, :-1]
    return g


def _div2(p):
    """Negative adjoint of _grad2: <grad u, p> = -<u, div p> exactly."""
    d = np.zeros(p.shape[1:], dtype=p.dtype)
    d[:-1, :] += p[0, :-1, :]
    d[1:, :] -= p[0, :-1, :]
    d[:, :-1] += p[1, :, :-1]
    d[:, 1:] -= p[1, :, :-1]
    return d


def tv_value(z):
    """Isotropic total variation, complex moduli coupling the components."""
    g = _grad2(np.asarray(z, dtype=np.complex128))
    return float(np.sum(np.sqrt(np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2)))


def tv_denoise(x, theta, iterations=50, tol=1e-6):
    """Solve argmin_z (1/2)||z - x||^2 + theta*TV(z) by dual iteration.

    Semi-implicit fixed point on the dual field p (step 1/8, the largest
    step with a convergence guarantee). Stops early when the relative
    dual change drops below tol. Returns (z, converged, n_iter).
    """
    theta = _check_weight(theta, "tv weight", allow_zero=True)
    x = np.asarray(x, dtype=np.complex128)
    if theta == 0:
        return x.copy(), True, 0
    tau = 0.125
    p = np.zeros((2,) + x.shape, dtype=np.complex128)
    converged = False
    it = 0
    for it in range(1, iterations + 1):
        g = _grad2(_div2(p) - x / theta)
        denom = 1.0 + tau * np.sqrt(np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2)
        p_new = (p + tau * g) / denom
        step = np.linalg.norm(p_new - p)
        p = p_new
        if step <= tol * max(np.linalg.norm(p), 1e-30):
            converged = True
            break
    return x - theta * _div2(p), converged, it


class TotalVariationPrior(Prior):
    """Isotropic TV on complex images with an inner Chambolle-style loop.

    The prox is approximate: accuracy is governed by ``iterations`` and
    ``tol``, and prox_info reports whether the inner loop met tol.
    """

    kind = "total_variation"

    def __init__(self, iterations=50, tol=1e-6):
        self.tol = _check_weight(tol, "tv tol")
        self.iterations = _check_count(iterations, "tv iterations")

    def _prox(self, x, beta, lam):
        z, converged, _ = tv_denoise(
            x, lam / beta, iterations=self.iterations, tol=self.tol
        )
        return z, converged

    def value(self, z):
        return tv_value(z)


class ExternalPrior(Prior):
    """Plug-in denoiser invoked as a subprocess through files.

    Protocol: the current image is written to <exchange_dir>/prior_in
    (with its prior_in.hdr sidecar, dtype <c16), then

        <command...> <input path> <output path> <beta> <lam>

    is run. Exit code 0 means success and the result is read back from
    the output path, which must hold an image of the same shape. Any
    nonzero exit, timeout, or unreadable output raises
    PriorExecutionError. R(z) is unknown for an external denoiser, so
    value() returns None and objectives skip the penalty term. Without
    an exchange_dir, each call exchanges through a fresh temporary
    directory that is removed on return. Concurrent solves must not
    share a fixed exchange_dir, or they clobber each other's files.
    """

    kind = "external"

    def __init__(self, command, exchange_dir=None, timeout=60.0):
        if isinstance(command, str):
            command = shlex.split(command)
        command = [str(c) for c in command]
        if not command:
            raise ConfigError("external prior needs a non-empty command")
        self.command = command
        self.exchange_dir = None if exchange_dir is None else Path(exchange_dir)
        self.timeout = _check_weight(timeout, "timeout")

    def _prox(self, x, beta, lam):
        x = np.asarray(x)
        if self.exchange_dir is None:
            exchange = tempfile.TemporaryDirectory(prefix="pcsmri-prior-")
        else:
            exchange = contextlib.nullcontext(self.exchange_dir)
        with exchange as exchange_dir:
            exchange_dir = Path(exchange_dir)
            exchange_dir.mkdir(parents=True, exist_ok=True)
            in_path = exchange_dir / "prior_in"
            out_path = exchange_dir / "prior_out"
            for stale in (out_path, _sidecar(out_path)):
                stale.unlink(missing_ok=True)
            save_image(in_path, x, kind="image", dtype="<c16")
            argv = self.command + [str(in_path), str(out_path), repr(float(beta)),
                                   repr(float(lam))]
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=self.timeout
                )
            except subprocess.TimeoutExpired:
                raise PriorExecutionError(
                    f"external prior timed out after {self.timeout} s"
                ) from None
            except OSError as exc:
                raise PriorExecutionError(f"cannot run external prior: {exc}") from None
            if proc.returncode != 0:
                detail = proc.stderr.strip() or proc.stdout.strip()
                raise PriorExecutionError(
                    f"external prior exited with code {proc.returncode}"
                    + (f": {detail}" if detail else "")
                )
            try:
                z, _ = load_image(out_path)
            except Exception as exc:
                raise PriorExecutionError(
                    f"external prior produced unreadable output: {exc}"
                ) from None
            if z.shape != x.shape:
                raise PriorExecutionError(
                    f"external prior returned shape {z.shape}, expected {x.shape}"
                )
            return z, True

    def value(self, z):
        return None


_KINDS = {
    TikhonovPrior.kind: TikhonovPrior,
    SoftThresholdPrior.kind: SoftThresholdPrior,
    HaarPrior.kind: HaarPrior,
    TotalVariationPrior.kind: TotalVariationPrior,
    ExternalPrior.kind: ExternalPrior,
}


def make_prior(kind, **params):
    """Construct a prior by kind name with kind-specific parameters."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown prior kind {kind!r}, expected one of {sorted(_KINDS)}"
        ) from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for prior {kind!r}: {exc}") from None
