"""Regularization priors R(z) and their proximal operators.

Each prior answers two questions: the filtering update
argmin_z (beta/2)||z - x||^2 + lam*R(z), and the penalty value R(z)
itself, exposed as ``value(z)`` for objective tracking. The update has
one entry point on the base class: ``prox_info(x, beta, lam, dual)``
checks once that beta > 0 and lam >= 0 are finite and calls the kind's
``_prox(x, beta, lam, dual)`` hook; both return ``(z, info)``, a
``ProxInfo`` with the inner solver's convergence and the R(z) the prox
computed on the way, so a caller tracking the objective need not call
``value(z)`` again. Analytic kinds solve the prox in closed form and
always converge; total variation runs an inner dual iteration,
warm-started from ``dual``, and reports whether it met its duality-gap
tolerance; the external kind shells out to a user-supplied denoiser
through files in a private per-call directory and reports no value.
"""

import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .container import load_image, save_image
from .errors import (ConfigError, PriorExecutionError, ShapeError, _check_count,
                     _check_weight)


class ProxInfo(NamedTuple):
    """What a prox call reports besides z.

    converged: the inner solver met its tolerance (closed forms always do).
    penalty: R(z) at the returned z, or None where R is not evaluable.
    """

    converged: bool
    penalty: float | None


def _soft_threshold(x, threshold):
    """(z, sum |z|) for z: |x| shrunk by threshold, phase kept."""
    mag = np.abs(x)
    shrunk = np.maximum(mag - threshold, 0.0)
    scale = shrunk / np.where(mag > 0, mag, 1.0)
    return scale * x, float(np.sum(shrunk))


class Prior:
    """Interface shared by all prior kinds; subclasses implement _prox."""

    kind = "base"

    def prox_info(self, x, beta, lam, dual=None):
        """(z, ProxInfo) for z = argmin_z (beta/2)||z - x||^2 + lam*R(z).

        ``dual`` is a caller-owned buffer that TV starts from and updates
        in place (see tv_denoise); the other kinds ignore it.
        """
        return self._prox(x, _check_weight(beta, "beta"),
                          _check_weight(lam, "lambda", minimum=0), dual)

    def _prox(self, x, beta, lam, dual):
        """(z, ProxInfo) for beta > 0 and lam >= 0, already checked."""
        raise NotImplementedError

    def new_dual(self, shape):
        """A zeroed ``dual`` buffer for images of this shape, or None.

        ShapeError for a shape the kind cannot filter (``solve`` asks first).
        """
        return None

    def value(self, z):
        """R(z), or None for kinds whose penalty is not evaluable."""
        raise NotImplementedError


class TikhonovPrior(Prior):
    """R(z) = ||z||^2. Prox is the exact shrink-toward-zero scaling."""

    kind = "tikhonov"

    def _prox(self, x, beta, lam, dual):
        x = np.asarray(x)
        c = beta / (beta + 2.0 * lam)
        return c * x, ProxInfo(True, c * c * float(np.vdot(x, x).real))

    def value(self, z):
        return float(np.sum(np.abs(z) ** 2))


class SoftThresholdPrior(Prior):
    """R(z) = sum |z|, elementwise complex magnitudes.

    Prox shrinks every pixel magnitude by lam/beta and preserves phase.
    """

    kind = "soft_threshold_image"

    def _prox(self, x, beta, lam, dual):
        z, l1 = _soft_threshold(np.asarray(x), lam / beta)
        return z, ProxInfo(True, l1)

    def value(self, z):
        return float(np.sum(np.abs(z)))


def _block_sums(p, q, r, s):
    """Bands (ll, lh, hl, hh) of the 2x2 blocks [[p, q], [r, s]]; its own inverse."""
    left_sum = (p + r) * 0.5
    right_sum = (q + s) * 0.5
    left_diff = (p - r) * 0.5
    right_diff = (q - s) * 0.5
    return (left_sum + right_sum, left_sum - right_sum,
            left_diff + right_diff, left_diff - right_diff)


def _check_haar_shape(shape):
    if len(shape) != 2 or shape[0] % 2 or shape[1] % 2:
        raise ShapeError(f"Haar needs a 2D image of even dimensions, got {shape}")


def haar2_forward(x):
    """Single-level orthonormal 2D Haar split into (ll, lh, hl, hh) bands.

    Single-precision and integer input is promoted to float64 or complex128
    before any sum, so the bands carry double-precision rounding only.
    """
    x = np.asarray(x)
    _check_haar_shape(x.shape)
    x = x.astype(np.result_type(x, np.float64), copy=False)
    return _block_sums(x[0::2, 0::2], x[0::2, 1::2], x[1::2, 0::2], x[1::2, 1::2])


def haar2_inverse(ll, lh, hl, hh):
    """Inverse of haar2_forward, in the bands' common dtype."""
    h2, w2 = np.shape(ll)
    x = np.empty((2 * h2, 2 * w2), dtype=np.result_type(ll, lh, hl, hh))
    blocks = x[0::2, 0::2], x[0::2, 1::2], x[1::2, 0::2], x[1::2, 1::2]
    for block, values in zip(blocks, _block_sums(ll, lh, hl, hh)):
        block[...] = values
    return x


class HaarPrior(Prior):
    """R(z) = l1 norm of the detail bands of a single-level Haar transform.

    The transform is orthonormal, so thresholding the detail
    coefficients by lam/beta is the exact prox. The approximation band
    passes through untouched. Dimensions must be even.
    """

    kind = "soft_threshold_haar"

    def new_dual(self, shape):
        _check_haar_shape(tuple(shape))
        return None

    def _prox(self, x, beta, lam, dual):
        ll, *details = haar2_forward(x)
        shrunk = [_soft_threshold(band, lam / beta) for band in details]
        return haar2_inverse(ll, *(band for band, _ in shrunk)), ProxInfo(
            True, sum(l1 for _, l1 in shrunk))

    def value(self, z):
        _, lh, hl, hh = haar2_forward(z)
        return float(np.sum(np.abs(lh)) + np.sum(np.abs(hl)) + np.sum(np.abs(hh)))


def _grad2(u, out=None):
    """Forward differences with zero at the far boundary, shape (2, H, W).

    Each direction is one difference over the flattened image: a row
    shift for H, a one-entry shift for W whose wrapped entries g[1, :, -1]
    are then reset to zero. ``out``, a C-contiguous (2, H, W) buffer of
    u's dtype, receives g if given.
    """
    h, w = u.shape
    g = np.empty((2, h, w), dtype=u.dtype) if out is None else out
    flat, g0, g1 = u.reshape(-1), g[0].reshape(-1), g[1].reshape(-1)
    np.subtract(flat[w:], flat[:-w], out=g0[:-w])
    g0[-w:] = 0
    np.subtract(flat[1:], flat[:-1], out=g1[:-1])
    g[1, :, -1] = 0
    return g


def _div2(p, out):
    """Negative adjoint of _grad2: <grad u, p> = -<u, div p> exactly.

    div p ignores p[0, -1, :] and p[1, :, -1]; they must be zero, so that
    each direction is one difference over the flattened field, as in
    _grad2. ``out``, a C-contiguous (H, W) buffer of p's dtype, receives
    div p.
    """
    w = p.shape[2]
    flat, p0, p1 = out.reshape(-1), p[0].reshape(-1), p[1].reshape(-1)
    flat[:w] = p0[:w]
    np.subtract(p0[w:], p0[:-w], out=flat[w:])
    flat += p1
    np.subtract(flat[1:], p1[:-1], out=flat[1:])
    return out


def _modulus(g, out, scratch):
    """sqrt(|g[0]|^2 + |g[1]|^2) into out, with scratch of out's shape."""
    np.square(np.abs(g[0], out=out), out=out)
    out += np.square(np.abs(g[1], out=scratch), out=scratch)
    return np.sqrt(out, out=out)


def tv_value(z):
    """Isotropic total variation, complex moduli coupling the components."""
    g = _grad2(np.asarray(z, dtype=np.complex128))
    mag = np.empty(g.shape[1:])
    return float(_modulus(g, mag, np.empty_like(mag)).sum())


def tv_denoise(x, theta, iterations=50, tol=1e-3, dual=None, *, info=None):
    """Solve argmin_z (1/2)||z - x||^2 + theta*TV(z) by dual iteration.

    Semi-implicit fixed point on the dual field p (Chambolle 2004, step
    tau = 1/8) with z = x - theta*div p and G = grad z, in a form that
    never divides by theta: p <- (theta*p - tau*G)/(theta + tau*|G|). It
    stops once the ROF duality gap P - D is at most tol*P, with
    P = (1/2)||z - x||^2 + theta*TV(z) and D = (1/2)||x||^2 - (1/2)||z||^2.
    ``dual``, an optional caller-owned C-contiguous (2, H, W) complex128
    buffer with |p| <= 1, is the starting p (else zero) and is updated in
    place, so the next call, even with another theta, can start from it.
    Its entries p[0, -1, :] and p[1, :, -1], which div p never reads, are
    set to zero on entry. Each call allocates its own workspace (z, G, |G|
    and one scratch image) before its first step, and no step allocates.
    Returns (z, converged, n_dual_steps). A theta below the smallest normal
    double acts as theta = 0 (z = x, within 4*theta of the exact prox).
    ``info``, an optional dict, receives "tv": TV(z) at the returned z.
    """
    theta = _check_weight(theta, "tv weight", minimum=0)
    x = np.asarray(x, dtype=np.complex128)
    if theta < np.finfo(np.float64).tiny:
        if info is not None:
            info["tv"] = tv_value(x)
        return x.copy(), True, 0
    if dual is None:
        dual = np.zeros((2,) + x.shape, dtype=np.complex128)
    elif dual.shape != (2,) + x.shape or dual.dtype != np.complex128:
        raise ShapeError(f"tv dual must be complex128 of shape {(2,) + x.shape}")
    elif not dual.flags.c_contiguous:
        # the flat shifts would copy it on every step
        raise ShapeError("tv dual must be C-contiguous")
    dual[0, -1, :] = 0
    dual[1, :, -1] = 0
    z = np.empty(x.shape, dtype=np.complex128)
    g = np.empty(dual.shape, dtype=np.complex128)
    mag, scratch = np.empty(x.shape), np.empty(x.shape)
    tau = 0.125
    for it in range(iterations + 1):
        _div2(dual, out=z)
        fit = 0.5 * theta * np.vdot(z, z).real
        # z = x - theta*div p, formed in the div buffer
        z *= -theta
        z += x
        _grad2(z, out=g)
        tv = _modulus(g, mag, scratch).sum()
        # P/theta = fit + sum|G| and (P - D)/theta = sum|G| + Re<G, p>
        converged = bool(tv + np.vdot(g, dual).real <= tol * (fit + tv))
        if converged or it == iterations:
            if info is not None:
                info["tv"] = float(tv)
            return z, converged, it
        dual *= theta
        g *= tau
        dual -= g
        mag *= tau
        mag += theta
        # the bits of dual /= mag: numpy divides complex by real as a
        # product with the reciprocal
        dual *= np.reciprocal(mag, out=mag)


class TotalVariationPrior(Prior):
    """Isotropic TV on complex images with an inner Chambolle-style loop.

    The prox is approximate: the inner loop takes at most ``iterations``
    dual steps and stops once the relative ROF duality gap is at most
    ``tol``; prox_info reports whether it did. The warm-start dual is
    the caller's (see tv_denoise), so one instance serves concurrent solves.
    """

    kind = "total_variation"

    def __init__(self, iterations=50, tol=1e-3):
        self.tol = _check_weight(tol, "tv tol")
        self.iterations = _check_count(iterations, "tv iterations")

    def new_dual(self, shape):
        return np.zeros((2, *shape), dtype=np.complex128)

    def _prox(self, x, beta, lam, dual):
        info = {}
        z, converged, _ = tv_denoise(x, lam / beta, iterations=self.iterations,
                                     tol=self.tol, dual=dual, info=info)
        return z, ProxInfo(converged, info["tv"])

    def value(self, z):
        return tv_value(z)


class ExternalPrior(Prior):
    """Plug-in denoiser invoked as a subprocess through files.

    Protocol: each call makes a private directory D, writes the current
    image to D/prior_in (with its prior_in.hdr sidecar, dtype <c16), then

        <command...> <input path> <output path> <beta> <lam>

    is run. Exit code 0 means success and the result is read back from
    the output path, which must hold an image of the same shape. Any
    nonzero exit, timeout, or unreadable output raises
    PriorExecutionError. R(z) is unknown for an external denoiser, so
    value() returns None and objectives skip the penalty term. D is
    removed on return; it is made inside exchange_dir (created if
    missing), else in the system temp dir, so concurrent calls never
    see each other's files.
    """

    kind = "external"

    def __init__(self, command, exchange_dir=None, timeout=60.0):
        if isinstance(command, str):
            try:
                command = shlex.split(command)
            except ValueError as exc:
                raise ConfigError(f"cannot split external command: {exc}") from None
        command = [str(c) for c in command]
        if not command:
            raise ConfigError("external prior needs a non-empty command")
        self.command = command
        self.exchange_dir = None if exchange_dir is None else Path(exchange_dir)
        self.timeout = _check_weight(timeout, "timeout")

    def _prox(self, x, beta, lam, dual):
        x = np.asarray(x)
        if self.exchange_dir is not None:
            self.exchange_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="pcsmri-prior-",
                                         dir=self.exchange_dir) as exchange:
            in_path = Path(exchange) / "prior_in"
            out_path = Path(exchange) / "prior_out"
            save_image(in_path, x, kind="image", dtype="<c16")
            argv = self.command + [str(in_path), str(out_path), repr(float(beta)),
                                   repr(float(lam))]
            try:
                # its output is only quoted in errors: bytes that are not
                # UTF-8 are replaced there, not raised on
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      errors="replace", timeout=self.timeout)
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
        return z, ProxInfo(True, None)

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
