"""Independent reference implementations used by the test suite.

Everything here is deliberately written against the math, not against
the package: dense DFT matrices built from roll permutations, dense
normal-equation solves, scalar Python loops for metrics and objective
terms, and a long-run projected-gradient dual solver for TV. None of
these call into pcsmri, so agreement is evidence of correctness rather
than of shared bugs.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# inner product for the adjointness checks


def inner_product(a, b):
    """<a, b> = sum conj(a) * b (conjugate-linear in the first argument)."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"shape mismatch: {np.shape(a)} vs {np.shape(b)}")
    return complex(np.vdot(a, b))


# ---------------------------------------------------------------------------
# dense centered DFT


def roll_matrix(n, shift):
    """Permutation matrix P with P @ x == np.roll(x, shift)."""
    p = np.zeros((n, n))
    for i in range(n):
        p[(i + shift) % n, i] = 1.0
    return p


def centered_dft_matrix(n):
    """Dense unitary DFT with the zero-frequency bin moved to n // 2."""
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)
    return roll_matrix(n, n // 2) @ w @ roll_matrix(n, -(n // 2))


def centered_dft2_apply(x):
    """2D centered unitary DFT of one image via dense 1D matrices."""
    ch = centered_dft_matrix(x.shape[0])
    cw = centered_dft_matrix(x.shape[1])
    return ch @ x @ cw.T


def centered_dft2_matrix(h, w):
    """Dense (h*w, h*w) matrix acting on row-major flattened images."""
    return np.kron(centered_dft_matrix(h), centered_dft_matrix(w))


# ---------------------------------------------------------------------------
# dense multi-coil forward model


def dense_forward_matrix(maps, line_selected):
    """Stacked per-coil blocks: zero-out unsampled bins of F @ diag(S_l)."""
    nc, h, w = maps.shape
    f2 = centered_dft2_matrix(h, w)
    keep = np.repeat(np.asarray(line_selected, float)[None, :], h, axis=0).ravel()
    blocks = [keep[:, None] * (f2 * maps[coil].ravel()[None, :]) for coil in range(nc)]
    return np.concatenate(blocks, axis=0)


def dense_forward_apply(x, maps, line_selected):
    a = dense_forward_matrix(maps, line_selected)
    nc, h, w = maps.shape
    return (a @ np.asarray(x).ravel()).reshape(nc, h, w)


def dense_adjoint_apply(y, maps, line_selected):
    a = dense_forward_matrix(maps, line_selected)
    h, w = maps.shape[1:]
    return (a.conj().T @ np.asarray(y).ravel()).reshape(h, w)


# ---------------------------------------------------------------------------
# dense normal-equation solves for the two quadratic block updates


def dc_normal_equation_oracle(x_prev, y, maps, line_selected, alpha):
    """Per-coil solve of min_m 0.5||U F m - U y||^2 + alpha/2 ||m - S x||^2."""
    nc, h, w = maps.shape
    n = h * w
    f2 = centered_dft2_matrix(h, w)
    keep = np.repeat(np.asarray(line_selected, bool)[None, :], h, axis=0).ravel()
    u = np.eye(n)[keep]
    a = u @ f2
    lhs = a.conj().T @ a + alpha * np.eye(n)
    out = np.empty((nc, h, w), dtype=complex)
    for coil in range(nc):
        rhs = a.conj().T @ (u @ y[coil].ravel())
        rhs = rhs + alpha * (maps[coil] * x_prev).ravel()
        out[coil] = np.linalg.solve(lhs, rhs).reshape(h, w)
    return out


def dc_blend_scalar_oracle(x_prev, y, maps, line_selected, alpha, v):
    """Scalar-loop recomputation of the blended data-consistency update.

    Sampled bins get the closed-form solve (y + alpha*k)/(1 + alpha)
    mixed with the predicted bin by weight v; unsampled bins pass
    through unchanged. v may be a scalar or a per-bin map.
    """
    nc, h, w = maps.shape
    v = np.broadcast_to(np.asarray(v, float), (h, w))
    out = np.empty((nc, h, w), dtype=complex)
    fh = centered_dft_matrix(h)
    fw = centered_dft_matrix(w)
    for coil in range(nc):
        k = fh @ (maps[coil] * x_prev) @ fw.T
        k_new = np.empty_like(k)
        for i in range(h):
            for j in range(w):
                if line_selected[j]:
                    solved = (y[coil, i, j] + alpha * k[i, j]) / (1.0 + alpha)
                    k_new[i, j] = v[i, j] * solved + (1.0 - v[i, j]) * k[i, j]
                else:
                    k_new[i, j] = k[i, j]
        out[coil] = fh.conj().T @ k_new @ fw.conj()
    return out


def x_update_normal_equation_oracle(z, m, maps, alpha, beta):
    """Dense solve of min_x alpha/2 sum_l ||m_l - S_l x||^2 + beta/2 ||z - x||^2."""
    nc, h, w = m.shape
    n = h * w
    lhs = beta * np.eye(n, dtype=complex)
    rhs = beta * np.asarray(z).ravel().astype(complex)
    for coil in range(nc):
        s = np.diag(maps[coil].ravel())
        lhs = lhs + alpha * (s.conj().T @ s)
        rhs = rhs + alpha * (s.conj().T @ m[coil].ravel())
    return np.linalg.solve(lhs, rhs).reshape(h, w)


# ---------------------------------------------------------------------------
# scalar-loop penalty values and objective


def haar_bands_scalar(x):
    """Per 2x2 block orthonormal Haar coefficients via explicit sums."""
    h, w = x.shape
    ll = np.empty((h // 2, w // 2), dtype=complex)
    lh = np.empty_like(ll)
    hl = np.empty_like(ll)
    hh = np.empty_like(ll)
    for a in range(h // 2):
        for b in range(w // 2):
            p = x[2 * a, 2 * b]
            q = x[2 * a, 2 * b + 1]
            r = x[2 * a + 1, 2 * b]
            s = x[2 * a + 1, 2 * b + 1]
            ll[a, b] = (p + q + r + s) / 2.0
            lh[a, b] = (p - q + r - s) / 2.0
            hl[a, b] = (p + q - r - s) / 2.0
            hh[a, b] = (p - q - r + s) / 2.0
    return ll, lh, hl, hh


def tv_scalar(z):
    """Isotropic TV with forward differences, zero at the far boundary."""
    h, w = z.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            gi = z[i + 1, j] - z[i, j] if i + 1 < h else 0.0
            gj = z[i, j + 1] - z[i, j] if j + 1 < w else 0.0
            total += math.sqrt(abs(gi) ** 2 + abs(gj) ** 2)
    return total


def penalty_scalar(kind, z):
    if kind == "tikhonov":
        return float(sum(abs(val) ** 2 for val in np.asarray(z).ravel()))
    if kind == "soft_threshold_image":
        return float(sum(abs(val) for val in np.asarray(z).ravel()))
    if kind == "soft_threshold_haar":
        _, lh, hl, hh = haar_bands_scalar(np.asarray(z))
        bands = list(lh.ravel()) + list(hl.ravel()) + list(hh.ravel())
        return float(sum(abs(val) for val in bands))
    if kind == "total_variation":
        return tv_scalar(np.asarray(z))
    raise ValueError(f"no scalar penalty for kind {kind!r}")


def objective_scalar_oracle(z, m, x, y, maps, line_selected, alpha, beta, lam, kind,
                            v=1.0):
    """Full penalized objective recomputed with Python loops.

    A sampled bin's data term carries the weight v*alpha/(1 + alpha - v)
    for which the blended DC step (see dc_blend_scalar_oracle) minimizes
    it: v/(1 + alpha) = weight/(weight + alpha). v may be a per-bin map.
    """
    nc, h, w = m.shape
    v = np.broadcast_to(np.asarray(v, float), (h, w))
    fh = centered_dft_matrix(h)
    fw = centered_dft_matrix(w)
    total = 0.0
    for coil in range(nc):
        k = fh @ m[coil] @ fw.T
        for i in range(h):
            for j in range(w):
                if line_selected[j]:
                    weight = v[i, j] * alpha / (1.0 + alpha - v[i, j])
                    total += 0.5 * weight * abs(k[i, j] - y[coil, i, j]) ** 2
    for coil in range(nc):
        for i in range(h):
            for j in range(w):
                d = m[coil, i, j] - maps[coil, i, j] * x[i, j]
                total += 0.5 * alpha * abs(d) ** 2
    for i in range(h):
        for j in range(w):
            total += 0.5 * beta * abs(z[i, j] - x[i, j]) ** 2
    if kind is not None:
        total += lam * penalty_scalar(kind, z)
    return total


# ---------------------------------------------------------------------------
# long-run dual solver for TV denoising


def _grad_oracle(u):
    h, w = u.shape
    g0 = np.zeros_like(u)
    g1 = np.zeros_like(u)
    g0[:-1, :] = u[1:, :] - u[:-1, :]
    g1[:, :-1] = u[:, 1:] - u[:, :-1]
    return g0, g1


def _div_oracle(p0, p1):
    # negative adjoint of _grad_oracle, rederived element by element
    h, w = p0.shape
    d = np.zeros_like(p0)
    d[0, :] += p0[0, :]
    d[1:-1, :] += p0[1:-1, :] - p0[:-2, :]
    d[-1, :] += -p0[-2, :]
    d[:, 0] += p1[:, 0]
    d[:, 1:-1] += p1[:, 1:-1] - p1[:, :-2]
    d[:, -1] += -p1[:, -2]
    return d


def tv_denoise_dual_oracle(x, theta, steps=100_000):
    """Projected gradient on the dual of min_z 0.5||z - x||^2 + theta*TV(z).

    Minimizes ||x - theta*div p||^2 over the pointwise coupled unit
    ball, step 1/(8 theta^2), then maps back to the primal solution
    z = x - theta*div p. Slow and unconditionally convergent; meant as
    ground truth for small images only.
    """
    x = np.asarray(x, dtype=complex)
    p0 = np.zeros_like(x)
    p1 = np.zeros_like(x)
    step = 1.0 / (8.0 * theta)
    for _ in range(steps):
        u = x - theta * _div_oracle(p0, p1)
        g0, g1 = _grad_oracle(u)
        p0 = p0 - step * g0
        p1 = p1 - step * g1
        mag = np.sqrt(np.abs(p0) ** 2 + np.abs(p1) ** 2)
        scale = np.maximum(1.0, mag)
        p0 = p0 / scale
        p1 = p1 / scale
    return x - theta * _div_oracle(p0, p1)


def _grad2_reference(u):
    g = np.zeros((2,) + u.shape, dtype=u.dtype)
    g[0, :-1, :] = u[1:, :] - u[:-1, :]
    g[1, :, :-1] = u[:, 1:] - u[:, :-1]
    return g


def _div2_reference(p):
    d = np.zeros(p.shape[1:], dtype=p.dtype)
    d[:-1, :] += p[0, :-1, :]
    d[1:, :] -= p[0, :-1, :]
    d[:, :-1] += p[1, :, :-1]
    d[:, 1:] -= p[1, :, :-1]
    return d


def tv_denoise_reference(x, theta, iterations, tol, dual):
    """The semi-implicit TV dual loop step for step, in plain numpy.

    The same floating-point operations in the same order as the package's
    ``tv_denoise`` (Chambolle 2004, tau = 1/8, in the form that never
    divides by theta), on fresh arrays per step, with strided shifts and
    a complex-by-real division: a frozen reference for a loop that must
    stay bit-identical while it gets cheaper. ``dual`` is updated in place
    and read in full. Returns (z, converged, n_steps, TV(z)); theta must be
    a normal double.
    """
    x = np.asarray(x, dtype=np.complex128)
    tau = 0.125
    for it in range(iterations + 1):
        z = _div2_reference(dual)
        fit = 0.5 * theta * np.vdot(z, z).real
        z *= -theta
        z += x
        g = _grad2_reference(z)
        mag = np.sqrt(np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2)
        tv = mag.sum()
        converged = bool(tv + np.vdot(g, dual).real <= tol * (fit + tv))
        if converged or it == iterations:
            return z, converged, it, float(tv)
        dual *= theta
        g *= tau
        dual -= g
        mag *= tau
        mag += theta
        dual /= mag


def tv_primal_objective(z, x, theta):
    z = np.asarray(z)
    x = np.asarray(x)
    return 0.5 * float(np.sum(np.abs(z - x) ** 2)) + theta * tv_scalar(z)


# ---------------------------------------------------------------------------
# scalar-loop image metrics


def psnr_scalar(rec, gt):
    rec = np.abs(np.asarray(rec))
    gt = np.abs(np.asarray(gt))
    peak = 0.0
    total = 0.0
    count = 0
    for a, b in zip(rec.ravel(), gt.ravel()):
        peak = max(peak, float(b))
        total += (float(a) - float(b)) ** 2
        count += 1
    mse = total / count
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def rmse_scalar(rec, gt):
    rec = np.abs(np.asarray(rec))
    gt = np.abs(np.asarray(gt))
    total = 0.0
    count = 0
    for a, b in zip(rec.ravel(), gt.ravel()):
        total += (float(a) - float(b)) ** 2
        count += 1
    return math.sqrt(total / count)


def nmse_scalar(rec, gt):
    rec = np.abs(np.asarray(rec))
    gt = np.abs(np.asarray(gt))
    num = 0.0
    den = 0.0
    for a, b in zip(rec.ravel(), gt.ravel()):
        num += (float(a) - float(b)) ** 2
        den += float(b) ** 2
    return num / den


def ssim_scalar(rec, gt, support=None, size=11, sigma=1.5, k1=0.01, k2=0.03):
    """Definitional mean local SSIM with an explicit window-position loop."""
    rec = np.abs(np.asarray(rec)).astype(float)
    gt = np.abs(np.asarray(gt)).astype(float)
    h, w = gt.shape
    half = (size - 1) / 2.0
    g = [math.exp(-((t - half) ** 2) / (2.0 * sigma * sigma)) for t in range(size)]
    win = [[gi * gj for gj in g] for gi in g]
    norm = sum(sum(row) for row in win)
    win = [[val / norm for val in row] for row in win]
    span = float(gt.max() - gt.min())
    if span == 0.0:
        span = max(float(gt.max()), 1.0)
    c1 = (k1 * span) ** 2
    c2 = (k2 * span) ** 2
    values = []
    for i in range(h - size + 1):
        for j in range(w - size + 1):
            if support is not None and not support[i + size // 2, j + size // 2]:
                continue
            mu_r = mu_g = 0.0
            m_rr = m_gg = m_rg = 0.0
            for a in range(size):
                for b in range(size):
                    wgt = win[a][b]
                    rv = rec[i + a, j + b]
                    gv = gt[i + a, j + b]
                    mu_r += wgt * rv
                    mu_g += wgt * gv
                    m_rr += wgt * rv * rv
                    m_gg += wgt * gv * gv
                    m_rg += wgt * rv * gv
            var_r = m_rr - mu_r * mu_r
            var_g = m_gg - mu_g * mu_g
            cov = m_rg - mu_r * mu_g
            values.append(
                ((2 * mu_r * mu_g + c1) * (2 * cov + c2))
                / ((mu_r**2 + mu_g**2 + c1) * (var_r + var_g + c2))
            )
    return sum(values) / len(values)
