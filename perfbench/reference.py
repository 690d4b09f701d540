"""Independent reference reconstruction for the benchmark's PSNR check.

Re-derives, with numpy alone and without importing pcsmri, what the
program computed at the commit this benchmark was written against: it
reads the case files in the documented container format, runs the same
HQS iteration (zero-filled start, prior prox, exact per-coil data
consistency with v = 1, closed-form x update) and reports the PSNR of
the reconstruction, stored as <c8 like the CLI does, on the map
support. The benchmark compares the program's PSNR with these values,
so a command that exits 0 with a wrong or missing result fails.

Run as its own process so its memory does not count in the measured
peak RSS:

    python3 perfbench/reference.py '<json spec>'

with spec {"case": dir, "estimate_sens": bool, "combos": [{"prior":
kind, "lambda": value or null, "iterations": n}, ...]}. Prints a JSON
list of PSNR values, one per combo.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

# defaults of the CLI when a config omits lambda, and of the TV prior
DEFAULT_LAMBDA = {"tikhonov": 0.01, "soft_threshold_image": 0.005,
                  "soft_threshold_haar": 0.005, "total_variation": 0.004}
TV_ITERATIONS = 50
TV_TOL = 1e-6
SUPPORT_THRESHOLD = 1e-3


def _sidecar(path):
    fields = {}
    for line in Path(str(path) + ".hdr").read_text().splitlines()[1:]:
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def read_array(path):
    f = _sidecar(path)
    shape = (int(f["coils"]), int(f["height"]), int(f["width"]))
    return np.fromfile(path, dtype=f["dtype"]).reshape(shape)


def read_lines(path):
    return np.fromfile(path, dtype=np.uint8).astype(bool)


def _fft(x):
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(x, axes=(-2, -1)),
                                       norm="ortho"), axes=(-2, -1))


def _ifft(k):
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(k, axes=(-2, -1)),
                                        norm="ortho"), axes=(-2, -1))


def _shrink(x, t):
    mag = np.abs(x)
    return np.maximum(mag - t, 0.0) / np.where(mag > 0, mag, 1.0) * x


def _haar_prox(x, t):
    r = np.sqrt(2.0)
    lo, hi = (x[0::2] + x[1::2]) / r, (x[0::2] - x[1::2]) / r
    ll, lh = (lo[:, 0::2] + lo[:, 1::2]) / r, (lo[:, 0::2] - lo[:, 1::2]) / r
    hl, hh = (hi[:, 0::2] + hi[:, 1::2]) / r, (hi[:, 0::2] - hi[:, 1::2]) / r
    lh, hl, hh = _shrink(lh, t), _shrink(hl, t), _shrink(hh, t)
    lo = np.empty((ll.shape[0], 2 * ll.shape[1]), dtype=complex)
    hi = np.empty_like(lo)
    lo[:, 0::2], lo[:, 1::2] = (ll + lh) / r, (ll - lh) / r
    hi[:, 0::2], hi[:, 1::2] = (hl + hh) / r, (hl - hh) / r
    out = np.empty((2 * lo.shape[0], lo.shape[1]), dtype=complex)
    out[0::2], out[1::2] = (lo + hi) / r, (lo - hi) / r
    return out


def _grad(u):
    g = np.zeros((2,) + u.shape, dtype=complex)
    g[0, :-1] = u[1:] - u[:-1]
    g[1, :, :-1] = u[:, 1:] - u[:, :-1]
    return g


def _div(p):
    d = np.zeros(p.shape[1:], dtype=complex)
    d[:-1] += p[0, :-1]
    d[1:] -= p[0, :-1]
    d[:, :-1] += p[1, :, :-1]
    d[:, 1:] -= p[1, :, :-1]
    return d


def _tv_prox(x, theta):
    """Chambolle's dual fixed point, step 1/8, relative-change stop."""
    if theta == 0:
        return x.copy()
    p = np.zeros((2,) + x.shape, dtype=complex)
    for _ in range(TV_ITERATIONS):
        g = _grad(_div(p) - x / theta)
        p_new = (p + 0.125 * g) / (1.0 + 0.125 * np.sqrt(np.abs(g[0]) ** 2
                                                         + np.abs(g[1]) ** 2))
        step = np.linalg.norm(p_new - p)
        p = p_new
        if step <= TV_TOL * max(np.linalg.norm(p), 1e-30):
            break
    return x - theta * _div(p)


def prox(kind, x, beta, lam):
    if kind == "tikhonov":
        return beta / (beta + 2.0 * lam) * x
    if kind == "soft_threshold_image":
        return _shrink(x, lam / beta)
    if kind == "soft_threshold_haar":
        return _haar_prox(x, lam / beta)
    if kind == "total_variation":
        return _tv_prox(x, lam / beta)
    raise ValueError(f"no reference for prior {kind!r}")


def estimate_maps(y, acs):
    """Hann-apodized central ACS block, RSS-normalized on its support."""
    _, h, w = y.shape
    r0, c0 = h // 2 - acs // 2, w // 2 - acs // 2
    win = np.zeros((h, w))
    win[r0:r0 + acs, c0:c0 + acs] = np.outer(np.hanning(acs + 2)[1:-1],
                                             np.hanning(acs + 2)[1:-1])
    low = _ifft(y * win)
    rss = np.sqrt(np.sum(np.abs(low) ** 2, axis=0))
    support = rss > SUPPORT_THRESHOLD * rss.max()
    return np.where(support, low / np.where(support, rss, 1.0), 0), support


def hqs(y, maps, lines, kind, lam, iterations, alpha=1.0, beta=1.0):
    x = np.sum(np.conj(maps) * _ifft(y), axis=0)
    den = beta + alpha * np.sum(np.abs(maps) ** 2, axis=0)
    for _ in range(iterations):
        z = prox(kind, x, beta, lam)
        k = _fft(maps * x)
        m = _ifft(np.where(lines, (y + alpha * k) / (1.0 + alpha), k))
        x = (beta * z + alpha * np.sum(np.conj(maps) * m, axis=0)) / den
    return x


def psnr_on_support(rec, gt, support):
    rec, gt = np.abs(rec)[support].astype(float), np.abs(gt)[support].astype(float)
    mse = float(np.mean((rec - gt) ** 2))
    return math.inf if mse == 0 else 10.0 * math.log10(gt.max() ** 2 / mse)


def reference_psnrs(spec):
    case = Path(spec["case"])
    y = read_array(case / "kspace").astype(complex)
    gt = read_array(case / "gt")[0]
    lines = read_lines(case / "mask")
    if spec["estimate_sens"]:
        maps, support = estimate_maps(y, int(_sidecar(case / "mask")["acs_width"]))
    else:
        maps = read_array(case / "sens").astype(complex)
        support = np.sum(np.abs(maps) ** 2, axis=0) > 0.5
        maps = np.where(support, maps, 0)
    out = []
    for combo in spec["combos"]:
        lam = combo["lambda"]
        lam = DEFAULT_LAMBDA[combo["prior"]] if lam is None else float(lam)
        x = hqs(y, maps, lines, combo["prior"], lam, int(combo["iterations"]))
        out.append(psnr_on_support(x.astype("<c8"), gt, support))
    return out


if __name__ == "__main__":
    print(json.dumps(reference_psnrs(json.loads(sys.argv[1]))))
