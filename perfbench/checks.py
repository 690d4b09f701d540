"""Correctness gate applied to the output of every timed CLI command.

Each check raises CheckFailed with a one-line reason; the benchmark
counts the command as failed and leaves its time out of the timings.
"""

import hashlib
import math
from pathlib import Path

import reference

# objective.log may rise between iterations by at most this share of
# max(1, first value): float rounding for the exact analytic block
# updates, and the inner tolerance for total variation (the same bounds
# as the package's monotonicity acceptance test)
MONOTONE_TOL = {"total_variation": 1e-6}
MONOTONE_TOL_EXACT = 1e-9

# PSNR must match the reference reconstruction to within this many dB.
# The reference repeats the float64 arithmetic, so an unchanged program
# matches to ~1e-5 dB (the report prints 4 decimals); 0.01 dB leaves
# room for reordered arithmetic or a more converged TV inner solver
# (50 vs 300 inner iterations moved PSNR by 4e-4 dB), while a wrong
# result misses by whole dB.
PSNR_TOL_DB = 0.01

RECON_FILES = ("recon", "recon.hdr", "objective.log", "recon_manifest.txt")


class CheckFailed(Exception):
    pass


def objective_values(path):
    values = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        _, value = line.split()
        values.append(float(value))
    return values


def check_monotone(path, prior, iterations):
    values = objective_values(path)
    if len(values) != iterations + 1:
        raise CheckFailed(f"{path}: {len(values)} objective values, "
                          f"expected {iterations + 1}")
    tol = MONOTONE_TOL.get(prior, MONOTONE_TOL_EXACT) * max(1.0, abs(values[0]))
    for t in range(1, len(values)):
        if not math.isfinite(values[t]) or values[t] - values[t - 1] > tol:
            raise CheckFailed(f"{path}: objective rose from {values[t - 1]!r} "
                              f"to {values[t]!r} at iteration {t}")


def require_files(directory, names):
    missing = [n for n in names if not (Path(directory) / n).is_file()]
    if missing:
        raise CheckFailed(f"{directory}: missing {', '.join(missing)}")


def check_psnr(label, got, expected):
    if not abs(got - expected) <= PSNR_TOL_DB:
        raise CheckFailed(f"{label}: PSNR {got:.4f} dB, reference "
                          f"{expected:.4f} dB")


def digests(directory, names):
    return {n: hashlib.sha256((Path(directory) / n).read_bytes()).hexdigest()
            for n in names}


def check_recon(out_dir, case, support, prior, iterations, expected_psnr):
    """Validate one `pcsmri recon` output; return its PSNR on the support."""
    require_files(out_dir, RECON_FILES)
    check_monotone(out_dir / "objective.log", prior, iterations)
    rec = reference.read_array(out_dir / "recon")[0]
    gt = reference.read_array(case / "gt")[0]
    value = reference.psnr_on_support(rec, gt, support)
    check_psnr("recon", value, expected_psnr)
    return value


def read_report(path):
    """Map method label -> PSNR from a sweep report.csv; reject nan rows."""
    rows = {}
    for line in Path(path).read_text().splitlines()[1:]:
        if line.startswith("#"):
            continue
        fields = line.split(",")
        if any(f.strip().lower() == "nan" for f in fields):
            raise CheckFailed(f"{path}: nan row {line!r}")
        rows[fields[1]] = float(fields[2])
    return rows


def check_sweep(out_dir, combos, expected_psnrs, iterations):
    """Validate one `pcsmri sweep` output.

    Returns (best PSNR in the report, names of the files under out_dir
    whose bytes must repeat from one command to the next).
    """
    require_files(out_dir, ("report.csv",))
    rows = read_report(out_dir / "report.csv")
    if len(rows) != len(combos):
        raise CheckFailed(f"report.csv has {len(rows)} rows, "
                          f"expected {len(combos)}")
    for combo, expected in zip(combos, expected_psnrs):
        label = ";".join(f"{k}={combo[k]}" for k in sorted(combo))
        if label not in rows:
            raise CheckFailed(f"report.csv has no row for {label}")
        check_psnr(label, rows[label], expected)
    # the loosest tolerance of the grid's priors applies to every log
    prior = max({c["prior"] for c in combos},
                key=lambda p: MONOTONE_TOL.get(p, MONOTONE_TOL_EXACT))
    combo_dirs = sorted(p.name for p in Path(out_dir).glob("combo_*"))
    if len(combo_dirs) != len(combos):
        raise CheckFailed(f"{out_dir}: {len(combo_dirs)} combo directories, "
                          f"expected {len(combos)}")
    names = ["report.csv"]
    for combo_dir in combo_dirs:
        require_files(out_dir / combo_dir, ("recon", "recon.hdr", "objective.log"))
        check_monotone(out_dir / combo_dir / "objective.log", prior, iterations)
        names += [f"{combo_dir}/recon", f"{combo_dir}/objective.log"]
    return max(rows.values()), names
