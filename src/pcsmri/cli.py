"""Command line surface: build, reconstruct and evaluate cases on disk.

Commands
--------
phantom   write a synthetic test image
mask      write a sampling mask
sense     estimate sensitivity maps from measured k-space
simulate  generate a full case directory (gt, sens, mask, kspace)
recon     run the iterative reconstruction on a case directory
eval      score reconstructions against ground truth (text + CSV)
sweep     grid-search solver parameters over one case

Solver configs and sweep grids are plain text files of `key = value`
lines ('#' starts a comment). Recognized keys: prior, alpha, beta,
lambda, iterations, v, v_map, record_history, tv_iterations, tv_tol,
external_cmd, external_dir, external_timeout. alpha/beta/lambda accept
a single number or a comma-separated per-iteration schedule; in a sweep
grid every comma-separated list is expanded into a Cartesian product
instead (schedules are not sweepable).

Exit codes: 0 success, else the ``exit_code`` of the package error
raised, after ``label: message`` on stderr (both attributes of its class
in ``pcsmri.errors``): 2 configuration error, 3 I/O error, 4 numerical
divergence, 5 external-prior failure. Any other OSError exits 3 as an
I/O error. All outputs are deterministic given the seeds: re-running a
command rewrites byte-identical files.
"""

import argparse
import csv
import functools
import io
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .container import (_sidecar, _write_files, _write_header, load_array,
                        load_image, save_array, save_image)
from .errors import (
    ConfigError,
    ContainerError,
    DivergenceError,
    PcsmriError,
    PriorExecutionError,
    ShapeError,
    _check_weight,
)
from .masks import MASK_KINDS, PRESETS, load_mask, mask_summary, save_mask
from .metrics import PSNR_TEXT_CAP, evaluate, psnr
from .operators import SensitivitySet
from .phantoms import PHANTOM_KINDS, make_phantom, simulate_case
from .priors import make_prior
from .sensitivity import estimate_maps
from .solver import SolverConfig, _admit, solve

_CONFIG_KEYS = (
    "prior", "alpha", "beta", "lambda", "iterations", "v", "v_map",
    "record_history", "tv_iterations", "tv_tol",
    "external_cmd", "external_dir", "external_timeout",
)

# starting points per prior kind when a config omits lambda
DEFAULT_LAMBDA = {
    "tikhonov": 0.01,
    "soft_threshold_image": 0.005,
    "soft_threshold_haar": 0.005,
    "total_variation": 0.004,
    "external": 0.0,
}

REPORT_COLUMNS = ("case", "method", "PSNR", "SSIM", "RMSE", "NMSE")


def _read_kv_file(path):
    path, fields = Path(path), {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key in fields:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = value
    return fields


def _parse_floats(value, key):
    try:
        parts = [float(p) for p in value.split(",")]
    except ValueError:
        raise ConfigError(f"{key} must be a number or comma-separated numbers, "
                          f"got {value!r}") from None
    return parts[0] if len(parts) == 1 else parts


def _parse_number(value, key):
    try:
        if math.isfinite(number := float(value)):
            return number
    except ValueError:
        pass
    raise ConfigError(f"{key} must be a single number and finite, got {value!r}")


def _parse_bool(value, key):
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def _build_solver_config(fields):
    unknown = sorted(set(fields) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kind = fields.get("prior", "tikhonov")
    # every present key is parsed and checked, also those this prior ignores
    tv = make_prior("total_variation", **{
        param: parse(fields[key], key) for key, param, parse in (
            ("tv_iterations", "iterations", _parse_floats),
            ("tv_tol", "tol", _parse_number)) if key in fields})
    external = {"exchange_dir": fields.get("external_dir")}
    if "external_timeout" in fields:
        external["timeout"] = _check_weight(
            _parse_number(fields["external_timeout"], "external_timeout"),
            "external_timeout")
    if "external_cmd" in fields:
        external = make_prior("external", command=fields["external_cmd"], **external)
    elif kind == "external":
        raise ConfigError("external prior requires external_cmd")
    prior = {"total_variation": tv, "external": external}.get(kind) or make_prior(kind)
    if "v" in fields and "v_map" in fields:
        raise ConfigError("v and v_map are exclusive; give one of them")
    # an absent key takes the SolverConfig default; only lambda has a CLI one
    given = {key: parse(fields[key], key) for key, parse in (
        ("alpha", _parse_floats), ("beta", _parse_floats),
        ("iterations", _parse_floats), ("record_history", _parse_bool),
    ) if key in fields}
    if "v" in fields:
        given["dc_blend_v"] = _parse_number(fields["v"], "v")
    if "v_map" in fields:
        given["dc_blend_v"] = load_image(fields["v_map"])[0]
    lam = fields.get("lambda")
    lam = DEFAULT_LAMBDA[kind] if lam is None else _parse_floats(lam, "lambda")
    return SolverConfig(prior=prior, lam=lam, **given)


def _say(line):
    """print; a lone surrogate (a name byte that is not UTF-8) prints as \\xNN."""
    try:
        print(line)
    except UnicodeEncodeError:  # a strict stdout
        print(os.fsencode(line).decode(sys.stdout.encoding, "backslashreplace"))


def _write_manifest(path, command, pairs):
    _write_header(path, "pcsmri-manifest v1",
                  [("command", command), ("version", __version__), *pairs])


def _read(path, what, shape=None, of=None, load=load_image, expect_kind=None):
    """``load``'s array at path if finite and, given ``shape``, of ``of``'s shape.

    Every input image and map set is read here, so its errors name the file:
    ContainerError for non-finite values, ShapeError for another shape.
    """
    arr, _ = load(path, expect_kind=expect_kind)
    bad = np.count_nonzero(~np.isfinite(arr))
    if bad:
        raise ContainerError(
            f"{path} holds non-finite {what} values ({bad} of {arr.size})")
    if shape is not None and arr.shape != shape:
        raise ShapeError(f"{path} holds a {what} of shape {arr.shape}, "
                         f"not the {shape} of {of}")
    return arr


def _present(path):
    """Whether the payload or the sidecar is at path: half a container is not absent."""
    return path.exists() or _sidecar(path).exists()


def _load_sens(path):
    maps = _read(path, "sensitivity map", load=load_array, expect_kind="sens")
    try:
        return SensitivitySet(maps, np.sum(np.abs(maps) ** 2, axis=0) > 0.5)
    except ConfigError as exc:
        raise ContainerError(f"{path} holds invalid sensitivity maps: {exc}") from None


def _save_sens(path, sens):
    save_array(path, sens.maps, kind="sens", dtype="<c16")


def cmd_phantom(args):
    height = args.size if args.height is None else args.height
    width = args.size if args.width is None else args.width
    img = make_phantom(height, width, args.kind, rng_seed=args.seed,
                       phase_ramp=args.phase_ramp)
    save_image(args.out, img, kind="image")
    _write_manifest(
        f"{Path(args.out)}.manifest", "phantom",
        [("kind", args.kind), ("height", height), ("width", width),
         ("seed", args.seed), ("phase_ramp", args.phase_ramp)],
    )
    _say(f"wrote {args.kind} phantom {height}x{width} to {args.out}")
    return 0


def cmd_mask(args):
    height = args.width if args.height is None else args.height
    mask = MASK_KINDS[args.kind](height, args.width, args.r, args.acs, args.seed)
    save_mask(args.out, mask)
    _say(f"wrote {mask_summary(mask)} to {args.out}")
    return 0


def cmd_sense(args):
    ksp, _ = load_array(args.kspace, expect_kind="kspace")
    mask = load_mask(args.mask) if args.mask else None
    if args.acs is None:
        args.acs = 24 if mask is None else mask.acs_width
    sens = estimate_maps(ksp, args.acs, mask=mask, apodize=not args.no_apodize)
    _save_sens(args.out, sens)
    _say(f"wrote {sens.n_coils}-coil sensitivity maps to {args.out}")
    return 0


def cmd_simulate(args):
    given = {key: value for key, value in (
        ("mask_kind", args.mask_kind), ("r", args.r), ("acs_width", args.acs))
        if value is not None}
    if args.preset and given:
        raise ConfigError("--preset sets the mask; drop --mask-kind, --r and --acs")
    out = Path(args.out)
    height = args.size if args.height is None else args.height
    width = args.size if args.width is None else args.width
    x_gt, sens, y, mask = simulate_case(
        height, width, n_coils=args.coils, phantom=args.phantom,
        preset=args.preset, noise_sigma=args.sigma, seed=args.seed,
        phase_ramp=args.phase_ramp, **given,
    )
    save_image(out / "gt", x_gt, kind="gt")
    _save_sens(out / "sens", sens)
    save_mask(out / "mask", mask)
    save_array(out / "kspace", y, kind="kspace")
    _write_manifest(
        out / "manifest.txt", "simulate",
        [("height", height), ("width", width), ("coils", args.coils),
         ("phantom", args.phantom), ("preset", args.preset or "none"),
         ("mask_kind", mask.kind), ("r", mask.acceleration),
         ("acs_width", mask.acs_width),
         ("noise_sigma", args.sigma), ("phase_ramp", args.phase_ramp),
         ("seed", args.seed)],
    )
    _say(f"simulated case in {out}: {mask_summary(mask)}")
    return 0


def _load_case(case_dir, estimate_sens, configs):
    """The case's y, maps, mask and gt (None if absent), judged before any solve.

    Each config is judged with the case as ``solve`` will judge it
    (``solver._admit``), so that a sweep refuses a bad case or grid point
    as ``recon`` does, before any write, and never as a failed row per combo.
    """
    case = Path(case_dir)
    y, _ = load_array(case / "kspace", expect_kind="kspace")
    mask = load_mask(case / "mask")
    if estimate_sens or not _present(case / "sens"):
        sens = estimate_maps(y, mask.acs_width, mask=mask)
    else:
        sens = _load_sens(case / "sens")
    for config in configs:
        _admit(y, sens, mask, config)
    gt = (_read(case / "gt", "ground truth", sens.shape, "the maps")
          if _present(case / "gt") else None)
    return y, sens, mask, case, gt


def _write_objective_log(path, state, extra):
    lines = ["# iteration objective"]
    if not state.objective_includes_prior:
        lines.append("# prior term unavailable; objective excludes lambda*R(z)")
    for warning in state.warnings:
        lines.append(f"# warning: {warning}")
    lines += [f"{t} {value!r}" for t, value in enumerate(state.objective_history)]
    lines += extra
    _write_files([(path, ("\n".join(lines) + "\n").encode())])


def _run_recon(y, sens, mask, config, out_path, gt=None, score=False):
    x, state = solve(y, sens, mask, config)
    state.m = state.z = None  # unread below: freed before scoring allocates
    # scored before the first write: a gt that evaluate refuses leaves nothing
    scores = evaluate(x, gt, support=sens.support) if score else None
    extra = []
    if gt is not None:
        support = sens.support
        p0 = psnr(np.abs(state.x0)[support], np.abs(gt)[support])
        p1 = psnr(np.abs(x)[support], np.abs(gt)[support])
        extra = [
            f"# psnr_zero_filled: {min(p0, PSNR_TEXT_CAP):.4f}",
            f"# psnr_recon: {min(p1, PSNR_TEXT_CAP):.4f}",
            f"# psnr_gain: {p1 - p0:.4f}",
        ]
    save_image(out_path, x, kind="recon")
    _write_objective_log(out_path.parent / "objective.log", state, extra)
    if config.record_history:
        for t, xt in enumerate(state.x_history):
            save_image(out_path.parent / "iterates" / f"x_{t:03d}", xt, kind="iterate")
    return scores


def cmd_recon(args):
    fields = _read_kv_file(args.config) if args.config else {}
    config = _build_solver_config(fields)
    y, sens, mask, case, gt = _load_case(args.case, args.estimate_sens, [config])
    out = Path(args.out) if args.out else case / "recon"
    _run_recon(y, sens, mask, config, out, gt=gt)
    _write_manifest(
        out.parent / "recon_manifest.txt", "recon",
        [("case", case.name), ("estimate_sens", args.estimate_sens)]
        + [(k, v) for k, v in sorted(fields.items())],
    )
    _say(f"wrote reconstruction to {out}")
    return 0


def _format_row(case, method, scores):
    return (case, method, f"{min(scores['psnr'], PSNR_TEXT_CAP):.4f}",
            f"{scores['ssim']:.6f}", f"{scores['rmse']:.6e}",
            f"{scores['nmse']:.6e}")


def _write_report(path, rows, comments=()):
    """The CSV report: a header, one row per tuple, then comment lines as they are.

    A field holding a comma or a quote is quoted, so a case named ``a,b``
    stays one field.
    """
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([REPORT_COLUMNS, *rows])
    text.writelines(f"{comment}\n" for comment in comments)
    _write_files([(path, text.getvalue().encode(errors="surrogateescape"))])


def _print_table(rows):
    cells = [REPORT_COLUMNS, *rows]
    widths = [max(len(cell) for cell in column) for column in zip(*cells)]
    for c in cells:
        _say("  ".join(cell.ljust(w) for cell, w in zip(c, widths)))


def cmd_eval(args):
    if args.case_dirs:
        inputs = [(case.name, case / "recon", case / "gt",
                  case / "sens" if _present(case / "sens") else None)
                 for case in sorted(Path(d) for d in args.case_dirs)]
    elif args.recon and args.gt:
        inputs = [(args.case, args.recon, args.gt, args.sens)]
    else:
        raise ConfigError("eval needs --recon and --gt, or --case-dirs")
    rows = []
    for case, recon, gt, sens in inputs:
        support = None if sens is None else _load_sens(sens).support
        shape = None if support is None else support.shape
        truth = _read(gt, "ground truth", shape, sens)
        rec = _read(recon, "reconstruction", truth.shape, sens or gt)
        rows.append(_format_row(case, args.method,
                                evaluate(rec, truth, support=support)))
    # by the row's text, so case "a+b" sorts before "a" (as '+' < ',')
    rows.sort(key=",".join)
    _print_table(rows)
    if args.report:
        _write_report(args.report, rows)
    return 0


def _expand_grid(fields):
    keys = sorted(fields)
    lists = [[v.strip() for v in fields[k].split(",")] for k in keys]
    return [dict(zip(keys, values)) for values in itertools.product(*lists)]


def _sweep_one(index, config, y, sens, mask, gt, out_root):
    return _run_recon(y, sens, mask, config,
                      out_root / f"combo_{index:03d}" / "recon", gt=gt, score=True)


def cmd_sweep(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    combos = _expand_grid(_read_kv_file(args.grid))
    # the whole grid is judged as recon judges a config, before any solve or
    # write: a nan row comes only from DivergenceError or PriorExecutionError
    configs = [_build_solver_config(combo) for combo in combos]
    y, sens, mask, case, gt = _load_case(args.case, args.estimate_sens, configs)
    if gt is None:
        raise ConfigError(f"sweep needs {case / 'gt'} for scoring")
    out_root = Path(args.out) if args.out else case / "sweep"

    def run(index):
        label = ";".join(f"{k}={v}" for k, v in sorted(combos[index].items()))
        try:
            scores = _sweep_one(index, configs[index], y, sens, mask, gt, out_root)
            return _format_row(case.name, label, scores), scores["psnr"], None
        except (DivergenceError, PriorExecutionError) as exc:
            row = (case.name, label, "nan", "nan", "nan", "nan")
            return row, -math.inf, f"# error {label}: {exc}"

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(run, range(len(configs))))
    rows = [row for row, _, _ in results]
    comments = [c for _, _, c in results if c]
    best_row, best_psnr, _ = max(results, key=lambda r: r[1])
    if math.isfinite(best_psnr):
        comments.append(f"# best: {best_row[1]} psnr={best_psnr:.4f}")
    _write_report(args.report or out_root / "report.csv", rows, comments)
    _print_table(rows)
    for comment in comments:
        _say(comment)
    return 0


@functools.cache
def build_parser():
    """The CLI's argument parser, built on the first call and shared after.

    Parsing leaves the parser unchanged and argparse reads the terminal
    width when it prints, so every ``main`` call parses with this one
    parser, whose build costs far more than a parse. Callers must not add
    to it. Unlike a module-level parser, the cache costs an import nothing.
    """
    parser = argparse.ArgumentParser(
        prog="pcsmri",
        description="Multi-coil compressed-sensing MRI reconstruction toolkit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func):
        p = subs.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("phantom", "write a synthetic test image", cmd_phantom)
    p.add_argument("--kind", default="shepp_logan", choices=PHANTOM_KINDS)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phase-ramp", action="store_true")
    p.add_argument("--out", default="phantom")

    p = command("mask", "write a sampling mask", cmd_mask)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--acs", type=int, default=24)
    p.add_argument("--kind", default="random", choices=tuple(MASK_KINDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="mask")

    p = command("sense", "estimate sensitivity maps from k-space", cmd_sense)
    p.add_argument("--kspace", required=True)
    p.add_argument("--acs", type=int, help="default: the mask's ACS width, else 24")
    p.add_argument("--mask")
    p.add_argument("--no-apodize", action="store_true")
    p.add_argument("--out", default="sens")

    p = command("simulate", "generate a full synthetic case", cmd_simulate)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--coils", type=int, default=4)
    p.add_argument("--phantom", default="shepp_logan", choices=PHANTOM_KINDS)
    p.add_argument("--preset", choices=sorted(PRESETS))
    # no argparse defaults: cmd_simulate must see which of these were given
    p.add_argument("--mask-kind", choices=tuple(MASK_KINDS))
    p.add_argument("--r", type=float)
    p.add_argument("--acs", type=int)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phase-ramp", action="store_true")

    p = command("recon", "reconstruct a case directory", cmd_recon)
    p.add_argument("--case", required=True)
    p.add_argument("--config", help="solver config file (key = value lines)")
    p.add_argument("--out")
    p.add_argument("--estimate-sens", action="store_true",
                   help="estimate maps from the ACS even if sens exists")

    p = command("eval", "score reconstructions against ground truth", cmd_eval)
    p.add_argument("--recon")
    p.add_argument("--gt")
    p.add_argument("--sens", help="restrict metrics to the map support")
    p.add_argument("--case", default="case")
    p.add_argument("--method", default="hqs")
    p.add_argument("--case-dirs", nargs="+",
                   help="batch mode: directories holding recon/gt/sens")
    p.add_argument("--report", help="write CSV report to this path")

    p = command("sweep", "grid-search solver parameters", cmd_sweep)
    p.add_argument("--case", required=True)
    p.add_argument("--grid", required=True,
                   help="grid file; comma-separated values are swept")
    p.add_argument("--out")
    p.add_argument("--report")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--estimate-sens", action="store_true")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PcsmriError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
