"""End-to-end tests for the command line surface.

Most tests call ``main`` in process and inspect files, exit codes and
captured output; subprocess tests check the module entry point and run
the README quick start as written.
"""

import argparse
import contextlib
import csv
import errno
import hashlib
import io
import itertools
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAIL_STUB, HUGE_STUB, IDENTITY_STUB, NAN_STUB, make_stub
import pcsmri
from pcsmri import __version__, cli, errors, solver
from pcsmri.cli import DEFAULT_LAMBDA, _build_solver_config, build_parser, main
from pcsmri.container import load_array, load_image, save_array, save_image
from pcsmri.masks import (PRESETS, SamplingMask, load_mask,
                          make_random_mask, save_mask)
from pcsmri.metrics import evaluate, psnr
from pcsmri.operators import SensitivitySet, zero_filled
from pcsmri.phantoms import make_phantom, simulate_case
from pcsmri.priors import TikhonovPrior
from pcsmri.sensitivity import estimate_maps
from pcsmri.transforms import fft2c, ifft2c
from pcsmri.solver import SolverConfig, solve

SUBCOMMANDS = ("phantom", "mask", "sense", "simulate", "recon", "eval", "sweep")
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return main([str(a) for a in argv])


def as_stored(x):
    """Arrays written without an explicit dtype land on disk as <c8."""
    return np.asarray(x).astype(np.complex64)


def load_case_like_cli(case):
    y, _ = load_array(case / "kspace", expect_kind="kspace")
    mask = load_mask(case / "mask")
    maps, _ = load_array(case / "sens", expect_kind="sens")
    sens = SensitivitySet(maps, np.sum(np.abs(maps) ** 2, axis=0) > 0.5)
    return y, sens, mask


def simulate_cli(out, **kwargs):
    args = ["simulate", "--out", out]
    for key, value in kwargs.items():
        args += [f"--{key.replace('_', '-')}", value]
    assert run_cli(*args) == 0
    return Path(out)


def write_config(path, fields):
    path = Path(path)
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    return path


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_report(path):
    """The CSV rows of a report, header first, without its comment lines."""
    lines = Path(path).read_text().splitlines()
    return list(csv.reader(line for line in lines if not line.startswith("#")))


def read_objective_log(path):
    """Split objective.log into (comments, [(t, value)], psnr dict)."""
    comments, series, extras = [], [], {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("# psnr_"):
            key, value = line[2:].split(":")
            extras[key.strip()] = float(value)
        elif line.startswith("#"):
            comments.append(line)
        else:
            t, value = line.split()
            series.append((int(t), float(value)))
    return comments, series, extras


def small_case_dir(tmp_path, name="case", **overrides):
    params = dict(size="32", coils="2", r="2.0", acs="8",
                  sigma="0.01", seed="1")
    params.update(overrides)
    return simulate_cli(tmp_path / name, **params)


def test_version_flag_and_module_entry(capsys):
    assert run_cli("--version") == 0
    assert __version__ in capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "pcsmri", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert __version__ in proc.stdout
    # __main__ exits with the code main returns, here a usage error's 2
    proc = subprocess.run([sys.executable, "-m", "pcsmri", "recon"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "--case" in proc.stderr


def test_the_readme_quick_start_runs_as_written(tmp_path):
    # the sh block under "## Quick start", verbatim, through a `pcsmri` on
    # PATH that runs this interpreter's package
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ")[0]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "pcsmri").write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m pcsmri "$@"\n')
    (bin_dir / "pcsmri").chmod(0o755)
    paths = [str(Path(pcsmri.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the TV inner loop stops on its duality gap, not at its cap; the sweep's
    # lambda = 0.04 point does hit the cap, so its logs are not read
    demo = tmp_path / "demo"
    assert "did not reach tolerance" not in (demo / "objective.log").read_text()
    rows = read_report(demo / "sweep" / "report.csv")[1:]
    assert len(rows) == 3 and all(row[2] != "nan" for row in rows), rows


PARSER_CASES = [
    [], ["-h"], ["bogus"], ["--", "recon"],
    *([name, "-h"] for name in SUBCOMMANDS),
    *([name, "--nope"] for name in SUBCOMMANDS),
    ["recon"], ["sweep", "--case", "c", "--grid"], ["mask", "--r", "x"],
    ["simulate", "--out", "o", "--preset", "brainstem"],
    ["eval", "--case-dirs"], ["-h", "sweep"], ["phantom", "--kind", "recon"]]


@pytest.mark.parametrize("argv", PARSER_CASES)
def test_a_parser_with_only_the_named_subcommands_reads_as_the_full_one(
        argv, capsys, monkeypatch):
    # main reuses one parser per process; after it has read every other
    # case, its help, usage errors and exit codes are a fresh parser's
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for other in PARSER_CASES:
            if other != argv:
                main(other)
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(argparse._ActionsContainer, "add_argument", None)
            reused = (main(argv), capsys.readouterr())  # builds no parser
        with pytest.raises(SystemExit) as exc:
            build_parser.__wrapped__().parse_args(argv)
        assert reused == (exc.value.code, capsys.readouterr())


def test_no_numeric_flag_ends_in_a_traceback(tmp_path, capsys):
    # every int or float flag of the writing commands, each in turn, on a
    # 16x16 phantom and a 32x32, 2-coil case: a refused value exits 2 or 3
    # and writes nothing; sizes stay at 33 or below
    bases = {"phantom": ["--size", "16"],
             "mask": ["--width", "32", "--r", "2", "--acs", "4"],
             "simulate": ["--size", "32", "--coils", "2", "--r", "2", "--acs", "4"]}
    values = ["-1", "0", "1", "2.5", "x", "nan", "inf", "-inf", "1e400",
              "3", "15", "33"]
    subparsers = next(action.choices for action in build_parser()._actions
                      if action.dest == "command")
    runs = 0
    for name, base in bases.items():
        flags = [action.option_strings[0] for action in subparsers[name]._actions
                 if action.type in (int, float)]
        for flag, value in itertools.product(flags, values):
            out = tmp_path / str(runs) / "out"
            code = run_cli(name, *base, flag, value, "--out", out)
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (name, flag, value, err)
            if code:
                assert not out.parent.exists(), (name, flag, value)
            if flag == "--seed" and value == "-1":
                assert code == 2 and "seed" in err, (name, err)
            runs += 1
    assert runs == 204


def test_package_imports_only_numpy_and_the_stdlib():
    # a fresh interpreter: site hooks may preload third-party modules,
    # so only modules that importing pcsmri adds are checked
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pcsmri, pcsmri.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "allowed = set(sys.stdlib_module_names) | {'numpy', 'pcsmri'}\n"
        "print(' '.join(sorted(new - allowed)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_phantom_command_writes_image_and_manifest(tmp_path, capsys):
    out = tmp_path / "ph"
    assert run_cli("phantom", "--size", 24, "--seed", 3, "--out", out) == 0
    img, kind = load_image(out)
    assert kind == "image"
    assert img.shape == (24, 24)
    assert np.array_equal(
        img, as_stored(make_phantom(24, 24, "shepp_logan", rng_seed=3)))
    manifest = Path(str(out) + ".manifest").read_text()
    assert manifest == (
        "pcsmri-manifest v1\n"
        "command: phantom\n"
        f"version: {__version__}\n"
        "kind: shepp_logan\n"
        "height: 24\n"
        "width: 24\n"
        "seed: 3\n"
        "phase_ramp: False\n"
    )
    assert "wrote shepp_logan phantom 24x24" in capsys.readouterr().out


def test_phantom_height_width_override_size(tmp_path):
    out = tmp_path / "ph"
    assert run_cli("phantom", "--height", 20, "--width", 28, "--out", out,
                   "--kind", "smooth_blobs") == 0
    img, _ = load_image(out)
    assert img.shape == (20, 28)


def test_mask_command_round_trip(tmp_path, capsys):
    out = tmp_path / "m"
    assert run_cli("mask", "--width", 32, "--r", 4, "--acs", 8,
                   "--kind", "random", "--seed", 7, "--out", out) == 0
    mask = load_mask(out)
    ref = make_random_mask(32, 32, 4.0, 8, 7)
    assert mask.height == 32 and mask.width == 32
    assert np.array_equal(mask.line_selected, ref.line_selected)
    assert mask.n_selected == round(32 / 4)
    text = capsys.readouterr().out
    assert text.startswith("wrote random mask 32x32")


def test_mask_command_height_flag(tmp_path):
    out = tmp_path / "m"
    assert run_cli("mask", "--width", 16, "--height", 24, "--r", 2,
                   "--acs", 4, "--out", out) == 0
    mask = load_mask(out)
    assert (mask.height, mask.width) == (24, 16)


def test_sense_command_matches_library(tmp_path):
    case = small_case_dir(tmp_path, size="48", coils="3", acs="12")
    out = tmp_path / "maps"
    assert run_cli("sense", "--kspace", case / "kspace", "--acs", 12,
                   "--mask", case / "mask", "--out", out) == 0
    maps, kind = load_array(out, expect_kind="sens")
    y, _ = load_array(case / "kspace")
    mask = load_mask(case / "mask")
    ref = estimate_maps(y, 12, mask=mask)
    assert np.array_equal(maps, ref.maps)

    rough = tmp_path / "maps_rough"
    assert run_cli("sense", "--kspace", case / "kspace", "--acs", 12,
                   "--mask", case / "mask", "--no-apodize",
                   "--out", rough) == 0
    maps_rough, _ = load_array(rough, expect_kind="sens")
    assert not np.array_equal(maps, maps_rough)


def test_sense_takes_the_acs_width_from_its_mask(tmp_path, capsys):
    # the case's mask records a 12-line ACS; the default width is 24
    case = small_case_dir(tmp_path, size="48", coils="3", acs="12")
    from_mask, explicit = tmp_path / "from_mask", tmp_path / "explicit"
    assert run_cli("sense", "--kspace", case / "kspace", "--mask", case / "mask",
                   "--out", from_mask) == 0
    assert run_cli("sense", "--kspace", case / "kspace", "--acs", 12,
                   "--out", explicit) == 0
    for suffix in ("", ".hdr"):
        assert (Path(f"{from_mask}{suffix}").read_bytes()
                == Path(f"{explicit}{suffix}").read_bytes())
    # without a mask the width stays 24, and an explicit --acs wins over the mask
    y, _ = load_array(case / "kspace")
    assert run_cli("sense", "--kspace", case / "kspace", "--out", explicit) == 0
    maps, _ = load_array(explicit, expect_kind="sens")
    assert np.array_equal(maps, estimate_maps(y, 24).maps)
    capsys.readouterr()
    assert run_cli("sense", "--kspace", case / "kspace", "--mask", case / "mask",
                   "--acs", 24, "--out", tmp_path / "wide") == 2
    assert "not fully sampled" in capsys.readouterr().err
    assert not (tmp_path / "wide").exists()


def test_simulate_files_match_library_case(tmp_path):
    case = small_case_dir(tmp_path, seed="9")
    x_gt, sens, y, mask = simulate_case(
        32, 32, n_coils=2, phantom="shepp_logan", mask_kind="random",
        r=2.0, acs_width=8, noise_sigma=0.01, seed=9)
    gt, _ = load_image(case / "gt")
    assert np.array_equal(gt, as_stored(x_gt))
    maps, _ = load_array(case / "sens", expect_kind="sens")
    assert np.array_equal(maps, sens.maps)
    ksp, _ = load_array(case / "kspace", expect_kind="kspace")
    assert np.array_equal(ksp, as_stored(y))
    stored = load_mask(case / "mask")
    assert np.array_equal(stored.line_selected, mask.line_selected)


def test_simulate_manifest_has_params_but_no_paths(tmp_path):
    case = small_case_dir(tmp_path)
    text = (case / "manifest.txt").read_text()
    assert text.startswith("pcsmri-manifest v1\ncommand: simulate\n")
    for needle in ("height: 32", "coils: 2", "preset: none", "r: 2.0",
                   "noise_sigma: 0.01", "seed: 1"):
        assert needle in text
    assert str(tmp_path) not in text


def test_simulate_preset_manifest_records_the_preset_mask(tmp_path):
    case = simulate_cli(tmp_path / "knee", preset="knee", size="160",
                        coils="2", seed="4")
    text = (case / "manifest.txt").read_text()
    for needle in ("preset: knee", "mask_kind: random", "r: 6.0",
                   "acs_width: 24"):
        assert needle in text
    mask = load_mask(case / "mask")
    assert (mask.kind, mask.acceleration, mask.acs_width) == ("random", 6.0, 24)


@pytest.mark.parametrize("flags, expected", [
    *(({"preset": name}, (p.kind, p.r, p.acs_width)) for name, p in PRESETS.items()),
    ({}, ("random", 4.0, 24)),
    ({"mask_kind": "equispaced", "r": "3", "acs": "12"}, ("equispaced", 3.0, 12)),
    ({"r": "2.5"}, ("random", 2.5, 24)),
], ids=[*PRESETS, "defaults", "explicit", "r-only"])
def test_simulate_manifest_mask_fields_equal_the_realized_mask(
        tmp_path, flags, expected):
    case = simulate_cli(tmp_path / "case", height="32", width="192", coils="1",
                        seed="3", **flags)
    lines = (case / "manifest.txt").read_text().splitlines()[1:]
    fields = dict(line.split(": ", 1) for line in lines)
    mask = load_mask(case / "mask")
    assert fields["preset"] == flags.get("preset", "none")
    recorded = (fields["mask_kind"], float(fields["r"]), int(fields["acs_width"]))
    assert recorded == (mask.kind, mask.acceleration, mask.acs_width) == expected


def test_recon_matches_library_solve(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    config = write_config(tmp_path / "cfg", {
        "prior": "tikhonov", "lambda": "0.02", "alpha": "1.0",
        "beta": "1.0", "iterations": "5"})
    assert run_cli("recon", "--case", case, "--config", config) == 0
    assert "wrote reconstruction" in capsys.readouterr().out

    rec, kind = load_image(case / "recon")
    assert kind == "recon"
    y, sens, mask = load_case_like_cli(case)
    ref, state = solve(y, sens, mask, SolverConfig(
        prior=TikhonovPrior(), alpha=1.0, beta=1.0, lam=0.02, iterations=5))
    assert np.array_equal(rec, as_stored(ref))

    comments, series, extras = read_objective_log(case / "objective.log")
    assert comments[0] == "# iteration objective"
    assert [t for t, _ in series] == list(range(6))
    values = [v for _, v in series]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values == [pytest.approx(v) for v in state.objective_history]
    assert set(extras) == {"psnr_zero_filled", "psnr_recon", "psnr_gain"}
    assert extras["psnr_gain"] == pytest.approx(
        extras["psnr_recon"] - extras["psnr_zero_filled"], abs=1e-3)


def test_recon_psnr_lines_reuse_the_solve_start(tmp_path, monkeypatch):
    case = small_case_dir(tmp_path)
    calls = []

    def counted(ksp):
        calls.append(np.shape(ksp))
        return ifft2c(ksp)

    # zero_filled is the one operator that inverts a coil stack
    monkeypatch.setattr("pcsmri.operators.ifft2c", counted)
    assert run_cli("recon", "--case", case) == 0
    # the logged zero-filled PSNR is that of an independent estimate
    y, sens, _ = load_case_like_cli(case)
    assert calls == [y.shape]
    gt, _ = load_image(case / "gt")
    support = sens.support
    p0 = psnr(np.abs(zero_filled(y, sens))[support], np.abs(gt)[support])
    _, _, extras = read_objective_log(case / "objective.log")
    assert extras["psnr_zero_filled"] == float(f"{p0:.4f}")


def test_recon_out_creates_missing_directories(tmp_path):
    case = small_case_dir(tmp_path)
    assert run_cli("recon", "--case", case, "--out", case / "recon") == 0
    out = tmp_path / "new" / "deeper" / "recon"
    assert run_cli("recon", "--case", case, "--out", out) == 0
    assert file_digest(out) == file_digest(case / "recon")
    for name in ("objective.log", "recon_manifest.txt"):
        assert file_digest(out.parent / name) == file_digest(case / name)
    # a case that cannot be loaded still exits 3 and creates nothing
    missing = tmp_path / "other" / "recon"
    assert run_cli("recon", "--case", tmp_path / "nope", "--out", missing) == 3
    assert not missing.parent.exists()


@pytest.mark.parametrize("prior", ["tikhonov", "total_variation"])
@pytest.mark.parametrize("height,width", [("33", "32"), ("32", "33"), ("33", "33")])
def test_recon_on_an_odd_grid_beats_zero_filled(tmp_path, capsys, height, width,
                                                 prior):
    # an odd W runs the sampled-line transforms' general phase path, an odd H
    # the DC step's flat index over unequal halves; measured through the
    # full-grid transform instead, a wrong one loses PSNR
    case = small_case_dir(tmp_path, height=height, width=width)
    gt, _ = load_image(case / "gt")
    _, sens, mask = load_case_like_cli(case)
    y = np.where(mask.line_selected, fft2c(sens.maps * gt), 0)
    save_array(case / "kspace", y, kind="kspace")
    config = write_config(tmp_path / "cfg", {
        "prior": prior, "lambda": "0.01", "iterations": "20"})
    out = tmp_path / "odd" / "recon"
    assert run_cli("recon", "--case", case, "--config", config, "--out", out) == 0
    comments, _, extras = read_objective_log(out.parent / "objective.log")
    assert not [c for c in comments if "did not reach tolerance" in c]
    assert extras["psnr_gain"] > 1.0
    # scored on the stored maps and on maps estimated from the mask's ACS
    assert run_cli("sense", "--kspace", case / "kspace", "--mask", case / "mask",
                   "--out", tmp_path / "maps") == 0
    for sens in (case / "sens", tmp_path / "maps"):
        assert run_cli("eval", "--recon", out, "--gt", case / "gt",
                       "--sens", sens) == 0
    capsys.readouterr()


def test_every_command_makes_the_directories_of_its_outputs(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    new = tmp_path / "new" / "nested"
    assert run_cli("phantom", "--size", "32", "--out", new / "ph") == 0
    assert run_cli("mask", "--width", "32", "--r", "2", "--acs", "8",
                   "--out", new / "m") == 0
    assert run_cli("sense", "--kspace", case / "kspace", "--mask", case / "mask",
                   "--out", new / "s") == 0
    assert run_cli("eval", "--recon", case / "gt", "--gt", case / "gt",
                   "--report", new / "deeper" / "r.csv") == 0
    capsys.readouterr()
    assert sorted(p.name for p in new.iterdir()) == [
        "deeper", "m", "m.hdr", "ph", "ph.hdr", "ph.manifest", "s", "s.hdr"]
    assert load_mask(new / "m").acs_width == 8
    assert load_array(new / "s", expect_kind="sens")[0].shape == (2, 32, 32)
    assert (new / "deeper" / "r.csv").read_text().startswith("case,method,")


# each command's argv, {case} and {grid} standing for a small case and grid
NAMELESS_TARGETS = {
    "phantom-empty": ["phantom", "--size", "16", "--out", ""],
    "phantom-dot": ["phantom", "--size", "16", "--out", "."],
    "phantom-root": ["phantom", "--size", "16", "--out", "/"],
    "mask-empty": ["mask", "--width", "16", "--r", "2", "--acs", "4", "--out", ""],
    "sense-empty": ["sense", "--kspace", "{case}/kspace", "--out", ""],
    "recon-dot": ["recon", "--case", "{case}", "--out", "."],
    "eval-dot": ["eval", "--recon", "{case}/gt", "--gt", "{case}/gt",
                 "--report", "."],
    "sweep-dot": ["sweep", "--case", "{case}", "--grid", "{grid}", "--report", "."],
}


@pytest.mark.parametrize("argv", NAMELESS_TARGETS.values(), ids=NAMELESS_TARGETS)
def test_a_write_target_with_no_file_name_exits_3_naming_it(tmp_path, capsys,
                                                            monkeypatch, argv):
    case = small_case_dir(tmp_path)
    grid = write_config(tmp_path / "grid", {"lambda": "0.01", "iterations": "2"})
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    capsys.readouterr()
    argv = [arg.format(case=case, grid=grid) for arg in argv]
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err == (
        f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
        f"{str(Path(argv[-1]))!r}\n")
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("argv,files", [
    (["phantom", "--size", "16"], ["d", "d.hdr", "d.manifest"]),
    (["mask", "--width", "16", "--r", "2", "--acs", "4"], ["d", "d.hdr"]),
    (["sense", "--kspace", "{case}/kspace"], ["d", "d.hdr"]),
], ids=["phantom", "mask", "sense"])
def test_a_trailing_separator_names_the_file_as_recon_does(tmp_path, capsys,
                                                           monkeypatch, argv, files):
    case = small_case_dir(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert run_cli(*[a.format(case=case) for a in argv], "--out", "d/") == 0
    assert sorted(p.name for p in out.iterdir()) == files
    assert all((out / name).is_file() for name in files)
    assert capsys.readouterr().out.endswith(" to d/\n")


def test_a_name_that_is_not_utf8_is_printed_escaped_on_a_strict_stdout(tmp_path):
    # argv bytes that are not UTF-8 reach the commands as lone surrogates; a
    # strict stdout cannot encode them, so the commands print their escapes
    script = "\n".join([
        "import os, sys",
        "from pcsmri.cli import main",
        "for argv in sys.argv[1].encode().split(b'|'):",
        "    code = main([os.fsdecode(a.replace(b'@', b'\\xff'))",
        "                 for a in argv.split(b' ')])",
        "    if code:",
        "        sys.exit(code)"])
    runs = "|".join([
        "phantom --size 16 --out p@", "mask --width 16 --r 2 --acs 4 --out m@",
        "simulate --size 32 --coils 2 --acs 4 --out c@", "sense --kspace c@/kspace "
        "--out s@", "recon --case c@", "eval --case-dirs c@ --report r@",
        "sweep --case c@ --grid g"])
    (tmp_path / "g").write_text("lambda = 0.01, 0.02\niterations = 2\n")
    paths = [str(Path(pcsmri.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", script, runs], cwd=tmp_path,
                          env=env, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
    out = proc.stdout.decode().splitlines()
    assert out[0] == r"wrote shepp_logan phantom 16x16 to p\xff"
    assert out[1].endswith(r" to m\xff") and out[3].endswith(r" to s\xff")
    assert out[2].startswith(r"simulated case in c\xff: ")
    assert out[4] == r"wrote reconstruction to c\xff/recon"
    assert [row.split()[0] for row in out[5:]] == [
        "case", r"c\xff", "case", r"c\xff", r"c\xff", "#"]
    # the files carry the name's own bytes
    case = tmp_path / os.fsdecode(b"c\xff")
    assert b"\ncase: c\xff\n" in (case / "recon_manifest.txt").read_bytes()
    assert b"\nc\xff,hqs," in (tmp_path / os.fsdecode(b"r\xff")).read_bytes()
    sweep_row = b"\nc\xff,iterations=2;lambda=0.01,"
    assert sweep_row in (case / "sweep" / "report.csv").read_bytes()


def test_a_recon_that_cannot_be_stored_exits_3_leaving_no_directory(tmp_path,
                                                                   capsys):
    case = small_case_dir(tmp_path)
    config = write_config(tmp_path / "cfg", {
        "prior": "external", "external_cmd": make_stub(tmp_path, "huge", HUGE_STUB),
        "lambda": "0", "iterations": "1"})
    out = tmp_path / "big" / "recon"
    assert run_cli("recon", "--case", case, "--config", config, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and f"cannot store {out} as <c8" in err
    assert not out.parent.exists()


def test_config_comments_and_blank_lines_are_ignored(tmp_path):
    case = small_case_dir(tmp_path)
    plain = write_config(tmp_path / "plain.cfg", {"iterations": "2"})
    commented = tmp_path / "commented.cfg"
    commented.write_text("# two rounds\n\n   \niterations = 2  # inline\n")
    for name, config in (("plain", plain), ("commented", commented)):
        assert run_cli("recon", "--case", case, "--config", config,
                       "--out", tmp_path / name / "recon") == 0
    assert (file_digest(tmp_path / "plain" / "recon")
            == file_digest(tmp_path / "commented" / "recon"))
    assert "iterations: 2\n" in (
        tmp_path / "commented" / "recon_manifest.txt").read_text()


def test_recon_rejects_kspace_on_unsampled_columns(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    y, _ = load_array(case / "kspace")
    mask = load_mask(case / "mask")
    col = np.flatnonzero(~mask.line_selected)[0]
    y[:, :, col] = 1.0
    save_array(case / "kspace", y, kind="kspace")
    assert run_cli("recon", "--case", case) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"unsampled column {col} " in err
    assert not (case / "recon").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_recon_on_non_finite_kspace_exits_2_naming_the_bin(tmp_path, capsys, value):
    case = small_case_dir(tmp_path)
    y, _ = load_array(case / "kspace")
    mask = load_mask(case / "mask")
    # a sampled column outside the ACS block: the stored maps are used as is
    col = np.flatnonzero(mask.line_selected)[0]
    y[1, 5, col] = value
    save_array(case / "kspace", y, kind="kspace")
    assert run_cli("recon", "--case", case) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"(coil 1, row 5, column {col})" in err
    assert not (case / "recon").exists() and not (case / "objective.log").exists()


@pytest.mark.parametrize("command", ["recon", "eval", "sweep"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_ground_truth_exits_3_naming_it(tmp_path, capsys, value,
                                                     command):
    case = small_case_dir(tmp_path)
    gt, _ = load_image(case / "gt")
    gt[3, 4] = value
    save_image(case / "gt", gt, kind="gt")
    argv = {
        "recon": ["--case", case],
        "eval": ["--recon", case / "gt", "--gt", case / "gt",
                 "--report", tmp_path / "report.csv"],
        "sweep": ["--case", case, "--grid", write_config(tmp_path / "grid", {
            "prior": "tikhonov", "lambda": "0.01,0.02", "iterations": "2"})],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli(command, *argv) == 3
    out, err = capsys.readouterr()
    assert err.startswith("i/o error:") and str(case / "gt") in err
    assert "non-finite ground truth" in err and out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("name,command", [
    ("recon", "eval"), ("sens", "recon"), ("sens", "eval"), ("sens", "sweep")])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_recon_or_sens_exits_3_naming_it(tmp_path, capsys, value,
                                                      name, command):
    case = small_case_dir(tmp_path)
    save_image(tmp_path / "recon", np.ones((32, 32)), kind="recon")
    path = {"recon": tmp_path / "recon", "sens": case / "sens"}[name]
    arr, kind = load_array(path)
    arr[:, 16, 16] = value
    save_array(path, arr, kind=kind, dtype="<c16")
    argv = {
        "recon": ["--case", case],
        "eval": ["--recon", tmp_path / "recon", "--gt", case / "gt",
                 "--sens", case / "sens", "--report", tmp_path / "report.csv"],
        "sweep": ["--case", case, "--grid", write_config(tmp_path / "grid", {
            "prior": "tikhonov", "lambda": "0.01,0.02", "iterations": "2"})],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli(command, *argv) == 3
    out, err = capsys.readouterr()
    assert err.startswith("i/o error:") and str(path) in err
    assert "non-finite" in err and out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_recon_with_an_overflowing_objective_exits_4(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    config = write_config(tmp_path / "cfg", {
        "prior": "total_variation", "lambda": "1e307"})
    assert run_cli("recon", "--case", case, "--config", config) == 4
    err = capsys.readouterr().err
    assert err.startswith("divergence:")
    assert "objective" in err and "iteration 0" in err
    assert not (case / "recon").exists() and not (case / "objective.log").exists()
    # the directories of --out are made only once the solve has succeeded
    assert run_cli("recon", "--case", case, "--config", config,
                   "--out", tmp_path / "newdir" / "sub" / "recon") == 4
    assert not (tmp_path / "newdir").exists()


@pytest.mark.parametrize("target,step", [
    ("dc_update", "data-consistency step"), ("x_update", "auxiliary update")])
def test_a_block_update_that_goes_non_finite_is_named(tmp_path, capsys,
                                                     monkeypatch, target, step):
    case = small_case_dir(tmp_path)
    real, calls = getattr(solver, target), []

    def nan_at_iteration_2(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(target)
        if len(calls) == 2:
            out[..., 3, 4] = np.nan
        return out

    monkeypatch.setattr(solver, target, nan_at_iteration_2)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli("recon", "--case", case,
                   "--out", tmp_path / "newdir" / "recon") == 4
    out, err = capsys.readouterr()
    assert err == f"divergence: {step} produced non-finite values at iteration 2\n"
    assert out == "" and sorted(tmp_path.rglob("*")) == before


def test_recon_manifest_records_config_without_paths(tmp_path):
    case = small_case_dir(tmp_path)
    config = write_config(tmp_path / "cfg", {
        "prior": "tikhonov", "iterations": "2", "alpha": "0.5"})
    assert run_cli("recon", "--case", case, "--config", config) == 0
    text = (case / "recon_manifest.txt").read_text()
    lines = text.splitlines()
    assert lines[0] == "pcsmri-manifest v1"
    assert lines[1] == "command: recon"
    assert f"case: {case.name}" in lines
    assert "estimate_sens: False" in lines
    # config fields land sorted by key
    keys = [l.split(":")[0] for l in lines if l.split(":")[0] in
            ("alpha", "iterations", "prior")]
    assert keys == ["alpha", "iterations", "prior"]
    assert str(tmp_path) not in text


def test_recon_without_config_uses_defaults(tmp_path):
    case = small_case_dir(tmp_path)
    assert run_cli("recon", "--case", case) == 0
    rec, _ = load_image(case / "recon")
    y, sens, mask = load_case_like_cli(case)
    ref, _ = solve(y, sens, mask, SolverConfig(
        prior=TikhonovPrior(), alpha=1.0, beta=1.0, lam=0.01, iterations=3))
    assert np.array_equal(rec, as_stored(ref))


def test_an_empty_config_builds_the_solver_config_defaults():
    # the CLI adds only its per-prior lambda to what SolverConfig defaults to
    got = _build_solver_config({})
    assert type(got.prior) is TikhonovPrior
    want = SolverConfig(prior=got.prior, lam=DEFAULT_LAMBDA["tikhonov"])
    assert got == want


def test_recon_estimates_maps_when_asked_or_missing(tmp_path):
    case = small_case_dir(tmp_path, size="48", coils="3", acs="12")
    out_true = tmp_path / "a" / "recon"
    out_est = tmp_path / "b" / "recon"
    out_auto = tmp_path / "c" / "recon"
    for out in (out_true, out_est, out_auto):
        out.parent.mkdir()
    assert run_cli("recon", "--case", case, "--out", out_true) == 0
    assert run_cli("recon", "--case", case, "--out", out_est,
                   "--estimate-sens") == 0
    (case / "sens").unlink()
    (case / "sens.hdr").unlink()
    assert run_cli("recon", "--case", case, "--out", out_auto) == 0
    rec_true, _ = load_image(out_true)
    rec_est, _ = load_image(out_est)
    rec_auto, _ = load_image(out_auto)
    assert np.array_equal(rec_est, rec_auto)
    assert not np.array_equal(rec_true, rec_est)


def test_recon_dump_iterates(tmp_path):
    case = small_case_dir(tmp_path)
    config = write_config(tmp_path / "cfg", {
        "iterations": "4", "record_history": "true"})
    assert run_cli("recon", "--case", case, "--config", config) == 0
    it_dir = case / "iterates"
    files = sorted(p.name for p in it_dir.glob("x_*") if not p.name.endswith(".hdr"))
    assert files == [f"x_{t:03d}" for t in range(5)]
    first, kind = load_image(it_dir / "x_000")
    assert kind == "iterate"
    y, sens, _ = load_case_like_cli(case)
    assert np.array_equal(first, as_stored(zero_filled(y, sens)))
    last, _ = load_image(it_dir / "x_004")
    rec, _ = load_image(case / "recon")
    assert np.array_equal(last, rec)
    # record_history is the one switch; recon has no --dump-iterates flag
    assert run_cli("recon", "--case", case, "--dump-iterates") == 2


def test_recon_record_history_config_key(tmp_path):
    case = small_case_dir(tmp_path)
    config = write_config(tmp_path / "cfg", {
        "iterations": "2", "record_history": "true"})
    assert run_cli("recon", "--case", case, "--config", config) == 0
    assert (case / "iterates" / "x_002").exists()


@pytest.mark.parametrize("lam", ["2.2e-313", "1.7e-187"])
def test_recon_with_a_tiny_tv_weight_matches_lambda_zero(tmp_path, lam):
    case = small_case_dir(tmp_path)
    recons = []
    for name, weight in (("tiny", lam), ("zero", "0")):
        config = write_config(tmp_path / f"{name}.cfg", {
            "prior": "total_variation", "lambda": weight})
        out = tmp_path / name / "recon"
        assert run_cli("recon", "--case", case, "--config", config,
                       "--out", out) == 0
        assert "did not reach tolerance" not in (
            out.parent / "objective.log").read_text()
        recons.append(out.read_bytes())
    assert recons[0] == recons[1]


def test_recon_v_map_file_equals_scalar_v(tmp_path):
    case = small_case_dir(tmp_path)
    v_map = tmp_path / "vmap"
    save_image(v_map, np.full((32, 32), 0.5, dtype=np.complex128), kind="image")
    out_a = tmp_path / "a" / "recon"
    out_b = tmp_path / "b" / "recon"
    out_a.parent.mkdir()
    out_b.parent.mkdir()
    cfg_a = write_config(tmp_path / "cfg_a", {"iterations": "3", "v": "0.5"})
    cfg_b = write_config(tmp_path / "cfg_b", {
        "iterations": "3", "v_map": str(v_map)})
    assert run_cli("recon", "--case", case, "--config", cfg_a,
                   "--out", out_a) == 0
    assert run_cli("recon", "--case", case, "--config", cfg_b,
                   "--out", out_b) == 0
    rec_a, _ = load_image(out_a)
    rec_b, _ = load_image(out_b)
    assert np.array_equal(rec_a, rec_b)


def test_unused_prior_keys_with_valid_values_change_nothing(tmp_path):
    case = small_case_dir(tmp_path)
    plain = {"prior": "soft_threshold_haar", "lambda": "0.01", "iterations": "3"}
    extra = dict(plain, tv_iterations="7", tv_tol="1e-4",
                 external_cmd="denoise --flag", external_timeout="5")
    runs = []
    for name, fields in (("plain", plain), ("extra", extra)):
        out = tmp_path / name / "recon"
        out.parent.mkdir()
        assert run_cli("recon", "--case", case, "--config",
                       write_config(tmp_path / f"{name}.cfg", fields),
                       "--out", out) == 0
        runs.append(out)
    for name in ("recon", "objective.log"):
        assert file_digest(runs[0].parent / name) == file_digest(
            runs[1].parent / name), name


def test_simulate_and_recon_reruns_are_byte_identical(tmp_path):
    case_a = small_case_dir(tmp_path, name="case_a", seed="5")
    case_b = small_case_dir(tmp_path, name="case_b", seed="5")
    artifacts = ("gt", "gt.hdr", "sens", "sens.hdr", "mask", "mask.hdr",
                 "kspace", "kspace.hdr", "manifest.txt")
    for name in artifacts:
        assert file_digest(case_a / name) == file_digest(case_b / name), name

    config = write_config(tmp_path / "cfg", {
        "prior": "soft_threshold_haar", "lambda": "0.01", "iterations": "4"})
    run_a = case_a / "run1"
    run_b = case_a / "run2"
    run_a.mkdir()
    run_b.mkdir()
    assert run_cli("recon", "--case", case_a, "--config", config,
                   "--out", run_a / "recon") == 0
    assert run_cli("recon", "--case", case_a, "--config", config,
                   "--out", run_b / "recon") == 0
    for name in ("recon", "recon.hdr", "objective.log", "recon_manifest.txt"):
        assert file_digest(run_a / name) == file_digest(run_b / name), name


def test_config_and_usage_errors_exit_2(tmp_path, capsys):
    case = small_case_dir(tmp_path)

    def expect_2(config_text):
        config = tmp_path / "bad_cfg"
        config.write_text(config_text)
        rc = main(["recon", "--case", str(case), "--config", str(config)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        return err

    assert "unknown config keys: frobnicate" in expect_2("frobnicate = 1\n")
    assert "alpha must be a number or comma-separated numbers" in expect_2(
        "alpha = abc\n")
    assert "unknown prior kind" in expect_2("prior = curvelet\n")
    assert "duplicate key" in expect_2("alpha = 1\nalpha = 2\n")
    assert "expected 'key = value'" in expect_2("alpha\n")
    assert "v must be a single number" in expect_2("v = 0.5,0.6\n")
    assert "must be a boolean" in expect_2("record_history = maybe\n")
    assert "iterations must be an integer >= 1" in expect_2("iterations = 3.5\n")
    assert "tv iterations" in expect_2(
        "prior = total_variation\ntv_iterations = 7.9\n")
    for count in ("nan", "inf", "3,4"):
        assert "iterations must be an integer >= 1" in expect_2(
            f"iterations = {count}\n")
    assert "tv iterations" in expect_2(
        "prior = total_variation\ntv_iterations = nan\n")
    assert "tv_tol must be a single number" in expect_2(
        "prior = total_variation\ntv_tol = abc\n")
    assert "external_timeout must be a single number" in expect_2(
        "prior = external\nexternal_cmd = denoise\nexternal_timeout = x\n")
    assert "external prior requires external_cmd" in expect_2(
        "prior = external\n")
    # keys the chosen prior ignores are still parsed and checked
    assert "tv_tol must be a single number" in expect_2(
        "prior = tikhonov\ntv_tol = abc\n")
    assert "external_timeout must be a single number" in expect_2(
        "prior = tikhonov\nexternal_timeout = zz\n")
    assert "external_timeout must be > 0" in expect_2("external_timeout = 0\n")
    assert "tv iterations" in expect_2("prior = tikhonov\ntv_iterations = 0\n")
    assert "cannot split external command" in expect_2(
        "prior = tikhonov\nexternal_cmd = 'unclosed\n")
    v_map = tmp_path / "vmap"
    save_image(v_map, np.full((32, 32), 0.2), kind="image")
    assert "v and v_map are exclusive" in expect_2(
        f"v = 0.9\nv_map = {v_map}\n")
    nan_map = np.full((32, 32), 0.5)
    nan_map[:, 3] = np.nan  # also on a column the mask may leave unsampled
    save_image(tmp_path / "nanmap", nan_map, kind="image")
    assert "dc_blend_v must lie in [0, 1]" in expect_2(
        f"v_map = {tmp_path / 'nanmap'}\n")
    # a blend with an imaginary part is rejected, not cut to its real part
    save_image(tmp_path / "cmap", np.full((32, 32), 0.5 + 3j), kind="image")
    assert "dc_blend_v must be real" in expect_2(f"v_map = {tmp_path / 'cmap'}\n")
    save_image(tmp_path / "smallmap", np.full((16, 16), 0.5), kind="image")
    assert "v_map shape (16, 16) does not match maps (32, 32)" in expect_2(
        f"v_map = {tmp_path / 'smallmap'}\n")
    assert not (case / "recon").exists()

    rc = main(["eval", "--recon", str(case / "recon")])
    err = capsys.readouterr().err
    assert rc == 2 and "eval needs" in err

    # explicit sizes and job counts are checked, never replaced by defaults
    assert main(["phantom", "--height", "0", "--size", "32",
                 "--out", str(tmp_path / "ph")]) == 2
    assert not (tmp_path / "ph").exists()
    assert main(["simulate", "--width", "0", "--out", str(tmp_path / "sim")]) == 2
    assert main(["mask", "--width", "32", "--height", "0", "--r", "2",
                 "--acs", "8", "--out", str(tmp_path / "m")]) == 2
    # an acceleration below 1 or not finite, or one that leaves no sampled line
    for r in ("0.5", "nan", "inf"):
        for kind in ("random", "equispaced"):
            assert main(["mask", "--width", "32", "--r", r, "--acs", "0",
                         "--kind", kind, "--out", str(tmp_path / "m")]) == 2
            assert main(["simulate", "--size", "32", "--r", r, "--acs", "0",
                         "--mask-kind", kind, "--out", str(tmp_path / "sim")]) == 2
    assert main(["simulate", "--size", "32", "--r", "100", "--acs", "0",
                 "--out", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert "acceleration must be >= 1 and finite" in err
    assert "round(32/100.0) = 0 selects no line" in err
    # a preset fixes the mask, so the mask flags cannot ride along
    for flag, value in (("--mask-kind", "equispaced"), ("--r", "8"), ("--acs", "10")):
        assert main(["simulate", "--size", "256", "--preset", "knee", flag, value,
                     "--out", str(tmp_path / "preset")]) == 2
        assert "--preset sets the mask" in capsys.readouterr().err
    assert not (tmp_path / "preset").exists()
    assert not (tmp_path / "m").exists()
    assert not (tmp_path / "sim").exists()
    grid = write_config(tmp_path / "grid", GRID_2X2)
    for jobs in ("0", "-4"):
        assert main(["sweep", "--case", str(case), "--grid", str(grid),
                     "--jobs", jobs]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not (case / "sweep").exists()

    # argparse failures map to the same code
    assert main([]) == 2
    assert main(["recon"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_interrupted_objective_log_write_keeps_previous_log(tmp_path,
                                                           monkeypatch, capsys):
    case = small_case_dir(tmp_path)
    assert run_cli("recon", "--case", case) == 0
    before = (case / "objective.log").read_bytes()
    config = write_config(tmp_path / "cfg", {"iterations": "5"})
    real_write = Path.write_bytes

    def write_half_then_fail(self, data):
        if self.name.startswith(".objective.log"):
            real_write(self, data[: len(data) // 2])
            raise OSError(28, "No space left on device", str(self))
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    assert run_cli("recon", "--case", case, "--config", config) == 3
    monkeypatch.undo()
    err = capsys.readouterr().err
    # the error names the requested file, not its temporary sibling
    assert f"'{case / 'objective.log'}'" in err and ".tmp" not in err
    assert (case / "objective.log").read_bytes() == before
    assert not list(case.glob(".*.tmp"))

    # a missing directory is made, so a regular file in its place fails
    (tmp_path / "plain").write_text("")
    assert run_cli("phantom", "--out", tmp_path / "plain" / "ph") == 3
    err = capsys.readouterr().err
    assert f"'{tmp_path / 'plain' / 'ph'}'" in err and ".tmp" not in err


# the commands that read each input file ("batch" is eval --case-dirs),
# and the words naming it
_READERS = {
    "kspace": ("sense", "recon", "sweep"),
    "sens": ("recon", "sweep", "eval", "batch"),
    "mask": ("sense", "recon", "sweep"),
    "gt": ("recon", "sweep", "eval", "batch"),
    "recon": ("eval", "batch"),
    "v_map": ("recon", "sweep"),
}
_NAMED_AS = {
    "kspace": ("kspace", "k-space"),
    "sens": ("sens", "maps"),
    "mask": ("mask",),
    "gt": ("gt", "ground truth"),
    "recon": ("recon", "reconstruction"),
    "v_map": ("v_map",),
}
_CORRUPTIONS = [(name, command, how) for name, commands in _READERS.items()
                for command in commands
                for how in ("truncated", "missing-payload", "wrong-shape")
                + (("wrong-kind",) if name in ("kspace", "sens") else ())
                # an optional file with either half present counts as there
                + (("missing-sidecar",) if name in ("sens", "gt") else ())]


@pytest.mark.parametrize("name,command,how", _CORRUPTIONS,
                         ids=["-".join(cell) for cell in _CORRUPTIONS])
def test_a_corrupt_input_exits_2_or_3_naming_it(tmp_path, capsys, name,
                                                command, how):
    case = small_case_dir(tmp_path)
    other = small_case_dir(tmp_path / "other", size="24")  # a valid 24² case
    save_image(case / "recon", np.ones((32, 32)), kind="recon")
    save_image(tmp_path / "v_map", np.full((32, 32), 0.5), kind="image")
    path = tmp_path / "v_map" if name == "v_map" else case / name
    if how == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    elif how == "missing-payload":
        path.unlink()
    elif how == "missing-sidecar":
        Path(f"{path}.hdr").unlink()
    elif how == "wrong-shape" and name in ("recon", "v_map"):
        save_image(path, np.full((24, 24), 0.5), kind="image")
    elif how == "wrong-shape":
        for suffix in ("", ".hdr"):
            Path(f"{path}{suffix}").write_bytes(
                Path(f"{other / name}{suffix}").read_bytes())
    else:
        arr, _ = load_array(path)
        save_array(path, arr, kind="image")
    v_map = {"v_map": tmp_path / "v_map"} if name == "v_map" else {}
    config = write_config(tmp_path / "cfg", {"iterations": "2"} | v_map)
    argv = {
        "sense": ["sense", "--kspace", case / "kspace", "--mask", case / "mask",
                  "--out", tmp_path / "out"],
        "recon": ["recon", "--case", case, "--config", config],
        "sweep": ["sweep", "--case", case, "--grid", write_config(
            tmp_path / "grid", {"prior": "tikhonov", "lambda": "0.01,0.02",
                                "iterations": "2"} | v_map)],
        "eval": ["eval", "--recon", case / "recon", "--gt", case / "gt",
                 "--sens", case / "sens", "--report", tmp_path / "report.csv"],
        "batch": ["eval", "--case-dirs", case, "--report", tmp_path / "report.csv"],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    # a file of another shape disagrees with the case (2); any other is broken (3)
    assert run_cli(*argv) == (2 if how == "wrong-shape" else 3)
    out, err = capsys.readouterr()
    # the temporary directory's name repeats the test parameters
    err = err.replace(str(tmp_path), "")
    assert out == "" and any(word in err for word in _NAMED_AS[name]), err
    assert sorted(tmp_path.rglob("*")) == before


# the documented exit code and stderr label of every error that main handles
EXIT_CONTRACT = {
    errors.PcsmriError: (2, "error"),
    errors.ConfigError: (2, "error"),
    errors.ShapeError: (2, "error"),
    errors.ProtocolError: (2, "error"),
    errors.EstimationError: (2, "error"),
    errors.ContainerError: (3, "i/o error"),
    errors.DivergenceError: (4, "divergence"),
    errors.PriorExecutionError: (5, "external prior failed"),
    OSError: (3, "i/o error"),
}
PACKAGE_ERRORS = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.PcsmriError)]


@pytest.mark.parametrize("cls", [*PACKAGE_ERRORS, OSError],
                         ids=lambda cls: cls.__name__)
def test_main_prints_each_errors_label_and_returns_its_code(tmp_path, capsys,
                                                             monkeypatch, cls):
    def fail(path):
        raise cls("boom")

    monkeypatch.setattr(cli, "_read_kv_file", fail)
    code, label = EXIT_CONTRACT[cls]
    if cls is not OSError:
        assert (cls.exit_code, cls.label) == (code, label)
    capsys.readouterr()
    assert run_cli("recon", "--case", tmp_path, "--config", tmp_path / "cfg") == code
    assert capsys.readouterr() == ("", f"{label}: boom\n")


@pytest.fixture(scope="module")
def text_inputs(tmp_path_factory):
    """A 32x32, 2-coil case with a valid config and sweep grid beside it."""
    root = tmp_path_factory.mktemp("text_inputs")
    small_case_dir(root)
    write_config(root / "cfg", {"prior": "tikhonov", "iterations": "2"})
    write_config(root / "grid", {"lambda": "0.01,0.02", "iterations": "2"})
    return root


# each text input, and the error that refuses it when it is not UTF-8
_TEXT_INPUTS = {"cfg": errors.ConfigError, "grid": errors.ConfigError,
                **{f"case/{name}.hdr": errors.ContainerError
                   for name in ("kspace", "mask", "sens", "gt")}}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_TEXT_INPUTS)), data=st.data(),
       byte=st.integers(0x80, 0xFF))
def test_an_undecodable_text_input_exits_2_or_3_writing_nothing(text_inputs, name,
                                                                data, byte):
    # every file the package writes is ASCII, so one byte >= 0x80 in its
    # place cannot be UTF-8
    with tempfile.TemporaryDirectory() as work:
        root = Path(work)
        shutil.copytree(text_inputs, root, dirs_exist_ok=True)
        path = root / name
        raw = bytearray(path.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] = byte
        path.write_bytes(bytes(raw))
        before = sorted(root.rglob("*"))
        command = (["sweep", "--grid", root / "grid"] if name == "grid"
                   else ["recon", "--config", root / "cfg"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(*command, "--case", root / "case")
        expected, label = EXIT_CONTRACT[_TEXT_INPUTS[name]]
        assert code == expected
        assert out.getvalue() == ""
        assert err.getvalue().startswith(f"{label}: {path} is not UTF-8 text")
        assert err.getvalue().count("\n") == 1
        assert sorted(root.rglob("*")) == before


def test_missing_inputs_exit_3(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["recon", "--case", str(empty)]) == 3
    assert capsys.readouterr().err.startswith("i/o error:")
    assert main(["sense", "--kspace", str(tmp_path / "nope")]) == 3
    capsys.readouterr()
    case = small_case_dir(tmp_path)
    rc = main(["eval", "--recon", str(tmp_path / "missing"),
               "--gt", str(case / "gt")])
    assert rc == 3
    # an explicit --sens that does not exist is an error, not "no support"
    save_image(case / "recon", np.ones((32, 32)), kind="recon")
    rc = main(["eval", "--recon", str(case / "recon"), "--gt", str(case / "gt"),
               "--sens", str(tmp_path / "no_sens")])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("field,value", [
    ("acs_width", "999"), ("height", "0"), ("acs_width", "32"), ("r", "nan"),
], ids=["acs-out-of-range", "zero-height", "acs-band-unselected", "nan-r"])
def test_recon_on_a_malformed_mask_exits_3_and_names_it(tmp_path, capsys,
                                                         field, value):
    case = small_case_dir(tmp_path)  # 32 lines, R=2: 16 sampled, 8 of them ACS
    header = case / "mask.hdr"
    header.write_text(re.sub(rf"^{field}: .*$", f"{field}: {value}",
                             header.read_text(), flags=re.M))
    capsys.readouterr()
    assert run_cli("recon", "--case", case) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(case / "mask") in err
    assert not (case / "recon").exists()


@pytest.mark.parametrize("value", [np.nan, 0.1], ids=["nan", "stray"])
def test_a_sens_file_with_an_invalid_pixel_exits_3(tmp_path, capsys, value):
    # nothing cleans a stored map set: the pixel is not dropped from the support
    case = small_case_dir(tmp_path)
    maps, _ = load_array(case / "sens", expect_kind="sens")
    maps[:, 16, 16] = value
    save_array(case / "sens", maps, kind="sens", dtype="<c16")
    save_image(tmp_path / "rec", np.ones((32, 32)), kind="recon")
    capsys.readouterr()
    assert run_cli("recon", "--case", case) == 3
    assert run_cli("eval", "--recon", tmp_path / "rec", "--gt", case / "gt",
                   "--sens", case / "sens") == 3
    for err in capsys.readouterr().err.splitlines():
        assert err.startswith("i/o error:") and str(case / "sens") in err
    assert not (case / "recon").exists()


def test_sense_with_nan_in_the_acs_block_exits_2(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    y, _ = load_array(case / "kspace", expect_kind="kspace")
    y[0, 16, 16] = np.nan
    save_array(case / "kspace", y, kind="kspace")
    out = tmp_path / "maps"
    capsys.readouterr()
    assert run_cli("sense", "--kspace", case / "kspace", "--mask", case / "mask",
                   "--out", out) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() and not Path(f"{out}.hdr").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_acs_data_exits_2_naming_the_calibration_region(tmp_path, capsys,
                                                                    value):
    case = small_case_dir(tmp_path)
    y, _ = load_array(case / "kspace", expect_kind="kspace")
    y[1, 16, 16] = value
    save_array(case / "kspace", y, kind="kspace")
    out = tmp_path / "maps"
    capsys.readouterr()
    assert run_cli("sense", "--kspace", case / "kspace", "--mask", case / "mask",
                   "--out", out) == 2
    assert run_cli("recon", "--case", case, "--estimate-sens") == 2
    for err in capsys.readouterr().err.splitlines():
        assert err.startswith("error: calibration region") and "non-finite" in err
    assert not out.exists() and not Path(f"{out}.hdr").exists()
    assert not (case / "recon").exists() and not (case / "objective.log").exists()


def test_external_stub_nan_output_exits_4(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    cmd = make_stub(tmp_path, "nan_stub", NAN_STUB)
    config = write_config(tmp_path / "cfg", {
        "prior": "external", "external_cmd": cmd, "iterations": "2"})
    assert main(["recon", "--case", str(case), "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("divergence:")
    assert "filtering step" in err and "iteration 1" in err


def test_external_stub_failure_exits_5(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    cmd = make_stub(tmp_path, "fail_stub", FAIL_STUB)
    config = write_config(tmp_path / "cfg", {
        "prior": "external", "external_cmd": cmd, "iterations": "2"})
    assert main(["recon", "--case", str(case), "--config", str(config)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("external prior failed:")
    assert "denoiser exploded" in err


def test_external_stub_timeout_exits_5(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    cmd = make_stub(tmp_path, "slow_stub", "import time\ntime.sleep(5)\n")
    config = write_config(tmp_path / "cfg", {
        "prior": "external", "external_cmd": cmd, "iterations": "2",
        "external_timeout": "0.3"})
    assert main(["recon", "--case", str(case), "--config", str(config)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("external prior failed:")
    assert "timed out after 0.3 s" in err


def test_external_identity_cli_matches_tikhonov_lambda_zero(tmp_path):
    case = small_case_dir(tmp_path)
    cmd = make_stub(tmp_path, "identity_stub", IDENTITY_STUB)
    out_ext = tmp_path / "ext" / "recon"
    out_tik = tmp_path / "tik" / "recon"
    out_ext.parent.mkdir()
    out_tik.parent.mkdir()
    cfg_ext = write_config(tmp_path / "cfg_ext", {
        "prior": "external", "external_cmd": cmd,
        "external_dir": str(tmp_path / "exchange"), "iterations": "4"})
    cfg_tik = write_config(tmp_path / "cfg_tik", {
        "prior": "tikhonov", "lambda": "0.0", "iterations": "4"})
    assert run_cli("recon", "--case", case, "--config", cfg_ext,
                   "--out", out_ext) == 0
    assert run_cli("recon", "--case", case, "--config", cfg_tik,
                   "--out", out_tik) == 0
    rec_ext, _ = load_image(out_ext)
    rec_tik, _ = load_image(out_tik)
    assert np.allclose(rec_ext, rec_tik, rtol=0, atol=1e-10)

    assert list((tmp_path / "exchange").iterdir()) == []

    comments_ext, _, _ = read_objective_log(out_ext.parent / "objective.log")
    comments_tik, _, _ = read_objective_log(out_tik.parent / "objective.log")
    note = "# prior term unavailable; objective excludes lambda*R(z)"
    assert note in comments_ext
    assert note not in comments_tik


def test_external_recon_leaves_no_exchange_in_case_dir(tmp_path):
    case = small_case_dir(tmp_path)
    cmd = make_stub(tmp_path, "identity_stub", IDENTITY_STUB)
    config = write_config(tmp_path / "cfg", {
        "prior": "external", "external_cmd": cmd, "iterations": "2"})
    assert run_cli("recon", "--case", case, "--config", config) == 0
    assert (case / "recon").exists()
    assert not (case / "exchange").exists()


def _recon_for_eval(tmp_path, name, seed):
    case = small_case_dir(tmp_path, name=name, seed=seed)
    assert run_cli("recon", "--case", case) == 0
    return case


def test_eval_single_pair_and_report(tmp_path, capsys):
    case = _recon_for_eval(tmp_path, "case", "1")
    capsys.readouterr()
    report = tmp_path / "report.csv"
    assert run_cli("eval", "--recon", case / "recon", "--gt", case / "gt",
                   "--sens", case / "sens", "--case", "demo",
                   "--method", "hqs", "--report", report) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["case", "method", "PSNR",
                                           "SSIM", "RMSE", "NMSE"]

    rec, _ = load_image(case / "recon")
    gt, _ = load_image(case / "gt")
    maps, _ = load_array(case / "sens")
    support = np.sum(np.abs(maps) ** 2, axis=0) > 0.5
    scores = evaluate(rec, gt, support=support)
    expected_row = (
        f"demo,hqs,{min(scores['psnr'], 99.99):.4f},{scores['ssim']:.6f},"
        f"{scores['rmse']:.6e},{scores['nmse']:.6e}")
    text = report.read_text()
    assert text == f"case,method,PSNR,SSIM,RMSE,NMSE\n{expected_row}\n"


def test_eval_support_restriction_and_psnr_cap(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    gt, _ = load_image(case / "gt")
    rec = gt.copy()
    rec[:8, :8] += 1.0
    save_image(tmp_path / "rec", rec, kind="recon")
    maps, _ = load_array(case / "sens", expect_kind="sens")
    maps[:, :8, :8] = 0
    from pcsmri.container import save_array
    save_array(tmp_path / "sens_hole", maps, kind="sens", dtype="<c16")

    report_full = tmp_path / "full.csv"
    report_sup = tmp_path / "sup.csv"
    assert run_cli("eval", "--recon", tmp_path / "rec", "--gt", case / "gt",
                   "--report", report_full) == 0
    assert run_cli("eval", "--recon", tmp_path / "rec", "--gt", case / "gt",
                   "--sens", tmp_path / "sens_hole",
                   "--report", report_sup) == 0
    capsys.readouterr()
    full_row = report_full.read_text().splitlines()[1].split(",")
    sup_row = report_sup.read_text().splitlines()[1].split(",")
    # the corrupted corner sits outside the support, so the restricted
    # metrics see a perfect reconstruction and the PSNR column saturates
    assert sup_row[2] == "99.9900"
    assert float(full_row[2]) < 40.0
    assert float(sup_row[5]) == 0.0


def test_eval_batch_rows_sorted_by_case(tmp_path, capsys):
    _recon_for_eval(tmp_path, "zeta", "1")
    _recon_for_eval(tmp_path, "alpha", "2")
    report = tmp_path / "batch.csv"
    assert run_cli("eval", "--case-dirs", tmp_path / "zeta",
                   tmp_path / "alpha", "--report", report) == 0
    capsys.readouterr()
    lines = report.read_text().splitlines()
    assert lines[0] == "case,method,PSNR,SSIM,RMSE,NMSE"
    assert lines[1].startswith("alpha,hqs,")
    assert lines[2].startswith("zeta,hqs,")

    # in batch mode a case without sens maps, neither payload nor sidecar,
    # is scored on the full grid (half a container is a broken file, exit 3)
    (tmp_path / "zeta" / "sens").unlink()
    (tmp_path / "zeta" / "sens.hdr").unlink()
    assert run_cli("eval", "--case-dirs", tmp_path / "zeta",
                   tmp_path / "alpha", "--report", report) == 0
    capsys.readouterr()
    assert report.read_text().splitlines()[1] == lines[1]
    assert report.read_text().splitlines()[2].startswith("zeta,hqs,")


GRID_2X2 = {
    "prior": "tikhonov",
    "iterations": "3",
    "alpha": "0.5,1.0",
    "lambda": "0.004,0.01",
}


def test_sweep_runs_every_combo(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    grid = write_config(tmp_path / "grid", GRID_2X2)
    assert run_cli("sweep", "--case", case, "--grid", grid) == 0
    capsys.readouterr()
    sweep = case / "sweep"
    for index in range(4):
        combo = sweep / f"combo_{index:03d}"
        assert (combo / "recon").exists()
        assert (combo / "objective.log").exists()
    lines = (sweep / "report.csv").read_text().splitlines()
    assert lines[0] == "case,method,PSNR,SSIM,RMSE,NMSE"
    rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 4
    labels = [row.split(",")[1] for row in rows]
    assert labels == [
        "alpha=0.5;iterations=3;lambda=0.004;prior=tikhonov",
        "alpha=0.5;iterations=3;lambda=0.01;prior=tikhonov",
        "alpha=1.0;iterations=3;lambda=0.004;prior=tikhonov",
        "alpha=1.0;iterations=3;lambda=0.01;prior=tikhonov",
    ]
    best = [l for l in lines if l.startswith("# best:")]
    assert len(best) == 1
    psnrs = [float(row.split(",")[2]) for row in rows]
    winner = labels[psnrs.index(max(psnrs))]
    assert winner in best[0]


def test_sweep_parallel_jobs_match_serial(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    # concurrent TV solves share no workspace either: every file, each
    # combo's recon and objective.log included, has the bytes of one thread
    tv = {"prior": "total_variation", "lambda": "0.004,0.01,0.04",
          "iterations": "10"}
    for name, fields in (("tikhonov", GRID_2X2), ("tv", tv)):
        grid = write_config(tmp_path / f"{name}.grid", fields)
        files = []
        for jobs in (1, 2):
            out = tmp_path / f"{name}_{jobs}"
            assert run_cli("sweep", "--case", case, "--grid", grid,
                           "--out", out, "--jobs", jobs) == 0
            files.append({path.relative_to(out): path.read_bytes()
                          for path in out.rglob("*") if path.is_file()})
        assert files[0] == files[1], name
    capsys.readouterr()


def test_a_case_name_with_a_comma_stays_one_report_field(tmp_path, capsys):
    case = small_case_dir(tmp_path, name="a,b")
    assert run_cli("recon", "--case", case) == 0
    capsys.readouterr()
    assert run_cli("eval", "--case-dirs", case, "--report", tmp_path / "r.csv") == 0
    assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["a,b", "hqs"]
    grid = write_config(tmp_path / "grid", GRID_2X2)
    assert run_cli("sweep", "--case", case, "--grid", grid,
                   "--report", tmp_path / "s.csv") == 0
    capsys.readouterr()
    for report in ("r.csv", "s.csv"):
        rows = read_report(tmp_path / report)
        assert rows[0] == ["case", "method", "PSNR", "SSIM", "RMSE", "NMSE"]
        assert all(len(row) == 6 and row[0] == "a,b" for row in rows[1:]), rows
    # the best comment names the grid label, not a part of the case name
    winner = max(rows[1:], key=lambda row: float(row[2]))
    best = [l for l in (tmp_path / "s.csv").read_text().splitlines()
            if l.startswith("# best:")]
    assert best == [f"# best: {winner[1]} psnr={winner[2]}"]


def test_sweep_grid_external_dir_runs_in_parallel(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    cmd = make_stub(tmp_path, "identity_stub", IDENTITY_STUB)
    exchange = tmp_path / "xch"
    grid = write_config(tmp_path / "grid", {
        "prior": "external", "external_cmd": cmd, "iterations": "2",
        "lambda": "0.0,0.01,0.02,0.03", "external_dir": exchange})
    # every prox call exchanges through its own directory inside external_dir
    report = tmp_path / "report.csv"
    assert run_cli("sweep", "--case", case, "--grid", grid, "--jobs", 2,
                   "--report", report) == 0
    capsys.readouterr()
    rows = [l for l in report.read_text().splitlines()[1:] if not l.startswith("#")]
    assert len(rows) == 4 and "nan" not in report.read_text()
    assert list(exchange.iterdir()) == []
    assert not list((case / "sweep").glob("*/exchange"))


def test_sweep_bad_combo_yields_nan_row_and_comment(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    # lambda = 1e307 is a valid config whose solve overflows F at iteration 0
    grid = write_config(tmp_path / "grid", {
        "prior": "tikhonov", "lambda": "0.01,1e307", "iterations": "2"})
    report = tmp_path / "report.csv"
    assert run_cli("sweep", "--case", case, "--grid", grid,
                   "--out", tmp_path / "sw", "--report", report) == 0
    capsys.readouterr()
    lines = report.read_text().splitlines()
    nan_rows = [l for l in lines if l.endswith("nan,nan,nan,nan")]
    assert len(nan_rows) == 1
    assert "lambda=1e307" in nan_rows[0]
    errors = [l for l in lines if l.startswith("# error")]
    assert len(errors) == 1
    assert "objective produced non-finite values at iteration 0" in errors[0]
    best = [l for l in lines if l.startswith("# best:")]
    assert len(best) == 1
    assert "lambda=0.01" in best[0]
    # the failed solve leaves no combo directory behind
    assert sorted(p.name for p in (tmp_path / "sw").iterdir()) == ["combo_000"]


def test_a_sweep_point_that_cannot_be_stored_ends_the_sweep_with_exit_3(
        tmp_path, capsys):
    case = small_case_dir(tmp_path)
    identity = make_stub(tmp_path, "identity", IDENTITY_STUB)
    huge = make_stub(tmp_path, "huge", HUGE_STUB)
    # only a failed solve is a nan row; the second point's save fails instead
    grid = write_config(tmp_path / "grid", {
        "prior": "external", "external_cmd": f"{identity},{huge}",
        "lambda": "0", "iterations": "1"})
    report = tmp_path / "report.csv"
    assert run_cli("sweep", "--case", case, "--grid", grid,
                   "--out", tmp_path / "sw", "--report", report) == 3
    out, err = capsys.readouterr()
    assert f"cannot store {tmp_path / 'sw' / 'combo_001' / 'recon'}" in err
    assert "nan" not in out and not report.exists()
    # the point solved before it keeps its directory; the failed one has none
    assert sorted(p.name for p in (tmp_path / "sw").iterdir()) == ["combo_000"]


@pytest.mark.parametrize("how,message", [
    ("edge_support", "support leaves no valid SSIM windows"),
    ("zero_gt", "psnr reference image is all zero")])
def test_a_case_that_cannot_be_scored_exits_2_writing_nothing(tmp_path, capsys,
                                                              how, message):
    case = small_case_dir(tmp_path)
    if how == "edge_support":
        # maps only on the top three rows: no 11x11 window is centered there
        maps = np.zeros((2, 32, 32), dtype=complex)
        maps[0, :3] = 1.0
        save_array(case / "sens", maps, kind="sens", dtype="<c16")
        save_image(case / "gt", np.ones((32, 32)), kind="gt")
    else:
        save_image(case / "gt", np.zeros((32, 32)), kind="gt")
    grid = write_config(tmp_path / "grid", {
        "prior": "tikhonov", "lambda": "0.01,0.02", "iterations": "2"})
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    # every point is scored before anything of it is written
    for jobs in ("1", "2"):
        assert run_cli("sweep", "--case", case, "--grid", grid, "--jobs", jobs) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error:") and message in err and out == ""
        assert sorted(tmp_path.rglob("*")) == before
    # recon scores only the PSNR, and does so before it writes anything
    assert run_cli("recon", "--case", case) == (2 if how == "zero_gt" else 0)
    if how == "zero_gt":
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


def _case_copy(case, name, kspace=None, mask=None):
    """A copy of the case directory with its kspace or mask replaced."""
    copy = case.parent / name
    shutil.copytree(case, copy)
    if kspace is not None:
        save_array(copy / "kspace", kspace, kind="kspace")
    if mask is not None:
        save_mask(copy / "mask", mask)
    return copy


def test_sweep_refuses_a_grid_point_as_recon_refuses_its_config(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    save_image(tmp_path / "vmap", np.full((24, 24), 0.5), kind="image")
    y, sens, mask = load_case_like_cli(case)
    first = np.flatnonzero(mask.line_selected)[0]
    off = np.flatnonzero(~mask.line_selected)[0]
    nan_bin, stray = y.copy(), y.copy()
    nan_bin[0, 5, first] = np.nan
    stray[1, 3, off] = 1e-3
    lambdas = {"lambda": "0.01,0.02"}
    cells = (
        (case, {"prior": "tikhonov,curvelet"}, "unknown prior kind"),
        (case, {"v": "0.5,1.5"}, "dc_blend_v must lie in [0, 1]"),
        (case, {"v_map": tmp_path / "vmap", "lambda": "0.01,0.02"},
         "v_map shape (24, 24) does not match maps (32, 32)"),
        # the case is judged with each grid point, as solve judges it
        (_case_copy(case, "nan_bin", kspace=nan_bin), lambdas,
         f"k-space is not finite at sampled bin (coil 0, row 5, column {first})"),
        (_case_copy(case, "stray", kspace=stray), lambdas,
         f"k-space is nonzero on unsampled column {off} "),
        (_case_copy(case, "no_lines", mask=SamplingMask(
            32, 32, np.zeros(32, dtype=bool), 0, 32.0)), lambdas,
         "mask selects no lines"),
        (small_case_dir(tmp_path, "odd", height="33"),
         {"prior": "tikhonov,soft_threshold_haar"},
         "Haar needs a 2D image of even dimensions, got (33, 32)"),
        (case, {"prior": "total_variation", "lambda": "0.01,1e300",
                "beta": "1e-10"},
         "lambda/beta must be finite, got lambda = 1e+300 and beta = 1e-10 "
         "at iteration 1"))
    for where, fields, message in cells:
        grid = write_config(tmp_path / "grid", {"iterations": "2"} | fields)
        bad = {key: str(value).split(",")[-1] for key, value in fields.items()}
        config = write_config(tmp_path / "cfg", {"iterations": "2"} | bad)
        capsys.readouterr()
        assert run_cli("recon", "--case", where, "--config", config) == 2
        recon_err = capsys.readouterr().err
        assert run_cli("sweep", "--case", where, "--grid", grid,
                       "--report", tmp_path / "report.csv") == 2
        out, err = capsys.readouterr()
        assert message in err and err == recon_err and out == "", where
        assert not (where / "sweep").exists() and not (where / "recon").exists()
    assert not (tmp_path / "report.csv").exists()


def test_sweep_without_ground_truth_exits_2(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    grid = write_config(tmp_path / "grid", GRID_2X2)
    # a ground truth whose payload alone is gone is broken, not absent
    (case / "gt").unlink()
    assert run_cli("sweep", "--case", case, "--grid", grid) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(case / "gt") in err
    (case / "gt.hdr").unlink()
    assert run_cli("sweep", "--case", case, "--grid", grid) == 2
    assert f"sweep needs {case / 'gt'} for scoring" in capsys.readouterr().err
    assert not (case / "sweep").exists()


def test_sweep_finds_interior_lambda_optimum(tmp_path, capsys):
    case = simulate_cli(tmp_path / "noisy", size="64", coils="3", r="3.0",
                        acs="12", sigma="0.03", seed="11")
    grid = write_config(tmp_path / "grid", {
        "prior": "total_variation", "alpha": "1.0", "beta": "1.0",
        "iterations": "40", "tv_iterations": "80",
        "lambda": "0.0001,0.01,0.1"})
    report = tmp_path / "report.csv"
    assert run_cli("sweep", "--case", case, "--grid", grid,
                   "--out", tmp_path / "sw", "--report", report) == 0
    capsys.readouterr()
    lines = report.read_text().splitlines()
    rows = [l for l in lines[1:] if not l.startswith("#")]
    by_lambda = {}
    for row in rows:
        label, psnr_text = row.split(",")[1], row.split(",")[2]
        lam = [p for p in label.split(";") if p.startswith("lambda=")][0]
        by_lambda[lam.split("=")[1]] = float(psnr_text)
    assert by_lambda["0.01"] > by_lambda["0.0001"] + 1.0
    assert by_lambda["0.01"] > by_lambda["0.1"] + 1.0
    best = [l for l in lines if l.startswith("# best:")][0]
    assert "lambda=0.01" in best


def test_brain_preset_recon_gains_logged(tmp_path, capsys):
    case = simulate_cli(tmp_path / "brain", preset="brain", size="128",
                        coils="4", sigma="0.01", seed="3")
    config = write_config(tmp_path / "cfg", {
        "prior": "total_variation", "alpha": "1.0", "beta": "1.0",
        "lambda": "0.01", "iterations": "60", "tv_iterations": "80"})
    assert run_cli("recon", "--case", case, "--config", config) == 0
    capsys.readouterr()
    _, _, extras = read_objective_log(case / "objective.log")
    assert extras["psnr_gain"] >= 8.0
    mask = load_mask(case / "mask")
    assert mask.kind == "equispaced"
    assert mask.acs_width == 24
