"""End-to-end tests for the command line surface.

Most tests call ``main`` in process and inspect files, exit codes and
captured output; one subprocess test checks the module entry point.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import FAIL_STUB, IDENTITY_STUB, NAN_STUB, make_stub
from pcsmri import __version__
from pcsmri.cli import main
from pcsmri.container import load_array, load_image, save_image
from pcsmri.masks import load_mask, make_random_mask
from pcsmri.metrics import evaluate
from pcsmri.operators import SensitivitySet, zero_filled
from pcsmri.phantoms import make_phantom, simulate_case
from pcsmri.priors import TikhonovPrior
from pcsmri.sensitivity import estimate_maps
from pcsmri.solver import SolverConfig, solve


def run_cli(*argv):
    return main([str(a) for a in argv])


def as_stored(x):
    """Arrays written without an explicit dtype land on disk as <c8."""
    return np.asarray(x).astype(np.complex64)


def load_case_like_cli(case):
    y, _ = load_array(case / "kspace", expect_kind="kspace")
    mask = load_mask(case / "mask")
    maps, _ = load_array(case / "sens", expect_kind="sens")
    support = np.sum(np.abs(maps) ** 2, axis=0) > 0.5
    sens = SensitivitySet(np.where(support, maps, 0), support)
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
    config = write_config(tmp_path / "cfg", {"iterations": "4"})
    assert run_cli("recon", "--case", case, "--config", config,
                   "--dump-iterates") == 0
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


def test_recon_record_history_config_key(tmp_path):
    case = small_case_dir(tmp_path)
    config = write_config(tmp_path / "cfg", {
        "iterations": "2", "record_history": "true"})
    assert run_cli("recon", "--case", case, "--config", config) == 0
    assert (case / "iterates" / "x_002").exists()


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
    v_map = tmp_path / "vmap"
    save_image(v_map, np.full((32, 32), 0.2), kind="image")
    assert "v and v_map are exclusive" in expect_2(
        f"v = 0.9\nv_map = {v_map}\n")
    nan_map = np.full((32, 32), 0.5)
    nan_map[:, 3] = np.nan  # also on a column the mask may leave unsampled
    save_image(tmp_path / "nanmap", nan_map, kind="image")
    assert "dc_blend_v must lie in [0, 1]" in expect_2(
        f"v_map = {tmp_path / 'nanmap'}\n")
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

    assert run_cli("phantom", "--out", tmp_path / "nodir" / "ph") == 3
    err = capsys.readouterr().err
    assert f"'{tmp_path / 'nodir' / 'ph'}'" in err and ".tmp" not in err


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

    comments_ext, _, _ = read_objective_log(out_ext.parent / "objective.log")
    comments_tik, _, _ = read_objective_log(out_tik.parent / "objective.log")
    note = "# prior term unavailable; objective excludes lambda*R(z)"
    assert note in comments_ext
    assert note not in comments_tik


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

    # in batch mode a case without sens maps is scored on the full grid
    (tmp_path / "zeta" / "sens").unlink()
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
    grid = write_config(tmp_path / "grid", GRID_2X2)
    report_1 = tmp_path / "serial.csv"
    report_2 = tmp_path / "parallel.csv"
    assert run_cli("sweep", "--case", case, "--grid", grid,
                   "--out", tmp_path / "s1", "--report", report_1) == 0
    assert run_cli("sweep", "--case", case, "--grid", grid,
                   "--out", tmp_path / "s2", "--report", report_2,
                   "--jobs", 2) == 0
    capsys.readouterr()
    assert report_1.read_text() == report_2.read_text()


def test_sweep_bad_combo_yields_nan_row_and_comment(tmp_path, capsys):
    case = small_case_dir(tmp_path)
    grid = write_config(tmp_path / "grid", {
        "prior": "tikhonov,curvelet", "iterations": "2"})
    report = tmp_path / "report.csv"
    assert run_cli("sweep", "--case", case, "--grid", grid,
                   "--out", tmp_path / "sw", "--report", report) == 0
    capsys.readouterr()
    lines = report.read_text().splitlines()
    nan_rows = [l for l in lines if l.endswith("nan,nan,nan,nan")]
    assert len(nan_rows) == 1
    assert "prior=curvelet" in nan_rows[0]
    errors = [l for l in lines if l.startswith("# error")]
    assert len(errors) == 1
    assert "unknown prior kind" in errors[0]
    best = [l for l in lines if l.startswith("# best:")]
    assert len(best) == 1
    assert "prior=tikhonov" in best[0]


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
