"""End-to-end and per-layer benchmark of pcsmri reconstruction.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Builds each case with `pcsmri simulate` from --seed, then calls the real
CLI entry point (`pcsmri.cli.main`, in this process) in a closed loop:
one command at a time, the next only after the previous one returned,
until --seconds of commands have run. The sweep's own `--jobs` threads
are the only parallelism, capped at nproc. BLAS/OpenMP thread counts
are pinned to 1 before numpy loads.

Every command's output is checked (exit code, files, non-increasing
objective log, no nan sweep rows, PSNR against an independent reference
reconstruction, bytes identical to the first command's). A command that
fails a check counts in `failed` and its time is left out.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the package's
layer functions at run time (see tracer.py), alternates untraced and
traced commands, and reports per-layer metrics. The last line of
stdout is one JSON object; a fuller record, with the run environment
and (when traced) every span, goes to .perfbench/results/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# setup_s is the median of at least SETUP_REPEATS simulate + load rounds,
# more while they take under SETUP_SECONDS in all (small cases are noisy)
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX = 40
MIN_COMMANDS = 3    # timed commands per run, even past --seconds
MIN_TRACED = 2      # of each kind (untraced, traced) in a --trace 1 run
MICRO_REPEATS = 7
IO_SHAPE = (16, 256, 256)  # container micro-benchmark: 256^2 x 16 coils

CASE_FILES = ("gt", "gt.hdr", "sens", "sens.hdr", "mask", "mask.hdr",
              "kspace", "kspace.hdr", "manifest.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # "recon" or "sweep"
    simulate: tuple         # `pcsmri simulate` arguments besides --out/--seed
    config: dict            # recon config, or sweep grid, as key -> value text
    estimate_sens: bool = False
    jobs: int = 1

    @property
    def combos(self):
        """Grid points as dicts, or the single recon config."""
        keys = sorted(self.config)
        values = [[v.strip() for v in self.config[k].split(",")] for k in keys]
        return [dict(zip(keys, combo)) for combo in itertools.product(*values)]

    @property
    def iterations(self):
        return int(self.config["iterations"])


CASE_256 = ("--size", "256", "--coils", "8", "--phantom", "shepp_logan",
            "--mask-kind", "random", "--r", "4", "--acs", "24", "--sigma", "0.01")
CASE_128 = ("--size", "128", "--coils", "4", "--preset", "brain",
            "--sigma", "0.01")

WORKLOADS = (
    Workload(
        "recon-tv-256x8",
        "TV prox is about two thirds of each HQS iteration, so this is where "
        "a faster tv_denoise shows",
        "recon", CASE_256, {"prior": "total_variation", "iterations": "20"}),
    Workload(
        "recon-haar-256x8",
        "prox is under 1% of the time, so solver DC, objective and FFTs "
        "dominate; a TV-only change must leave it unchanged",
        "recon", CASE_256, {"prior": "soft_threshold_haar", "iterations": "20"}),
    Workload(
        "sweep-analytic-128x4",
        "small arrays and 9 combos on 2 threads: fixed per-call costs, "
        "container I/O, metrics and map estimation weigh more",
        "sweep", CASE_128,
        {"prior": "tikhonov,soft_threshold_image,soft_threshold_haar",
         "lambda": "0.002,0.005,0.01", "iterations": "20"},
        estimate_sens=True, jobs=2),
)

class SetupError(Exception):
    pass


@dataclass
class Result:
    """Everything one run measured, before it is turned into metrics."""

    workload: Workload
    seed: int
    trace: bool
    setup_s: list = field(default_factory=list)
    expected_psnrs: list = field(default_factory=list)
    durations: list = field(default_factory=list)        # passing, untraced
    traced_durations: list = field(default_factory=list)  # passing, traced
    failed_durations: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    psnr_db: float = float("nan")
    micro: dict = field(default_factory=dict)
    tracer: Tracer = None
    traced_roots: list = field(default_factory=list)


# ---------------------------------------------------------------- program

def import_program():
    """Import pcsmri from this checkout's src/, never from elsewhere."""
    if not (SRC / "pcsmri" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pcsmri sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pcsmri
    import pcsmri.cli
    if SRC.resolve() not in Path(pcsmri.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported pcsmri from {pcsmri.__file__}")
    return pcsmri


def run_cli(pcsmri, argv):
    """Call pcsmri.cli.main in process; return (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pcsmri.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the program crashed: a failed command, not ours
            code = "exception"
            err.write(traceback.format_exc())
    return code, time.perf_counter() - start, err.getvalue().strip()


def load_case(pcsmri, case):
    """Load the case the way a caller of the library would."""
    y, _ = pcsmri.container.load_array(case / "kspace", expect_kind="kspace")
    maps, _ = pcsmri.container.load_array(case / "sens", expect_kind="sens")
    mask = pcsmri.masks.load_mask(case / "mask")
    pcsmri.container.load_array(case / "gt")
    return y, maps, mask


def setup(pcsmri, result, work):
    """Simulate, write and load the case several times; keep case_0."""
    w = result.workload
    first = None
    for i in range(SETUP_MAX):
        if i >= SETUP_REPEATS and sum(result.setup_s) >= SETUP_SECONDS:
            break
        case = work / f"case_{i}"
        start = time.perf_counter()
        ctx = (result.tracer.root("bench.setup") if result.tracer
               else contextlib.nullcontext())
        with ctx:
            code, _, err = run_cli(pcsmri, ["simulate", "--out", str(case),
                                            "--seed", str(result.seed),
                                            *w.simulate])
            if code != 0:
                raise SetupError(f"simulate exited with {code}: {err}")
            load_case(pcsmri, case)
        result.setup_s.append(time.perf_counter() - start)
        got = checks.digests(case, CASE_FILES)
        if first is None:
            first = got
        else:
            if got != first:
                raise SetupError("simulate wrote different bytes for one seed")
            shutil.rmtree(case)
    return work / "case_0"


def write_config(workload, path, iterations=None):
    fields = dict(workload.config)
    if iterations is not None:
        fields["iterations"] = str(iterations)
    path.write_text("".join(f"{k} = {v}\n" for k, v in sorted(fields.items())))
    return path


def command_argv(workload, case, config, out_dir):
    if workload.command == "recon":
        return ["recon", "--case", str(case), "--config", str(config),
                "--out", str(out_dir / "recon")]
    argv = ["sweep", "--case", str(case), "--grid", str(config),
            "--jobs", str(workload.jobs), "--out", str(out_dir)]
    return argv + (["--estimate-sens"] if workload.estimate_sens else [])


def reference_psnrs(workload, case):
    combos = [{"prior": c["prior"], "lambda": c.get("lambda"),
               "iterations": c["iterations"]} for c in workload.combos]
    spec = json.dumps({"case": str(case), "estimate_sens": workload.estimate_sens,
                       "combos": combos})
    proc = subprocess.run([sys.executable, str(HERE / "reference.py"), spec],
                          capture_output=True, text=True, timeout=170,
                          env=os.environ.copy())
    if proc.returncode != 0:
        raise SetupError(f"reference failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def check_output(workload, case, support, out_dir, expected):
    """Return (PSNR, names of files that must repeat byte for byte)."""
    if workload.command == "recon":
        value = checks.check_recon(out_dir, case, support,
                                   workload.config["prior"],
                                   workload.iterations, expected[0])
        return value, list(checks.RECON_FILES)
    return checks.check_sweep(out_dir, workload.combos, expected,
                              workload.iterations)


def run_commands(pcsmri, result, case, work, seconds):
    """Closed loop of timed commands, each checked before the next starts."""
    w = result.workload
    config = write_config(w, work / "config.cfg")
    # one untimed single-iteration command loads code paths and FFT plans;
    # its outcome is not judged, the timed commands are
    warm = work / "warmup"
    warm.mkdir()
    run_cli(pcsmri, command_argv(
        w, case, write_config(w, work / "warmup.cfg", iterations=1), warm))
    shutil.rmtree(warm)

    support = np.sum(np.abs(reference.read_array(case / "sens")) ** 2, axis=0) > 0.5
    baseline = None
    start = time.perf_counter()
    for i in itertools.count():
        traced = result.tracer is not None and i % 2 == 1
        out_dir = work / f"cmd_{i}"
        out_dir.mkdir()
        gc.collect()  # the previous command's garbage is not this one's cost
        if traced:
            result.tracer.install()
            with result.tracer.root("bench.command") as root:
                code, seconds_taken, err = run_cli(
                    pcsmri, command_argv(w, case, config, out_dir))
            result.tracer.uninstall()
        else:
            code, seconds_taken, err = run_cli(
                pcsmri, command_argv(w, case, config, out_dir))
        result.attempted += 1
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}: {err[-500:]}")
            value, names = check_output(w, case, support, out_dir,
                                        result.expected_psnrs)
            got = checks.digests(out_dir, names)
            if baseline is None:
                baseline = got
            elif got != baseline:
                changed = sorted(n for n in got if got[n] != baseline.get(n))
                raise checks.CheckFailed(f"bytes differ from the first "
                                         f"command's: {', '.join(changed)}")
            result.psnr_db = value
            (result.traced_durations if traced else result.durations).append(
                seconds_taken)
            if traced:
                result.traced_roots.append(root.sid)
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            result.failures.append(f"command {i}: {exc}")
            result.failed_durations.append(seconds_taken)
        shutil.rmtree(out_dir)

        # stop before a command that would end past the window
        done = result.durations + result.traced_durations
        typical = statistics.median(done) if done else seconds_taken
        elapsed = time.perf_counter() - start
        minimum = 2 * MIN_TRACED if result.tracer else MIN_COMMANDS
        if result.attempted >= minimum and elapsed + typical > seconds:
            break


# ---------------------------------------------------------- micro-benchmarks

def _median_call_s(fn, repeats=MICRO_REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def micro_objective(pcsmri, result, case):
    """solver.objective at the workload's shape (solve reaches it privately)."""
    w = result.workload
    y, maps, mask = load_case(pcsmri, case)
    try:
        if w.estimate_sens:
            sens = pcsmri.sensitivity.estimate_maps(y, mask.acs_width, mask=mask)
        else:
            support = np.sum(np.abs(maps) ** 2, axis=0) > 0.5
            sens = pcsmri.operators.SensitivitySet(np.where(support, maps, 0),
                                                   support)
        kind = w.combos[-1]["prior"]
        prior = pcsmri.priors.make_prior(kind)
        lam = float(w.combos[-1].get("lambda", pcsmri.cli.DEFAULT_LAMBDA[kind]))
        x = pcsmri.operators.zero_filled(y, sens)
        state = pcsmri.solver.SolverState(x=x, z=x.copy(), m=sens.maps * x, t=0)
        objective = pcsmri.solver.objective
        result.micro["solver.objective.ms"] = 1e3 * _median_call_s(
            lambda: objective(state, y, sens, mask, 1.0, 1.0, lam, prior))
    except (AttributeError, TypeError, KeyError):
        result.tracer.absent.add("solver.objective")


def micro_container(pcsmri, result, work):
    """save_array/load_array of a 256^2 x 16-coil array, <c8 and <c16."""
    rng = np.random.default_rng(result.seed)
    arr = rng.standard_normal(IO_SHAPE) + 1j * rng.standard_normal(IO_SHAPE)
    path = work / "io_array"
    for dtype, suffix in (("<c8", ""), ("<c16", "_c16")):
        nbytes = arr.size * np.dtype(dtype).itemsize
        save = _median_call_s(lambda: pcsmri.container.save_array(
            path, arr, kind="bench", dtype=dtype))
        load = _median_call_s(lambda: pcsmri.container.load_array(path))
        result.micro[f"container.write{suffix}_mb_s"] = nbytes / 1e6 / save
        result.micro[f"container.read{suffix}_mb_s"] = nbytes / 1e6 / load
        result.micro[f"container.io{suffix}.bytes"] = nbytes
        result.micro[f"container.io{suffix}.save_ms"] = 1e3 * save
        result.micro[f"container.io{suffix}.load_ms"] = 1e3 * load


# ------------------------------------------------------------------ metrics

# Bounds follow the spread seen on a shared 2-core machine, where one
# command's time drifts by +-15% over tens of seconds: over ten seeds the
# run medians of recon_s spread (interquartile range / median) 7% to 10%.
# psnr_db varies with the seed's mask and noise, not with timing, and
# the correctness gate already pins it to the reference within 0.01 dB.
END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("recon_s", "s", "lower", 0.24),
    ("combos_per_s", "1/s", "higher", 0.24),
    ("psnr_db", "dB", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    # name, unit, better
    ("priors.prox.ms", "ms", "lower"),
    ("priors.prox.calls", "count", "lower"),
    ("priors.tv_denoise.inner_iters", "count", "lower"),
    ("priors.tv_denoise.converged_ratio", "ratio", "higher"),
    ("solver.solve.ms", "ms", "lower"),
    ("solver.solve.self_ms", "ms", "lower"),
    ("solver.dc_update.ms", "ms", "lower"),
    ("solver.x_update.ms", "ms", "lower"),
    ("solver.objective.ms", "ms", "lower"),
    ("transforms.fft2c.calls", "count", "lower"),
    ("transforms.ifft2c.calls", "count", "lower"),
    ("transforms.fft2c.ms", "ms", "lower"),
    ("transforms.ifft2c.ms", "ms", "lower"),
    ("transforms.fft2c.mb_computed", "MB", "lower"),
    ("operators.zero_filled.calls", "count", "lower"),
    ("container.save_array.ms", "ms", "lower"),
    ("container.load_array.ms", "ms", "lower"),
    ("container.bytes_written", "B", "lower"),
    ("container.write_mb_s", "MB/s", "higher"),
    ("container.read_mb_s", "MB/s", "higher"),
    ("container.write_c16_mb_s", "MB/s", "higher"),
    ("container.read_c16_mb_s", "MB/s", "higher"),
    ("masks.load_mask.ms", "ms", "lower"),
    ("metrics.evaluate.ms", "ms", "lower"),
    ("sensitivity.estimate_maps.ms", "ms", "lower"),
    ("phantoms.simulate_case.ms", "ms", "lower"),
    ("cli.recon.self_ms", "ms", "lower"),
    ("cli.command.self_ms", "ms", "lower"),
    ("cli.sweep.worker_busy", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.absent_layers", "count", "lower"),
)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(result):
    # failed commands count only when none passed, so the line stays valid
    times = (result.durations or result.traced_durations
             or result.failed_durations)
    recon_s = statistics.median(times)
    return {
        "setup_s": statistics.median(result.setup_s),
        "recon_s": recon_s,
        "combos_per_s": len(result.workload.combos) / recon_s,
        "psnr_db": result.psnr_db if np.isfinite(result.psnr_db) else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(result):
    """Aggregate the spans of traced commands (and setup) into metrics.

    `.ms` is the median duration of one call; `.calls`, bytes and MB are
    per timed command; inner_iters is per solve. A layer that did not
    run on this workload reports 0.
    """
    spans = result.tracer.spans
    selfs = self_times(spans)
    roots = set(result.traced_roots)
    n_cmd = max(len(roots), 1)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def in_cmd(name):
        return [s for s in by_name.get(name, ()) if s.root in roots]

    def ms(name):
        return 1e3 * _median([s.duration for s in by_name.get(name, ())])

    def per_cmd(name, counter=None):
        found = in_cmd(name)
        if counter is None:
            return len(found) / n_cmd
        return sum(s.counters.get(counter, 0) for s in found) / n_cmd

    m = {f"{name}.ms": ms(name) for name in (
        "priors.prox", "solver.solve", "solver.dc_update", "solver.x_update",
        "transforms.fft2c", "transforms.ifft2c", "container.save_array",
        "container.load_array", "masks.load_mask", "metrics.evaluate",
        "sensitivity.estimate_maps", "phantoms.simulate_case")}
    for name in ("priors.prox", "transforms.fft2c", "transforms.ifft2c",
                 "operators.zero_filled"):
        m[f"{name}.calls"] = per_cmd(name)
    tv = in_cmd("priors.tv_denoise")
    solves = len(in_cmd("solver.solve"))
    m["priors.tv_denoise.inner_iters"] = (
        sum(s.counters.get("inner_iters", 0) for s in tv) / solves if solves else 0.0)
    m["priors.tv_denoise.converged_ratio"] = (
        sum(s.counters.get("converged", 0) for s in tv) / len(tv) if tv else 0.0)
    m["transforms.fft2c.mb_computed"] = per_cmd("transforms.fft2c", "bytes") / 1e6
    m["container.bytes_written"] = per_cmd("container.save_array", "bytes")
    m["solver.solve.self_ms"] = 1e3 * _median(
        [selfs[s.sid] for s in in_cmd("solver.solve")])
    m["cli.recon.self_ms"] = 1e3 * _median(
        [selfs[s.sid] for s in in_cmd("cli.recon")])
    commands = [s for s in spans if s.sid in roots]
    m["cli.command.self_ms"] = 1e3 * _median([selfs[s.sid] for s in commands])
    m["trace.coverage_pct"] = 100 * _median(
        [1 - selfs[s.sid] / s.duration for s in commands])
    busy = []
    for root in commands:
        combos = [s.duration for s in by_name.get("cli.sweep.combo", ())
                  if s.root == root.sid]
        if combos:
            busy.append(sum(combos) / (result.workload.jobs * root.duration))
    m["cli.sweep.worker_busy"] = _median(busy)
    untraced, traced = _median(result.durations), _median(result.traced_durations)
    m["trace.overhead_pct"] = 100 * (traced / untraced - 1) if untraced else 0.0
    m["trace.absent_layers"] = len(result.tracer.absent)
    for key in ("solver.objective.ms", "container.write_mb_s",
                "container.read_mb_s", "container.write_c16_mb_s",
                "container.read_c16_mb_s"):
        m[key] = result.micro.get(key, 0.0)
    return m


def self_time_breakdown(result):
    """Per layer: self ms per traced command and its share of all self time.

    Self times of one command add up to its busy thread time: its wall
    time for a recon, up to jobs x wall for a sweep.
    """
    roots = set(result.traced_roots)
    selfs = self_times(result.tracer.spans)
    total = {}
    for s in result.tracer.spans:
        if s.root in roots:
            total[s.name] = total.get(s.name, 0.0) + selfs[s.sid]
    busy = sum(total.values())
    return {name: (1e3 * t / len(roots), 100 * t / busy)
            for name, t in sorted(total.items(), key=lambda kv: -kv[1])}


# -------------------------------------------------------------- environment

def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed, jobs):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "sweep_jobs": jobs,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


# -------------------------------------------------------------------- main

def run(workload, seed, seconds, trace, pcsmri):
    """Run one workload; return the Result (raises SetupError)."""
    jobs = min(workload.jobs, len(os.sched_getaffinity(0)))
    workload = replace(workload, jobs=jobs)
    result = Result(workload, seed, trace, tracer=Tracer() if trace else None)
    work = STATE / "work" / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            result.tracer.install()
        case = setup(pcsmri, result, work)
        if trace:
            result.tracer.uninstall()
        result.expected_psnrs = reference_psnrs(workload, case)
        run_commands(pcsmri, result, case, work, seconds)
        if trace:
            micro_objective(pcsmri, result, case)
            micro_container(pcsmri, result, work)
    finally:
        if trace:
            result.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return result


def report(result, env):
    """Print the human-readable table; return (JSON line dict, record)."""
    w = result.workload
    n = len(result.durations)
    e2e = end_to_end(result)
    failed = len(result.failures)
    print(f"workload {w.name}  seed {result.seed}  trace {int(result.trace)}  "
          f"jobs {result.workload.jobs}")
    if result.durations:
        print(f"  setup_s       {e2e['setup_s']:10.4f} s     median of "
              f"{len(result.setup_s)}")
        print(f"  recon_s       {e2e['recon_s']:10.4f} s     median of {n} "
              f"{w.command} commands (min {min(result.durations):.4f}, "
              f"max {max(result.durations):.4f})")
        print(f"  combos_per_s  {e2e['combos_per_s']:10.4f} 1/s   "
              f"{len(w.combos)} per command, median of {n}")
    print(f"  psnr_db       {e2e['psnr_db']:10.4f} dB    reference "
          f"{max(result.expected_psnrs):.4f}"
          + (" (best of grid)" if w.command == "sweep" else ""))
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:10.1f} MB")
    print(f"  error_rate    {failed / result.attempted:10.4f}       "
          f"{failed} failed of {result.attempted} attempted")
    for reason in result.failures:
        print(f"  FAILED {reason}")
    print("  env " + json.dumps(env))

    record = {"workload": w.name, "environment": env,
              "attempted": result.attempted, "failures": result.failures,
              "setup_s": result.setup_s, "durations_s": result.durations,
              "expected_psnr_db": result.expected_psnrs}
    if result.trace:
        metrics = per_layer(result)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"  traced commands {len(result.traced_durations)}, untraced "
              f"{len(result.durations)}; absent layers: "
              f"{sorted(result.tracer.absent) or 'none'}")
        for suffix, dtype in (("", "<c8"), ("_c16", "<c16")):
            if f"container.io{suffix}.bytes" in result.micro:
                print(f"    container {dtype} {IO_SHAPE}: "
                      f"{result.micro[f'container.io{suffix}.bytes']} B, save "
                      f"{result.micro[f'container.io{suffix}.save_ms']:.2f} ms, "
                      f"load {result.micro[f'container.io{suffix}.load_ms']:.2f} ms")
        for name, (self_ms, share) in self_time_breakdown(result).items():
            print(f"    self {name:28s} {self_ms:10.2f} ms/command {share:6.2f} % of self")
        for name, _, _ in PER_LAYER:
            print(f"  {name:36s} {metrics[name]:14.4f} {units[name]}")
        record.update(traced_durations_s=result.traced_durations,
                      micro=result.micro, absent=sorted(result.tracer.absent),
                      counter_errors=sorted(result.tracer.counter_errors),
                      spans=[s.as_dict() for s in result.tracer.spans])
    else:
        metrics = e2e
        units = {name: unit for name, unit, _, _ in END_TO_END}
    line = {"correct": failed == 0 and bool(result.durations),
            "attempted": result.attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}
    record["result"] = line
    return line, record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all"] + [w.name for w in WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    """Run one workload, or all of them in turn with `--workload all`.

    With one workload the last line is that workload's result; with all,
    it combines them, metric names prefixed by the workload's. peak_rss_mb
    is the process's peak, so with all it carries over between workloads.
    """
    args = parse_args(argv)
    pcsmri = import_program()
    chosen = [w for w in WORKLOADS if args.workload in ("all", w.name)]
    lines = {}
    for workload in chosen:
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace),
                         pcsmri)
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        line, record = report(result, environment(args.seed, result.workload.jobs))
        out = STATE / "results"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{workload.name}-seed{args.seed}-trace{args.trace}-"
               f"{time.time_ns()}.json").write_text(json.dumps(record))
        lines[workload.name] = line
    if len(lines) > 1:
        line = {"correct": all(v["correct"] for v in lines.values()),
                "attempted": sum(v["attempted"] for v in lines.values()),
                "failed": sum(v["failed"] for v in lines.values()),
                "metrics": {f"{w}/{k}": m for w, v in lines.items()
                            for k, m in v["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
