"""Fast self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload on a 32x32 two-coil case with 3 iterations, traced
and untraced, and checks that the harness passes the real program,
reports every metric named in BENCHMARK.json, and fails commands whose
output is wrong: a non-zero exit, a wrong image, output that changes
between reruns and a rising objective. Exits 1 on the first broken
expectation, in a few seconds, before a full run is worth starting.
"""

import contextlib
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

import run
from run import END_TO_END, PER_LAYER, WORKLOADS, report

SECONDS = 0.2
TINY_CASE = ("--size", "32", "--coils", "2", "--r", "2", "--acs", "8",
             "--sigma", "0.01")


def tiny(workload):
    """The same command on a 32x32 two-coil case with 3 iterations."""
    mask = ("--mask-kind", "equispaced") if workload.command == "sweep" else ()
    return replace(workload, simulate=TINY_CASE + mask,
                   config={**workload.config, "iterations": "3"})


def check(condition, what):
    if not condition:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def check_manifest():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == [w.name for w in WORKLOADS],
          "BENCHMARK.json lists the workloads run.py defines")
    check([(m["name"], m["unit"], m["better"], m["bound"])
           for m in bench["end_to_end"]] == list(END_TO_END),
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == list(PER_LAYER), "BENCHMARK.json per_layer matches run.PER_LAYER")


def run_quietly(workload, trace, pcsmri):
    result = run.run(workload, 0, SECONDS, trace, pcsmri)
    env = run.environment(0, result.workload.jobs)
    with contextlib.redirect_stdout(io.StringIO()):
        line, _ = report(result, env)
    return result, line


def check_passes(pcsmri):
    for workload in WORKLOADS:
        for trace in (False, True):
            result, line = run_quietly(tiny(workload), trace, pcsmri)
            tag = f"{workload.name} trace={int(trace)}"
            check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                  f"{tag}: every command passes ({result.failures or 'no failures'})")
            names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
            check(list(line["metrics"]) == names, f"{tag}: reports every metric")
            check(all(math.isfinite(m["value"]) for m in line["metrics"].values()),
                  f"{tag}: every value is finite")
            if trace:
                m = {k: v["value"] for k, v in line["metrics"].items()}
                check(not result.tracer.absent, f"{tag}: no layer is absent")
                check(m["priors.prox.calls"] == 3 * len(workload.combos),
                      f"{tag}: one prox call per iteration")
                check(m["transforms.fft2c.calls"] > 0
                      and m["solver.dc_update.ms"] > 0
                      and m["solver.objective.ms"] > 0,
                      f"{tag}: solver layers traced")
                # at this size argument parsing and small files weigh more
                check(50 <= m["trace.coverage_pct"] <= 100,
                      f"{tag}: named layers cover "
                      f"{m['trace.coverage_pct']:.1f}% of the command")


def check_catches(pcsmri):
    """Each broken `solve` must make every timed command fail."""
    real = pcsmri.cli.solve
    rng = np.random.default_rng()

    def wrong_image(*a):
        x, state = real(*a)
        return 0.9 * x, state

    def not_repeatable(*a):
        x, state = real(*a)
        return x + 1e-6 * rng.standard_normal(x.shape), state

    def rising_objective(*a):
        x, state = real(*a)
        state.objective_history[-1] = 2 * state.objective_history[0] + 1
        return x, state

    def diverges(*a):
        raise pcsmri.DivergenceError("injected")

    workload = tiny(WORKLOADS[1])
    for broken in (wrong_image, not_repeatable, rising_objective, diverges):
        pcsmri.cli.solve = broken
        try:
            result, line = run_quietly(workload, False, pcsmri)
        finally:
            pcsmri.cli.solve = real
        # a not-repeatable first command is the baseline the others miss
        allowed = 1 if broken is not_repeatable else 0
        check(not line["correct"]
              and line["failed"] >= line["attempted"] - allowed,
              f"gate catches {broken.__name__}: {result.failures[-1][:80]}")


def main():
    pcsmri = run.import_program()
    check_manifest()
    check_passes(pcsmri)
    check_catches(pcsmri)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
