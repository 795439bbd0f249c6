"""obsfem benchmark: runs workloads, checks outputs, prints metrics.

    python3 perfbench/run.py                      # all workloads, default seeds, untraced
    python3 perfbench/run.py --workload conv-disk-i1 --seed 3 --seconds 35 --trace 0

Run from anywhere inside a checkout; obsfem is imported from the
checkout's `src/`.  Each run of a workload starts a fresh Python
process (`worker.py`) that makes the same public call a user makes.

`--trace 0` times bare `import obsfem` processes for `setup_s`, then
starts one worker that repeats the workload's call until the next call
would, on average, end past `--seconds` (at least once).  It reports the end-to-end metrics as
medians, with each time rescaled to the machine's nominal speed by
`speed.py`; the raw medians are printed beside them.  `--trace 1` makes
one untraced call (plus a serial one when the workload uses a process
pool) and one traced serial call, and reports the per-layer metrics.
Outputs are checked in both modes.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every trial passed its checks and 1 otherwise; 2 means
the benchmark could not run at all (for example, no `src/obsfem`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s
WORKER_START_S = 1.0  # launching a worker and importing obsfem, with a margin
SETUP_PROBE = ("import time; import obsfem; end = time.perf_counter(); import sys; "
               "sys.path.insert(0, sys.argv[1]); import speed; print(end, speed.reference())")
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "mesh.build_s": "s", "mesh.build_calls": "count",
    "observations.place_points_s": "s", "observations.observe_s": "s",
    "observations.observe_calls": "count", "observations.sites_observed": "count",
    "observations.observe_ns_per_site": "ns", "observations.noise_s": "s",
    "observations.site_arrays_mb": "MB",
    "assembly.stiffness_s": "s", "assembly.load_s": "s", "assembly.coupling_s": "s",
    "assembly.data_vector_s": "s",
    "solver.solve_s": "s", "solver.solve_calls": "count", "solver.minres_share": "ratio",
    "solver.minres_iters_mean": "count", "solver.max_residual": "ratio",
    "analysis.errors_s": "s", "analysis.level_setup_s": "s", "analysis.trial_s_p50": "s",
    "analysis.trial_s_p95": "s", "analysis.trial_samples": "count", "analysis.self_s": "s",
    "analysis.pool_cpu_s": "s", "analysis.pool_work_ratio": "ratio",
    "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


class Runner:
    """Starts worker processes with the benchmark's environment and deadline."""

    def __init__(self):
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ, **PINNED_BLAS)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.env["PERFBENCH_SRC"] = src

    def _run(self, cmd: list, threads: int) -> tuple[int, str, str]:
        env = dict(self.env, OBSFEM_THREADS=str(threads))
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except BaseException:
            _kill_group(proc)
            raise
        return proc.returncode, out, err

    def setup_sample(self) -> tuple[float, float]:
        """Seconds from launching an interpreter to `import obsfem` returning,
        and seconds of `speed.reference()` in the same process right after."""
        t0 = time.perf_counter()
        code, out, err = self._run([sys.executable, "-c", SETUP_PROBE, str(HERE)], 1)
        if code != 0:
            raise RuntimeError(f"import obsfem failed:\n{err}")
        end, reference = map(float, out.split())
        return end - t0, reference

    def workload(self, name: str, seed: int, traced: bool, threads: int, seconds: float = 0.0) -> dict:
        """One fresh worker process that repeats the call for about `seconds`
        (once when traced); returns its JSON (output None if it aborted)."""
        spec = json.dumps({"workload": name, "seed": seed, "traced": traced, "seconds": seconds})
        try:
            code, out, err = self._run([sys.executable, str(HERE / "worker.py"), spec], threads)
        except subprocess.TimeoutExpired:
            code, out, err = -1, "", "worker ran past the benchmark's deadline"
        try:
            result = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            return {"output": None, "error": f"worker exit {code}: {err.strip()[-2000:]}",
                    "differing": 0, "calls": [], "rss_self_kb": 0, "rss_children_kb": 0}
        return result


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a worker and every pool process it started, and wait for them."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Tally:
    """Attempted and failed trials, with the reason of each failure."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, workload, seed: int, result: dict, mismatch: str = "") -> None:
        """Count one worker's trials, all its calls together; a call whose
        output differs from the first one's, or `mismatch`, fails them all."""
        calls = max(1, len(result["calls"]))
        failed, problems = workload.check(seed, result["output"], self.refs)
        failed = failed * calls + workload.attempted * result["differing"]
        if result.get("error"):
            problems = [result["error"].strip().splitlines()[-1]] + problems
        if result["differing"]:
            problems.append(f"{result['differing']} of {calls} calls returned another output than the first")
        if mismatch:
            failed, problems = workload.attempted * calls, problems + [mismatch]
        self.attempted += workload.attempted * calls
        self.failed += min(failed, workload.attempted * calls)
        self.problems += problems


def end_to_end(runner: Runner, workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict, dict]:
    """End-to-end metrics: medians over set-up samples, then over calls that fill `seconds`.

    Returns the metrics, the raw medians of the times that are rescaled
    to the nominal speed, and the sample count of each."""
    start = time.perf_counter()
    runner.setup_sample()  # compiles bytecode on a fresh checkout; not a sample
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    remaining = seconds - (time.perf_counter() - start) - WORKER_START_S
    result = runner.workload(workload.name, seed, False, workload.threads, max(0.0, remaining))
    tally.check(workload, seed, result)
    calls = result["calls"] or [{"wall_s": math.nan, "cpu_self_s": math.nan, "cpu_children_s": math.nan}]
    references = result.get("reference_s") or [speed.NOMINAL_S]
    raw = {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "setup_raw_s": statistics.median(seconds for seconds, _ in setup),
        "cpu_s": statistics.median(c["cpu_self_s"] + c["cpu_children_s"] for c in calls),
    }
    metrics = {
        "wall_norm_s": speed.normalized(raw["wall_s"], references),
        "setup_s": speed.normalized(raw["setup_raw_s"], [reference for _, reference in setup]),
        "cpu_norm_s": speed.normalized(raw["cpu_s"], references),
        "peak_rss_mb": max(result["rss_self_kb"], result["rss_children_kb"]) * 1024 / 1e6,
    }
    counts = {"wall_norm_s": len(calls), "setup_s": len(setup), "cpu_norm_s": len(calls),
              "wall_s": len(calls), "setup_raw_s": len(setup), "cpu_s": len(calls),
              "references": len(references)}
    return metrics, raw, counts


def _first_call(result: dict) -> dict:
    return result["calls"][0] if result["calls"] else {"wall_s": 0.0, "cpu_self_s": 0.0, "cpu_children_s": 0.0}


def per_layer(runner: Runner, workload, seed: int, tally: Tally) -> dict:
    """Per-layer metrics from one traced serial call, next to untraced calls."""
    plain = runner.workload(workload.name, seed, False, workload.threads)
    tally.check(workload, seed, plain)
    serial = plain
    if workload.threads > 1:
        serial = runner.workload(workload.name, seed, False, 1)
        tally.check(workload, seed, serial)
    traced = runner.workload(workload.name, seed, True, 1)
    outputs = [r["output"] for r in (plain, serial, traced)]
    differ = None not in outputs and any(o != outputs[0] for o in outputs)
    tally.check(workload, seed, traced, "traced, serial and pooled outputs differ" if differ else "")

    plain, serial, traced_call = _first_call(plain), _first_call(serial), _first_call(traced)
    metrics = spans.layer_metrics(traced.get("spans", []))
    metrics["observations.noise_s"] = traced.get("noise_s", 0.0)
    metrics["trace.overhead_s"] = traced_call["wall_s"] - serial["wall_s"]
    serial_cpu = serial["cpu_self_s"] + serial["cpu_children_s"]
    metrics["analysis.pool_cpu_s"] = plain["cpu_children_s"]
    metrics["analysis.pool_work_ratio"] = (
        serial_cpu / plain["cpu_children_s"] if workload.threads > 1 and plain["cpu_children_s"] > 0 else 1.0
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def machine() -> dict:
    """The machine and library versions the numbers were taken on."""
    import platform

    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
        with open("/proc/meminfo") as fh:
            ram_gb = int(fh.readline().split()[1]) / 1e6
    except OSError:
        ram_gb = 0.0
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "ram_gb": round(ram_gb, 1),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": PINNED_BLAS,
        "obsfem_threads": {w.name: w.threads for w in WORKLOADS.values()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="noise seed of the study (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, so the running worker's process
    # group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "obsfem" / "__init__.py").is_file():
        sys.stderr.write(f"no obsfem sources under {ROOT / 'src'}; run inside a checkout\n")
        return 2
    with open(HERE / "references.json") as fh:
        tally = Tally(json.load(fh))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prefix = len(names) > 1

    print("machine: " + json.dumps(machine()))
    metrics = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        before = (tally.attempted, tally.failed)
        runner = Runner()
        print(f"{name}: {workload.describe(seed)}  OBSFEM_THREADS={workload.threads}")
        if args.trace:
            values, units = per_layer(runner, workload, seed, tally), PER_LAYER_UNITS
            raw, counts = {}, {}
        else:
            values, raw, counts = end_to_end(runner, workload, seed, args.seconds, tally)
            units = END_TO_END_UNITS
        for metric, value in values.items():
            n = f"  median of {counts[metric]}" if metric in counts else ""
            print(f"  {metric:36s} {value:14.6g} {units[metric]}{n}")
            metrics[f"{name}.{metric}" if prefix else metric] = {"value": value, "unit": units[metric]}
        for metric, value in raw.items():
            print(f"  {metric:36s} {value:14.6g} s  median of {counts[metric]}, not rescaled")
        if raw:
            print(f"  rescaled by the median of {counts['references']} reference times of the worker")
        attempted, failed = tally.attempted - before[0], tally.failed - before[1]
        print(f"  {'fail_ratio':36s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} trials)")
    for problem in tally.problems:
        print(f"FAILED: {problem}")

    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
