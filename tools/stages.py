"""Stage times of one obsfem level, from the library's own functions.

    python tools/stages.py [--reps N] [--out BENCH_stages.json]

Each repetition builds three levels from scratch and times, in one
process, every stage that `Level` and `Level.trials` run:

- `build_mesh` and `place_points`;
- `assemble_stiffness` and `assemble_load`;
- the build sweep, which reduces B and the clean data vector G0;
- the error quadrature (`ErrorQuadrature`);
- one call of `solver.dissection_order`, the factorization's LU order,
  on its own (`order_s`);
- the first access of the clean system's `factorization` (kernel basis,
  dissection order and the sparse LU), as a whole;
- per seed: the noise sweep, `solve_saddle` and `compute_errors`.

Nothing is patched.  Before timing, the reports of the staged calls are
checked to equal `Level(...).trials(...)` bit for bit, so a stage list
that drifts from the library fails here.  The JSON gives the median and
the interquartile range of every stage over the repetitions (per-seed
stages as the mean over the level's seeds), with the commit and the
machine: core count, CPU, Python, numpy and scipy versions, the BLAS
thread pins and the OpenBLAS cores (as the bit ledger reads them).
Pin the BLAS to one thread, as CI does, for numbers that compare:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python tools/stages.py
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from obsfem import NoiseModel, observe, place_points  # noqa: E402
from obsfem.analysis import (  # noqa: E402
    TRACE_HATS,
    ErrorQuadrature,
    Level,
    _coupling,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    compute_errors,
    points_for,
    sine_case,
    solve_saddle,
    sweep,
)
from obsfem.observations import ObservationSet  # noqa: E402
from obsfem.solver import SaddleSystem, dissection_order  # noqa: E402
from test_ledger import environment  # noqa: E402

# (name, domain, k, i, noise model, seeds)
LEVELS = [
    ("disk-k80-i1", "disk", 80, 1, NoiseModel.mixture(1.0, 10.0, 0.5), range(7, 12)),
    ("tail-square-k40-i3", "square", 40, 3, NoiseModel.gaussian(2.0), range(0, 20)),
    ("square-k40-i4", "square", 40, 4, NoiseModel.gaussian(math.sqrt(2.0)), range(7, 17)),
]
BUILD_STAGES = ("mesh_s", "placement_s", "stiffness_s", "load_s", "build_sweep_s", "quadrature_s", "order_s",
                "factorization_s")
SEED_STAGES = ("noise_sweep_s", "solve_s", "errors_s")


def staged_level(domain: str, k: int, i: int, model: NoiseModel, seeds: range) -> tuple:
    """(seconds per build stage, seconds per seed stage and seed, the
    reports) of one level built and run stage by stage as `Level` does."""
    times, clock = {}, time.perf_counter

    def timed(name, call, *args):
        start = clock()
        result = call(*args)
        times[name] = times.get(name, 0.0) + clock() - start
        return result

    n, case = points_for(k, i, None), sine_case()
    mesh = timed("mesh_s", build_mesh, domain, k)
    pl = timed("placement_s", place_points, mesh, n)
    A = timed("stiffness_s", assemble_stiffness, mesh)
    F = timed("load_s", assemble_load, mesh, case.f)
    left, right = timed("build_sweep_s", sweep, pl, [*TRACE_HATS, ObservationSet(pl, case.u0, None, 0).values])
    clean = SaddleSystem(A, _coupling(pl, left, right), F, left[2] + np.roll(right[2], 1), mesh.vertices)
    quadrature = timed("quadrature_s", ErrorQuadrature, mesh, case)
    timed("order_s", dissection_order, mesh.vertices, A)  # again inside the factorization, which caches its own
    timed("factorization_s", lambda: clean.factorization)
    reports = []
    for seed in seeds:
        noise_left, noise_right = timed("noise_sweep_s", sweep, pl, [observe(pl, None, model, seed).values])[:, 0]
        solution = timed("solve_s", solve_saddle, clean, clean.G + (noise_left + np.roll(noise_right, 1)))
        reports.append(timed("errors_s", compute_errors, quadrature, solution, 1.0 / k, pl.n, seed))
    for name in SEED_STAGES:
        times[name] /= len(seeds)
    return times, reports


def summary(values: list) -> dict:
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {"median": float(median), "iqr": float(q3 - q1), "runs": values}


def machine() -> dict:
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or None
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_CORETYPE")
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": {name: os.environ.get(name) for name in pins},
            "blas_core": environment()["blas_core"]}


def commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=5, help="repetitions per level (default 5)")
    parser.add_argument("--out", default="BENCH_stages.json", help="where to write the JSON")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")

    levels = []
    for name, domain, k, i, model, seeds in LEVELS:
        _, reports = staged_level(domain, k, i, model, seeds)
        if reports != Level(domain, k, i).trials(model, list(seeds)):
            print(f"{name}: the staged reports differ from Level.trials", file=sys.stderr)
            return 1
        runs = [staged_level(domain, k, i, model, seeds)[0] for _ in range(args.reps)]
        stages = {stage: summary([run[stage] for run in runs]) for stage in BUILD_STAGES + SEED_STAGES}
        levels.append({"name": name, "domain": domain, "k": k, "i": i, "n": points_for(k, i, None),
                       "model": repr(model), "seeds": [seeds.start, seeds.stop], "stages": stages})
        print(f"{name}: " + ", ".join(f"{stage} {stages[stage]['median'] * 1e3:.2f} ms" for stage in stages))
    record = {"harness": "tools/stages.py", "units": "s; seed stages per seed", "commit": commit(),
              "machine": machine(), "reps": args.reps, "levels": levels}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
