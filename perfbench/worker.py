"""Run one workload in this fresh interpreter and print one JSON line.

    python3 perfbench/worker.py '{"workload": "conv-disk-i1", "seed": 7, "traced": false, "seconds": 30}'

`run.py` starts this with `src/` on PYTHONPATH and named in
PERFBENCH_SRC, BLAS pinned to one thread and OBSFEM_THREADS set for the
workload; a worker that imports obsfem from anywhere else exits 2.

An untraced worker makes the workload's public call back to back for
about `seconds` (at least once), with the same arguments each time, and
times the reference computation of `speed.py` before the first call and
after each call, on as many cores as the workload uses.  Every call
must return what the first one returned.  For each call it reports the
wall and CPU time (this process plus the pool workers it reaped); for the
process, the peak resident set of itself and of its largest child.  A
traced worker makes the call once, under the tracer, and also returns
the spans and then times the noise draws of every observe call it saw,
outside the traced wall.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import obsfem

REFERENCE_SHARE = 0.03


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _noise_probe(noise_calls) -> float:
    """Time `sample_noise` for each observe call's (model, n, seed)."""
    total = 0.0
    for model, n, seed in noise_calls:
        t0 = time.perf_counter()
        obsfem.sample_noise(model, n, seed)
        total += time.perf_counter() - t0
    return total


def _peak_rss() -> dict:
    """Peak resident set of this process and of its largest reaped child."""
    return {"rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def _references(meter, seconds: float) -> list:
    """Reference times after a call of `seconds`: at least one, and enough
    to fill REFERENCE_SHARE of the call, so that long calls, which give
    few samples, are matched by more references."""
    times = [meter.time()]
    while sum(times) < REFERENCE_SHARE * seconds:
        times.append(meter.time())
    return times


def _timed(call) -> dict:
    """Wall and CPU seconds of `call()`, with its return value."""
    self0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    output = call()
    return {"output": output, "wall_s": time.perf_counter() - t0,
            "cpu_self_s": _cpu(resource.RUSAGE_SELF) - self0,
            "cpu_children_s": _cpu(resource.RUSAGE_CHILDREN) - children0}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(obsfem.__file__).resolve().parents[1]
    if src != Path(os.environ["PERFBENCH_SRC"]).resolve():
        sys.stderr.write(f"obsfem imported from {src}, not from the checkout's src/\n")
        return 2

    import spans
    import speed
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    result = {"output": None, "error": None, "differing": 0, "calls": []}
    try:
        if spec["traced"]:
            tracer = spans.Tracer()
            with tracer.installed():
                call = _timed(lambda: workload.run(seed))
            result["output"] = call.pop("output")
            result["calls"].append(call)
            result["spans"] = tracer.to_json()
            result["noise_s"] = _noise_probe(tracer.noise_calls)
        else:
            with speed.Meter(workload.threads) as meter:
                start = time.perf_counter()
                result["reference_s"] = [meter.time()]
                costs = []
                # Stop where the next call would end, on average, past `seconds`.
                while not costs or time.perf_counter() - start + statistics.median(costs) / 2 <= spec["seconds"]:
                    t0 = time.perf_counter()
                    call = _timed(lambda: workload.run(seed))
                    result["reference_s"] += _references(meter, call["wall_s"])
                    output = call.pop("output")
                    if not result["calls"]:
                        result["output"] = output
                    elif output != result["output"]:
                        result["differing"] += 1
                    result["calls"].append(call)
                    costs.append(time.perf_counter() - t0)
                # Read before the meter's helpers exit, so that they do not count.
                result.update(_peak_rss())
    except Exception:
        result["error"] = traceback.format_exc(limit=3)
    if "rss_self_kb" not in result:
        result.update(_peak_rss())
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
