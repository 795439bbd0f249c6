"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench

The tail-workload tests start real worker processes and take about half
a minute together.
"""

import importlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import obsfem  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAIL = WORKLOADS["tail-square-pool2"]


def _targets():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.TARGETS}


def _small_study():
    return obsfem.run_study("square", [4, 8], i=2, model=obsfem.NoiseModel.gaussian(1.0),
                            trials=2, seed=0)


def test_wrappers_are_removed_after_a_traced_run():
    before = _targets()
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(_targets()[key] is not fn for key, fn in before.items())
        _small_study()
    assert _targets() == before
    assert tracer.spans


def test_wrappers_are_removed_when_the_call_raises():
    before = _targets()
    with pytest.raises(ValueError):
        with spans.Tracer().installed():
            obsfem.run_study("square", [4], i=2, trials=0)
    assert _targets() == before


def test_self_times_sum_to_the_traced_wall():
    tracer = spans.Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        table = _small_study()
        wall = time.perf_counter() - t0
    recorded = tracer.to_json()
    roots = [s for s in recorded if s["parent"] is None]
    assert [s["name"] for s in roots] == ["analysis.study"]
    assert math.isclose(sum(spans.self_times(recorded)), roots[0]["end"] - roots[0]["start"],
                        rel_tol=0, abs_tol=1e-9)
    metrics = spans.layer_metrics(recorded)
    assert 0 < metrics["trace.wall_s"] <= wall
    assert metrics["solver.solve_calls"] == metrics["observations.observe_calls"] == 4
    assert metrics["analysis.trial_samples"] == 2
    assert metrics["solver.max_residual"] == max(r.max_residual for r in table.rows)


def test_traced_tail_csv_is_byte_identical_to_the_untraced_pooled_one():
    runner = run.Runner()
    pooled = runner.workload(TAIL.name, TAIL.default_seed, False, TAIL.threads)
    traced = runner.workload(TAIL.name, TAIL.default_seed, True, 1)
    assert pooled["output"]["exit"] == 0
    assert traced["output"]["csv"] == pooled["output"]["csv"]
    assert traced["spans"] and "spans" not in pooled


def test_every_call_counts_and_a_call_that_differs_fails_its_trials():
    refs = json.loads((HERE / "references.json").read_text())
    good = TAIL.run(TAIL.default_seed)
    tally = run.Tally(refs)
    tally.check(TAIL, TAIL.default_seed, {"output": good, "differing": 0, "calls": [{}] * 3})
    assert (tally.attempted, tally.failed) == (3 * TAIL.trials, 0)
    tally.check(TAIL, TAIL.default_seed, {"output": good, "differing": 1, "calls": [{}] * 3})
    assert (tally.attempted, tally.failed) == (6 * TAIL.trials, TAIL.trials)


def test_normalized_time_scales_with_the_reference():
    assert speed.normalized(2.0, [speed.NOMINAL_S] * 3) == 2.0
    assert math.isclose(speed.normalized(2.0, [speed.NOMINAL_S, 2 * speed.NOMINAL_S, 9.0]), 1.0)
    with speed.Meter(2) as meter:
        assert meter.time() > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _copy_of_the_benchmark(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_a_wrong_reference_fails_every_trial_and_exits_nonzero(tmp_path):
    checkout = _copy_of_the_benchmark(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src")
    refs_file = checkout / "perfbench" / "references.json"
    refs = json.loads(refs_file.read_text())
    refs[TAIL.name]["csv"][0][4] *= 1.001  # fit_b
    refs_file.write_text(json.dumps(refs))
    proc = _bench("--workload", TAIL.name, "--seconds", "1", cwd=checkout)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == TAIL.trials  # fail_ratio 1


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    proc = _bench("--workload", TAIL.name, "--seconds", "1", cwd=_copy_of_the_benchmark(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
