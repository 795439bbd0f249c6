"""Bit ledger: the error reports, B and G0 of the benchmark's levels and
of the levels that cross noise blocks and windows, as recorded in
`ledger.json`, so a change that moves a bit fails here, naming the case,
the seed and the first field that differs.

Where numpy, scipy, numpy's SIMD features and the OpenBLAS cores equal
the recorded ones, every report field and the hashes of B and G0 must
match exactly.
Elsewhere (numpy's float64 `sin` and the SuperLU and BLAS builds may
round differently) the report fields must agree to 1e-12 relative, the
residuals, which are rounding noise already scaled by max(1, norm), to
1e-12 absolute, and the hashes are not compared; the test prints which
check it ran.

A change that moves bits on purpose re-records the ledger with

    PYTHONPATH=src python tests/test_ledger.py

and lists the changed cases in CHANGES.md.
"""

import ctypes
import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

import obsfem
from obsfem import NoiseModel
from obsfem.analysis import ErrorReport, Level

LEDGER = pathlib.Path(__file__).with_name("ledger.json")
FIELDS = list(ErrorReport.__dataclass_fields__)
RTOL = 1e-12

# name -> (domain, mesh sizes k, exponent i, site count n, noise model, seeds)
CASES = {
    "conv-square-i4": ("square", (10, 20, 40), 4, None, NoiseModel.gaussian(math.sqrt(2.0)), range(7, 17)),
    "conv-disk-i1": ("disk", (10, 20, 40, 80), 1, None, NoiseModel.mixture(1.0, 10.0, 0.5), range(7, 12)),
    "tail-square-k40-i3": ("square", (40,), 3, None, NoiseModel.gaussian(2.0), range(200)),
    "square-k4-four-blocks-gaussian": ("square", (4,), None, 3 * 2 ** 20 + 5, NoiseModel.gaussian(1.5),
                                       range(7, 10)),
    "square-k4-four-blocks-mixture": ("square", (4,), None, 3 * 2 ** 20 + 5,
                                      NoiseModel.mixture(1.0, 10.0, 0.3), range(7, 10)),
    "disk-k10-n17": ("disk", (10,), None, 17, NoiseModel.mixture(1.0, 10.0, 0.5), range(7, 10)),
    "square-k2-runs-cross-windows": ("square", (2,), None, 600_000, NoiseModel.gaussian(1.0), range(7, 10)),
    "square-k10-i2-no-noise": ("square", (10,), 2, None, None, range(7, 10)),
}


def blas_core(package):
    """The name of the core whose kernels the OpenBLAS in `package`'s
    wheel runs (OPENBLAS_CORETYPE may force one), or None where no library
    in `<package>.libs` exports it."""
    libs = pathlib.Path(package.__file__).parent.with_name(f"{package.__name__}.libs")
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename", "scipy_openblas_get_corename64_"):  # scipy's, numpy's
            read = getattr(handle, symbol, None)
            if read is not None:
                read.argtypes, read.restype = [], ctypes.c_char_p
                return read().decode()
    return None


def environment() -> dict:
    """What the bits may depend on beyond the code: the numpy and scipy
    versions, the SIMD features numpy dispatches to and the cores of
    numpy's and scipy's OpenBLAS."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    simd = sorted(name for name, on in umath.__cpu_features__.items() if on)
    return {"numpy": np.__version__, "scipy": scipy.__version__, "simd": simd,
            "blas_core": {"numpy": blas_core(np), "scipy": blas_core(scipy)}}


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def record_case(name: str) -> list:
    """Per level of the case: k, the hashes of B and G0, and each seed's
    report with every field as float.hex."""
    domain, ks, i, n, model, seeds = CASES[name]
    levels = []
    for k in ks:
        level = Level(domain, k, i, n)
        B = level.clean.B
        levels.append({
            "k": k,
            "B": _sha256(B.indptr, B.indices, B.data),
            "G0": _sha256(level.clean.G),
            "reports": [{f: float(getattr(r, f)).hex() for f in FIELDS} for r in level.trials(model, seeds)],
        })
    return levels


def first_difference(name: str, got: list, want: list, exact: bool):
    """A message naming the case, the level, the seed and the first field
    that differs, or None."""
    for g, w in zip(got, want):
        where = f"case {name}, k={g['k']}"
        if exact:
            for part in ("B", "G0"):
                if g[part] != w[part]:
                    return f"{where}: the sha256 of {part} is {g[part]}, the ledger has {w[part]}"
        for rg, rw in zip(g["reports"], w["reports"]):
            for f in FIELDS:
                a, b = float.fromhex(rg[f]), float.fromhex(rw[f])
                tol = RTOL if f.startswith("residual") else 0.0
                if a != b if exact else not math.isclose(a, b, rel_tol=RTOL, abs_tol=tol):
                    return (f"{where}, seed {float.fromhex(rw['seed']):.0f}: {f} is {rg[f]}, "
                            f"the ledger has {rw[f]}")
        if len(g["reports"]) != len(w["reports"]):
            return f"{where}: {len(g['reports'])} reports, the ledger has {len(w['reports'])}"
    if len(got) != len(want):
        return f"case {name}: {len(got)} levels, the ledger has {len(want)}"
    return None


def test_reports_and_blocks_match_the_ledger(capsys):
    ledger = json.loads(LEDGER.read_text())
    exact = ledger["environment"] == environment()
    with capsys.disabled():
        print("\nledger: " + ("exact bits (recorded environment)" if exact else
                              f"environment differs from the recorded one, reports compared to {RTOL:g} "
                              "(residuals absolute, other fields relative), B and G0 hashes not compared"))
    assert sorted(ledger["cases"]) == sorted(CASES)
    for name in CASES:
        problem = first_difference(name, record_case(name), ledger["cases"][name], exact)
        assert problem is None, problem


def test_reports_do_not_depend_on_the_blas_thread_count():
    # a disk k=80, i=1 report: its residuals are norms of NV = 20,359
    # entries, a length whose BLAS dot OpenBLAS splits across its threads
    program = ("from obsfem import NoiseModel; from obsfem.analysis import Level; "
               "[r] = Level('disk', 80, i=1).trials(NoiseModel.mixture(1.0, 10.0, 0.5), [8]); "
               "print(*(float(v).hex() for v in vars(r).values()))")
    src = os.path.dirname(os.path.dirname(obsfem.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = [subprocess.run([sys.executable, "-c", program], capture_output=True, check=True, text=True,
                              env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                                   "OMP_NUM_THREADS": threads}).stdout.split()
               for threads in ("1", "2")]
    assert dict(zip(FIELDS, reports[0])) == dict(zip(FIELDS, reports[1]))


def test_a_forced_blas_core_is_compared_to_the_tolerance():
    # another OpenBLAS core is another environment: a case recorded under
    # it must take the 1e-12 comparison, and pass it.  Prescott's kernels
    # (SSE3) run on any x86-64.
    if platform.machine().lower() not in ("x86_64", "amd64") or None in environment()["blas_core"].values():
        pytest.skip("needs x86-64 and an OpenBLAS that names its core")
    name = "disk-k10-n17"
    program = f"import json, test_ledger as t; print(json.dumps([t.environment(), t.record_case({name!r})]))"
    src = os.path.dirname(os.path.dirname(obsfem.__file__))
    path = os.pathsep.join(filter(None, [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", program], capture_output=True, check=True, text=True,
                         env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Prescott"})
    forced, got = json.loads(run.stdout)
    ledger = json.loads(LEDGER.read_text())
    assert forced["blas_core"] != ledger["environment"]["blas_core"]  # so the 1e-12 comparison applies
    assert first_difference(name, got, ledger["cases"][name], exact=False) is None


if __name__ == "__main__":
    LEDGER.write_text(json.dumps({"environment": environment(),
                                  "cases": {name: record_case(name) for name in CASES}}, indent=1) + "\n")
