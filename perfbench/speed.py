"""The machine's current speed, from a fixed reference computation.

The benchmark runs on a shared machine whose speed changes by tens of
per cent over minutes, as other tenants load it.  A run of one workload
lasts well under a minute, so ten runs land in different phases and a
plain wall time spreads past any useful bound.  `reference()` times a
fixed piece of work that uses no obsfem code, in three parts like the
work of obsfem's layers: a Python loop, NumPy arithmetic in cache, and
filling freshly mapped memory.  Timed before the first call of a run and
after each call, on as many cores as the calls keep busy, it gives the
machine's speed during the run.  `normalized` rescales the median time
of a run's calls by the median of its references, to the speed at which
`reference()` takes NOMINAL_S.  Single references and single calls both
spread by 10-20 % over seconds, so the two are matched run by run, not
call by call.  A change to obsfem moves the calls and not the
reference, so it shows in full.
"""

from __future__ import annotations

import mmap
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# reference() on an unloaded core of the machine recorded in baseline.json.
NOMINAL_S = 0.07
_SIZE = 250_000
_ROUNDS = 32
_LOOP = 200_000
_FRESH_BYTES = 16 << 20
_FRESH_ROUNDS = 2


def reference() -> float:
    """Seconds taken by the fixed reference computation on this core.

    The NumPy arrays are written before the clock starts and the timed
    arithmetic allocates none.  The fresh memory costs page faults and
    memory traffic, as obsfem's large site arrays do; it comes from
    `mmap`, not from the allocator, so the process's history does not
    change what is timed."""
    a = np.linspace(0.0, 1.0, _SIZE)
    b = np.linspace(1.0, 2.0, _SIZE)
    c = a.copy()
    t0 = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    for _ in range(_ROUNDS):
        np.multiply(a, b, out=c)
        c += 1.0
        np.sqrt(c, out=c)
        total += float(c.sum())
    for _ in range(_FRESH_ROUNDS):
        with mmap.mmap(-1, _FRESH_BYTES) as fresh:
            view = np.frombuffer(fresh, dtype=np.float64)
            view.fill(1.0)
            total += float(view.sum())
            del view
    return time.perf_counter() - t0


def normalized(seconds: float, references: list) -> float:
    """`seconds` rescaled from the speed the references' median shows to the nominal speed."""
    return seconds * NOMINAL_S / statistics.median(references)


class Meter:
    """Times `reference()` on `cores` cores at once, so that the speed it
    shows is the machine's with as many cores busy as the workload keeps
    busy.  On one core it runs in this process, on the core the workload
    ran on.  On more, it runs in `cores` helper processes, which live
    until the meter is closed; the process that starts the workload's
    pool workers then holds no reference memory, so its peak RSS stays
    its own."""

    def __init__(self, cores: int = 1):
        self.cores = cores
        self._helpers = None
        if cores > 1:
            self._helpers = ProcessPoolExecutor(cores, mp_context=multiprocessing.get_context("spawn"))
            self.time()  # starts the helpers before the first measurement

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._helpers is not None:
            self._helpers.shutdown()

    def time(self) -> float:
        """Mean seconds of `reference()` over the cores, all running it together."""
        if self._helpers is None:
            return reference()
        runs = [self._helpers.submit(reference) for _ in range(self.cores)]
        return statistics.fmean(f.result() for f in runs)
