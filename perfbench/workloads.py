"""The benchmark's workloads: how each one calls obsfem and how its output is checked.

Each workload is one public call, which `worker.py` makes back to back
in a fresh process.  `run` executes inside that process; `check` runs
in `run.py` on the JSON the worker printed and counts failed trials: a
trial fails if its study raised or exited nonzero, if it broke the
1e-10 residual contract, or if it belongs to an output row that fails a
check.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

RESIDUAL_LIMIT = 1e-10
# References were recorded at the seed commit; a relative tolerance leaves
# room for changes in summation order.
REFERENCE_RTOL = 1e-8
TAIL_HEADER = "z,survival,log_survival,fit_a,fit_b,r2"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-300)


@dataclass(frozen=True)
class Study:
    """`obsfem.run_study` over a mesh sweep, serial."""

    name: str
    why: str
    domain: str
    ks: tuple
    i: int
    noise: tuple  # (NoiseModel constructor name, *arguments)
    trials: int
    default_seed: int
    # Endpoint-rate windows checked on every seed: column -> [low, high).
    rate_windows: tuple
    threads: int = 1

    def describe(self, seed: int) -> str:
        return (f"run_study({self.domain!r}, {list(self.ks)}, i={self.i}, "
                f"NoiseModel.{self.noise[0]}({', '.join(map(repr, self.noise[1:]))}), "
                f"trials={self.trials}, seed={seed})")

    def run(self, seed: int) -> dict:
        import obsfem

        model = getattr(obsfem.NoiseModel, self.noise[0])(*self.noise[1:])
        table = obsfem.run_study(self.domain, list(self.ks), i=self.i, model=model,
                                 trials=self.trials, seed=seed)
        return {
            "rows": [
                {"k": r.k, "h": r.h, "n": r.n, "trials": r.trials,
                 "l2_mean": r.l2_mean, "h1_mean": r.h1_mean, "lam_l2_mean": r.lam_l2_mean,
                 "residuals": [max(rep.residual_primal, rep.residual_constraint) for rep in r.reports]}
                for r in table.rows
            ],
            "endpoint_rates": {
                column: obsfem.estimate_rates(table.hs, [getattr(r, column) for r in table.rows]).endpoint
                for column, _ in self.rate_windows
            },
        }

    @property
    def attempted(self) -> int:
        return self.trials * len(self.ks)

    def check(self, seed: int, output, refs: dict) -> tuple[int, list]:
        """(failed trials, problems) of one run's output."""
        if output is None:
            return self.attempted, ["study did not complete"]
        rows = output["rows"]
        if [r["k"] for r in rows] != list(self.ks) or any(r["trials"] != self.trials for r in rows):
            return self.attempted, ["study returned the wrong levels or trial counts"]
        problems = {}
        columns = ("l2_mean", "h1_mean", "lam_l2_mean")
        for idx, r in enumerate(rows):
            res = r["residuals"]
            if len(res) != self.trials or not all(math.isfinite(x) and x <= RESIDUAL_LIMIT for x in res):
                problems[idx] = f"k={r['k']}: residual above {RESIDUAL_LIMIT:g}"
            elif not all(math.isfinite(r[c]) and r[c] > 0.0 for c in columns):
                problems[idx] = f"k={r['k']}: non-finite or non-positive error"
        ref = refs.get(self.name)
        if ref is not None and seed == ref["seed"]:
            for idx, (r, want) in enumerate(zip(rows, ref["rows"])):
                for c in columns:
                    if not _close(r[c], want[c]):
                        problems.setdefault(idx, f"k={r['k']}: {c}={r[c]!r}, reference {want[c]!r}")
        for column, (low, high) in self.rate_windows:
            rate = output["endpoint_rates"][column]
            if not low <= rate < high:
                problems.setdefault(len(rows) - 1,
                                    f"{column} endpoint rate {rate:.4f} outside [{low}, {high})")
        return len(problems) * self.trials, list(problems.values())


@dataclass(frozen=True)
class TailCli:
    """`obsfem.cli.main(["tail", ...])`, the CLI with its process pool."""

    name: str
    why: str
    args: tuple
    trials: int
    default_seed: int
    threads: int

    def argv(self, seed: int) -> list:
        return ["tail", *self.args, "--trials", str(self.trials), "--seed", str(seed)]

    def describe(self, seed: int) -> str:
        return f"obsfem.cli.main({self.argv(seed)})"

    def run(self, seed: int) -> dict:
        import obsfem.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = obsfem.cli.main(self.argv(seed))
        return {"exit": code, "csv": out.getvalue(), "stderr": err.getvalue()}

    @property
    def attempted(self) -> int:
        return self.trials

    def check(self, seed: int, output, refs: dict) -> tuple[int, list]:
        if output is None:
            return self.attempted, ["CLI did not complete"]
        if output["exit"] != 0:
            return self.attempted, [f"CLI exited {output['exit']}: {output['stderr'].strip()}"]
        lines = output["csv"].splitlines()
        if not lines or lines[0] != TAIL_HEADER or len(lines) < 2:
            return self.attempted, ["tail CSV has no header or no rows"]
        try:
            table = [[float(x) for x in line.split(",")] for line in lines[1:]]
        except ValueError:
            return self.attempted, ["tail CSV holds a non-number"]
        if any(len(row) != 6 for row in table):
            return self.attempted, ["tail CSV row without 6 columns"]
        fit_b, r2 = table[0][4], table[0][5]
        if not (math.isfinite(fit_b) and math.isfinite(r2)):
            return self.attempted, [f"tail fit not finite (fit_b={fit_b}, r2={r2})"]
        ref = refs.get(self.name)
        if ref is not None and seed == ref["seed"]:
            want = ref["csv"]
            if len(want) != len(table) or not all(
                _close(a, b) for got, exp in zip(table, want) for a, b in zip(got, exp)
            ):
                return self.attempted, ["tail CSV differs from the reference"]
        return 0, []


WORKLOADS = {
    w.name: w
    for w in (
        Study(
            name="conv-square-i4",
            why="data-side bound: 2.56M sites at k=40, observe dominates, every solve is direct",
            domain="square", ks=(10, 20, 40), i=4, noise=("gaussian", math.sqrt(2.0)),
            trials=10, default_seed=7,
            rate_windows=(("l2_mean", (-1.9656 - 0.25, -1.9656 + 0.25)),
                          ("h1_mean", (-0.9721 - 0.25, -0.9721 + 0.25))),
        ),
        Study(
            name="conv-disk-i1",
            why="solver bound: n below the multiplier dofs, so every solve falls back from LU to MINRES",
            domain="disk", ks=(10, 20, 40, 80), i=1, noise=("mixture", 1.0, 10.0, 0.5),
            trials=5, default_seed=7,
            # Low end as in the acceptance test.  At 5 trials the rate spreads
            # from about -0.47 to 0 over seeds, so the high end only asks that
            # the error falls from k=10 to k=80.
            rate_windows=(("l2_mean", (-0.4804 - 0.25, 0.0)),),
        ),
        TailCli(
            name="tail-square-pool2",
            why="trial-heavy: 200 trials of one level through the CLI and a 2-process pool",
            args=("--domain", "square", "--h", "0.025", "--i", "3", "--sigma", "2"),
            trials=200, default_seed=0, threads=2,
        ),
    )
}
