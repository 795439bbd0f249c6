"""Spans recorded from outside the program, around obsfem's public calls.

`Tracer.installed()` replaces each public function under the module
attribute through which its caller looks it up (`obsfem.analysis.observe`,
`obsfem.cli.tail_study`, ...), so a traced run takes exactly the code
path of an untraced one.  The originals are put back when the block
exits, also on error.  Spans are kept in memory; `layer_metrics` turns
them into per-layer self times and counts.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span's
duration: the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy

# (module, attribute, span name).  The first group is what
# `obsfem.analysis` calls; the last group is the entry points, under the
# names the benchmark's runner and `obsfem.cli` call them by.
TARGETS = [
    ("obsfem.analysis", "build_mesh", "mesh.build"),
    ("obsfem.analysis", "place_points", "observations.place_points"),
    ("obsfem.analysis", "observe", "observations.observe"),
    ("obsfem.analysis", "assemble_stiffness", "assembly.stiffness"),
    ("obsfem.analysis", "assemble_load", "assembly.load"),
    ("obsfem.analysis", "assemble_coupling_matrix", "assembly.coupling"),
    ("obsfem.analysis", "assemble_data_vector", "assembly.data_vector"),
    ("obsfem.analysis", "solve_saddle", "solver.solve"),
    ("obsfem.analysis", "compute_errors", "analysis.errors"),
    ("obsfem", "run_study", "analysis.study"),
    ("obsfem.cli", "run_study", "analysis.study"),
    ("obsfem.cli", "tail_study", "analysis.study"),
    ("obsfem.cli", "main", "cli.main"),
]

# Spans that belong to one noise trial, keyed by (domain, k, seed).
_TRIAL_SPANS = ("observations.observe", "assembly.data_vector", "solver.solve", "analysis.errors")
_LEVEL_SPANS = ("mesh.build", "observations.place_points", "assembly.stiffness",
                "assembly.load", "assembly.coupling")


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    trial: Optional[tuple] = None
    info: dict = field(default_factory=dict)


class Tracer:
    """Collects spans around the functions named in `TARGETS`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.noise_calls: list[tuple] = []  # (model, n, seed) per observe call
        self._stack: list[int] = []
        self._level: Optional[tuple] = None  # (domain, k) of the last build_mesh
        self._trial: Optional[tuple] = None  # (domain, k, seed) of the last observe

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore all of them on exit."""
        saved = []
        try:
            for modname, attr, span_name in TARGETS:
                module = importlib.import_module(modname)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            bound = {}
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    pass
            self._describe(span, bound, result)
            return result

        return wrapper

    def _describe(self, span: Span, args: dict, result) -> None:
        """Attach trial ids and counts; runs after the span has ended."""
        name = span.name
        if name == "mesh.build":
            self._level = (args.get("domain"), args.get("k"))
        elif name == "observations.observe":
            domain, k = self._level or (None, None)
            self._trial = (domain, k, args.get("seed"))
            span.trial = self._trial
            placement = args.get("placement")
            n = int(getattr(placement, "n", 0))
            span.info["sites"] = n
            span.info["site_bytes"] = sum(
                int(getattr(getattr(obj, a, None), "nbytes", 0))
                for obj, a in ((placement, "t"), (placement, "alpha"),
                               (placement, "offsets"), (result, "g"))
            )
            self.noise_calls.append((args.get("model"), n, args.get("seed")))
        elif name in _TRIAL_SPANS:
            span.trial = self._trial
        if name == "solver.solve":
            span.info["method"] = getattr(result, "method", "")
            span.info["iterations"] = int(getattr(result, "iterations", 0))
            span.info["residual"] = max(float(getattr(result, "residual_primal", 0.0)),
                                        float(getattr(result, "residual_constraint", 0.0)))

    def to_json(self) -> list:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "trial": list(s.trial) if s.trial else None, "info": s.info}
            for s in self.spans
        ]


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _quantile(values: list[float], q: float) -> float:
    return float(numpy.quantile(values, q)) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer self times, counts and ratios from one traced run."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + t
        calls[s["name"]] = calls.get(s["name"], 0) + 1

    def self_s(name):
        return by_name.get(name, 0.0)

    observes = [s for s in spans if s["name"] == "observations.observe"]
    sites = sum(s["info"].get("sites", 0) for s in observes)
    solves = [s for s in spans if s["name"] == "solver.solve"]
    minres = [s for s in solves if s["info"].get("method") == "minres"]

    trials: dict[tuple, list] = {}
    for s in spans:
        if s["name"] in _TRIAL_SPANS and s["trial"] is not None:
            window = trials.setdefault(tuple(s["trial"]), [s["start"], s["end"]])
            window[0] = min(window[0], s["start"])
            window[1] = max(window[1], s["end"])
    finest = max((key[1] for key in trials if key[1] is not None), default=None)
    trial_s = [hi - lo for key, (lo, hi) in trials.items() if key[1] == finest]

    roots = [s for s in spans if s["parent"] is None]
    return {
        "mesh.build_s": self_s("mesh.build"),
        "mesh.build_calls": calls.get("mesh.build", 0),
        "observations.place_points_s": self_s("observations.place_points"),
        "observations.observe_s": self_s("observations.observe"),
        "observations.observe_calls": len(observes),
        "observations.sites_observed": sites,
        "observations.observe_ns_per_site": 1e9 * self_s("observations.observe") / sites if sites else 0.0,
        "observations.site_arrays_mb": max((s["info"].get("site_bytes", 0) for s in observes), default=0) / 1e6,
        "assembly.stiffness_s": self_s("assembly.stiffness"),
        "assembly.load_s": self_s("assembly.load"),
        "assembly.coupling_s": self_s("assembly.coupling"),
        "assembly.data_vector_s": self_s("assembly.data_vector"),
        "solver.solve_s": self_s("solver.solve"),
        "solver.solve_calls": len(solves),
        "solver.minres_share": len(minres) / len(solves) if solves else 0.0,
        "solver.minres_iters_mean": (sum(s["info"].get("iterations", 0) for s in minres) / len(minres)
                                     if minres else 0.0),
        "solver.max_residual": max((s["info"].get("residual", 0.0) for s in solves), default=0.0),
        "analysis.errors_s": self_s("analysis.errors"),
        "analysis.level_setup_s": sum(self_s(n) for n in _LEVEL_SPANS),
        "analysis.trial_s_p50": _quantile(trial_s, 0.5),
        "analysis.trial_s_p95": _quantile(trial_s, 0.95),
        "analysis.trial_samples": len(trial_s),
        "analysis.self_s": self_s("analysis.study"),
        "cli.self_s": self_s("cli.main"),
        "trace.wall_s": sum(s["end"] - s["start"] for s in roots),
        "trace.spans": len(spans),
    }
