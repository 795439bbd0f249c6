"""Convergence and tail studies on manufactured solutions.

The reference solution used throughout is

    u0(x, y) = sin(5x + 1) sin(5y + 1),   f = -Lap u0 = 50 u0,

with boundary data g0 = u0 observed at noisy sites and exact multiplier
-du0/dnu (the flux into the boundary).  Field errors are integrated with
the edge-midpoint rule (exact for quadratics), multiplier errors with a
3-point Gauss rule along each boundary element.

A noise draw changes only the noise part of the data vector G, so a
:class:`Level` holds everything else of one (domain, k, n): the mesh,
the placement, A, F, B, the clean data vector G0, the error quadrature
(weights, u0, grad u0 and the exact multiplier at the quadrature
points, the hat gradients) and, from its first solve on, the saddle LU
and the ker B^T basis.  A trial observes only its noise, as an
observation set without g0.  `Level.trials` forms G = G0 + G_noise for
a chunk of seeds in one sweep over the sites, window by window, then
back-solves and integrates the errors of each seed's u and
lambda.  `run_case`, `run_study` and `tail_study` go through
`Level.trials`; a pool task is one level and a contiguous chunk of
seeds, so pooled reports equal serial ones.  The study driver, not the
placement, warns of the sites a level nudged off element endpoints.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .assembly import (  # noqa: F401  (perfbench traces the assemble_* functions under this module)
    TRACE_HATS,
    _coupling,
    assemble_coupling_matrix,
    assemble_data_vector,
    assemble_load,
    assemble_stiffness,
    sweep,
)
from .mesh import MeshError, TriMesh, _check_integer, _count_text, boundary_normal, boundary_point, build_mesh
from .observations import NoiseModel, ObservationSet, _generators, observe, place_points
from .solver import SaddleSolution, SaddleSystem, SingularSystemError, solve_saddle

logger = logging.getLogger(__name__)

# 3-point Gauss rule on [0, 1]; exact through degree 5.
_GAUSS_T = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
_GAUSS_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
_GAUSS_HATS = np.stack([1.0 - _GAUSS_T, _GAUSS_T])  # an element's two hats there

# A sweep holds, per seed, the 2 NB floats of its per-element sums and
# the state of its live noise generators (about 0.7 KB each, counted as
# 1 KiB; two for a mixture seed); the seeds of one sweep hold at most
# _SWEEP_BYTES together.
_SWEEP_BYTES = 8 << 20
_GENERATOR_BYTES = 1 << 10
_BLOCK = 4096  # triangles per block of compute_errors's scratch, which stays in cache


@dataclass(frozen=True)
class ManufacturedCase:
    """An exact solution u0 of -Lap u0 = f, whose trace is the boundary data g0."""

    u0: Callable
    grad_u0: Callable  # (x, y) -> (du/dx, du/dy)
    f: Callable


def sine_case() -> ManufacturedCase:
    """The oscillatory reference solution sin(5x+1) sin(5y+1)."""

    def u0(x, y):
        return np.sin(5.0 * x + 1.0) * np.sin(5.0 * y + 1.0)

    def grad(x, y):
        return (5.0 * np.cos(5.0 * x + 1.0) * np.sin(5.0 * y + 1.0),
                5.0 * np.sin(5.0 * x + 1.0) * np.cos(5.0 * y + 1.0))

    def f(x, y):
        return 50.0 * np.sin(5.0 * x + 1.0) * np.sin(5.0 * y + 1.0)

    return ManufacturedCase(u0, grad, f)


@dataclass
class ErrorReport:
    h: float  # nominal parameter 1/k
    n: int
    seed: int
    l2: float
    h1: float
    semi_h1: float
    lam_l2: float
    lam_half: float  # -1/2,h norm
    residual_primal: float
    residual_constraint: float


class ErrorQuadrature:
    """What the error integrals of one (mesh, case) read that no solution
    changes; built once per level, so a trial adds only its u and lam.
    Field arrays hold a contiguous row per triangle corner i, or per edge
    from corner i to i + 1 mod 3 (`u0_mid`, `grad_u0_mid`, `hat_grads`
    x then y); `weights` is |T|/3 per triangle."""

    def __init__(self, mesh: TriMesh, case: ManufacturedCase):
        p = np.take(mesh.vertices.T, mesh.triangles.T, axis=1).transpose(1, 0, 2)  # (corner, xy, triangle)
        mids = np.add(p, np.roll(p, -1, axis=0), out=np.empty(p.shape))  # edge midpoints, rows contiguous
        mids *= 0.5
        self.mesh = mesh
        self.weights = mesh.areas / 3.0
        self.u0_mid = case.u0(mids[:, 0], mids[:, 1])
        self.grad_u0_mid = case.grad_u0(mids[:, 0], mids[:, 1])
        # grad phi_i = perp(p_k - p_j) / (2 area) with (i, j, k) cyclic
        e = mesh.edges.transpose(2, 1, 0)  # (xy, corner, triangle)
        self.hat_grads = np.stack([-e[1], e[0]])
        self.hat_grads /= 2.0 * mesh.areas
        self.lengths = mesh.boundary.length
        elements = np.arange(len(self.lengths))
        self.successor = np.roll(elements, -1)
        pts = boundary_point(mesh, elements[:, None], _GAUSS_T)  # 3 Gauss points per element
        (gx, gy), normal = case.grad_u0(pts[..., 0], pts[..., 1]), boundary_normal(mesh, elements[:, None], _GAUSS_T)
        self.lambda_exact = -(gx * normal[..., 0] + gy * normal[..., 1])  # -du0/dnu, nu from the mesh boundary


def compute_errors(quadrature: ErrorQuadrature, solution: SaddleSolution,
                   h_nominal: float, n: int, seed: int) -> ErrorReport:
    """Field and multiplier errors of one discrete solution; a u or lam
    that does not fit the mesh raises ValueError.  The integrands are
    formed in place, _BLOCK triangles at a time in one scratch, into a
    (triangle, edge) array per field norm that one sum reduces, so the
    errors keep the bits of the plain formulas."""
    q = quadrature
    u, lam = solution.u, solution.lam
    for name, value, size in (("u", u, len(q.mesh.vertices)), ("lam", lam, len(q.lengths))):
        if np.shape(value) != (size,):
            raise ValueError(f"solution {name} has shape {np.shape(value)}, the mesh needs ({size},)")
    triangles = q.mesh.triangles
    terms = np.empty((2, len(triangles), 3))  # the l2 and H1-seminorm terms, in the order of the sums
    scratch = np.empty((11, min(len(triangles), _BLOCK)))
    for lo in range(0, len(triangles), _BLOCK):
        hi = min(lo + _BLOCK, len(triangles))
        uc, d, sq, (uh, product) = np.split(scratch[:, : hi - lo], [3, 6, 9])
        np.take(u, triangles[lo:hi].T, out=uc, mode="clip")  # (corner, triangle); the mesh checked the indices
        # P1 values at the edge midpoints are endpoint averages.
        np.add(uc[:2], uc[1:], out=d[:2])
        np.add(uc[2], uc[0], out=d[2])
        d *= 0.5
        np.subtract(q.u0_mid[:, lo:hi], d, out=d)
        d *= d
        np.multiply(d, q.weights[lo:hi], out=terms[0, lo:hi].T)
        for hats, exact, square in zip(q.hat_grads[..., lo:hi], q.grad_u0_mid, (d, sq)):  # x, then y
            np.multiply(uc[0], hats[0], out=uh)  # grad u_h: the corners summed in order 0, 1, 2
            uh += np.multiply(uc[1], hats[1], out=product)
            uh += np.multiply(uc[2], hats[2], out=product)
            np.subtract(exact[:, lo:hi], uh, out=square)
            square *= square
        d += sq
        np.multiply(d, q.weights[lo:hi], out=terms[1, lo:hi].T)
    l2_sq, semi_sq = float(terms[0].sum()), float(terms[1].sum())

    approx = lam[:, None] * _GAUSS_HATS[0]
    approx += lam[q.successor][:, None] * _GAUSS_HATS[1]
    np.subtract(q.lambda_exact, approx, out=approx)
    approx *= approx
    lam_l2_e = q.lengths * (approx @ _GAUSS_W)
    lam_l2_sq = float(lam_l2_e.sum())
    lam_half_sq = float(q.lengths @ lam_l2_e)

    return ErrorReport(
        h=h_nominal,
        n=n,
        seed=seed,
        l2=math.sqrt(l2_sq),
        h1=math.sqrt(l2_sq + semi_sq),
        semi_h1=math.sqrt(semi_sq),
        lam_l2=math.sqrt(lam_l2_sq),
        lam_half=math.sqrt(lam_half_sq),
        residual_primal=solution.residual_primal,
        residual_constraint=solution.residual_constraint,
    )


def points_for(k: int, i: Optional[int], n: Optional[int]) -> int:
    """Observation count: explicit n, or h^-i = k^i with h = 1/k; at most
    2^52, so that every site's parameter t is exact (see place_points)."""
    _check_integer("k", k, MeshError)
    if n is None:
        if i is None:
            raise ValueError("need either i or n")
        if i not in (1, 2, 3, 4):
            raise ValueError(f"exponent i must be in 1..4, got {i}")
        n = int(k) ** int(i)  # exact, so a huge k gets the 2^52 message; a k below 2 fails at the mesh
    else:
        _check_integer("n", n)
        if n < 1:
            raise ValueError("n must be positive")
    if n > 1 << 52:
        raise ValueError(f"n must be at most 2^52, got {_count_text(n)}")
    return int(n)


class Level:
    """What the noise trials of one (domain, k, n) level share.

    A level holds the mesh, the placement, the clean system (A, B, F, G0)
    and the error quadrature.  It holds no per-site array: a pass over
    the placement derives t and alpha per window of 2^16 sites into
    buffers of its own, and the build reduces B and G0 in one sweep of
    :func:`assembly.sweep` (so a g0 that is not finite fails here,
    naming the site).
    :meth:`trials` reduces the noise of every seed of a chunk in one more
    sweep, window by window, and solves the clean system for each seed's
    G, so the level factors once.  The error quadrature is built with the
    level, so a trial evaluates neither the case nor the mesh geometry.
    """

    def __init__(self, domain: str, k: int, i: Optional[int] = None, n: Optional[int] = None,
                 case: Optional[ManufacturedCase] = None):
        n = points_for(k, i, n)  # before the mesh, so a bad i or n fails fast
        mesh = self.mesh = build_mesh(domain, k)
        self.case = case if case is not None else sine_case()
        self.h = 1.0 / k
        pl = self.placement = place_points(mesh, n)
        A, F = assemble_stiffness(mesh), assemble_load(mesh, self.case.f)
        left, right = sweep(pl, [*TRACE_HATS, ObservationSet(pl, self.case.u0, None, 0).values])  # B and G0
        self.clean = SaddleSystem(A, _coupling(pl, left, right), F, left[2] + np.roll(right[2], 1), mesh.vertices)
        self.quadrature = ErrorQuadrature(mesh, self.case)

    def trials(self, model: Optional[NoiseModel], seeds: Sequence[int]) -> list:
        """Error reports of one noise draw per seed, in seed order.

        The seeds' data vectors come from sweeps over the sites, each of
        as many seeds as _SWEEP_BYTES holds (see there), so each window's t
        and alpha are derived once per sweep; then each seed is solved and
        measured in turn.  A seed's report does not depend on the other
        seeds in its sweep.
        """
        per_seed = 16 * len(self.mesh.boundary) + _GENERATOR_BYTES * _generators(model)
        per_sweep = max(1, _SWEEP_BYTES // per_seed)
        reports = []
        for j in range(0, len(seeds), per_sweep):
            chunk = seeds[j : j + per_sweep]
            left, right = sweep(self.placement, [observe(self.placement, None, model, s).values for s in chunk])
            reports += [self._solve(self.clean.G + g, s) for g, s in zip(left + np.roll(right, 1, axis=1), chunk)]
        return reports

    def _solve(self, G: np.ndarray, seed: int) -> ErrorReport:
        try:
            solution = solve_saddle(self.clean, G=G)
        except SingularSystemError as exc:
            raise SingularSystemError(
                f"h={self.h:g} n={self.placement.n}: {exc}", estimate=exc.estimate
            ) from exc
        return compute_errors(self.quadrature, solution, self.h, self.placement.n, seed)


def _level_trials(domain: str, k: int, i: Optional[int], n: Optional[int],
                  model: Optional[NoiseModel], seeds: range) -> tuple:
    """(How many sites the level's placement nudged, reports over `seeds`,
    or the SingularSystemError a trial raised, which the parent raises
    after the nudge warning)."""
    level = Level(domain, k, i, n)
    try:
        return len(level.placement.nudged), level.trials(model, seeds)
    except SingularSystemError as exc:
        return len(level.placement.nudged), exc


def _warn_first_chunks(done, chunks: int):
    """Reports of each task; warns of a level's nudged sites at its first
    chunk, then raises the task's exception if it had one."""
    for j, (nudged, reports) in enumerate(done):
        if j % chunks == 0 and nudged:
            logger.warning("nudged %d observation sites off element endpoints", nudged)
        if isinstance(reports, SingularSystemError):
            raise reports
        yield reports


def _run_levels(domain: str, ks: Sequence[int], i: Optional[int], n: Optional[int],
                model: Optional[NoiseModel], seed: int, trials: int, workers: int) -> list:
    """Reports per mesh size k over the seeds seed, ..., seed + trials - 1,
    in seed order.

    A task is one level and a contiguous chunk of the seeds; with
    workers > 1 the chunks go to a process pool, so a worker builds a
    level once per chunk and runs the same trials as the serial loop.
    Each task returns its level's `Placement.nudged` count with its
    reports, and this process warns of it once per level, in level order
    and before the error of a trial that fails, serial or pooled.  The
    serial loop stops at the first level that fails.
    """
    for name, value in (("seed", seed), ("trials", trials), ("workers", workers)):
        _check_integer(name, value)  # before any level is built
    for k in ks:
        points_for(k, i, n)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    seeds = range(seed, seed + trials)
    if not 0 <= seeds.start <= seeds.stop <= 1 << 64:
        raise ValueError(f"seeds [{_count_text(seeds.start)}, {_count_text(seeds.stop)}) must lie within [0, 2^64)")
    size = -(-len(seeds) // workers)
    chunks = [seeds[j : j + size] for j in range(0, len(seeds), size)]
    tasks = [(domain, k, i, n, model, chunk) for k in ks for chunk in chunks]
    if workers > 1 and tasks:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            done = list(_warn_first_chunks(pool.map(_level_trials, *zip(*tasks)), len(chunks)))
    else:
        done = list(_warn_first_chunks((_level_trials(*task) for task in tasks), len(chunks)))
    return [sum(done[j : j + len(chunks)], []) for j in range(0, len(done), len(chunks))]


def run_case(
    domain: str,
    k: int,
    i: Optional[int] = None,
    n: Optional[int] = None,
    model: Optional[NoiseModel] = None,
    seed: int = 0,
) -> ErrorReport:
    """Build, solve and measure one configuration."""
    return _run_levels(domain, [k], i, n, model, seed, 1, 1)[0][0]


@dataclass
class TableRow:
    h: float
    k: int
    n: int
    trials: int
    l2_mean: float
    l2_std: float
    h1_mean: float
    h1_std: float
    lam_l2_mean: float
    max_residual: float
    reports: list = field(default_factory=list)


@dataclass
class ConvergenceTable:
    domain: str
    i: Optional[int]
    rows: list

    @property
    def hs(self) -> np.ndarray:
        return np.array([r.h for r in self.rows])


@dataclass
class RateEstimate:
    endpoint: float
    slope: float
    note: str = ""


def estimate_rates(hs: Sequence[float], errors: Sequence[float]) -> RateEstimate:
    """Convergence rate of errors against the mesh parameter.

    endpoint = ln(e_last / e_first) / ln(h_first / h_last), negative for
    a convergent sequence; slope is the least-squares fit of ln e
    against ln(1/h) over all levels.
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) != len(errors) or len(hs) < 2:
        raise ValueError("need at least two (h, error) pairs")
    for h in hs:
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError(f"h must be positive and finite, got {h:g}")
    for e in errors:
        if not math.isfinite(e):
            raise ValueError(f"errors must be finite, got {e:g}")
    if hs[0] == hs[-1]:
        raise ValueError(f"the first and last h are equal (h={hs[0]:g}), so no rate can be taken")
    if np.any(errors <= 0.0):
        return RateEstimate(float("nan"), float("nan"), "zero error at some level")
    endpoint = math.log(errors[-1] / errors[0]) / math.log(hs[0] / hs[-1])
    slope = float(np.polyfit(np.log(1.0 / hs), np.log(errors), 1)[0])
    return RateEstimate(endpoint, slope)


def run_study(
    domain: str,
    ks: Sequence[int],
    i: Optional[int] = None,
    n: Optional[int] = None,
    model: Optional[NoiseModel] = None,
    trials: int = 1,
    seed: int = 0,
    workers: int = 1,
) -> ConvergenceTable:
    """Sweep mesh sizes, averaging errors over `trials` noise seeds.

    Seeds are seed, seed+1, ...  With workers > 1 the levels and chunks
    of seeds are solved by a process pool; the reports match the serial
    run exactly.
    """
    _check_integer("trials", trials)  # before it is compared
    if trials < 1:
        raise ValueError("trials must be positive")
    reports = _run_levels(domain, ks, i, n, model, seed, trials, workers)
    return ConvergenceTable(domain, i, [_reduce_row(k, r) for k, r in zip(ks, reports)])


def _reduce_row(k: int, reports: list) -> TableRow:
    l2 = np.array([r.l2 for r in reports])
    h1 = np.array([r.h1 for r in reports])
    lam = np.array([r.lam_l2 for r in reports])
    res = max(max(r.residual_primal, r.residual_constraint) for r in reports)
    return TableRow(
        h=reports[0].h,
        k=k,
        n=reports[0].n,
        trials=len(reports),
        l2_mean=float(l2.mean()),
        l2_std=float(l2.std(ddof=1)) if len(reports) > 1 else 0.0,
        h1_mean=float(h1.mean()),
        h1_std=float(h1.std(ddof=1)) if len(reports) > 1 else 0.0,
        lam_l2_mean=float(lam.mean()),
        max_residual=res,
        reports=reports,
    )


@dataclass
class TailReport:
    trials: int
    median: float
    p99: float
    z: np.ndarray
    survival: np.ndarray
    fit_a: float
    fit_b: float
    r2: float
    degenerate: bool


def tail_study(
    domain: str,
    k: int,
    i: Optional[int] = None,
    n: Optional[int] = None,
    model: Optional[NoiseModel] = None,
    trials: int = 200,
    seed: int = 0,
    workers: int = 1,
) -> TailReport:
    """Distribution of the L2 error over repeated noise draws.

    Thresholds are placed at 25 equispaced quantiles from the median to
    the 99th percentile, expressed as multiples z of the median error;
    the survival curve P(err > z * median) is fit as log P = a - b z^2.
    A sub-Gaussian tail shows up as b > 0 with good R^2.
    """
    _check_integer("trials", trials)  # before it is compared
    if trials < 100:
        raise ValueError("tail study needs at least 100 trials")
    [reports] = _run_levels(domain, [k], i, n, model, seed, trials, workers)
    errors = np.array([r.l2 for r in reports])

    med = float(np.median(errors))
    p99 = float(np.quantile(errors, 0.99))
    if errors.max() - errors.min() <= 1e-12 * max(med, 1e-300):
        return TailReport(trials, med, p99, np.zeros(0), np.zeros(0),
                          float("nan"), float("nan"), float("nan"), True)

    thresholds = np.quantile(errors, np.linspace(0.5, 0.99, 25))
    z = thresholds / med
    survival = np.array([np.mean(errors > thr) for thr in thresholds])
    keep = survival > 0.0
    z, survival = z[keep], survival[keep]
    logs = np.log(survival)
    coeff = np.polyfit(z**2, logs, 1)
    fit = np.polyval(coeff, z**2)
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return TailReport(trials, med, p99, z, survival, float(coeff[1]), float(-coeff[0]), r2, False)
