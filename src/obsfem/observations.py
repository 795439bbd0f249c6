"""Boundary observation points, noise, and empirical quadrature.

Measurements live on the boundary loop at arclengths s_i = (i - 1/2)|Gamma|/n.
Each point gets a local quadrature weight from the spacing of the points
inside its boundary element, and a global weight

    alpha_j = omega_j * |F_E'(t_j)|,

so that sum_j alpha_j u(x_j) v(x_j) approximates the L2(Gamma) pairing.
An observation set stores no data: it binds a placement, g0, a noise
model and a seed, and its data g_j = g0(x_j) + e_j are read through
`values`.  Noise is generated with a counter-based RNG in fixed-size
blocks, each drawn over its whole window in the set, so the value at
point i depends only on (seed, i, n); large observation sets can
therefore be read in streaming chunks (and in parallel) without
changing a single bit.
"""

from __future__ import annotations

import logging
import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .mesh import TriMesh

logger = logging.getLogger(__name__)

# Fixed block size for counter-based noise generation.  Changing this
# constant changes every stream, so it is part of the data format.
_NOISE_BLOCK = 1 << 20

# Sites are read in sub-blocks of this size (dividing _NOISE_BLOCK), so
# per-site work arrays stay a few MB at any n.
_SUB_BLOCK = 1 << 16

# Points closer than this to an element endpoint are nudged inward.
_ENDPOINT_TOL = 1e-12
_ENDPOINT_NUDGE = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise law: none, Gaussian(sigma), or a two-component
    Gaussian scale mixture (component 1 with prob p, else component 2)."""

    kind: str
    sigma: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0
    p: float = 0.5

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "mixture"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("sigma", "sigma1", "sigma2", "p"):
            object.__setattr__(self, name, float(getattr(self, name)) + 0.0)  # -0.0 becomes 0.0
        for name in ("sigma", "sigma1", "sigma2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.kind == "mixture" and not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p (the mixture probability) must lie in [0, 1], got {self.p}")

    @staticmethod
    def none() -> "NoiseModel":
        return NoiseModel("none")

    @staticmethod
    def gaussian(sigma: float) -> "NoiseModel":
        return NoiseModel("gaussian", sigma=sigma)

    @staticmethod
    def mixture(sigma1: float, sigma2: float, p: float = 0.5) -> "NoiseModel":
        return NoiseModel("mixture", sigma1=sigma1, sigma2=sigma2, p=p)

    @property
    def std(self) -> float:
        """Standard deviation of one noise draw."""
        if self.kind == "none":
            return 0.0
        if self.kind == "gaussian":
            return self.sigma
        return math.sqrt(self.p * self.sigma1**2 + (1.0 - self.p) * self.sigma2**2)


def _noise_block(model: Optional[NoiseModel], seed: int, block: int, out: np.ndarray) -> np.ndarray:
    """Fill `out` with noise block `block` of the stream, drawn over
    len(out) entries, and return it; no noise writes zeros."""
    if model is None or model.kind == "none":
        out[:] = 0.0
        return out
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) | (block << 64)
    rng = np.random.Generator(np.random.Philox(key=key))
    if model.kind == "gaussian":
        rng.standard_normal(out=out)
        out *= model.sigma
        return out
    # mixture: component indicator first, then one normal per point
    pick = rng.random(out=out) < model.p
    rng.standard_normal(out=out)
    np.multiply(out, model.sigma1, out=out, where=pick)
    np.multiply(out, model.sigma2, out=out, where=np.logical_not(pick, out=pick))
    return out


def _draw_noise(model: Optional[NoiseModel], seed: int, n: int, lo: int, hi: int,
                out: np.ndarray) -> np.ndarray:
    """Write entries [lo, hi) of the noise of an n-entry stream into `out`.

    Block b is always drawn over its whole window [b B, min(n, (b+1) B)):
    a mixture block draws its uniforms before its normals, so its entries
    depend on where its draw stops.  A window that [lo, hi) only partly
    covers is drawn into an array of its own.
    """
    for base in range(lo - lo % _NOISE_BLOCK, hi, _NOISE_BLOCK) if lo < hi else ():
        end = min(n, base + _NOISE_BLOCK)
        a, b = max(lo, base), min(hi, end)
        if (a, b) == (base, end):
            _noise_block(model, seed, base // _NOISE_BLOCK, out[a - lo : b - lo])
        else:
            window = _noise_block(model, seed, base // _NOISE_BLOCK, np.empty(end - base))
            out[a - lo : b - lo] = window[a - base : b - base]
    return out


def sample_noise(model: Optional[NoiseModel], count: int, seed: int) -> np.ndarray:
    """Draw `count` noise values, the whole stream of that length."""
    return _draw_noise(model, seed, count, 0, count, np.empty(count))


def _site_array(n: int) -> np.ndarray:
    """An uninitialized float array of n entries in a memory map of its own.

    The per-site arrays of a placement are a level's only large
    allocations.  Taken from the malloc heap, they can stay resident
    after the level is freed, for as long as any smaller allocation above
    them lives; a map of their own is returned to the system with them.
    """
    buf = mmap.mmap(-1, max(8 * n, 1))
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)  # as numpy advises for its own large arrays
    return np.frombuffer(buf, dtype=float, count=n)


@dataclass
class UniformityReport:
    """Spread statistics of boundary points: s_min is the smallest
    arclength gap between neighbours, s_max the largest distance from any
    boundary point to the set (half the widest gap on a closed loop)."""

    s_min: float
    s_max: float
    ratio: float  # s_max / s_min, 1/2 for perfectly equispaced points


@dataclass
class Placement:
    """Observation sites on the boundary loop, bucketed by element.

    Points are stored element by element in loop order: element e owns
    the slice [offsets[e], offsets[e+1]) of the flat arrays.  Within an
    element the local parameters t are strictly increasing.

    `work` is one scratch array of min(n, 2^20) floats, the size of a
    noise block, made once with the placement.  Every pass over the
    sites that needs a block of values (noise draws, data, the reductions
    of assembly) runs through it, so no pass allocates an array the size
    of a block or of n.  A pass owns `work` until it returns.  `t`,
    `alpha` and `work` each live in a memory map of their own (see
    :func:`_site_array`), so dropping a level returns them to the system.
    """

    mesh: TriMesh
    n: int
    offsets: np.ndarray  # (NB+1,) int
    t: np.ndarray  # (n,) local parameters
    alpha: np.ndarray  # (n,) global quadrature weights
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = _site_array(min(self.n, _NOISE_BLOCK))

    def positions(self, lo: int, hi: int) -> np.ndarray:
        """Points x_j of sites [lo, hi) on the exact boundary, shape (hi - lo, 2), with
        the bits of :func:`boundary_point`; built per element run, columns contiguous."""
        b = self.mesh.boundary
        owners, counts = _element_runs(self.offsets, lo, hi)
        t = self.t[lo:hi]
        p0 = self.mesh.vertices[b.v0[owners]].T
        xy = t * np.repeat(self.mesh.vertices[b.v1[owners]].T - p0, counts, axis=1)
        xy += np.repeat(p0, counts, axis=1)
        curved = b.curved[owners]  # the arc formula only over the runs of arcs
        arc = np.repeat(curved, counts)
        cx, cy, r, th0, th1 = np.repeat(b.arc[owners[curved]], counts[curved], axis=0).T
        th = th0 + t[arc] * (th1 - th0)
        xy[:, arc] = cx + r * np.cos(th), cy + r * np.sin(th)
        return xy.T

    def omega(self, lo: int, hi: int) -> np.ndarray:
        """Local (parameter-space) weights omega_j of sites [lo, hi)."""
        return _local_weights(self.t, self.offsets, lo, hi)

    def evaluate(self, g0: Callable, lo: int, hi: int) -> np.ndarray:
        """g0 at sites [lo, hi) in one call of g0; the callers read at most
        a sub-block of sites at a time."""
        pts = self.positions(lo, hi)
        vals = np.asarray(g0(*pts.T), dtype=float)  # contiguous x and y
        if vals.shape not in ((), (hi - lo,)):
            raise ValueError("g0 must map coordinate arrays to a value array")
        vals = np.broadcast_to(vals, (hi - lo,))
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"g0 is not finite at site {lo + bad[0]} {tuple(pts[bad[0]].tolist())}")
        return vals

    def arclengths(self) -> np.ndarray:
        """Global arclength coordinate of every point, in storage order."""
        h = self.mesh.boundary.length
        starts = np.concatenate([[0.0], np.cumsum(h)])[:-1]
        counts = np.diff(self.offsets)
        return np.repeat(starts, counts) + self.t * np.repeat(h, counts)

    @property
    def alpha_bounds(self) -> tuple[float, float]:
        """Empirical constants (B3, B4) with B3/n <= alpha_j <= B4/n."""
        return float(self.n * self.alpha.min()), float(self.n * self.alpha.max())


def _element_runs(offsets: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(owners, counts): the elements of the flat layout `offsets` that own
    sites in [lo, hi), in loop order, and how many of those sites each owns."""
    counts = np.diff(np.clip(offsets, lo, hi))
    owners = np.flatnonzero(counts)
    return owners, counts[owners]


def _local_weights(t: np.ndarray, offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The weights of :func:`quadrature_weights`, taken per element of the
    flat layout `offsets`, for sites [lo, hi) of the flat parameters t."""
    m = hi - lo
    if m == 0:
        return np.empty(0)
    w = np.empty(m)
    half = np.empty(m + 1)  # half[j] is half the gap before site lo + j
    half[0] = t[lo] - (t[lo - 1] if lo else 0.0)
    np.subtract(t[lo + 1 : hi], t[lo : hi - 1], out=half[1:m])
    half[m] = (t[hi] if hi < len(t) else 1.0) - t[hi - 1]
    half *= 0.5
    np.add(half[:-1], half[1:], out=w)
    o = offsets - lo
    first, last = o[(o >= 0) & (o < m)], o[(o > 0) & (o <= m)] - 1
    w[first] = t[lo + first] + half[first + 1]
    w[last] = half[last] + (1.0 - t[lo + last])
    w[o[:-1][(np.diff(o) == 1) & (o[:-1] >= 0) & (o[:-1] < m)]] = 1.0
    return w


def quadrature_weights(t: np.ndarray) -> np.ndarray:
    """Empirical quadrature weights on [0, 1] for ordered points t.

    With gaps dt_j = t_j - t_{j-1} (conventions t_0 = 0, t_{m+1} = 1):

        w_1 = dt_1 + dt_2 / 2
        w_j = (dt_j + dt_{j+1}) / 2     for 1 < j < m
        w_m = dt_m / 2 + dt_{m+1}

    A single point gets weight 1, no points give an empty array; the
    weights always sum to 1.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise ValueError("points must lie strictly inside (0, 1)")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("points must be strictly increasing")
    return _local_weights(t, np.array([0, len(t)]), 0, len(t)) if len(t) else t


def place_points(mesh: TriMesh, n: int) -> Placement:
    """Place n sites at arclengths (i - 1/2)|Gamma|/n and weight them.

    Sites that would land within 1e-12 of an element endpoint are nudged
    forward by 1e-9 |Gamma|/n, so every site is interior to exactly one
    element.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    h = mesh.boundary.length
    starts = np.concatenate([[0.0], np.cumsum(h)])
    spacing = float(h.sum()) / n

    def locate(s):
        e = np.minimum(np.searchsorted(starts, s, side="right") - 1, len(h) - 1)
        return e, (s - starts[e]) / h[e]

    # s_i = (i + 1/2) spacing is nondecreasing, so each element owns one run
    # of sites.  Only the few sites around where each start falls can begin
    # a run or lie within 1e-12 of an element end: locate those one by one.
    m = min(int(_ENDPOINT_TOL / spacing) + 3, n)
    guess = np.ceil(starts / spacing - 0.5).astype(np.int64)
    idx = np.unique(np.clip(guess[:, None] + np.arange(-m, m), 0, n - 1))
    s = (idx + 0.5) * spacing
    e, tt = locate(s)
    near = (tt * h[e] < _ENDPOINT_TOL) | ((1.0 - tt) * h[e] < _ENDPOINT_TOL)
    if near.any():
        logger.warning("nudged %d observation sites off element endpoints", near.sum())
    e[near], t_moved = locate(s[near] + _ENDPOINT_NUDGE * spacing)
    offsets = np.append(idx, n)[np.searchsorted(e, np.arange(len(h) + 1))]

    # t = (s - start) / h, then alpha = omega h, with each run's start and h repeated.
    t, alpha = _site_array(n), _site_array(n)
    for lo in range(0, n, _SUB_BLOCK):
        hi = min(n, lo + _SUB_BLOCK)
        owners, counts = _element_runs(offsets, lo, hi)
        tb = np.multiply(np.arange(lo, hi, dtype=float) + 0.5, spacing, out=t[lo:hi])
        tb -= np.repeat(starts[owners], counts)
        tb /= np.repeat(h[owners], counts)
    t[idx[near]] = np.clip(t_moved, 1e-15, 1.0 - 1e-15)
    for lo in range(0, n, _SUB_BLOCK):
        hi = min(n, lo + _SUB_BLOCK)
        owners, counts = _element_runs(offsets, lo, hi)
        alpha[lo:hi] = _local_weights(t, offsets, lo, hi) * np.repeat(h[owners], counts)
    return Placement(mesh, n, offsets, t, alpha)


def uniformity_report(mesh: TriMesh, arclengths: np.ndarray) -> UniformityReport:
    """Gap statistics of points given by arclength along the loop."""
    s = np.sort(np.asarray(arclengths, dtype=float))
    if len(s) < 2:
        raise ValueError("need at least two points")
    total = mesh.boundary_length
    gaps = np.diff(np.concatenate([s, [s[0] + total]]))
    s_min = float(gaps.min())
    s_max = float(gaps.max() / 2.0)
    return UniformityReport(s_min, s_max, s_max / s_min)


@dataclass
class ObservationSet:
    """Placement plus observed data g_j = g0(x_j) + e_j for one seed.

    The set stores no data.  `values` draws the noise of the sites it is
    asked for and adds g0 (if any), into the caller's array if one is
    given, so reading the set block by block through `placement.work`
    allocates no array the size of a block.  g0 None means the data are
    the noise alone; model None means no noise.
    """

    placement: Placement
    g0: Optional[Callable]
    model: Optional[NoiseModel]
    seed: int

    def values(self, lo: int, hi: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """g at sites [lo, hi), written into `out` if it is given.  Each
        noise block is drawn over its whole window in the set (see
        :func:`_draw_noise`), as studies read it."""
        n = self.placement.n
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"site range [{lo}, {hi}) is not within [0, {n}]")
        if out is not None and len(out) != hi - lo:
            raise ValueError(f"out has length {len(out)}, the site range [{lo}, {hi}) needs {hi - lo}")
        out = _draw_noise(self.model, self.seed, n, lo, hi, np.empty(hi - lo) if out is None else out)
        if self.g0 is not None:
            for a in range(lo, hi, _SUB_BLOCK):
                b = min(hi, a + _SUB_BLOCK)
                out[a - lo : b - lo] += self.placement.evaluate(self.g0, a, b)
        return out


def observe(placement: Placement, g0: Optional[Callable], model: Optional[NoiseModel],
            seed: int) -> ObservationSet:
    """Bind observed data to an existing placement: the set of sites,
    g0 (None for noise alone), the noise model and the seed.  Nothing is
    drawn or evaluated here; the data are read through
    :meth:`ObservationSet.values`."""
    return ObservationSet(placement, g0, model, seed)


def build_observation_set(
    mesh: TriMesh,
    n: int,
    g0: Callable,
    model: Optional[NoiseModel] = None,
    seed: int = 0,
) -> ObservationSet:
    """Place n sites on the boundary and observe g0 under the noise model.

    The result is bit-reproducible: identical (mesh, n, g0, model, seed)
    give identical values, however the set is read.
    """
    return observe(place_points(mesh, n), g0, model, seed)


def dump_observations_csv(obs: ObservationSet, path: str) -> None:
    """Write one line per site (for debugging; floats at 17 digits).
    Each noise block is read once into `placement.work` and written out
    one sub-block at a time.  A set without g0 holds noise alone, so its
    g0 column is 0."""
    pl = obs.placement
    with open(path, "w") as fh:
        fh.write("element,t,x,y,g0,e,g,omega,alpha\n")
        for lo in range(0, pl.n, _NOISE_BLOCK):
            hi = min(pl.n, lo + _NOISE_BLOCK)
            block = obs.values(lo, hi, pl.work[: hi - lo])
            for a in range(lo, hi, _SUB_BLOCK):
                b = min(hi, a + _SUB_BLOCK)
                pts = pl.positions(a, b)
                clean = np.zeros(b - a) if obs.g0 is None else pl.evaluate(obs.g0, a, b)
                g = block[a - lo : b - lo]
                columns = (np.repeat(*_element_runs(pl.offsets, a, b)), pl.t[a:b], pts[:, 0], pts[:, 1],
                           clean, g - clean, g, pl.omega(a, b), pl.alpha[a:b])
                np.savetxt(fh, np.column_stack(columns), fmt=["%d"] + ["%.17g"] * 8, delimiter=",")


def empirical_inner_product(alpha: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """<u, v>_n = sum_j alpha_j u_j v_j for values sampled at the sites."""
    return float(np.dot(alpha, np.asarray(u) * np.asarray(v)))


def empirical_norm(alpha: np.ndarray, u: np.ndarray) -> float:
    """Seminorm ||u||_n = sqrt(<u, u>_n)."""
    return math.sqrt(max(empirical_inner_product(alpha, u, u), 0.0))
