"""Boundary observation points, noise, and empirical quadrature.

Measurements live on the boundary loop at arclengths s_i = (i - 1/2)|Gamma|/n.
Each point gets a local quadrature weight from the spacing of the points
inside its boundary element, and a global weight

    alpha_j = omega_j * |F_E'(t_j)|,

so that sum_j alpha_j u(x_j) v(x_j) approximates the L2(Gamma) pairing.
A placement stores no per-site data: t, alpha and the points are
derived per window of sites from per-element constants.
An observation set stores no data: it binds a placement, g0, a noise
model and a seed, and its data g_j = g0(x_j) + e_j are read through
`values`.  Noise is drawn in fixed-size blocks of a counter-based RNG,
each in order from its start, so the value at site i depends only on
(seed, i, n); a set's cursor goes on from where it stands, so windows
read in order draw each block once.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .mesh import TriMesh, _check_integer, _count_text, _run_points

# Fixed block size for counter-based noise generation.  Changing this
# constant changes every stream, so it is part of the data format.
_NOISE_BLOCK = 1 << 20

# A sweep reads the sites in windows [j W, min(n, (j+1) W)) of this size
# W, which divides _NOISE_BLOCK, so its per-site work arrays stay within
# the L2 cache at any n and no window crosses a noise block.
_SUB_BLOCK = 1 << 16

# Points closer than this to an element endpoint are nudged inward.
_ENDPOINT_TOL = 1e-12
_ENDPOINT_NUDGE = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise law: Gaussian(sigma), or a two-component Gaussian
    scale mixture (component 1 with prob p, else 2); no noise is None."""

    kind: str
    sigma: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0
    p: float = 0.5

    def __post_init__(self):
        if self.kind not in ("gaussian", "mixture"):
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
    def gaussian(sigma: float) -> "NoiseModel":
        return NoiseModel("gaussian", sigma=sigma)

    @staticmethod
    def mixture(sigma1: float, sigma2: float, p: float = 0.5) -> "NoiseModel":
        return NoiseModel("mixture", sigma1=sigma1, sigma2=sigma2, p=p)

    @property
    def std(self) -> float:
        """Standard deviation of one noise draw."""
        if self.kind == "gaussian":
            return self.sigma
        return math.sqrt(self.p * self.sigma1**2 + (1.0 - self.p) * self.sigma2**2)


def _generators(model: Optional[NoiseModel]) -> int:
    """How many Philox generators a noise stream of `model` holds."""
    return {"gaussian": 1, "mixture": 2}[model.kind] if model is not None else 0


class _NoiseStream:
    """A cursor over the noise of an n-entry stream, drawn in blocks.

    Block b covers the m entries [b B, min(n, (b+1) B)) and is keyed by
    the Philox key seed | b << 64.  Gaussian noise is sigma times the
    normals of that key.  A mixture entry is sigma1 times its normal if
    its uniform is below p, else sigma2 times it, where the block's m
    uniforms come first in the key's stream and its m normals after
    them.  The normals are drawn by a second generator moved past the
    uniforms (Philox yields 4 per counter step), so drawing a block in
    parts gives the bits of one draw over the whole block.  The seed
    is the low 64 bits of the key, so it must be an integer in [0, 2^64).
    """

    def __init__(self, model: Optional[NoiseModel], seed: int, n: int):
        _check_integer("seed", seed)
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {_count_text(seed)}")
        self.model, self.seed, self.n = model, int(seed), n
        self.at = self.end = 0  # the next entry it draws, the end of its block

    def _open(self, block: int) -> None:
        """Stand at the start of block `block`."""
        self.at = block * _NOISE_BLOCK
        self.end = min(self.n, self.at + _NOISE_BLOCK)
        key = self.seed | (block << 64)
        bits = np.random.Philox(key=key)
        if self.model.kind == "mixture":
            self.uniforms = np.random.Generator(np.random.Philox(key=key))
            bits.advance((self.end - self.at) // 4)
            bits.random_raw((self.end - self.at) % 4)
        self.normals = np.random.Generator(bits)

    def draw(self, lo: int, out: np.ndarray) -> np.ndarray:
        """Fill `out` with entries [lo, lo + len(out)) of the stream and
        return it.  In each block the cursor goes on from where it stands
        if that is not past the entries, and opens the block anew
        otherwise; the entries it skips are drawn per window and dropped.
        No noise writes zeros."""
        model, a, hi = self.model, lo, lo + len(out)
        if model is None:
            out[:] = 0.0
            return out
        while a < hi:
            if not self.at <= a < self.end:
                self._open(a // _NOISE_BLOCK)
            while self.at < a:
                self.draw(self.at, np.empty(min(a - self.at, _SUB_BLOCK)))
            part = out[a - lo : min(hi, self.end) - lo]
            self.at = a = a + len(part)
            if model.kind == "gaussian":
                self.normals.standard_normal(out=part)
                part *= model.sigma
            else:
                pick = self.uniforms.random(out=part) < model.p
                self.normals.standard_normal(out=part)
                np.multiply(part, model.sigma1, out=part, where=pick)
                np.multiply(part, model.sigma2, out=part, where=np.logical_not(pick, out=pick))
        return out


def sample_noise(model: Optional[NoiseModel], count: int, seed: int) -> np.ndarray:
    """Draw `count` noise values, the whole stream of that length."""
    _check_integer("count", count)
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {_count_text(count)}")
    return _NoiseStream(model, seed, count).draw(0, np.empty(count))


def _site_array(n: int) -> np.ndarray:
    """An uninitialized float array of n entries in a memory map of its own.

    A pass over the sites holds three window buffers (t, alpha and the
    work array) of min(n, 2^16) floats, 512 KB, each (t two more).
    Taken from the malloc heap, they can stay resident after the pass,
    for as long as any smaller allocation above them lives; a map of
    their own is returned to the system with them.
    """
    return np.frombuffer(mmap.mmap(-1, max(8 * n, 1)), dtype=float, count=n)


class Window(NamedTuple):
    """Sites [lo, hi): the elements that own them in loop order, how many
    each owns, their t and alpha.  A window of a pass holds its buffers,
    which the next window overwrites, so no reader keeps one past its step."""

    lo: int
    hi: int
    owners: np.ndarray
    counts: np.ndarray
    t: np.ndarray
    alpha: np.ndarray


@dataclass
class Placement:
    """Observation sites on the boundary loop, bucketed by element.

    Points are stored element by element in loop order: element e owns
    the slice [offsets[e], offsets[e+1]) of the sites.  Within an element
    the local parameters t are strictly increasing.

    A placement holds no per-site data, only what derives it with the
    boundary's element starts and lengths: `offsets`, the site `spacing`
    and the sites nudged off element endpoints (`nudged`, their clipped
    `nudged_t`).  `window(lo, hi)` derives a :class:`Window` of sites from
    them, the same bits for any range; `windows()` is a pass over them all.
    """

    mesh: TriMesh
    n: int
    offsets: np.ndarray  # (NB+1,) int
    spacing: float  # arclength between neighbouring sites
    nudged: np.ndarray  # (m,) increasing indices of the sites nudged off element endpoints
    nudged_t: np.ndarray  # (m,) their local parameters

    def window(self, lo: int, hi: int) -> Window:
        """Sites [lo, hi) as a window of arrays of its own, the bits of a pass."""
        _check_range(self.n, lo, hi)
        return self._window(lo, hi, np.empty(hi - lo + 2), np.empty(hi - lo))

    def windows(self) -> Iterator[tuple[Window, np.ndarray]]:
        """One pass over the sites: yields (window, work) per window [lo, hi)
        = [j 2^16, min(n, (j+1) 2^16)) (see _SUB_BLOCK), work one more window
        of scratch, both overwritten by the next window.  The pass holds three
        buffers of its own, returned to the system when it ends (see :func:`_site_array`)."""
        m = min(self.n, _SUB_BLOCK)
        t_buf, alpha_buf, work = _site_array(m + 2), _site_array(m), _site_array(m)
        for lo in range(0, self.n, _SUB_BLOCK):
            hi = min(self.n, lo + _SUB_BLOCK)
            yield self._window(lo, hi, t_buf, alpha_buf[: hi - lo]), work[: hi - lo]

    def _window(self, lo: int, hi: int, t_buf: np.ndarray, alpha_out: np.ndarray) -> Window:
        """The window [lo, hi), alpha written into `alpha_out`.  alpha reads
        t of [lo, hi) and its neighbours within [0, n), derived into `t_buf`
        as (s - start) / h, with the nudges applied."""
        a, b = max(lo - 1, 0), min(hi + 1, self.n)
        owners, counts = _element_runs(self.offsets, a, b)
        t = np.add(np.arange(a, b, dtype=float), 0.5, out=t_buf[: b - a])
        t *= self.spacing
        t -= np.repeat(self.mesh.boundary.starts[owners], counts)
        t /= np.repeat(self.mesh.boundary.length[owners], counts)
        moved = slice(*np.searchsorted(self.nudged, (a, b)))
        t[self.nudged[moved] - a] = self.nudged_t[moved]
        owners, counts = _element_runs(self.offsets, lo, hi)
        alpha = _local_weights(t, self.offsets - a, lo - a, hi - a, alpha_out)
        alpha *= np.repeat(self.mesh.boundary.length[owners], counts)
        return Window(lo, hi, owners, counts, t[lo - a : hi - a], alpha)

    def positions(self, w: Window) -> np.ndarray:
        """Points x_j of the window's sites on the exact boundary, shape (hi - lo, 2),
        from the kernel of :func:`boundary_point` per element run, columns contiguous."""
        return _run_points(self.mesh, w.owners, w.counts, w.t)

    def evaluate(self, g0: Callable, w: Window) -> np.ndarray:
        """g0 at the window's sites in one call of g0; a sweep reads at most
        a window of 2^16 sites at a time."""
        pts = self.positions(w)
        vals = np.asarray(g0(*pts.T), dtype=float)  # contiguous x and y
        if vals.shape not in ((), (w.hi - w.lo,)):
            raise ValueError("g0 must map coordinate arrays to a value array")
        vals = np.broadcast_to(vals, (w.hi - w.lo,))
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"g0 is not finite at site {w.lo + bad[0]} {tuple(pts[bad[0]].tolist())}")
        return vals


def _check_range(n: int, lo: int, hi: int) -> None:
    """Refuse a site range [lo, hi) that is not within [0, n]."""
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"site range [{lo}, {hi}) is not within [0, {n}]")


def _check_out(out: Optional[np.ndarray], lo: int, hi: int) -> None:
    """Refuse an `out` array that cannot hold the site range [lo, hi)."""
    if out is not None and len(out) != hi - lo:
        raise ValueError(f"out has length {len(out)}, the site range [{lo}, {hi}) needs {hi - lo}")


def _element_runs(offsets: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(owners, counts): the elements of the flat layout `offsets` that own
    sites in [lo, hi), in loop order, and how many of those sites each owns."""
    counts = np.diff(np.clip(offsets, lo, hi))
    owners = np.flatnonzero(counts)
    return owners, counts[owners]


def _local_weights(t: np.ndarray, offsets: np.ndarray, lo: int, hi: int,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """The weights of :func:`quadrature_weights`, taken per element of the
    flat layout `offsets`, for sites [lo, hi), where t[j] is the parameter
    of site j; t ends at site n or holds one site past hi.  Written into
    `out` if it is given."""
    m = hi - lo
    if m == 0:
        return np.empty(0)
    w = np.empty(m) if out is None else out
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
    """Place n sites at arclengths (i - 1/2)|Gamma|/n.

    Sites that would land within 1e-12 of an element endpoint are nudged
    forward by 1e-9 |Gamma|/n, so every site is interior to exactly one
    element; `Placement.nudged` records which, and nothing is logged
    here (a study reports the count once per level).  Only the element
    runs and the nudges are computed here; t and the weights are derived
    when a range of sites is read.
    """
    _check_integer("n", n)
    if not 1 <= n <= 1 << 52:  # i + 1/2, and so t, is exact for i < 2^52 (see Placement._window)
        raise ValueError(f"need n {'>= 1' if n < 1 else '<= 2^52'}, got {_count_text(n)}")
    h, starts = mesh.boundary.length, mesh.boundary.starts
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
    e[near], t_moved = locate(s[near] + _ENDPOINT_NUDGE * spacing)
    offsets = np.append(idx, n)[np.searchsorted(e, np.arange(len(h) + 1))]
    return Placement(mesh, n, offsets, spacing, idx[near], np.clip(t_moved, 1e-15, 1.0 - 1e-15))


@dataclass
class ObservationSet:
    """Placement plus observed data g_j = g0(x_j) + e_j for one seed.

    The set stores no observed data, only its noise cursor, made with the
    set, so a bad seed fails here.  `values` draws the noise and adds g0
    (if any), into the caller's array if one is given, so reading the set
    into the work buffer of `placement.windows()` allocates no array the
    size of a window.  g0 None means noise alone; model None, no noise.
    """

    placement: Placement
    g0: Optional[Callable]
    model: Optional[NoiseModel]
    seed: int
    _noise: _NoiseStream = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._noise = _NoiseStream(self.model, self.seed, self.placement.n)

    def values(self, w: Window, out: Optional[np.ndarray] = None) -> np.ndarray:
        """g at the sites of window `w`, written into `out` if it is given,
        the noise drawn by the set's cursor (see :meth:`_NoiseStream.draw`)."""
        _check_range(self.placement.n, w.lo, w.hi)
        _check_out(out, w.lo, w.hi)
        out = self._noise.draw(w.lo, np.empty(w.hi - w.lo) if out is None else out)
        if self.g0 is not None:
            out += self.placement.evaluate(self.g0, w)
        return out


def observe(placement: Placement, g0: Optional[Callable], model: Optional[NoiseModel],
            seed: int) -> ObservationSet:
    """Bind observed data to an existing placement: the set of sites,
    g0 (None for noise alone), the noise model and the seed.  Nothing is
    drawn or evaluated here; the data are read through
    :meth:`ObservationSet.values`."""
    return ObservationSet(placement, g0, model, seed)
