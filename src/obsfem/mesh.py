"""Triangular meshes with parametrized boundary loops.

Two generators are provided, by domain name through `build_mesh`: a
uniform right-triangle mesh of the unit square and a polar-ring mesh of
the unit disk.  Both produce a single closed boundary loop whose elements
carry an explicit constant-speed parametrization F_E : [0, 1] -> Gamma,
so that downstream code can place and integrate point data on the exact
boundary (straight segments for the square, circular arcs for the disk).
The loop is one :class:`Boundary` of arrays over its elements, and
`boundary_point` and `boundary_normal` read its geometry with array code.

A small text format is supported for round-tripping meshes to disk:

    NV NT NB
    x y                         (NV vertex lines)
    i j k                       (NT triangle lines, 0-based, CCW)
    v0 v1 kind [cx cy r t0 t1]  (NB boundary lines, kind S or A; each
                                 v1 is the v0 of the next line)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Acceptable element distortion; generated meshes must stay well inside.
MAX_ASPECT_RATIO = 10.0
MAX_DIAMETER_RATIO = 4.0


class MeshError(ValueError):
    """Raised when a mesh violates a structural invariant."""


def _check_integer(name: str, value, error: type = ValueError) -> None:
    """Refuse a size, count or seed that is not an integer with `error`;
    numpy integers pass."""
    if not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value}")


def _evaluate(name: str, fn: Callable, x: np.ndarray, y: np.ndarray, where: Callable, pair: bool = False):
    """fn(x, y) from one call, as floats shaped like x, a scalar broadcast (a pair of them if `pair`, a
    gradient).  Another shape raises ValueError "<name> must map coordinate arrays to a value array", a
    value that is not finite "<name> is not finite at <where(*index)> (x, y)" at its first point x[index]."""
    value = fn(x, y) if pair else (fn(x, y),)
    parts = [np.asarray(v, dtype=float) for v in value] if np.iterable(value) else []
    if len(parts) != 1 + pair or any(v.shape not in ((), x.shape) for v in parts):
        raise ValueError(f"{name} must map coordinate arrays to a value array")
    parts = [np.broadcast_to(v, x.shape) for v in parts]
    finite = np.logical_and.reduce([np.isfinite(v) for v in parts])
    if not finite.all():
        index = np.unravel_index(np.argmin(finite), x.shape)
        raise ValueError(f"{name} is not finite at {where(*map(int, index))} {(float(x[index]), float(y[index]))}")
    return tuple(parts) if pair else parts[0]


def _count_text(n: int) -> str:
    """n as text, or its digit count if it has more than 1,000 digits
    (Python turns no integer of more than 4,300 digits into text)."""
    digits = int((abs(n).bit_length() - 1) * math.log10(2)) + 1
    digits += abs(n) >= 10**digits
    return str(n) if digits <= 1000 else f"{'a negative' if n < 0 else 'a'} number of {digits} digits"


@dataclass(frozen=True, eq=False)
class Boundary:
    """The boundary loop as arrays over its NB elements, in loop order.

    Element e runs from vertex v0[e] to v1[e] = v0[e + 1 mod NB], so the
    loop is closed by construction; the v0 are also the multiplier dofs.
    `length[e]` is the arclength h_E, which is the constant speed
    |F_E'| of the parametrization F_E : [0, 1] -> Gamma.  A row
    arc[e] = (cx, cy, r, theta0, theta1) makes F_E the circular arc
    c + r (cos theta, sin theta) with theta = theta0 + t (theta1 - theta0);
    a row of NaN (the default for every element) the straight segment
    x_v0 + t (x_v1 - x_v0).  starts[e] is the arclength where element e
    starts, the loop length last.  The arrays are read-only copies.
    """

    v0: np.ndarray
    length: np.ndarray
    arc: Optional[np.ndarray] = None
    starts: np.ndarray = field(init=False, repr=False)

    @np.errstate(invalid="ignore")  # starts of lengths inf, -inf: the mesh names the element
    def __post_init__(self):
        v0, length = np.array(self.v0, dtype=np.int64), np.array(self.length, dtype=float)
        arc = np.full((len(v0), 5), np.nan) if self.arc is None else np.array(self.arc, dtype=float)
        starts = np.concatenate([[0.0], np.cumsum(length)])
        for name, value in (("v0", v0), ("length", length), ("arc", arc), ("starts", starts)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.v0)

    @property
    def v1(self) -> np.ndarray:
        return np.roll(self.v0, -1)

    @property
    def curved(self) -> np.ndarray:
        """True for the elements that are circular arcs."""
        return ~np.isnan(self.arc).all(axis=1)


@dataclass
class QualityReport:
    max_diameter: float
    min_diameter: float
    diameter_ratio: float
    max_aspect: float
    boundary_elements: int
    boundary_length: float


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming P1 triangulation with an oriented boundary loop.

    vertices : (NV, 2) float array
    triangles : (NT, 3) int array, counterclockwise
    boundary : the closed CCW boundary loop, see :class:`Boundary`
    mesh_size_h : max triangle diameter

    The triangle geometry is computed once, at construction, and every
    consumer reads it: edges[t, a] is the edge vector opposite vertex a
    (p_c - p_b for (a, b, c) cyclic), areas[t] the signed area and
    edge_lengths[t, a] = |edges[t, a]|.  All five arrays are read-only.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: Boundary
    edges: np.ndarray = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)
    edge_lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=float)
        triangles = np.array(self.triangles, dtype=np.int64)
        geometry = zip(("edges", "areas", "edge_lengths"), _triangle_geometry(vertices, triangles))
        for name, value in [("vertices", vertices), ("triangles", triangles), *geometry]:
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        _validate(self)

    @property
    def mesh_size_h(self) -> float:
        return float(self.edge_lengths.max())

    @property
    def boundary_length(self) -> float:
        return float(self.boundary.length.sum())


def _triangle_geometry(vertices: np.ndarray, triangles: np.ndarray) -> tuple:
    """(edges, areas, edge_lengths) of every triangle, see :class:`TriMesh`,
    once the triangles are checked to index finite vertices.  All three
    are views of one (10, NT) block, written row by row: as arrays of
    their own they added about 3 MB to the peak RSS of disk studies."""
    if not np.isfinite(vertices).all():
        raise MeshError(f"vertex {np.flatnonzero(~np.isfinite(vertices).all(axis=1))[0]} is not finite")
    if len(triangles) == 0:
        raise MeshError("mesh has no triangles")
    if triangles.min() < 0 or triangles.max() >= len(vertices):
        raise MeshError("triangle vertex index out of range")
    p = np.take(vertices.T, triangles.T, axis=1)  # (xy, corner, triangle)
    block = np.empty((10, len(triangles)))
    edges, areas, lengths = block[:6].reshape(3, 2, -1), block[6], block[7:]
    for a in range(3):  # the edge opposite corner a runs from corner a + 1 to a + 2
        np.subtract(p[:, (a + 2) % 3], p[:, (a + 1) % 3], out=edges[a])
    np.subtract(edges[1, 0] * edges[2, 1], edges[1, 1] * edges[2, 0], out=areas)
    areas *= 0.5  # e1 x e2 / 2
    np.sqrt(np.add(np.square(edges[:, 0]), np.square(edges[:, 1]), out=lengths), out=lengths)  # as np.linalg.norm
    return edges.transpose(2, 0, 1), areas, lengths.T


def triangle_diameters(mesh: TriMesh) -> np.ndarray:
    return mesh.edge_lengths.max(axis=1)  # the rows of the block, so maxima of contiguous columns


def _validate(mesh: TriMesh) -> None:
    nv = len(mesh.vertices)
    if not np.all(mesh.areas > 1e-14):
        bad = int(np.argmin(mesh.areas))
        raise MeshError(f"triangle {bad} is degenerate or clockwise (signed area {mesh.areas[bad]:.3e})")
    b = mesh.boundary
    nb = len(b)
    if nb == 0:
        raise MeshError("boundary loop is empty")
    if b.length.shape != (nb,) or b.arc.shape != (nb, 5):
        raise MeshError(f"boundary of {nb} elements has {b.length.shape} lengths and {b.arc.shape} arcs")
    # Lengths and arcs are checked for finiteness before any arithmetic
    # on them; an arc row is all NaN (a straight segment) or all finite.
    bad = np.flatnonzero(~np.isfinite(b.length)
                         | ~(np.isfinite(b.arc).all(axis=1) | np.isnan(b.arc).all(axis=1)))
    if bad.size:
        e = bad[0]
        raise MeshError(f"boundary element {e} is not finite: length {float(b.length[e])}, "
                        f"arc {b.arc[e].tolist()}")
    # One closed loop (closed by construction), each vertex visited once.
    bad = np.flatnonzero((b.v0 < 0) | (b.v0 >= nv))
    if bad.size:
        raise MeshError(f"boundary element {bad[0]}: vertex {b.v0[bad[0]]} out of range [0, {nv})")
    first = np.unique(b.v0, return_index=True)[1]
    if len(first) < nb:
        e = np.setdiff1d(np.arange(nb), first)[0]
        raise MeshError(f"boundary element {e} visits vertex {b.v0[e]} a second time")
    geometric = _element_lengths(mesh.vertices, b.v0, b.arc)
    bad = np.flatnonzero(~((b.length > 0) & (np.abs(b.length - geometric) <= 1e-12 * geometric)))
    if bad.size:
        e = bad[0]
        raise MeshError(f"boundary element {e} has length {b.length[e]!r}, "
                        f"its geometry gives {geometric[e]!r}")
    arcs = np.flatnonzero(b.curved)
    pts = boundary_point(mesh, arcs[:, None], [0.0, 1.0])
    miss = np.linalg.norm(pts - mesh.vertices[np.column_stack([b.v0, b.v1])[arcs]], axis=2).max(axis=1)
    bad = np.flatnonzero(~(miss <= 1e-12))
    if bad.size:
        raise MeshError(f"boundary element {arcs[bad[0]]}: arc misses its end vertices by {miss[bad[0]]:.3e}")
    # Element size distortion bounds.
    q = mesh_quality(mesh)
    if not q.diameter_ratio <= MAX_DIAMETER_RATIO:
        raise MeshError(f"quasi-uniformity violated: diameter ratio {q.diameter_ratio:.3f}")
    if not q.max_aspect <= MAX_ASPECT_RATIO:
        raise MeshError(f"shape regularity violated: aspect ratio {q.max_aspect:.3f}")


def _element_lengths(vertices: np.ndarray, v0: np.ndarray, arc: np.ndarray) -> np.ndarray:
    """Arclength of each element from its geometry: the chord of a straight
    segment, r |theta1 - theta0| of an arc."""
    chord = np.linalg.norm(vertices[np.roll(v0, -1)] - vertices[v0], axis=1)
    return np.where(np.isnan(arc).all(axis=1), chord, arc[:, 2] * np.abs(arc[:, 4] - arc[:, 3]))


def build_square_mesh(k: int) -> TriMesh:
    """Uniform mesh of the unit square with k x k cells.

    Each cell is split along its lower-left to upper-right diagonal,
    giving 2 k^2 right isoceles triangles and mesh size h = sqrt(2)/k.
    The boundary loop consists of 4 k straight segments, ordered
    counterclockwise starting at the origin.
    """
    _check_integer("k", k, MeshError)
    if k < 2:
        raise MeshError(f"need k >= 2, got {_count_text(k)}")
    xs = np.linspace(0.0, 1.0, k + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (k + 1) + i

    # Cell (i, j), row by row, splits into (ll, lr, ur) and (ll, ur, ul).
    ll = vid(np.arange(k), np.arange(k)[:, None]).ravel()
    lr, ul, ur = ll + 1, ll + k + 1, ll + k + 2
    triangles = np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)

    r = np.arange(k)
    loop = np.concatenate([vid(r, 0), vid(k, r), vid(k - r, k), vid(0, k - r)])
    return TriMesh(vertices, triangles, Boundary(loop, np.full(4 * k, 1.0 / k)))


def build_disk_mesh(m: int) -> TriMesh:
    """Polar-ring mesh of the unit disk with m rings.

    Ring i sits at radius i/m and carries round(2 pi i) near-equispaced
    vertices, so triangles have comparable radial and tangential extent
    (~1/m).  The outermost ring lies exactly on the unit circle and the
    boundary loop is made of circular arcs, so boundary data is placed
    on the true circle rather than on the inscribed polygon.
    """
    _check_integer("m", m, MeshError)
    if m < 2:
        raise MeshError(f"need m >= 2, got {_count_text(m)}")
    # Ring 0 is the hub vertex, ring i >= 1 holds round(2 pi i) vertices,
    # numbered from first[i] in angle order.
    sizes = np.concatenate([[1], np.rint(2.0 * math.pi * np.arange(1, m + 1)).astype(np.int64)])
    first = np.concatenate([[0], np.cumsum(sizes)])
    ang = 2.0 * math.pi * (np.arange(first[-1]) - np.repeat(first[:-1], sizes)) / np.repeat(sizes, sizes)
    r = np.repeat(np.arange(m + 1) / m, sizes)
    vertices = np.column_stack([r * np.cos(ang), r * np.sin(ang)])

    ids, ring1 = np.arange(first[-1]), np.arange(1, first[2])
    triangles = np.concatenate([np.column_stack([0 * ring1, ring1, np.roll(ring1, -1)]),  # the hub's fan, then
                                _stitch_rings(ids[1:first[m]], ang[1:first[m]],  # rings 1..m-1 to 2..m
                                              ids[first[2]:], ang[first[2]:])])

    n_out = sizes[-1]
    theta = 2.0 * math.pi * np.arange(n_out + 1) / n_out
    arc = np.column_stack([np.zeros(n_out), np.zeros(n_out), np.ones(n_out), theta[:-1], theta[1:]])
    return TriMesh(vertices, triangles, Boundary(ids[first[m]:], np.diff(theta), arc))


def _stitch_rings(inner_ids, inner_ang, outer_ids, outer_ang) -> np.ndarray:
    """Triangulate the annuli between pairs of vertex rings, given as many
    inner and outer rings back to back, each a run of increasing angles.

    Each pair is walked in angle on both rings at once, always advancing
    on the ring whose next vertex comes first (the inner one on a tie);
    this keeps triangles close to isoceles even when the rings carry
    different vertex counts.  All walks are one stable merge of complex
    (pair, next angle) keys: a step makes the triangle of its vertex, its
    successor and the vertex after the other ring's steps so far."""
    n = len(inner_ids)
    ids, ang = np.concatenate([inner_ids, outer_ids]), np.concatenate([inner_ang, outer_ang])
    start = np.diff(ang, prepend=np.inf) <= 0  # where a ring starts
    start[n] = True
    first = np.flatnonzero(start)
    last, ring, rings = np.append(first[1:], len(ang)) - 1, np.cumsum(start) - 1, len(first) // 2
    key, succ = ring % rings + 1j * np.append(ang[1:], 0.0), np.append(ids[1:], 0)  # each vertex's successor
    key.imag[last], succ[last] = ang[first] + 2.0 * math.pi, ids[first]
    merge = np.argsort(key, kind="stable")
    other, partner = np.arange(len(merge)) - merge + n, (ring[merge] + rings) % (2 * rings)
    other, mine, inner = ids[np.where(other <= last[partner], other, first[partner])], ids[merge], merge < n
    return np.column_stack([np.where(inner, mine, other), np.where(inner, other, mine), succ[merge]])


def build_mesh(domain: str, k: int) -> TriMesh:
    """The mesh of a domain by name: "square" (k cells a side) or "disk" (k rings)."""
    _check_integer("k", k, MeshError)
    if domain == "square":
        return build_square_mesh(k)
    if domain == "disk":
        return build_disk_mesh(k)
    raise ValueError(f"unknown domain {domain!r}")


def boundary_point(mesh: TriMesh, e, t) -> np.ndarray:
    """Points F_E(t) of the boundary parametrization.

    e is a boundary element index or an integer array of them, t a
    scalar or array of parameters in [0, 1], broadcast against e.  The
    result has the broadcast shape of (e, t) plus a trailing 2.  The
    speed |F_E'| is the constant `mesh.boundary.length[e]`.  An e that is
    not an integer in [0, NB), or a t not in [0, 1] (NaN too), raises ValueError.
    """
    e, t, nb = np.asarray(e), np.asarray(t, dtype=float), len(mesh.boundary)
    bad = e[(e < 0) | (e >= nb)] if e.dtype.kind in "iu" else e.ravel()
    if bad.size or e.dtype.kind not in "iu":
        raise ValueError(f"boundary element {bad[0] if bad.size else e} must be an integer in [0, NB), NB = {nb}")
    if not np.all((t >= 0.0) & (t <= 1.0)):  # so a NaN fails too
        raise ValueError("parameter t must lie in [0, 1]")
    e, t = np.broadcast_arrays(e, t)
    shape = e.shape
    e, t = e.ravel(), t.ravel()
    first = np.flatnonzero(np.concatenate([[e.size > 0], e[1:] != e[:-1]]))  # runs of equal e
    pts = _run_points(mesh, e[first], np.diff(np.append(first, e.size)), t)
    return pts.reshape(shape + (2,))


def boundary_normal(mesh: TriMesh, e, t) -> np.ndarray:
    """Outward unit normals at F_E(t), shaped as :func:`boundary_point`'s: a segment's chord (dx, dy)
    turned to (dy, -dx); on an arc, x - c times sign(theta1 - theta0), so a clockwise arc faces c."""
    b, pts = mesh.boundary, boundary_point(mesh, e, t)
    e = np.broadcast_to(e, pts.shape[:-1])
    d, arc, curved = mesh.vertices[b.v1[e]] - mesh.vertices[b.v0[e]], b.arc[e], b.curved[e]
    normal = np.stack([d[..., 1], -d[..., 0]], axis=-1)
    normal[curved] = (pts[curved] - arc[curved, :2]) * np.sign(arc[curved, 4:] - arc[curved, 3:4])
    return normal / np.hypot(normal[..., 0], normal[..., 1])[..., None]


def _run_points(mesh: TriMesh, owners: np.ndarray, counts: np.ndarray, t: np.ndarray) -> np.ndarray:
    """F_E(t) of sites in element runs, shape (len(t), 2): counts[j]
    consecutive sites on element owners[j], t their parameters.  Every
    site by the chord formula, from per-element constants repeated over
    each run (columns contiguous), then the sites of the arc runs by the
    arc's."""
    b = mesh.boundary
    p0 = mesh.vertices[b.v0[owners]].T
    xy = t * np.repeat(mesh.vertices[b.v1[owners]].T - p0, counts, axis=1)
    xy += np.repeat(p0, counts, axis=1)
    curved = b.curved[owners]
    arc = np.repeat(curved, counts)
    cx, cy, r, th0, th1 = np.repeat(b.arc[owners[curved]], counts[curved], axis=0).T
    th = th0 + t[arc] * (th1 - th0)
    xy[:, arc] = cx + r * np.cos(th), cy + r * np.sin(th)
    return xy.T


def mesh_quality(mesh: TriMesh) -> QualityReport:
    """Diameter and shape statistics of the triangulation."""
    diam = triangle_diameters(mesh)
    e = mesh.edge_lengths  # the perimeter sums |p1 - p0|, |p2 - p1|, |p0 - p2| in this order
    inscribed = 4.0 * mesh.areas / (e[:, 2] + e[:, 0] + e[:, 1])  # diameter of the inscribed circle
    return QualityReport(
        max_diameter=float(diam.max()),
        min_diameter=float(diam.min()),
        diameter_ratio=float(diam.max() / diam.min()),
        max_aspect=float((diam / inscribed).max()),
        boundary_elements=len(mesh.boundary),
        boundary_length=mesh.boundary_length,
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_mesh_text(mesh: TriMesh, path: str) -> None:
    """Write the mesh in the plain text format (17 significant digits)."""
    lines = [f"{len(mesh.vertices)} {len(mesh.triangles)} {len(mesh.boundary)}"]
    lines += [f"{_fmt(x)} {_fmt(y)}" for x, y in mesh.vertices]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    b = mesh.boundary
    for v0, v1, arc in zip(b.v0, b.v1, b.arc):
        geometry = "S" if np.isnan(arc).all() else "A " + " ".join(_fmt(x) for x in arc)
        lines.append(f"{v0} {v1} {geometry}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fields(lines: list[str], index: int, types: tuple, what: str) -> list:
    """Line `index` (0-based) converted field by field by `types`; a
    missing line, a wrong field count or a non-number raises MeshError
    naming the 1-based line."""
    if index >= len(lines):
        raise MeshError(f"line {index + 1}: file ends where {what} was expected")
    parts = lines[index].split()
    if len(parts) == len(types):
        try:
            return [t(p) for t, p in zip(types, parts)]
        except ValueError:
            pass
    raise MeshError(f"line {index + 1}: expected {what}, got {lines[index]!r}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def read_mesh_text(path: str) -> TriMesh:
    """Read a mesh written by :func:`write_mesh_text` and revalidate it.

    Malformed input, including a non-finite number or a boundary loop
    that does not close, raises MeshError naming the 1-based line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    nv, nt, nb = _fields(lines, 0, (int,) * 3, "the header 'NV NT NB'")
    if min(nv, nt, nb) < 1:
        raise MeshError(f"line 1: header counts must be positive, got {lines[0]!r}")

    def vertex(text: str) -> int:
        index = int(text)
        if not 0 <= index < nv:
            raise ValueError(f"vertex index {index} out of range")
        return index

    vertices = np.array([_fields(lines, 1 + i, (_finite,) * 2, "a vertex 'x y' of finite numbers")
                         for i in range(nv)])
    triangles = np.array(
        [_fields(lines, 1 + nv + i, (vertex,) * 3, "a triangle 'i j k' of vertex indices")
         for i in range(nt)],
        dtype=np.int64,
    )
    first = 1 + nv + nt
    loop, arcs = [], []
    for index in range(first, first + nb):
        arc = index < len(lines) and lines[index].split()[2:3] == ["A"]
        types = (vertex, vertex, str) + (_finite,) * 5 if arc else (vertex, vertex, str)
        v0, v1, kind, *geometry = _fields(
            lines, index, types, "a boundary element 'v0 v1 S|A ...' of vertex indices")
        if kind not in ("S", "A"):
            raise MeshError(f"line {index + 1}: unknown boundary kind {kind!r}")
        loop.append((v0, v1))
        arcs.append(geometry or [math.nan] * 5)
    v0, v1 = np.array(loop).T
    broken = np.flatnonzero(v1 != np.roll(v0, -1))
    if broken.size:
        index = first + broken[0]
        raise MeshError(f"line {index + 1}: boundary element ends at vertex {v1[broken[0]]}, "
                        f"but the next element starts at vertex {v0[(broken[0] + 1) % nb]}")
    arc = np.array(arcs)
    return TriMesh(vertices, triangles, Boundary(v0, _element_lengths(vertices, v0, arc), arc))
