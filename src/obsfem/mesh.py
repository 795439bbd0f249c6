"""Triangular meshes with parametrized boundary loops.

Two generators are provided: a uniform right-triangle mesh of the unit
square and a polar-ring mesh of the unit disk.  Both produce a single
closed boundary loop whose elements carry an explicit constant-speed
parametrization F_E : [0, 1] -> Gamma, so that downstream code can place
and integrate point data on the exact boundary (straight segments for
the square, circular arcs for the disk).

A small text format is supported for round-tripping meshes to disk:

    NV NT NB
    x y                         (NV vertex lines)
    i j k                       (NT triangle lines, 0-based, CCW)
    v0 v1 kind [cx cy r t0 t1]  (NB boundary lines, kind S or A)
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

logger = logging.getLogger(__name__)

# Acceptable element distortion; generated meshes must stay well inside.
MAX_ASPECT_RATIO = 10.0
MAX_DIAMETER_RATIO = 4.0


class MeshError(ValueError):
    """Raised when a mesh violates a structural invariant."""


@dataclass(frozen=True)
class CircularArc:
    """Arc of a circle, parametrized by angle from theta0 to theta1."""

    center: tuple[float, float]
    radius: float
    theta0: float
    theta1: float


@dataclass(frozen=True)
class BoundaryElement:
    """One element of the boundary loop.

    ``geometry is None`` means a straight segment from vertex v0 to v1;
    otherwise a :class:`CircularArc` whose endpoints coincide with the
    vertices.  ``length`` is the arclength h_E, and the parametrization
    F_E has constant speed |F_E'| = h_E.
    """

    v0: int
    v1: int
    geometry: Optional[CircularArc] = None
    length: float = 0.0


@dataclass
class QualityReport:
    max_diameter: float
    min_diameter: float
    diameter_ratio: float
    max_aspect: float
    boundary_elements: int
    boundary_length: float


@dataclass
class TriMesh:
    """Conforming P1 triangulation with an oriented boundary loop.

    vertices : (NV, 2) float array
    triangles : (NT, 3) int array, counterclockwise
    boundary : list of BoundaryElement forming one closed CCW loop
    mesh_size_h : max triangle diameter
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: list[BoundaryElement]
    mesh_size_h: float = field(default=0.0)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        _validate(self)
        if self.mesh_size_h == 0.0:
            self.mesh_size_h = float(triangle_diameters(self).max())

    @property
    def boundary_vertices(self) -> np.ndarray:
        """Boundary vertex indices in loop order (v0 of each element)."""
        return np.array([e.v0 for e in self.boundary], dtype=np.int64)

    @property
    def boundary_lengths(self) -> np.ndarray:
        return np.array([e.length for e in self.boundary])

    @property
    def boundary_length(self) -> float:
        return float(self.boundary_lengths.sum())


def triangle_areas(mesh: TriMesh) -> np.ndarray:
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def triangle_diameters(mesh: TriMesh) -> np.ndarray:
    p = mesh.vertices[mesh.triangles]
    e0 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    e1 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
    e2 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    return np.maximum(e0, np.maximum(e1, e2))


def _validate(mesh: TriMesh) -> None:
    nv = len(mesh.vertices)
    if mesh.triangles.min() < 0 or mesh.triangles.max() >= nv:
        raise MeshError("triangle vertex index out of range")
    areas = triangle_areas(mesh)
    if not np.all(areas > 1e-14):
        bad = int(np.argmin(areas))
        raise MeshError(
            f"triangle {bad} is degenerate or clockwise (signed area {areas[bad]:.3e})"
        )
    if not mesh.boundary:
        raise MeshError("boundary loop is empty")
    # One closed loop, each vertex entered and left exactly once.
    for e, elem in enumerate(mesh.boundary):
        nxt = mesh.boundary[(e + 1) % len(mesh.boundary)]
        if elem.v1 != nxt.v0:
            raise MeshError(f"boundary loop broken between elements {e} and {(e + 1) % len(mesh.boundary)}")
        if elem.length <= 0:
            raise MeshError(f"boundary element {e} has nonpositive length")
        if elem.geometry is not None:
            arc = elem.geometry
            c = np.asarray(arc.center)
            for v in (elem.v0, elem.v1):
                r = np.linalg.norm(mesh.vertices[v] - c)
                if abs(r - arc.radius) > 1e-12:
                    raise MeshError(f"arc endpoint {v} misses its circle by {abs(r - arc.radius):.3e}")
    v0s = [e.v0 for e in mesh.boundary]
    if len(set(v0s)) != len(v0s):
        raise MeshError("boundary loop visits a vertex twice")
    # Element size distortion bounds.
    diam = triangle_diameters(mesh)
    ratio = diam.max() / diam.min()
    if ratio > MAX_DIAMETER_RATIO:
        raise MeshError(f"quasi-uniformity violated: diameter ratio {ratio:.3f}")
    perim = _triangle_perimeters(mesh)
    inscribed = 4.0 * areas / perim  # diameter of the inscribed circle
    aspect = diam / inscribed
    if aspect.max() > MAX_ASPECT_RATIO:
        raise MeshError(f"shape regularity violated: aspect ratio {aspect.max():.3f}")


def _triangle_perimeters(mesh: TriMesh) -> np.ndarray:
    p = mesh.vertices[mesh.triangles]
    return (
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        + np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
        + np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    )


def build_square_mesh(k: int) -> TriMesh:
    """Uniform mesh of the unit square with k x k cells.

    Each cell is split along its lower-left to upper-right diagonal,
    giving 2 k^2 right isoceles triangles and mesh size h = sqrt(2)/k.
    The boundary loop consists of 4 k straight segments, ordered
    counterclockwise starting at the origin.
    """
    if k < 2:
        raise MeshError(f"need k >= 2, got {k}")
    xs = np.linspace(0.0, 1.0, k + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (k + 1) + i

    tris = []
    for j in range(k):
        for i in range(k):
            ll, lr = vid(i, j), vid(i + 1, j)
            ul, ur = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((ll, lr, ur))
            tris.append((ll, ur, ul))
    triangles = np.array(tris, dtype=np.int64)

    seg = 1.0 / k
    loop: list[tuple[int, int]] = []
    loop += [(vid(i, 0), vid(i + 1, 0)) for i in range(k)]
    loop += [(vid(k, j), vid(k, j + 1)) for j in range(k)]
    loop += [(vid(i + 1, k), vid(i, k)) for i in reversed(range(k))]
    loop += [(vid(0, j + 1), vid(0, j)) for j in reversed(range(k))]
    boundary = [BoundaryElement(a, b, None, seg) for a, b in loop]
    return TriMesh(vertices, triangles, boundary)


def build_disk_mesh(m: int) -> TriMesh:
    """Polar-ring mesh of the unit disk with m rings.

    Ring i sits at radius i/m and carries round(2 pi i) near-equispaced
    vertices, so triangles have comparable radial and tangential extent
    (~1/m).  The outermost ring lies exactly on the unit circle and the
    boundary loop is made of circular arcs, so boundary data is placed
    on the true circle rather than on the inscribed polygon.
    """
    if m < 2:
        raise MeshError(f"need m >= 2, got {m}")
    verts = [(0.0, 0.0)]
    ring_ids: list[np.ndarray] = [np.array([0])]
    ring_angles: list[np.ndarray] = [np.array([0.0])]
    for i in range(1, m + 1):
        cnt = int(round(2.0 * math.pi * i))
        ang = 2.0 * math.pi * np.arange(cnt) / cnt
        r = i / m
        start = len(verts)
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
        ring_ids.append(np.arange(start, start + cnt))
        ring_angles.append(ang)
    vertices = np.array(verts)

    tris = []
    hub = ring_ids[1]
    for j in range(len(hub)):
        tris.append((0, hub[j], hub[(j + 1) % len(hub)]))
    for i in range(1, m):
        tris.extend(
            _stitch_rings(ring_ids[i], ring_angles[i], ring_ids[i + 1], ring_angles[i + 1])
        )
    triangles = np.array(tris, dtype=np.int64)

    outer = ring_ids[m]
    n_out = len(outer)
    boundary = []
    for j in range(n_out):
        t0 = 2.0 * math.pi * j / n_out
        t1 = 2.0 * math.pi * (j + 1) / n_out
        arc = CircularArc((0.0, 0.0), 1.0, t0, t1)
        boundary.append(BoundaryElement(int(outer[j]), int(outer[(j + 1) % n_out]), arc, t1 - t0))
    return TriMesh(vertices, triangles, boundary)


def _stitch_rings(inner_ids, inner_ang, outer_ids, outer_ang):
    """Triangulate the annulus between two vertex rings.

    Walks both rings in angle simultaneously, always advancing on the
    ring whose next vertex comes first; this keeps triangles close to
    isoceles even when the rings carry different vertex counts.
    """
    na, nb = len(inner_ids), len(outer_ids)
    iid = np.append(inner_ids, inner_ids[0])
    oid = np.append(outer_ids, outer_ids[0])
    iang = np.append(inner_ang, inner_ang[0] + 2.0 * math.pi)
    oang = np.append(outer_ang, outer_ang[0] + 2.0 * math.pi)
    tris = []
    a = b = 0
    while a < na or b < nb:
        take_inner = b >= nb or (a < na and iang[a + 1] <= oang[b + 1])
        if take_inner:
            tris.append((iid[a], oid[b], iid[a + 1]))
            a += 1
        else:
            tris.append((iid[a], oid[b], oid[b + 1]))
            b += 1
    return tris


def boundary_point(mesh: TriMesh, e, t):
    """Evaluate the boundary parametrization F_E and its speed |F_E'|.

    Parameters
    ----------
    e : boundary element index, or an integer array of them
    t : scalar or array of parameters in [0, 1], broadcast against e

    Returns
    -------
    (points, speed) : points has shape (..., 2); speed is the constant
    |F_E'| = h_E of each element (a float for a scalar e).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("parameter t must lie in [0, 1]")
    shape = np.shape(e)
    elems = [mesh.boundary[i] for i in np.ravel(e)]
    p0 = mesh.vertices[[el.v0 for el in elems]].reshape(shape + (2,))
    p1 = mesh.vertices[[el.v1 for el in elems]].reshape(shape + (2,))
    pts = p0 + t[..., None] * (p1 - p0)
    speed = np.linalg.norm(p1 - p0, axis=-1)
    curved = np.array([el.geometry is not None for el in elems]).reshape(shape)
    if curved.any():
        arc = np.array([(0.0,) * 5 if el.geometry is None else
                        (*el.geometry.center, el.geometry.radius, el.geometry.theta0, el.geometry.theta1)
                        for el in elems]).reshape(shape + (5,))
        cx, cy, r, th0, th1 = np.moveaxis(arc, -1, 0)
        th = th0 + t * (th1 - th0)
        on_arc = np.stack([cx + r * np.cos(th), cy + r * np.sin(th)], axis=-1)
        pts = np.where(curved[..., None], on_arc, pts)
        speed = np.where(curved, r * np.abs(th1 - th0), speed)
    return pts, (float(speed) if shape == () else speed)


def mesh_quality(mesh: TriMesh) -> QualityReport:
    """Diameter and shape statistics of the triangulation."""
    diam = triangle_diameters(mesh)
    areas = triangle_areas(mesh)
    inscribed = 4.0 * areas / _triangle_perimeters(mesh)
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
    for e in mesh.boundary:
        if e.geometry is None:
            lines.append(f"{e.v0} {e.v1} S")
        else:
            a = e.geometry
            lines.append(
                f"{e.v0} {e.v1} A {_fmt(a.center[0])} {_fmt(a.center[1])} "
                f"{_fmt(a.radius)} {_fmt(a.theta0)} {_fmt(a.theta1)}"
            )
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


def read_mesh_text(path: str) -> TriMesh:
    """Read a mesh written by :func:`write_mesh_text` and revalidate it.

    Malformed input raises MeshError naming the 1-based line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    nv, nt, nb = _fields(lines, 0, (int,) * 3, "the header 'NV NT NB'")
    if min(nv, nt, nb) < 1:
        raise MeshError(f"line 1: header counts must be positive, got {lines[0]!r}")
    vertices = np.array([_fields(lines, 1 + i, (float,) * 2, "a vertex 'x y'") for i in range(nv)])
    triangles = np.array(
        [_fields(lines, 1 + nv + i, (int,) * 3, "a triangle 'i j k'") for i in range(nt)],
        dtype=np.int64,
    )
    boundary = []
    for i in range(nb):
        index = 1 + nv + nt + i
        arc = index < len(lines) and lines[index].split()[2:3] == ["A"]
        types = (int, int, str) + (float,) * 5 if arc else (int, int, str)
        v0, v1, kind, *geometry = _fields(lines, index, types, "a boundary element 'v0 v1 S|A ...'")
        if not (0 <= v0 < nv and 0 <= v1 < nv):
            raise MeshError(f"line {index + 1}: boundary vertex index out of range")
        if kind == "S":
            length = float(np.linalg.norm(vertices[v1] - vertices[v0]))
            boundary.append(BoundaryElement(v0, v1, None, length))
        elif kind == "A":
            cx, cy, r, t0, t1 = geometry
            boundary.append(
                BoundaryElement(v0, v1, CircularArc((cx, cy), r, t0, t1), r * abs(t1 - t0))
            )
        else:
            raise MeshError(f"line {index + 1}: unknown boundary kind {kind!r}")
    return TriMesh(vertices, triangles, boundary)
