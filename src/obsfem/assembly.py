"""P1 spaces and assembly of the saddle-point blocks.

The field space V_h is continuous P1 on the triangulation; the
multiplier space Q_h is continuous piecewise linear in the boundary
parameter, with one degree of freedom per boundary vertex (in loop
order).  Both are fixed by the mesh, so every block is assembled from
the mesh, or from a placement or observation set, which holds its mesh.
The discrete problem couples them through the empirical boundary
pairing

    B[k, j] = sum_i alpha_i psi_k(x_i) (tr phi_j)(x_i),
    G[k]    = sum_i alpha_i psi_k(x_i) g_i,

where tr is endpoint interpolation along each boundary element: a field
function restricted to the chord of element E and read off at parameter
t is (1 - t) u[v0] + t u[v1].  Both basis families are hats in t, so
every observation site contributes a 2 x 2 block.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh
from .observations import ObservationSet, Placement

# The field hats at an element's two ends, 1 - t and t, as sweep readers.
TRACE_HATS = (lambda w, out: np.subtract(1.0, w.t, out=out), lambda w, out: np.copyto(out, w.t))


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """Stiffness matrix (grad u, grad v) over the triangulation."""
    nv, nt = len(mesh.vertices), len(mesh.triangles)
    # A_local[a, b] = (e_a . e_b) / (4 area) with e the opposite-edge vectors
    e, scale = mesh.edges, 4.0 * mesh.areas
    local, dot, term = np.empty((nt, 3, 3)), np.empty(nt), np.empty(nt)
    for a, b in zip(*np.triu_indices(3)):
        np.add(0.0, np.multiply(e[:, a, 0], e[:, b, 0], out=term), out=dot)  # from +0, as np.einsum sums
        dot += np.multiply(e[:, a, 1], e[:, b, 1], out=term)
        local[:, b, a] = np.divide(dot, scale, out=local[:, a, b])
    rows, cols = np.repeat(mesh.triangles, 3, axis=1).ravel(), np.tile(mesh.triangles, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def assemble_load(mesh: TriMesh, f) -> np.ndarray:
    """Load vector (I_h f, v_h) using the consistent P1 mass matrix."""
    nv = len(mesh.vertices)
    fv = np.asarray(f(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float)
    if fv.ndim == 0:
        fv = np.full(nv, float(fv))
    elif fv.shape != (nv,):
        raise ValueError("f must map coordinate arrays to a value array")
    if not np.all(np.isfinite(fv)):
        bad = int(np.flatnonzero(~np.isfinite(fv))[0])
        raise ValueError(f"f is not finite at vertex {bad} {tuple(mesh.vertices[bad])}")
    tf = fv[mesh.triangles]
    # local_i = area/12 * (2 f_i + f_j + f_k) = area/12 * (f_i + sum f)
    local = (mesh.areas[:, None] / 12.0) * (tf + tf.sum(axis=1, keepdims=True))
    F = np.zeros(nv)
    np.add.at(F, mesh.triangles.ravel(), local.ravel())
    return F


def sweep(placement: Placement, readers: Sequence[Callable]) -> np.ndarray:
    """Per-element sums (sum alpha (1-t) g, sum alpha t g) of the values g
    of each reader, that is g paired with the element's first and second
    multiplier hat, as one (2, len(readers), NB) array from one pass over
    the sites.

    A reader `read(w, out)` writes g at the sites of the window `w` into
    the pass's work buffer `out`: TRACE_HATS write the field hats 1 - t
    and t, an observation set's `values` its data, its cursor going on
    with its own noise.  The pass is one
    :meth:`Placement.windows`, so its work arrays stay in cache.  Every
    per-element sum is one `np.add.reduceat` per window the element's run
    meets, added up in window order, so a reader's sums have the same bits
    whatever else the pass reads.  A set's G is left + roll(right, 1).
    """
    left, right = sums = np.zeros((2, len(readers), len(placement.mesh.boundary)))
    for w, out in placement.windows():
        starts = np.cumsum(w.counts) - w.counts
        for j, read in enumerate(readers):
            read(w, out)
            out *= w.alpha
            total = np.add.reduceat(out, starts)  # sum alpha g
            out *= w.t
            moment = np.add.reduceat(out, starts)  # sum alpha t g
            left[j, w.owners] += total - moment
            right[j, w.owners] += moment
    return sums


def _coupling(placement: Placement, left: np.ndarray, right: np.ndarray) -> sp.csr_matrix:
    """B from the sweep sums (`left`, `right`) whose first two readers are
    TRACE_HATS.  Every site only touches the two hat functions of its
    element on each side, so B has at most three nonzeros per row and
    each element contributes a 2 x 2 block

        [[b00, b01], [b01, b11]] = sum_i alpha_i [[(1-t)^2, (1-t) t], [(1-t) t, t^2]],

    b00 and b01 the left and right sums of 1 - t, b11 the right sum of t."""
    mesh, nb = placement.mesh, len(left[0])
    e = np.flatnonzero(np.diff(placement.offsets))  # elements with sites
    q1 = (e + 1) % nb
    v0, v1 = mesh.boundary.v0[e], mesh.boundary.v0[q1]
    rows, cols = np.concatenate([e, e, q1, q1]), np.concatenate([v0, v1, v0, v1])
    vals = np.concatenate([left[0, e], right[0, e], right[0, e], right[1, e]])  # b00, b01, b01, b11
    return sp.coo_matrix((vals, (rows, cols)), shape=(nb, len(mesh.vertices))).tocsr()


def assemble_coupling_matrix(placement: Placement) -> sp.csr_matrix:
    """Empirical coupling matrix B (independent of the observed data), from
    one :func:`sweep` over the sites."""
    return _coupling(placement, *sweep(placement, TRACE_HATS))


def assemble_data_vector(obs: ObservationSet) -> np.ndarray:
    """Right-hand side G[k] = sum_i alpha_i psi_k(x_i) g_i, from one
    :func:`sweep` over the sites: G costs the set's draws but no
    length-n array."""
    left, right = sweep(obs.placement, [obs.values])[:, 0]
    return left + np.roll(right, 1)
