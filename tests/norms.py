"""The discrete norms of the analysis, for the tests: the trace selection,
the boundary Gram matrices of the mesh-dependent norms, the field Gram
matrix, multiplier values at the sites and the empirical seminorm.  No
solve needs them; acceptance criteria 6 and 7 and the unit tests do.
`residual_norm` is the 2-norm of the solver's residual contract.
"""

import math

import numpy as np
import scipy.sparse as sp

from obsfem import Placement, TriMesh, assemble_stiffness


def residual_norm(v: np.ndarray) -> float:
    """|v|_2 by numpy's pairwise sum, as `solve_saddle` takes its residual
    norms: np.linalg.norm's BLAS dot splits a long vector across the BLAS
    threads, so its bits depend on the thread count."""
    return np.sqrt(np.sum(v * v))


def trace_matrix(mesh: TriMesh) -> sp.csr_matrix:
    """Selection matrix T with (T u)_k = u[boundary vertex k]."""
    v0 = mesh.boundary.v0
    return sp.csr_matrix(
        (np.ones(len(v0)), (np.arange(len(v0)), v0)), shape=(len(v0), len(mesh.vertices))
    )


def boundary_mass(mesh: TriMesh, power: int = 1) -> sp.csr_matrix:
    """Gram matrix sum_E h_E^power int_0^1 psi_a psi_b dt on Q_h dofs.

    power=1 gives the L2(Gamma) mass (one h_E from the parametrization
    speed); power=0 and power=2 are the Gram matrices of the 1/2 and
    -1/2 mesh-dependent norms.
    """
    nb = len(mesh.boundary)
    q0 = np.arange(nb)
    q1 = (q0 + 1) % nb
    c = mesh.boundary.length**power
    rows = np.concatenate([q0, q0, q1, q1])
    cols = np.concatenate([q0, q1, q0, q1])
    vals = np.concatenate([c / 3.0, c / 6.0, c / 6.0, c / 3.0])
    return sp.coo_matrix((vals, (rows, cols)), shape=(nb, nb)).tocsr()


def _hat(mesh: TriMesh, mu, e, t) -> np.ndarray:
    """A multiplier dof vector mu on boundary element(s) e at parameters
    t: the element's two hats are 1 - t and t."""
    mu = np.asarray(mu, dtype=float)
    nb = len(mesh.boundary)
    if mu.shape != (nb,):
        raise ValueError(f"multiplier vector has shape {mu.shape}, the boundary has {nb} dofs")
    return (1.0 - t) * mu[e] + t * mu[(e + 1) % nb]


def multiplier_at_sites(mu: np.ndarray, placement: Placement) -> np.ndarray:
    """Values of a multiplier dof vector at every observation site."""
    w = placement.window(0, placement.n)
    return _hat(placement.mesh, mu, np.repeat(w.owners, w.counts), w.t)


def vh_gram(mesh: TriMesh) -> sp.csr_matrix:
    """Gram matrix of the field norm ||grad v||^2 + ||tr v||^2_{1/2,h}."""
    T = trace_matrix(mesh)
    return (assemble_stiffness(mesh) + T.T @ boundary_mass(mesh, power=0) @ T).tocsr()


def empirical_norm(alpha: np.ndarray, u: np.ndarray) -> float:
    """Seminorm ||u||_n = sqrt(sum_j alpha_j u_j^2) of values sampled at the sites."""
    u = np.asarray(u)
    return math.sqrt(max(float(np.dot(alpha, u * u)), 0.0))
