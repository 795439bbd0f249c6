"""Solution of the symmetric indefinite saddle system.

One path: a sparse LU factorization of

    K = [[A, B~^T],
         [B~, 0  ]],   B~ = Q^T B,

where Q spans range(B): the eigenvectors above the kernel cut of the
Gram matrix B B^T over the rows of B that hold a nonzero.  An empty row
(no site on either element of its multiplier dof) is a unit vector of
ker(B^T), so Q, Q^T G and Q lam~ live on the coupled rows only.  When B
has full row rank, B~ = B.  A system with fewer observation sites than
multiplier dofs is consistent but genuinely singular: the field part is
still unique, while the multiplier is determined only up to ker(B^T).
Restricting the multiplier to range(B) makes K nonsingular, and the
multiplier returned, lam = Q lam~, is the canonical one orthogonal to
the kernel, which matches what a dense pseudoinverse solve of the same
system produces.  The residual contract is checked against the original
blocks, so data with a component in ker(B^T) are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SaddleSystem

RESIDUAL_LIMIT = 1e-10

# Eigenvalues of B B^T at or below this fraction of the largest one are
# treated as exact kernel directions.
_KERNEL_RTOL = 1e-12


class SingularSystemError(RuntimeError):
    """Saddle system could not be solved to the residual contract.

    Carries an estimate of the smallest coupling singular value (0 when
    ker(B^T) is nontrivial); the usual remedies are more observation
    sites or a coarser mesh.
    """

    def __init__(self, message: str, estimate: float = float("nan")):
        super().__init__(message)
        self.estimate = estimate


@dataclass
class SaddleSolution:
    u: np.ndarray
    lam: np.ndarray
    residual_primal: float
    residual_constraint: float


def _kernel_basis(system: SaddleSystem):
    """(coupled, N, Q, w0) from one eigensolve of B B^T over the mask
    `coupled` of rows of B that hold a nonzero: orthonormal bases of
    ker(B^T) and range(B) on those rows, Q None when B has full row rank,
    and the smallest eigenvalue (0 when B is rank-deficient).
    """
    coupled = np.diff(system.B.indptr) > 0
    B = system.B[coupled]
    w, v = np.linalg.eigh((B @ B.T).toarray())
    kept = w > w.max(initial=1.0) * _KERNEL_RTOL
    if coupled.all() and kept.all():
        return coupled, v[:, ~kept], None, float(w[0])
    return coupled, v[:, ~kept], v[:, kept], 0.0


def _factorize(system: SaddleSystem):
    """Sparse LU of the saddle matrix restricted to range(B), or why it failed."""
    coupled, _, Q, _ = _cached(system, "kernel", _kernel_basis)
    B = system.B if Q is None else sp.csr_matrix(Q.T) @ system.B[coupled]
    try:
        return spla.splu(sp.bmat([[system.A, B.T], [B, None]], format="csc"))
    except (RuntimeError, ValueError) as exc:
        return f"sparse factorization failed ({exc})"


def _cached(system: SaddleSystem, name: str, build):
    """`build(system)` once per (A, B), kept in `system.factors`; a
    system with other blocks empties the cache first."""
    cache = system.factors
    if cache.get("A") is not system.A or cache.get("B") is not system.B:
        cache.clear()
        cache.update(A=system.A, B=system.B)
    if name not in cache:
        cache[name] = build(system)
    return cache[name]


def solve_saddle(system: SaddleSystem) -> SaddleSolution:
    """Solve the saddle system for (u, lam) by the range-restricted LU.

    The LU, the ker(B^T)/range(B) bases and B^T are built once per
    (A, B) and cached in `system.factors`.  Misshapen or non-finite F
    or G raise ValueError.  Residuals above 1e-10 (relative to max(1,
    |rhs|) blockwise) raise :class:`SingularSystemError` naming the
    dimension of ker(B^T) and the part of G in it.
    """
    for name, size in (("F", system.n_field), ("G", system.n_multiplier)):
        data = getattr(system, name)
        if np.shape(data) != (size,):
            raise ValueError(f"saddle system data {name} has shape {np.shape(data)}, the system needs ({size},)")
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise ValueError(f"saddle system data {name} is not finite at entry {int(bad[0])}")
    nv = system.n_field

    coupled, N, Q, smallest = _cached(system, "kernel", _kernel_basis)
    lu = _cached(system, "lu", _factorize)
    BT = _cached(system, "BT", lambda s: s.B.T)
    if isinstance(lu, str):
        reason = lu
    else:
        x = lu.solve(np.concatenate([system.F, system.G if Q is None else Q.T @ system.G[coupled]]))
        u, lam = x[:nv], x[nv:]
        if Q is not None:
            lam = np.zeros(system.n_multiplier)
            lam[coupled] = Q @ x[nv:]
        rp = np.linalg.norm(system.A @ u + BT @ lam - system.F) / max(1.0, np.linalg.norm(system.F))
        rc = np.linalg.norm(system.B @ u - system.G) / max(1.0, np.linalg.norm(system.G))
        if np.isfinite(rp) and np.isfinite(rc) and rp <= RESIDUAL_LIMIT and rc <= RESIDUAL_LIMIT:
            return SaddleSolution(u, lam, rp, rc)
        reason = f"direct solve left residuals ({rp:.2e}, {rc:.2e})"

    in_kernel = np.concatenate([system.G[~coupled], N.T @ system.G[coupled]])
    dim, outside = len(in_kernel), float(np.linalg.norm(in_kernel))
    est = float(np.sqrt(max(smallest, 0.0)))
    raise SingularSystemError(
        f"{reason}; ker(B^T) has dimension {dim} and the data G have a component "
        f"of norm {outside:.2e} in it; smallest coupling singular value about {est:.2e}. "
        "Increase the number of observation sites or coarsen the mesh.",
        estimate=est,
    )
