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

K is factored with the field unknowns in a nested-dissection order of
the mesh (:func:`dissection_order`) and the multipliers last, once per
:class:`SaddleSystem`, which keeps it; a noise trial solves the same
system for its own G.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def dissection_order(points: np.ndarray, A: sp.csr_matrix) -> np.ndarray:
    """Nested-dissection order of the vertices at `points` in the graph of
    A's off-diagonal pattern (George, SIAM J. Numer. Anal. 1973).

    Morton codes of D = 2 ceil(log4(NV / 64)) bits (x and y interleaved,
    most significant first, in the bounding box) leave about 64 vertices
    per leaf cell.  An edge first separates at the highest bit where its
    codes differ, and its endpoint with a 0 there (the smaller code)
    separates that split; a vertex's split depth is the shallowest it
    separates (D if none).  The base-3 key, the code's bits above that
    depth, a 2, then zeros, sorts both halves of every cell before their
    separator (a stable sort).
    """
    nv = len(points)
    half = -(-((nv - 1) // 64).bit_length() // 2)  # bits per axis
    D = 2 * half
    code = np.zeros(nv, dtype=np.int64)
    for shift, x in zip((1, 0), points.T):  # bit b of the cell index along x is bit 2 b + 1 of the code
        lo, span = x.min(), x.max() - x.min()
        cells = np.minimum((x - lo) / (span if span > 0 else 1.0) * (1 << half), (1 << half) - 1).astype(np.int64)
        for b in range(half):
            code |= (cells >> b & 1) << 2 * b + shift
    own, other = np.repeat(code, np.diff(A.indptr)), code[A.indices]
    cut = own < other  # the row has the 0 at the highest bit where the codes differ
    rows = np.repeat(np.arange(nv), np.diff(A.indptr))[cut]  # ascending
    split = D - np.frexp(own[cut] ^ other[cut])[1]  # D - 1 - that bit, exact below 2^53
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    depth = np.full(nv, D)
    depth[rows[first]] = np.minimum.reduceat(split, first)
    key = np.zeros(nv, dtype=np.int64)
    for j in range(D + 1):
        key = 3 * key + np.where(j < depth, code >> max(D - 1 - j, 0) & 1, 2 * (j == depth))
    return np.argsort(key, kind="stable")


# What every solve of one (A, B) reads; see SaddleSystem.factorization.
Factorization = namedtuple("Factorization", "coupled N Q smallest order lu BT")


@dataclass(frozen=True, eq=False)
class SaddleSystem:
    """Blocks of the discrete saddle problem
    [[A, B^T], [B, 0]] [u, lam] = [F, G].

    `points` holds the (NV, 2) coordinates of the field unknowns, from
    which the solver orders them.  The system is frozen, and its
    `factorization` of (A, B) is built at its first solve and kept; a
    system with other blocks is another system, factored anew.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    F: np.ndarray
    G: np.ndarray
    points: np.ndarray

    @property
    def n_field(self) -> int:
        return self.A.shape[0]

    @property
    def n_multiplier(self) -> int:
        return self.B.shape[0]

    @cached_property
    def factorization(self) -> Factorization:
        """The range-restricted LU of (A, B) and what its solves read.

        One eigensolve of B B^T over the mask `coupled` of rows of B that
        hold a nonzero gives orthonormal bases N of ker(B^T) and Q of
        range(B) on those rows (Q None when B has full row rank), and the
        smallest eigenvalue (0 when B is rank-deficient).  `lu` is the
        sparse LU of K, the field unknowns in `order` and the multipliers
        last, or why it failed; K has the canonical CSC arrays of
        `sp.bmat`, rows sorted in each column.
        """
        A, B = self.A, self.B
        coupled = np.diff(B.indptr) > 0
        w, v = np.linalg.eigh((B[coupled] @ B[coupled].T).toarray())
        kept = w > w.max(initial=1.0) * _KERNEL_RTOL
        Q = None if coupled.all() and kept.all() else v[:, kept]
        order = dissection_order(self.points, A)
        place = np.empty(len(order), dtype=A.indices.dtype)  # of each field unknown in K
        place[order] = np.arange(len(order))
        B_tilde = B if Q is None else sp.csr_matrix(Q.T) @ B[coupled]
        field = sp.vstack([A[order], B_tilde], format="csr")  # K's field columns [A; B~], rows in K's order
        field = sp.csr_matrix((field.data, place[field.indices], field.indptr), shape=field.shape)
        lagrange = field[len(order):].sorted_indices()  # B~, whose rows are K's multiplier columns
        K = sp.hstack([field.tocsc(), sp.csc_matrix((lagrange.data, lagrange.indices, lagrange.indptr),
                                                    (field.shape[0], lagrange.shape[0]))], format="csc")
        try:
            lu = spla.splu(K, permc_spec="NATURAL")
        except (RuntimeError, ValueError) as exc:
            lu = f"sparse factorization failed ({exc})"
        return Factorization(coupled, v[:, ~kept], Q, float(w[0]) if Q is None else 0.0, order, lu, B.T)


def solve_saddle(system: SaddleSystem, G: Optional[np.ndarray] = None) -> SaddleSolution:
    """Solve the saddle system, with the data G in place of `system.G`
    if given, for (u, lam) by the range-restricted LU.

    Misshapen or non-finite F, G or points raise ValueError before
    anything is factored; then the system's `factorization` is built,
    once.  Residuals above 1e-10 (relative to max(1, |rhs|) blockwise)
    raise :class:`SingularSystemError` naming the dimension of ker(B^T)
    and the part of G in it.
    """
    G, nv = np.asarray(system.G if G is None else G), system.n_field
    for name, shape in (("F", (nv,)), ("G", (system.n_multiplier,)), ("points", (nv, 2))):
        data = G if name == "G" else getattr(system, name)
        if np.shape(data) != shape:
            raise ValueError(f"saddle system data {name} has shape {np.shape(data)}, the system needs {shape}")
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise ValueError(f"saddle system data {name} is not finite at entry {int(bad[0])}")

    coupled, N, Q, smallest, order, lu, BT = system.factorization
    if isinstance(lu, str):
        reason = lu
    else:
        x = lu.solve(np.concatenate([system.F[order], G if Q is None else Q.T @ G[coupled]]))
        u, lam = np.empty(nv), x[nv:]
        u[order] = x[:nv]
        if Q is not None:
            lam = np.zeros(system.n_multiplier)
            lam[coupled] = Q @ x[nv:]
        # norms by numpy's pairwise sum: a BLAS dot's bits depend on the BLAS thread count
        rp, rc = (np.sqrt(np.square(r).sum()) / max(1.0, np.sqrt(np.square(b).sum()))
                  for r, b in ((system.A @ u + BT @ lam - system.F, system.F), (system.B @ u - G, G)))
        if np.isfinite(rp) and np.isfinite(rc) and rp <= RESIDUAL_LIMIT and rc <= RESIDUAL_LIMIT:
            return SaddleSolution(u, lam, rp, rc)
        reason = f"direct solve left residuals ({rp:.2e}, {rc:.2e})"

    in_kernel = np.concatenate([G[~coupled], N.T @ G[coupled]])
    dim, outside = len(in_kernel), float(np.linalg.norm(in_kernel))
    est = float(np.sqrt(max(smallest, 0.0)))
    raise SingularSystemError(
        f"{reason}; ker(B^T) has dimension {dim} and the data G have a component "
        f"of norm {outside:.2e} in it; smallest coupling singular value about {est:.2e}. "
        "Increase the number of observation sites or coarsen the mesh.",
        estimate=est,
    )
