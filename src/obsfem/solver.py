"""Solution of the symmetric indefinite saddle system.

The default path is a sparse LU factorization of

    K = [[A, B^T],
         [B, 0  ]].

Whenever that fails, or leaves residuals above the 1e-10 contract, the
solver falls back to preconditioned MINRES.  A system with fewer
observation sites than multiplier dofs is consistent but genuinely
singular: the field part is still unique, while the multiplier is
determined only up to functions vanishing at every site.  In that case
the multiplier returned is the canonical one: its component in the
kernel of B^T (computed from the small Gram matrix B B^T) is removed,
which matches what a dense pseudoinverse solve of the same system
produces.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SaddleSystem, boundary_mass, vh_gram

logger = logging.getLogger(__name__)

RESIDUAL_LIMIT = 1e-10

# Eigenvalues of B B^T at or below this fraction of the largest one are
# treated as exact kernel directions.
_KERNEL_RTOL = 1e-12


class SingularSystemError(RuntimeError):
    """Saddle system could not be solved to the residual contract.

    Carries an estimate of the smallest spectral value encountered; the
    usual remedies are more observation sites or a coarser mesh.
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
    method: str
    iterations: int = 0


def _residuals(system: SaddleSystem, u: np.ndarray, lam: np.ndarray) -> tuple[float, float]:
    rp = np.linalg.norm(system.A @ u + system.B.T @ lam - system.F)
    rc = np.linalg.norm(system.B @ u - system.G)
    return (
        rp / max(1.0, np.linalg.norm(system.F)),
        rc / max(1.0, np.linalg.norm(system.G)),
    )


def _assemble_full(system: SaddleSystem) -> sp.csc_matrix:
    return sp.bmat([[system.A, system.B.T], [system.B, None]], format="csc")


def _kernel_basis(system: SaddleSystem) -> Optional[np.ndarray]:
    """Orthonormal basis of ker(B^T), or None if B has full row rank.

    B B^T is only n_multiplier x n_multiplier, so a dense eigensolve is
    cheap at any mesh size used here.
    """
    gram = (system.B @ system.B.T).toarray()
    w, v = np.linalg.eigh(gram)
    cut = max(w[-1], 1.0) * _KERNEL_RTOL
    null = v[:, w <= cut]
    return null if null.shape[1] else None


def _factorize(system: SaddleSystem):
    """Sparse LU of the saddle matrix, or why it failed."""
    try:
        return spla.splu(_assemble_full(system))
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


def _minres_solve(system: SaddleSystem, rtol: float) -> tuple[np.ndarray, int]:
    K = _assemble_full(system)
    rhs = np.concatenate([system.F, system.G])
    nv, nq = system.n_field, system.n_multiplier

    M = None
    if system.space_v is not None and system.space_q is not None:
        # Block-diagonal preconditioner: the V_h-norm Gram on the field
        # block, the Q_h-norm (h-scaled boundary mass) on the multiplier
        # block.  Both are SPD.
        top = vh_gram(system.space_v, system.space_q, system.A)
        bot = boundary_mass(system.space_q, power=2)
        top_lu = spla.splu(top.tocsc())
        bot_lu = spla.splu(bot.tocsc())

        def apply(x):
            return np.concatenate([top_lu.solve(x[:nv]), bot_lu.solve(x[nv:])])

        M = spla.LinearOperator(K.shape, matvec=apply)

    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    maxiter = max(2000, 20 * K.shape[0])
    x, info = spla.minres(K, rhs, M=M, rtol=rtol, maxiter=maxiter, callback=count)
    if info != 0:
        logger.warning("minres returned info=%d after %d iterations", info, iters)
    # A couple of refinement passes push the residual well below the
    # contract even when the first sweep stagnates near it.
    scale = max(1.0, np.linalg.norm(rhs))
    for _ in range(3):
        r = rhs - K @ x
        if np.linalg.norm(r) <= 0.01 * RESIDUAL_LIMIT * scale:
            break
        dx, _ = spla.minres(K, r, M=M, rtol=1e-10, maxiter=maxiter, callback=count)
        x = x + dx
    return x, iters


def solve_saddle(system: SaddleSystem, method: str = "auto", rtol: float = 1e-13) -> SaddleSolution:
    """Solve the saddle system for (u, lam).

    method: "auto" tries sparse LU and falls back to MINRES; "direct"
    and "minres" force one path; LU and ker(B^T) are cached in
    `system.factors`.  Non-finite F or G raise ValueError.  Residuals
    above 1e-10 (relative to max(1, |rhs|) blockwise) raise
    :class:`SingularSystemError`.
    """
    if method not in ("auto", "direct", "minres"):
        raise ValueError(f"unknown method {method!r}")
    for name in ("F", "G"):
        bad = np.flatnonzero(~np.isfinite(getattr(system, name)))
        if bad.size:
            raise ValueError(f"saddle system data {name} is not finite at entry {int(bad[0])}")
    nv = system.n_field

    kernel = _cached(system, "kernel", _kernel_basis)
    if method in ("auto", "direct"):
        lu = _cached(system, "lu", _factorize)
        if isinstance(lu, str):
            reason = lu
        else:
            x = lu.solve(np.concatenate([system.F, system.G]))
            u, lam = x[:nv], x[nv:]
            if kernel is not None:
                # Canonical multiplier: factorization of a singular but
                # consistent system leaves arbitrary ker(B^T) content in
                # lam without touching the residuals.
                lam = lam - kernel @ (kernel.T @ lam)
            rp, rc = _residuals(system, u, lam)
            if np.isfinite(rp) and np.isfinite(rc) and rp <= RESIDUAL_LIMIT and rc <= RESIDUAL_LIMIT:
                return SaddleSolution(u, lam, rp, rc, "direct")
            reason = f"direct solve left residuals ({rp:.2e}, {rc:.2e})"
        if method == "direct":
            raise SingularSystemError(
                f"{reason}; the coupling block is singular or nearly so. "
                "Increase the number of observation sites or coarsen the mesh."
            )
        logger.info("%s; retrying with minres", reason)

    x, iters = _minres_solve(system, rtol)
    u, lam = x[:nv], x[nv:]
    if kernel is not None:
        # Multiplier only determined up to ker(B^T): return the
        # canonical representative orthogonal to the kernel.
        lam = lam - kernel @ (kernel.T @ lam)
    rp, rc = _residuals(system, u, lam)
    if not (np.isfinite(rp) and np.isfinite(rc)) or rp > RESIDUAL_LIMIT or rc > RESIDUAL_LIMIT:
        if kernel is not None:
            est = 0.0
        else:
            gram = (system.B @ system.B.T).toarray()
            est = float(np.sqrt(max(np.linalg.eigvalsh(gram).min(), 0.0)))
        raise SingularSystemError(
            f"iterative solve stalled with residuals ({rp:.2e}, {rc:.2e}); "
            f"smallest coupling singular value about {est:.2e}. "
            "Increase the number of observation sites or coarsen the mesh.",
            estimate=est,
        )
    return SaddleSolution(u, lam, rp, rc, "minres", iterations=iters)
