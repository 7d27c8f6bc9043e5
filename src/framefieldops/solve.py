"""Sparse symmetric linear algebra: SPD solves, generalized eigenpairs,
implicit-Euler diffusion, and box-constrained quadratic programs.

Every solve goes through one sparse LU factorization, ``_factorize``
(SuperLU with its default column ordering).  ``solve_spd`` factors the
system and solves all right-hand sides with that factor; ``eigs_generalized``
factors the shifted matrix ``A + |sigma| M`` once and hands its solves to
ARPACK's shift-invert Lanczos.  There is no dense or iterative alternative.
"""

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh  # noqa: F401  unused here; perfbench/tracing.py wraps it
from scipy.sparse import linalg as spla

from .errors import NumericalError

logger = logging.getLogger(__name__)

DENSE_THRESHOLD = 3000  # unused here; perfbench/workloads.py labels records with it


def check_symmetric(A, tol=1e-12):
    """Validate and return a CSR matrix that is symmetric within tolerance.

    Raises
    ------
    NumericalError
        If ``max |a_ij - a_ji| > tol * max |a|``.
    """
    A = sparse.csr_matrix(A)
    scale = max(abs(A).max() if A.nnz else 0.0, 1e-300)
    gap = abs(A - A.T).max() if A.nnz else 0.0
    if gap > tol * scale:
        raise NumericalError(
            f"matrix asymmetry {gap:.3e} exceeds {tol:.0e} * max|a| = {tol * scale:.3e}"
        )
    return A


def _operator_matrix(op):
    # AssembledOperator or raw sparse/dense matrix.
    return op.matrix if hasattr(op, "matrix") else op


def _factorize(A):
    """SuperLU factor of ``A``; a singular matrix raises ``NumericalError``."""
    try:
        return spla.splu(sparse.csc_matrix(A))
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU factorization failed: {exc}") from exc


def solve_spd(A, b):
    """Solve the symmetric positive definite system ``A x = b``.

    One sparse LU factor of ``A`` solves every column of ``b``.

    Parameters
    ----------
    A : sparse or dense symmetric positive definite matrix, or AssembledOperator
    b : np.ndarray
        Right-hand side, shape ``(n,)`` or ``(n, r)``.

    Returns
    -------
    np.ndarray
        Solution with the shape of ``b``.

    Raises
    ------
    NumericalError
        If ``A`` is singular to working precision, or a column's residual
        exceeds ``1e-7 * (|A|_inf |x| + |b|)``.
    """
    A = sparse.csc_matrix(_operator_matrix(A))
    b = np.asarray(b, dtype=float)
    x = _factorize(A).solve(b)
    # Backward-stable acceptance: residual relative to |A||x| + |b| guards
    # against silent failure without punishing ill-conditioned systems.
    resid = np.linalg.norm(A @ x - b, axis=0)
    scale = spla.norm(A, np.inf) * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0)
    if np.any(resid > 1e-7 * scale):
        raise NumericalError(f"SPD solve residual {np.max(resid):.3e} above tolerance")
    return x


@dataclass
class EigenResult:
    """Generalized eigenpairs A phi = lambda M phi, ascending.

    Eigenvectors are M-orthonormal columns.  ``residuals`` records
    ``|A phi - lambda M phi|`` per pair.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    def validate(self, A, M_diag, rtol=1e-7, otol=1e-8):
        """Assert the residual and M-orthonormality contracts."""
        A = _operator_matrix(A)
        norm_a = spla.norm(A, np.inf) if sparse.issparse(A) else np.linalg.norm(A, np.inf)
        norm_m = float(np.max(np.abs(M_diag)))
        bound = rtol * (norm_a + np.abs(self.values) * norm_m)
        if np.any(self.residuals > bound):
            raise NumericalError("eigenpair residual exceeds tolerance")
        gram = self.vectors.T @ (M_diag[:, None] * self.vectors)
        if np.max(np.abs(gram - np.eye(len(self.values)))) > otol:
            raise NumericalError("eigenvectors are not M-orthonormal")
        return True


def eigs_generalized(A, M_diag, k, which="smallest", seed=0):
    """k smallest eigenpairs of ``A phi = lambda M phi`` with diagonal M.

    ARPACK's shift-invert Lanczos (``eigsh``) runs on one LU factor of
    ``A - sigma M`` with ``sigma = -1e-5 * trace(A) / n``.  The shift is
    negative because A is PSD with a nontrivial nullspace, so ``A - sigma M``
    is positive definite, and it scales with the operator, whose magnitude
    varies with epsilon and mesh size.  Its size trades accuracy for speed:
    the zero modes become eigenvalues ``1/|sigma|`` of the shifted inverse,
    and the Lanczos pairs of the nonzero modes lose accuracy roughly in
    proportion to ``lambda / |sigma|``.  At ``1e-8 * trace(A) / n`` the
    natural-condition ball broke the residual contract by up to 70x; at
    ``1e-5`` the worst residual on the squares, disks and balls of the tests
    and the benchmark is below 1/400 of its bound.

    Parameters
    ----------
    A : sparse symmetric PSD matrix or AssembledOperator
    M_diag : np.ndarray
        Positive diagonal of the mass matrix.
    k : int
        Number of eigenpairs, ``k < n``.
    which : {"smallest"}
        Only the smallest end of the spectrum is supported.
    seed : int
        Seeds ARPACK's starting vector, so a call is reproducible.

    Returns
    -------
    EigenResult

    Raises
    ------
    NumericalError
        If the mass is not positive, the shifted matrix is singular, ARPACK
        does not converge, or a pair fails ``EigenResult.validate``.
    """
    if which != "smallest":
        raise ValueError("only the smallest end of the spectrum is supported")
    A = check_symmetric(_operator_matrix(A))
    M_diag = np.asarray(M_diag, dtype=float)
    n = A.shape[0]
    if not 0 < k < n:
        raise ValueError(f"k must lie in (0, {n}), got {k}")
    if np.any(M_diag <= 0):
        raise NumericalError("mass diagonal must be positive")

    sigma = -1e-5 * A.diagonal().sum() / n
    M = sparse.diags(M_diag)
    lu = _factorize(A - sigma * M)
    OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(A, k, M=M, sigma=sigma, OPinv=OPinv, v0=v0)
    except spla.ArpackError as exc:
        raise NumericalError(f"shift-invert Lanczos failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    residuals = np.linalg.norm(A @ vecs - M_diag[:, None] * vecs * vals, axis=0)
    result = EigenResult(values=vals, vectors=vecs, residuals=residuals)
    result.validate(A, M_diag)
    return result


def diffuse(op, u0, tau):
    """One implicit-Euler step of ``du/dt = -A u``: solve (M + tau A) u = M u0."""
    if tau <= 0:
        raise ValueError("diffusion time must be positive")
    A = _operator_matrix(op)
    M_diag = op.vertex_mass if hasattr(op, "vertex_mass") else None
    if M_diag is None:
        raise ValueError("diffuse requires an operator with a vertex mass")
    system = (sparse.diags(M_diag) + tau * A).tocsr()
    return solve_spd(system, M_diag * np.asarray(u0, dtype=float))


def solve_box_qp(
    A,
    fixed_indices,
    fixed_values,
    lower,
    upper,
    max_iter=5000,
    tol_scale=1e-8,
    return_info=False,
):
    """Minimize ``0.5 x^T A x`` with fixed entries and box bounds.

    Projected gradient with diagonal preconditioning and Barzilai-Borwein
    steps.  Terminates when the projected gradient norm drops below
    ``tol_scale * |A|_inf * |x| + 1e-12`` or at the iteration cap (with a
    warning; the current iterate is still returned).

    Parameters
    ----------
    A : sparse symmetric PSD matrix or AssembledOperator
    fixed_indices, fixed_values : array_like
        Equality-pinned entries (must satisfy the bounds).
    lower, upper : np.ndarray
        Elementwise bounds, ``lower <= upper``.
    return_info : bool
        Also return a dict with the KKT residual and iteration count.
    """
    A = sparse.csr_matrix(_operator_matrix(A))
    n = A.shape[0]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    fixed_indices = np.asarray(fixed_indices, dtype=np.int64)
    fixed_values = np.asarray(fixed_values, dtype=float)
    if len(fixed_indices) and (
        np.any(fixed_values < lower[fixed_indices] - 1e-12)
        or np.any(fixed_values > upper[fixed_indices] + 1e-12)
    ):
        raise ValueError("fixed values violate the bounds")

    free = np.setdiff1d(np.arange(n), fixed_indices)
    x = np.zeros(n)
    x[fixed_indices] = fixed_values
    if len(free) == 0:
        if return_info:
            return x, {"kkt_residual": 0.0, "iterations": 0, "converged": True}
        return x

    # Warm start from the unconstrained equality solve, clipped to the box.
    A_ff = A[free][:, free]
    if len(fixed_indices):
        rhs = -A[free][:, fixed_indices] @ fixed_values
        try:
            x[free] = solve_spd(A_ff, rhs)
        except NumericalError:
            pass
    x[free] = np.clip(x[free], lower[free], upper[free])

    diag = A_ff.diagonal()
    diag = np.where(diag > 1e-300, diag, 1.0)
    anorm = spla.norm(A, np.inf)

    def projected_gradient(xf, g):
        pg = g.copy()
        at_lo = xf <= lower[free]
        at_hi = xf >= upper[free]
        pg[at_lo] = np.minimum(g[at_lo], 0.0)
        pg[at_hi] = np.maximum(g[at_hi], 0.0)
        return pg

    xf = x[free]
    g = (A @ x)[free]
    alpha = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        pg = projected_gradient(xf, g)
        kkt = np.linalg.norm(pg)
        if kkt <= tol_scale * anorm * max(np.linalg.norm(xf), 1.0) + 1e-12:
            converged = True
            break
        x_new = np.clip(xf - alpha * (g / diag), lower[free], upper[free])
        x[free] = x_new
        g_new = (A @ x)[free]
        s = x_new - xf
        y = g_new - g
        # Barzilai-Borwein step in the diagonal metric: (s' D s) / (s' y).
        sy = s @ y
        alpha = (s @ (diag * s)) / sy if sy > 1e-300 else 1.0
        alpha = min(max(alpha, 1e-10), 1e10)
        xf, g = x_new, g_new
    if not converged:
        warnings.warn(f"box QP hit the iteration cap ({max_iter}); returning iterate")
    x[free] = xf
    info = {
        "kkt_residual": float(np.linalg.norm(projected_gradient(xf, g))),
        "iterations": it,
        "converged": converged,
    }
    logger.debug("box QP: %s", info)
    if return_info:
        return x, info
    return x
