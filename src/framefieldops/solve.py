"""Sparse symmetric linear algebra: SPD solves, solves with pinned values,
generalized eigenpairs, implicit-Euler diffusion, and box-constrained
quadratic programs.

Every solve goes through one sparse LU factorization, ``_factorize``.
``solve_spd`` factors the system and solves all right-hand sides with that
factor; ``solve_pinned`` solves the free block of a problem with prescribed
entries by ``solve_spd``, and each step of the box QP is one
``solve_pinned``; ``eigs_generalized`` factors ``A + |sigma| M`` once and
hands its solves to ARPACK's shift-invert Lanczos.  There is no dense or
iterative alternative.

Every matrix factored here is symmetric positive definite: the shifted
eigen operator, the implicit-Euler ``M + tau A``, and the free block of a
pinned solve (Dirichlet and harmonic-field interiors, a QP's inactive
set).  ``_factorize`` therefore orders for symmetry: a reverse
Cuthill-McKee permutation, then SuperLU's minimum degree on ``A + A^T`` in
symmetric mode with diagonal pivots, which are stable for SPD input.  See
``_factorize`` for why both steps are needed.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh  # noqa: F401  unused here; perfbench/tracing.py wraps it
from scipy.sparse import linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import NumericalError, ParameterError

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


class _PermutedFactor:
    """LU factor of ``A[p][:, p]`` that solves ``A x = b`` in the original order."""

    def __init__(self, lu, perm):
        self._lu = lu
        self._perm = perm

    def solve(self, b):
        """Solve for a right-hand side of shape ``(n,)`` or ``(n, r)``."""
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[self._perm] = self._lu.solve(b[self._perm])
        return x


def _factorize(A):
    """Sparse LU factor of the symmetric positive definite matrix ``A``.

    The rows and columns are first permuted symmetrically by reverse
    Cuthill-McKee; SuperLU then orders the permuted matrix by multiple
    minimum degree on ``A + A^T`` in symmetric mode with diagonal pivots
    (``diag_pivot_thresh=0``), which keeps the symmetric ordering intact and
    is stable because ``A`` is SPD.  SuperLU's default COLAMD ordering is
    meant for unsymmetric matrices: on the fourth-order operators it gave
    about 1.3x the fill and 2.5x the factor time (disk 40 ``M + tau A``,
    4,921 unknowns: 1.12 M fill and 106 ms, against 0.82 M and 42 ms).
    Minimum degree alone depends on the input numbering, though.  On the
    coarse-first numbering of ``refine_uniform`` it took 412 ms on the
    12,097-unknown interior Laplacian of a twice-refined disk, against 63 ms
    for COLAMD; after the RCM pre-permutation it takes 46 ms.  (Best of
    three, one BLAS thread, scipy 1.17.1 on a 2-vCPU x86-64 host.)

    Returns an object whose ``solve(b)`` accepts a 1-D or ``(n, r)``
    right-hand side.  A matrix that is singular to working precision raises
    ``NumericalError``.
    """
    A = sparse.csc_matrix(A)
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    try:
        lu = spla.splu(
            A[perm][:, perm],
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU factorization failed: {exc}") from exc
    return _PermutedFactor(lu, perm)


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


def solve_pinned(A, pinned, values):
    """Minimize ``0.5 x' A x`` subject to ``x[pinned] = values``.

    ``pinned`` holds distinct indices and ``values`` has shape ``(np,)`` or
    ``(np, r)``.  The free entries solve ``A_ff x_f = -A_fp values`` with one
    ``solve_spd``, so the free block must be positive definite.  Returns the
    full solution, shape ``(n,)`` or ``(n, r)``, with ``x[pinned] = values``.
    """
    A = sparse.csr_matrix(_operator_matrix(A))
    pinned = np.asarray(pinned, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    free = np.setdiff1d(np.arange(A.shape[0]), pinned)
    x = np.zeros((A.shape[0],) + values.shape[1:])
    x[pinned] = values
    if len(free):
        A_f = A[free]
        x[free] = solve_spd(A_f[:, free], -(A_f[:, pinned] @ values))
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


def eigs_generalized(A, M_diag, k, seed=0):
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
    A = check_symmetric(_operator_matrix(A))
    M_diag = np.asarray(M_diag, dtype=float)
    n = A.shape[0]
    if not 0 < k < n:
        raise ParameterError(f"k must lie in (0, {n}), got {k}")
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
        raise ParameterError("diffusion time must be positive")
    A = _operator_matrix(op)
    M_diag = op.vertex_mass if hasattr(op, "vertex_mass") else None
    if M_diag is None:
        raise ParameterError("diffuse requires an operator with a vertex mass")
    system = (sparse.diags(M_diag) + tau * A).tocsr()
    return solve_spd(system, M_diag * np.asarray(u0, dtype=float))


def solve_box_qp(A, fixed_indices, fixed_values, lower, upper, return_info=False):
    """Minimize ``0.5 x^T A x`` with fixed entries and box bounds.

    Primal-dual active-set method (Hintermueller, Ito & Kunisch, SIAM J.
    Optim. 13, 2002).  Each step pins the fixed entries and the active
    entries at their bounds and solves for the rest with ``solve_pinned``;
    the first step, with nothing active, is the equality-constrained solve.
    The gradient ``g = A x`` is the multiplier of every pinned entry, and
    an entry whose ``x - g / a_ii`` passes ``lower`` or ``upper`` by more
    than 1e-12 of the bound's magnitude is active at that bound in the next
    step.  When the active set repeats, ``x`` is a KKT point: ``g = 0`` on
    inactive entries, ``g >= 0`` at lower and ``g <= 0`` at upper bounds.
    ``x`` is returned clipped to the box, which removes round-off.

    - The complementarity constant is ``diag(A)``; with a constant of 1 the
      loop cycles on the coloring operators.
    - An entry with ``lower == upper`` is pinned like a fixed entry; left to
      the active set, round-off moves it between its equal bounds forever.
    - The 1e-12 margin keeps round-off from moving an entry that sits on a
      bound with a zero multiplier in and out of the active set.  On 100,000
      random integer problems of 2 or 3 unknowns, 254 cycled without it and
      7 with it.
    - Convergence is only guaranteed for M-matrices, which the fourth-order
      operators are not.  A revisited active set, or more than ``n + 1``
      steps, raises ``NumericalError``; there is no fallback method.

    Parameters
    ----------
    A : sparse symmetric PSD matrix or AssembledOperator
        Its block on the entries that are neither fixed nor at a bound must
        be positive definite.
    fixed_indices, fixed_values : array_like
        Equality-pinned entries (must satisfy the bounds).
    lower, upper : np.ndarray
        Elementwise bounds, ``lower <= upper``.
    return_info : bool
        Also return a dict with the step count ``iterations``, ``converged``
        (true whenever a result is returned) and ``kkt_residual``, the norm
        of the projected gradient.
    """
    A = sparse.csr_matrix(_operator_matrix(A))
    n = A.shape[0]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        raise ParameterError("lower bound exceeds upper bound")
    fixed_indices = np.asarray(fixed_indices, dtype=np.int64)
    fixed_values = np.asarray(fixed_values, dtype=float)
    if len(fixed_indices) and (
        np.any(fixed_values < lower[fixed_indices] - 1e-12)
        or np.any(fixed_values > upper[fixed_indices] + 1e-12)
    ):
        raise ParameterError("fixed values violate the bounds")

    unfixed = np.ones(n, dtype=bool)
    unfixed[fixed_indices] = False
    bounded = np.flatnonzero(unfixed & (lower < upper))
    flat = np.flatnonzero(unfixed & (lower == upper))
    pinned = np.concatenate([fixed_indices, flat])
    pinned_values = np.concatenate([fixed_values, lower[flat]])
    lo, hi, d = lower[bounded], upper[bounded], A.diagonal()[bounded]
    margin = 1e-12 * np.maximum(np.abs(lo), np.abs(hi))

    side = np.zeros(len(bounded), dtype=int)  # -1 at lower, +1 at upper
    seen = set()
    for it in range(1, n + 2):
        seen.add(side.tobytes())
        active = np.flatnonzero(side)
        x = solve_pinned(
            A,
            np.concatenate([pinned, bounded[active]]),
            np.concatenate([pinned_values, np.where(side < 0, lo, hi)[active]]),
        )
        g = (A @ x)[bounded]
        z = x[bounded] - g / d
        new = np.where(z < lo - margin, -1, np.where(z > hi + margin, 1, 0))
        if np.array_equal(new, side):
            break
        if new.tobytes() in seen:
            raise NumericalError(f"box QP active set cycled after {it} steps")
        side = new
    else:
        raise NumericalError(f"box QP active set did not settle in {n + 1} steps")

    x[bounded] = np.clip(x[bounded], lo, hi)
    xb, g = x[bounded], (A @ x)[bounded]
    # projected gradient: only a multiplier of the wrong sign counts at a bound
    g = np.where(xb <= lo, np.minimum(g, 0.0), np.where(xb >= hi, np.maximum(g, 0.0), g))
    info = {"kkt_residual": float(np.linalg.norm(g)), "iterations": it, "converged": True}
    logger.debug("box QP: %s", info)
    return (x, info) if return_info else x
