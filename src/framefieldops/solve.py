"""Sparse symmetric linear algebra: SPD solves, solves with pinned values,
generalized eigenpairs, implicit-Euler diffusion, and box-constrained
quadratic programs.

Every solve goes through one banded Cholesky factorization, ``_factorize``.
``solve_spd`` factors the system and solves all right-hand sides with that
factor; ``solve_pinned`` solves the free block of a problem with prescribed
entries by ``solve_spd``, and each step of the box QP is one
``solve_pinned``; ``eigs_generalized`` factors ``A + |sigma| M`` once and
hands its solves to ARPACK's shift-invert Lanczos.  There is no dense or
iterative alternative.

Every matrix factored here is symmetric positive definite: the shifted
eigen operator, the implicit-Euler ``M + tau A``, and the free block of a
pinned solve (Dirichlet and harmonic-field interiors, a QP's inactive
set).  A system on a mesh's vertices is factored in the mesh's
``vertex_order``, reverse Cuthill-McKee on the vertex graph, restricted to
the free entries of a pinned solve; a matrix without a mesh in reverse
Cuthill-McKee of its own graph.  In these orders the band is narrow (2n + 2
for the fourth-order operators on ``structured_square(n)``), and LAPACK's
blocked banded Cholesky factors it several times faster than a general
sparse LU.
"""

import itertools
import logging
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
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
        Unless ``max |a_ij - a_ji| <= tol * max |a|``, so a NaN entry fails.
    """
    A = sparse.csr_matrix(A)
    scale = max(abs(A).max() if A.nnz else 0.0, 1e-300)
    gap = abs(A - A.T).max() if A.nnz else 0.0
    if not gap <= tol * scale:
        raise NumericalError(
            f"matrix is not symmetric: asymmetry {gap:.3e} exceeds "
            f"{tol:.0e} * max|a| = {tol * scale:.3e}"
        )
    return A


def _positions(indices, n, name):
    """``indices`` as int64 positions in [0, n), else ``ParameterError``."""
    indices = np.asarray(indices, dtype=np.int64)
    if np.any((indices < 0) | (indices >= n)):
        raise ParameterError(f"{name} must lie in [0, {n})")
    return indices


class _Ordered(NamedTuple):
    """A matrix with the order its factor uses, or ``None`` for RCM of its graph."""

    matrix: object
    order: object


def _ordered(op):
    """``op`` as an ``_Ordered``: an AssembledOperator brings its matrix and
    its mesh's vertex order, a raw sparse or dense matrix no order."""
    if isinstance(op, _Ordered):
        return op
    if hasattr(op, "matrix"):
        return _Ordered(op.matrix, op.mesh.vertex_order())
    return _Ordered(op, None)


class _BandFactor:
    """Banded Cholesky factor of ``A[order][:, order]`` that solves ``A x = b``
    in the original order."""

    def __init__(self, band, order):
        self._band = band
        self._order = order

    def solve(self, b):
        """Solve for a right-hand side of shape ``(n,)`` or ``(n, r)``."""
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[self._order] = cho_solve_banded(
            (self._band, True), b[self._order], overwrite_b=True, check_finite=False
        )
        return x


def _factorize(A, order=None):
    """Banded Cholesky factor of the symmetric positive definite matrix ``A``.

    The rows and columns are permuted symmetrically by ``order``, by default
    reverse Cuthill-McKee on the graph of ``A``.  The lower band of the
    permuted matrix, bandwidth ``bw`` = its widest row, is summed straight
    into a Fortran-ordered ``(bw + 1, n)`` array, which LAPACK's blocked
    ``pbtrf`` factors in place: no copy of ``A`` is made in its new order,
    and the factor stores ``(bw + 1) n`` values.  Only the lower triangle of
    ``A`` is read.

    Returns an object whose ``solve(b)`` accepts a 1-D or ``(n, r)``
    right-hand side.  A matrix that is not positive definite to working
    precision raises ``NumericalError``.
    """
    A = sparse.csr_matrix(A)
    n = A.shape[0]
    if order is None:
        order = reverse_cuthill_mckee(A, symmetric_mode=True)
    A = A.tocoo()
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    i, j = rank[A.row], rank[A.col]
    lower = i >= j
    i, j, data = i[lower], j[lower], A.data[lower]
    bw = int((i - j).max(initial=0))
    # column j of the band holds rows j..j+bw; (n, bw + 1) in C order is
    # the (bw + 1, n) band in Fortran order
    band = np.bincount(
        j * (bw + 1) + (i - j), weights=data, minlength=n * (bw + 1)
    ).reshape(n, bw + 1).T
    try:
        band = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError(f"banded Cholesky factorization failed: {exc}") from exc
    return _BandFactor(band, order)


def solve_spd(A, b):
    """Solve the symmetric positive definite system ``A x = b``.

    One banded Cholesky factor of ``A`` solves every column of ``b``.  It
    stores ``(bandwidth + 1) n`` values.  An ``AssembledOperator`` is
    ordered by its mesh's ``vertex_order``, a bare matrix by reverse
    Cuthill-McKee on its own graph.

    Parameters
    ----------
    A : sparse or dense symmetric positive definite matrix, or AssembledOperator
    b : np.ndarray
        Finite right-hand side, shape ``(n,)`` or ``(n, r)``; anything else
        raises ``ParameterError`` before ``A`` is factored.

    Returns
    -------
    np.ndarray
        Solution with the shape of ``b``.

    Raises
    ------
    NumericalError
        If ``A`` is not positive definite to working precision, or a
        column's residual exceeds ``1e-7 * (|A|_inf |x| + |b|)``.
    """
    A, order = _ordered(A)
    A = sparse.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or len(b) != A.shape[0] or not np.all(np.isfinite(b)):
        raise ParameterError(
            f"b must be finite with shape (n,) or (n, r), n = {A.shape[0]}"
        )
    x = _factorize(A, order).solve(b)
    # Backward-stable acceptance: residual relative to |A||x| + |b| guards
    # against silent failure without punishing ill-conditioned systems.
    resid = np.linalg.norm(A @ x - b, axis=0)
    scale = spla.norm(A, np.inf) * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0)
    if not np.all(resid <= 1e-7 * scale):
        raise NumericalError(f"SPD solve residual {np.max(resid):.3e} above tolerance")
    return x


def solve_pinned(A, pinned, values):
    """Minimize ``0.5 x' A x`` subject to ``x[pinned] = values``.

    ``pinned`` holds distinct indices in [0, n) (else ``ParameterError``)
    and ``values`` has shape ``(np,)`` or ``(np, r)``.  The free entries
    solve ``A_ff x_f = -A_fp values`` with one ``solve_spd``, so the free block must be positive definite.  An
    ``AssembledOperator``'s free block is factored in its mesh's vertex
    order restricted to the free entries.  Returns the full solution, shape
    ``(n,)`` or ``(n, r)``, with ``x[pinned] = values``.
    """
    A, order = _ordered(A)
    A = sparse.csr_matrix(A)
    n = A.shape[0]
    pinned = _positions(pinned, n, "pinned indices")
    values = np.asarray(values, dtype=float)
    free = np.setdiff1d(np.arange(n), pinned)
    x = np.zeros((n,) + values.shape[1:])
    x[pinned] = values
    if len(free):
        if order is not None:
            local = np.full(n, -1, dtype=np.int64)
            local[free] = np.arange(len(free))
            order = local[order]
            order = order[order >= 0]
        A_f = A[free]
        x[free] = solve_spd(_Ordered(A_f[:, free], order), -(A_f[:, pinned] @ values))
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
        norm_a = spla.norm(getattr(A, "matrix", A), np.inf)
        norm_m = float(np.max(np.abs(M_diag)))
        bound = rtol * (norm_a + np.abs(self.values) * norm_m)
        if not np.all(self.residuals <= bound):
            raise NumericalError("eigenpair residual exceeds tolerance")
        gram = self.vectors.T @ (M_diag[:, None] * self.vectors)
        if not np.max(np.abs(gram - np.eye(len(self.values)))) <= otol:
            raise NumericalError("eigenvectors are not M-orthonormal")
        return True


def eigs_generalized(A, M_diag, k, seed=0):
    """k smallest eigenpairs of ``A phi = lambda M phi`` with diagonal M.

    ARPACK's shift-invert Lanczos (``eigsh``) runs on one Cholesky factor of
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
        Diagonal of the mass matrix, one positive finite entry per row of
        A; anything else raises ``ParameterError``.
    k : int
        Number of eigenpairs, an integer with ``0 < k < n``; anything else
        raises ``ParameterError``.
    seed : int
        Seeds ARPACK's starting vector, so a call is reproducible.

    Returns
    -------
    EigenResult

    Raises
    ------
    ParameterError
        If ``k`` or ``M_diag`` is out of range, as above.
    NumericalError
        If the shifted matrix is not positive definite, ARPACK does not
        converge, or a pair fails ``EigenResult.validate``.
    """
    A, order = _ordered(A)
    A = check_symmetric(A)
    M_diag = np.asarray(M_diag, dtype=float)
    n = A.shape[0]
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 0 < k < n:
        raise ParameterError(f"k must be an integer in (0, {n}), got {k!r}")
    if M_diag.shape != (n,) or not np.all((M_diag > 0) & (M_diag < np.inf)):
        raise ParameterError(f"mass diagonal must hold {n} positive finite values")

    sigma = -1e-5 * A.diagonal().sum() / n
    M = sparse.diags(M_diag)
    factor = _factorize(A - sigma * M, order)
    OPinv = spla.LinearOperator((n, n), matvec=factor.solve, dtype=float)
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
    """One implicit-Euler step of ``du/dt = -A u``: solve (M + tau A) u = M u0.

    ``u0`` holds one finite value per vertex and ``tau`` must be positive
    and finite; either failing raises ``ParameterError`` before anything
    is factored.
    """
    if not 0 < tau < np.inf:
        raise ParameterError(f"diffusion time must be positive and finite, got {tau}")
    M_diag = getattr(op, "vertex_mass", None)
    if M_diag is None:
        raise ParameterError("diffuse requires an operator with a vertex mass")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != M_diag.shape:
        raise ParameterError(
            f"u0 must hold one value per vertex, shape {M_diag.shape}, got {u0.shape}"
        )
    if not np.all(np.isfinite(u0)):
        raise ParameterError("u0 must be finite")
    A, order = _ordered(op)
    system = (sparse.diags(M_diag) + tau * A).tocsr()
    return solve_spd(_Ordered(system, order), M_diag * u0)


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
      operators are not.  A revisited active set raises ``NumericalError``;
      there is no fallback method.  No step cap is needed: every step
      either settles or moves to an active set not tried before, and there
      are finitely many.

    Parameters
    ----------
    A : sparse symmetric PSD matrix or AssembledOperator
        Its block on the entries that are neither fixed nor at a bound must
        be positive definite.
    fixed_indices, fixed_values : array_like
        Equality-pinned entries: indices in [0, n), values within the bounds.
    lower, upper : np.ndarray
        Bounds of shape ``(n,)`` with ``lower <= upper``, so without NaN.
        Bad indices, bounds or fixed values raise ``ParameterError``.
    return_info : bool
        Also return a dict with the step count ``iterations``, ``converged``
        (true whenever a result is returned) and ``kkt_residual``, the norm
        of the projected gradient.
    """
    A, order = _ordered(A)
    A = sparse.csr_matrix(A)
    n = A.shape[0]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,) or not np.all(lower <= upper):
        raise ParameterError(f"bounds must have shape ({n},) and lower <= upper")
    fixed_indices = _positions(fixed_indices, n, "fixed indices")
    fixed_values = np.asarray(fixed_values, dtype=float)
    if not np.all(
        (fixed_values >= lower[fixed_indices] - 1e-12)
        & (fixed_values <= upper[fixed_indices] + 1e-12)
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
    for it in itertools.count(1):
        seen.add(side.tobytes())
        active = np.flatnonzero(side)
        x = solve_pinned(
            _Ordered(A, order),
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

    x[bounded] = np.clip(x[bounded], lo, hi)
    xb, g = x[bounded], (A @ x)[bounded]
    # projected gradient: only a multiplier of the wrong sign counts at a bound
    g = np.where(xb <= lo, np.minimum(g, 0.0), np.where(xb >= hi, np.maximum(g, 0.0), g))
    info = {"kkt_residual": float(np.linalg.norm(g)), "iterations": it, "converged": True}
    logger.debug("box QP: %s", info)
    return (x, info) if return_info else x
