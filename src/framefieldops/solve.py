"""Sparse symmetric linear algebra: SPD solves, solves with pinned values,
generalized eigenpairs, implicit-Euler diffusion, and box-constrained
quadratic programs.

Every solve goes through one banded Cholesky factorization, ``_factorize``,
whose factor binds LAPACK's banded triangular solve ``pbtrs`` once and
calls it directly.  ``solve_spd`` factors the system and solves all
right-hand sides with that factor; ``solve_pinned`` solves the free block of
a problem with prescribed entries by ``solve_spd``, and each step of the box
QP is one ``solve_pinned``; ``eigs_generalized`` factors ``A + |sigma| M``
once and hands its solves to ARPACK's shift-invert Lanczos.  There is no
dense or iterative alternative.

``_factorize`` is the one place where a matrix becomes a band, and it
reads the canonical CSR arrays of the assembled matrix as they are: no
system is summed as a sparse matrix and no block of it is copied out.  It
takes a ``_System``: the entries kept, in band order, a scale tau and a
diagonal d, and places ``tau A + diag(d)`` on the kept entries in the band:

- ``diffuse``'s ``M + tau A`` scales A's entries by tau and adds M to the
  band's diagonal row;
- ``eigs_generalized``'s ``A - sigma M`` adds ``-sigma M`` to that row;
- ``solve_pinned`` on an operator keeps the free entries and masks out the
  pinned rows and columns.  One product of A with the pinned values in
  place gives its right-hand side, and one more, after the solve, the
  residual of the free rows.

Each band equals, bit for bit, the one of the same system summed or
extracted with scipy first.

M is a positive diagonal, so ``A phi = lambda M phi`` is the standard
problem of ``M^-1/2 A M^-1/2`` for ``psi = M^1/2 phi``.  ARPACK runs on
that standard form in the factor's band order, with no products with M;
it starts from the image of generalized mode's start vector, which keeps
that mode's Krylov spaces and eigenvector signs.

Every matrix factored here is symmetric positive definite: the shifted
eigen operator, the implicit-Euler ``M + tau A``, and the free block of a
pinned solve (Dirichlet and harmonic-field interiors, a QP's inactive
set).  ``_system`` orders each system where it enters: one on a mesh's
vertices by the mesh's ``vertex_order``, reverse Cuthill-McKee on the
vertex graph, and a bare matrix, which must pass ``check_symmetric``, by
reverse Cuthill-McKee of its whole graph.  A pinned solve restricts that
order to its free entries.  In these orders the band is narrow (2n + 2 for the
fourth-order operators on ``structured_square(n)``), and LAPACK's blocked
banded Cholesky factors it several times faster than a general sparse LU.
"""

import itertools
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs
from scipy.linalg import eigh  # noqa: F401  unused here; perfbench/tracing.py wraps it
from scipy.sparse import linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import NumericalError, ParameterError, check_indices, check_integer, check_values

logger = logging.getLogger(__name__)

DENSE_THRESHOLD = 3000  # unused here; perfbench/workloads.py labels records with it


def check_symmetric(A):
    """Validate and return a CSR matrix that is symmetric within tolerance.

    The matrix returned is canonical: an input with unsorted or duplicate
    entries is summed on a copy, so the input itself is never written.

    Raises
    ------
    NumericalError
        Unless ``max |a_ij - a_ji| <= 1e-12 * max |a|``, so a NaN entry fails.
    """
    return _symmetric_magnitude(A)[0]


def _symmetric_magnitude(A):
    """``check_symmetric(A)`` and ``|a|`` over its stored entries.

    ``|a|`` is taken once and gives the scale.  The transpose's canonical
    CSR arrays are ``A.tocsc()``'s, so where they have A's pattern the
    asymmetry is the largest ``|a - a'|`` over the stored entries; only
    where the patterns differ, as for an entry with no mirror, is
    ``A - A'`` formed.
    """
    A = _canonical(A)
    magnitude = np.abs(A.data)
    scale = max(magnitude.max() if A.nnz else 0.0, 1e-300)
    gap = 0.0
    if A.nnz:
        T = A.tocsc()
        if np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices):
            with np.errstate(invalid="ignore"):  # inf - inf is NaN, and fails
                gap = np.abs(A.data - T.data).max()
        else:
            gap = abs(A - A.T).max()
    if not gap <= 1e-12 * scale:
        raise NumericalError(
            f"matrix is not symmetric: asymmetry {gap:.3e} exceeds "
            f"1e-12 * max|a| = {1e-12 * scale:.3e}"
        )
    return A, magnitude


def _canonical(A):
    """``A`` as CSR with sorted, distinct columns in every row.  An input
    with unsorted or duplicate entries is summed on a copy, so the input
    itself is never written."""
    A = sparse.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def _row_sums(A, values):
    """Sums of ``values``, one per stored entry of the CSR matrix ``A``, over
    each row; an empty row sums to 0."""
    filled = np.flatnonzero(np.diff(A.indptr))
    sums = np.zeros(A.shape[0])
    sums[filled] = np.add.reduceat(values, A.indptr[filled])
    return sums


def _prescribed(names, indices, values, n, row):
    """Distinct ``indices`` in [0, n), each with one finite row of
    ``values`` of shape ``row`` (``()`` for a value, ``(...,)`` for a value
    or a row of any length), as arrays; else ``ParameterError`` naming the
    argument."""
    indices = check_indices(names[0], indices, n)
    if np.unique(indices).size != indices.size:
        raise ParameterError(f"{names[0]}: a vertex is given twice")
    return indices, check_values(names[1], values, indices.shape + row)


class _System(NamedTuple):
    """The system ``tau A + diag(d)`` on the entries ``kept`` of x.

    ``matrix`` is A, symmetric in canonical CSR form.  ``kept`` lists the
    rows and columns kept, in band order.  A ``tau`` of ``None`` stands
    for 1 and a ``diag`` (one entry per row of A) of ``None`` for 0.
    """

    matrix: object
    kept: object
    tau: object = None
    diag: object = None


def _system(op):
    """``op`` as a ``_System`` on all its rows: an AssembledOperator brings
    its canonical matrix, unchecked, and its mesh's vertex order; a bare
    sparse or dense matrix must pass ``check_symmetric`` and is ordered by
    reverse Cuthill-McKee of its whole graph."""
    if isinstance(op, _System):
        return op
    if hasattr(op, "matrix"):
        return _System(_canonical(op.matrix), op.mesh.vertex_order())
    A = check_symmetric(op)
    return _System(A, reverse_cuthill_mckee(A, symmetric_mode=True))


class _BandFactor:
    """Banded Cholesky factor ``L L'`` of a system on its kept entries in
    band ``order``, with LAPACK's ``pbtrs`` bound once to solve with it.
    ``norm`` is the infinity norm of the system factored."""

    def __init__(self, band, order, norm):
        self._band = band
        self.order = order
        self.norm = norm
        (self._pbtrs,) = get_lapack_funcs(("pbtrs",), (band,))

    def band_solve(self, b):
        """Solve the system for ``b`` in band order, shape ``(n,)`` or
        ``(n, r)``; a Fortran-ordered float ``b`` is overwritten."""
        x, info = self._pbtrs(self._band, b, lower=1, overwrite_b=1)
        if info:
            raise NumericalError(f"banded Cholesky solve failed: LAPACK info {info}")
        return x


def _factorize(system):
    """Banded Cholesky factor of the ``_System`` ``tau A + diag(d)`` on its
    entries ``kept``.  Only the lower triangle of A enters the band.

    The band comes straight from A's CSR arrays, with no copy of A in its
    new order: the ranks of the rows are repeated over their entries, the
    ranks of the columns are gathered in scipy's index type (32-bit where
    it fits), and the entries of the lower triangle between kept rows and
    columns are placed with one flat assignment into a zeroed
    Fortran-ordered ``(bw + 1, n)`` band, bw the widest kept row.  A
    canonical matrix has no duplicates to sum.  The entries are scaled by
    tau, and d is then added to band row 0 in band order, so the band
    holds the values a scipy sum of the same matrices would.  LAPACK's
    blocked ``pbtrf`` factors it in place, and the factor stores
    ``(bw + 1) n`` values.

    Returns a ``_BandFactor`` whose ``order`` is ``kept`` and whose
    ``norm`` is the system's infinity norm: the largest row sum of the
    magnitudes of its kept entries, diagonal included, from A's rows
    scaled by tau.  A system that is not positive definite to working
    precision raises ``NumericalError``.
    """
    A, kept, tau, diag = system
    n = A.shape[0]
    size = len(kept)
    # Ranks in scipy's index type.  A column left out ranks above every row
    # and a row left out below every column, so an entry lies in the kept
    # lower triangle exactly when its offset, row rank minus column rank,
    # is not negative; the offset is its row in the band.
    index = A.indices.dtype
    out = np.iinfo(index).max
    rank = np.full(n, out, dtype=index)
    rank[kept] = np.arange(size)
    col = rank.take(A.indices)
    magnitude = np.abs(A.data)
    if size < n:
        magnitude[col == out] = 0.0
        rank[rank == out] = -1
    offset = np.repeat(rank, np.diff(A.indptr))
    offset -= col
    lower = np.flatnonzero(offset >= 0)
    bw = int(offset.max(initial=0))
    col = col.take(lower)
    if size * (bw + 1) > out:
        col = col.astype(np.int64)
    # column j of the band holds rows j..j+bw; (n, bw + 1) in C order is
    # the (bw + 1, n) band in Fortran order
    col *= bw + 1
    col += offset.take(lower)
    values = A.data.take(lower)
    if tau is not None:
        values *= tau
    band = np.zeros((size, bw + 1))
    band.reshape(-1)[col] = values
    band = band.T
    rows = _row_sums(A, magnitude)[kept]
    if tau is not None:
        rows *= tau
    if diag is not None:
        rows -= np.abs(band[0])
        band[0] += diag[kept]
        rows += np.abs(band[0])
    norm = rows.max(initial=0.0)
    try:
        band = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError(f"banded Cholesky factorization failed: {exc}") from exc
    return _BandFactor(band, kept, norm)


def solve_spd(A, b):
    """Solve the symmetric positive definite system ``A x = b``.

    One banded Cholesky factor of ``A`` solves every column of ``b``.  It
    stores ``(bandwidth + 1) n`` values.  ``A`` is checked and ordered by
    ``_system`` and reaches the band from its CSR arrays as they are (see
    ``_factorize``).  Inside the package ``A`` may also be a ``_System``, a
    scaled matrix with a diagonal added and rows and columns left out; its
    kept rows are solved for its kept entries of x, and x is zero
    elsewhere.

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
        If a bare ``A`` fails ``check_symmetric``, ``A`` is not positive
        definite to working precision, or a
        column's residual exceeds ``1e-7 * (|S|_inf |x| + |b|)``, with S
        the system factored and ``|S|_inf`` summed from its kept entries.
    """
    system = _system(A)
    A = system.matrix
    b = check_values("b", b, A.shape[:1] + (...,))
    factor = _factorize(system)
    kept = factor.order
    x = np.zeros(b.shape)
    x[kept] = factor.band_solve(b[kept])
    # Backward-stable acceptance: residual relative to |S||x| + |b| guards
    # against silent failure without punishing ill-conditioned systems.
    resid = A @ x
    if system.tau is not None:
        resid *= system.tau
    if system.diag is not None:
        resid += (system.diag * x.T).T
    resid -= b
    if len(kept) < len(b):
        resid, b = resid[kept], b[kept]
    resid = np.linalg.norm(resid, axis=0)
    scale = factor.norm * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0)
    if not np.all(resid <= 1e-7 * scale):
        raise NumericalError(f"SPD solve residual {np.max(resid):.3e} above tolerance")
    return x


def solve_pinned(A, pinned, values):
    """Minimize ``0.5 x' A x`` subject to ``x[pinned] = values``.

    ``pinned`` holds distinct indices in [0, n) and ``values`` is finite
    with shape ``(np,)`` or ``(np, r)``; anything else raises
    ``ParameterError``.  The free entries solve ``A_ff x_f = -A_fp values``
    with one ``solve_spd``, so the free block must be positive definite.
    One product ``A @ x``, with the pinned values in place and zeros
    elsewhere, gives the right-hand side of every free row.  The free
    block is factored in the order ``_system`` gives all of A, with the
    pinned rows and columns masked out, so no block of A is extracted, and
    the residual of the free rows comes from one more product with A.
    Returns the full solution, shape ``(n,)`` or ``(n, r)``, with
    ``x[pinned] = values``.
    """
    A, kept = _system(A)[:2]
    n = A.shape[0]
    pinned, values = _prescribed(("pinned", "values"), pinned, values, n, (...,))
    free = np.ones(n, dtype=bool)
    free[pinned] = False
    x = np.zeros((n,) + values.shape[1:])
    x[pinned] = values
    if not free.any():
        return x
    b = A @ x
    np.negative(b, out=b)
    x = solve_spd(_System(A, kept[free[kept]]), b)
    x[pinned] = values
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

    def validate(self, A, M_diag, rtol=1e-7):
        """Assert the residual (``rtol``) and M-orthonormality (1e-8) contracts.

        A is sparse, dense or an ``AssembledOperator``; the bound's scale is
        its infinity norm, the largest row sum of ``|a|`` over the canonical
        CSR form, as in ``AssembledOperator.validate``.
        """
        A = _canonical(getattr(A, "matrix", A))
        norm_a = _row_sums(A, np.abs(A.data)).max(initial=0.0)
        norm_m = float(np.max(np.abs(M_diag)))
        bound = rtol * (norm_a + np.abs(self.values) * norm_m)
        if not np.all(self.residuals <= bound):
            raise NumericalError("eigenpair residual exceeds tolerance")
        gram = self.vectors.T @ (M_diag[:, None] * self.vectors)
        if not np.max(np.abs(gram - np.eye(len(self.values)))) <= 1e-8:
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

    ARPACK sees the standard form, in band order: with ``d = sqrt(M)[order]``
    it iterates on ``psi = d * phi[order]`` with the operator
    ``y -> d * (A - sigma M)^-1 (d * y)``, one banded solve between two
    scalings, and needs no mass products or gathers; ``phi = psi / d``
    comes back with one copy that undoes the order.  Generalized mode would
    start from ``(A - sigma M)^-1 M v0`` for the random ``v0``, so the
    standard form starts from that vector's image, which keeps the Krylov
    spaces of the generalized mode in exact arithmetic.

    Each eigenvector's sign is then set by rule: its entry of largest
    magnitude is positive.  Entries within a relative 1e-8 of that
    magnitude count as tied, since on a symmetric mesh mirrored entries tie
    up to round-off, and the lowest index of them decides.  This fixes the
    sign of a simple mode only; the basis of a multiple eigenvalue's space
    is still whatever ARPACK returns.  Negation is exact, so eigenvalues and
    residuals do not change.

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
        Seeds ARPACK's starting vector, so a call is reproducible; an
        integer >= 0, else ``ParameterError``.

    Returns
    -------
    EigenResult

    Raises
    ------
    ParameterError
        If ``k``, ``seed`` or ``M_diag`` is out of range, as above.
    NumericalError
        If the shifted matrix is not positive definite, ARPACK does not
        converge, or a pair fails ``EigenResult.validate``.
    """
    system = _system(A)
    if hasattr(A, "matrix"):  # _system checks only a bare matrix
        check_symmetric(system.matrix)
    A = system.matrix
    n = A.shape[0]
    check_integer("k", k, below=n)
    seed = check_integer("seed", seed, 0)
    M_diag = check_values("mass diagonal", M_diag, (n,))
    if not np.all(M_diag > 0):
        raise ParameterError("mass diagonal must be positive")

    sigma = -1e-5 * A.diagonal().sum() / n
    factor = _factorize(system._replace(diag=-sigma * M_diag))
    order = factor.order
    d = np.sqrt(M_diag)[order]

    def op_inv(y):
        x = factor.band_solve(d * y)
        x *= d
        return x

    OPinv = spla.LinearOperator((n, n), matvec=op_inv, dtype=float)
    # the image of generalized mode's start vector (A - sigma M)^-1 M v0
    v0 = np.random.default_rng(seed).standard_normal(n)
    psi0 = op_inv(d * v0[order])
    try:
        # in shift-invert mode ARPACK applies OPinv alone; A gives the shape
        vals, psi = spla.eigsh(A, k, sigma=sigma, OPinv=OPinv, v0=psi0)
    except spla.ArpackError as exc:
        raise NumericalError(f"shift-invert Lanczos failed: {exc}") from exc
    psi /= d[:, None]
    ascending = np.argsort(vals)
    vals, vecs = vals[ascending], psi[np.ix_(np.argsort(order), ascending)]
    size = np.abs(vecs)
    peak = np.argmax(size >= (1.0 - 1e-8) * size.max(axis=0), axis=0)
    vecs *= np.sign(vecs[peak, np.arange(k)])

    residuals = np.linalg.norm(A @ vecs - M_diag[:, None] * vecs * vals, axis=0)
    result = EigenResult(values=vals, vectors=vecs, residuals=residuals)
    result.validate(A, M_diag)
    return result


def diffuse(op, u0, tau):
    """One implicit-Euler step of ``du/dt = -A u``: solve (M + tau A) u = M u0.

    ``u0`` holds one finite value per vertex and ``tau`` must be positive
    and finite; either failing raises ``ParameterError`` before anything
    is factored.  ``M + tau A`` is never formed: ``solve_spd`` gets the
    operator with tau and M, and its band holds A's entries scaled by tau
    with M added to the diagonal, in band order.
    """
    tau = check_values("diffusion time", tau, ())
    if not tau > 0:
        raise ParameterError(f"diffusion time must be positive, got {tau}")
    M_diag = getattr(op, "vertex_mass", None)
    if M_diag is None:
        raise ParameterError("diffuse requires an operator with a vertex mass")
    u0 = check_values("u0", u0, M_diag.shape)
    return solve_spd(_system(op)._replace(tau=tau, diag=M_diag), M_diag * u0)


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
        Equality-pinned entries: distinct indices in [0, n), and one finite
        value within the bounds per index.
    lower, upper : np.ndarray
        Finite bounds of shape ``(n,)`` with ``lower <= upper``.  An
        infinite bound would make the 1e-12 margin infinite, and the entry
        could never become active at its other bound.  Bad indices, bounds
        or fixed values raise ``ParameterError``.
    return_info : bool
        Also return a dict with the step count ``iterations``, ``converged``
        (true whenever a result is returned) and ``kkt_residual``, the norm
        of the projected gradient.
    """
    system = _system(A)
    A = system.matrix
    n = A.shape[0]
    lower = check_values("lower", lower, (n,))
    upper = check_values("upper", upper, (n,))
    if not np.all(lower <= upper):
        raise ParameterError("lower must not exceed upper")
    fixed_indices, fixed_values = _prescribed(
        ("fixed_indices", "fixed_values"), fixed_indices, fixed_values, n, ()
    )
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
            system,
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
