"""Independent reference computations the production code is tested against.

Each oracle takes the brute-force route on purpose: the dense KKT solve
works straight from the first-order optimality matrix, the eigen oracle
diagonalizes the full dense pencil, the QP oracle enumerates every active
set, and the random frame helpers build tensors from their definition.
"""

import itertools

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, lu_factor, lu_solve

from framefieldops import OdecoFrame


def random_rotation(rng, dim):
    """Haar-ish random rotation via QR with positive diagonal."""
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q *= np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, -1] *= -1
    return Q


def random_octahedral_frame(rng, dim, weight=1.0):
    return OdecoFrame(random_rotation(rng, dim).T, np.full(dim, weight))


def random_symmetric(rng, dim):
    S = rng.standard_normal((dim, dim))
    return 0.5 * (S + S.T)


def dense_kkt_factor(system):
    """LU factorization of the (V, Lambda, mu) optimality block."""
    return lu_factor(system.kkt_matrix())


def dense_kkt_apply(system, factor, u):
    """A u computed through the full dense saddle system.

    Given u, solves the first-order conditions for (V, Lambda, mu) with
    -D'AGu as the Lambda-row right-hand side, then evaluates G'AD Lambda.
    """
    K = system.D.T @ (system.A[:, None] * system.G.toarray())
    nvm = system.M_T.shape[0]
    nb = system.B.shape[0]
    rhs = np.concatenate([np.zeros(nvm), -(K @ u), np.zeros(nb)])
    sol = lu_solve(factor, rhs)
    lam = sol[nvm : 2 * nvm]
    return K.T @ lam


def dense_eigs(A, M_diag, k):
    """k smallest eigenpairs of ``A phi = lambda M phi`` by dense ``eigh``."""
    dense = A.toarray() if sparse.issparse(A) else np.asarray(A, dtype=float)
    vals, vecs = eigh(dense, np.diag(M_diag))
    return vals[:k], vecs[:, :k]


def box_qp_active_set(A, lower, upper, fixed_indices=(), fixed_values=()):
    """Global minimum of 0.5 x'Ax over the box by active-set enumeration.

    Every assignment of each variable to {lower, upper, free} is tried; the
    free block is solved exactly and feasibility checked.  Exponential in
    the variable count, so keep instances small.
    """
    n = A.shape[0]
    fixed_indices = list(fixed_indices)
    x_base = np.zeros(n)
    for i, v in zip(fixed_indices, fixed_values):
        x_base[i] = v
    variables = [i for i in range(n) if i not in fixed_indices]
    best = np.inf
    best_x = None
    for assign in itertools.product((0, 1, 2), repeat=len(variables)):
        x = x_base.copy()
        free = []
        for i, a in zip(variables, assign):
            if a == 0:
                x[i] = lower[i]
            elif a == 1:
                x[i] = upper[i]
            else:
                free.append(i)
        pinned = [i for i in range(n) if i not in free]
        if free:
            rhs = -A[np.ix_(free, pinned)] @ x[pinned] if pinned else np.zeros(len(free))
            try:
                x[np.asarray(free)] = np.linalg.solve(A[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x[free] < lower[free] - 1e-12) or np.any(
                x[free] > upper[free] + 1e-12
            ):
                continue
        obj = 0.5 * x @ A @ x
        if obj < best:
            best, best_x = obj, x
    return best, best_x
