"""Symmetric second- and fourth-order tensor algebra in dimensions 2 and 3.

Second-order symmetric tensors are handled as plain ``(d, d)`` numpy arrays
together with their Mandel vectorization, in which off-diagonal entries are
scaled by sqrt(2) so that the vector dot product equals the Frobenius inner
product of the matrices.  Fourth-order tensors that are symmetric in their
first and last index pairs are stored as the ``(m, m)`` matrix of their
quadratic form on Mandel vectors (m = 3 in 2D, m = 6 in 3D).

The orthogonally decomposable (odeco) tensors sum(w_a * xi_a^{x4}) over an
orthonormal set of component vectors are the main producers of such forms;
they encode frames with per-direction weights.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, ParameterError

_SQRT2 = np.sqrt(2.0)

# Mandel component order: diagonal entries first, then off-diagonals.
# 2D: (11, 22, 12).  3D: (11, 22, 33, 23, 13, 12).
_PAIRS = {
    2: ((0, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)),
}


def mandel_size(dim):
    """Number of Mandel components for symmetric matrices in ``dim`` dimensions."""
    if dim not in (2, 3):
        raise ParameterError(f"dimension must be 2 or 3, got {dim}")
    return 3 if dim == 2 else 6


def mandel_pairs(dim):
    """Index pairs (i, j) addressed by each Mandel component, diagonals first."""
    if dim not in _PAIRS:
        raise ParameterError(f"dimension must be 2 or 3, got {dim}")
    return _PAIRS[dim]


def sym_to_mandel(S):
    """Vectorize symmetric matrices, sqrt(2)-scaling the off-diagonals.

    Parameters
    ----------
    S : np.ndarray
        Array of shape ``(..., d, d)`` with d = 2 or 3.  Only the upper
        triangle is read; symmetry of the input is the caller's business.

    Returns
    -------
    np.ndarray
        Array of shape ``(..., m)``.
    """
    S = np.asarray(S, dtype=float)
    dim = S.shape[-1]
    pairs = mandel_pairs(dim)
    out = np.empty(S.shape[:-2] + (len(pairs),))
    for c, (i, j) in enumerate(pairs):
        scale = 1.0 if i == j else _SQRT2
        out[..., c] = scale * S[..., i, j]
    return out


def mandel_to_sym(v):
    """Inverse of :func:`sym_to_mandel`."""
    v = np.asarray(v, dtype=float)
    m = v.shape[-1]
    dim = {3: 2, 6: 3}.get(m)
    if dim is None:
        raise ParameterError(f"Mandel vector length must be 3 or 6, got {m}")
    S = np.zeros(v.shape[:-1] + (dim, dim))
    for c, (i, j) in enumerate(mandel_pairs(dim)):
        if i == j:
            S[..., i, j] = v[..., c]
        else:
            S[..., i, j] = v[..., c] / _SQRT2
            S[..., j, i] = v[..., c] / _SQRT2
    return S


@dataclass(frozen=True)
class OdecoFrame:
    """Orthonormal component vectors with nonnegative weights.

    Represents the orthogonally decomposable tensor
    ``sum_a weights[a] * components[a]^{x4}``.

    Parameters
    ----------
    components : np.ndarray
        Shape ``(n, dim)``; rows must be orthonormal within 1e-10.
    weights : np.ndarray
        Shape ``(n,)``; entries must be nonnegative.
    """

    components: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        comps = np.atleast_2d(np.asarray(self.components, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)
        n, dim = comps.shape
        if dim not in (2, 3):
            raise FieldError(f"component dimension must be 2 or 3, got {dim}")
        if w.shape != (n,):
            raise FieldError("weights must match the number of components")
        gram = comps @ comps.T
        if np.max(np.abs(gram - np.eye(n))) > 1e-10:
            raise FieldError("frame components are not orthonormal within 1e-10")
        if np.any(w < 0):
            raise FieldError("frame weights must be nonnegative")

    @property
    def dim(self):
        return self.components.shape[1]


@dataclass
class Sym4Form:
    """Fourth-order tensor stored as its quadratic form on Mandel vectors.

    ``S : T : S == sym_to_mandel(S) @ Q @ sym_to_mandel(S)`` for symmetric S.
    ``fully_symmetric`` marks tensors invariant under all index permutations
    (odeco-generated forms); the identity part of an epsilon-modified tensor
    is only pairwise symmetric, so those forms carry ``fully_symmetric=False``.
    """

    dim: int
    Q: np.ndarray
    fully_symmetric: bool = field(default=False)

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        m = mandel_size(self.dim)
        if self.Q.shape != (m, m):
            raise FieldError(f"Q must be {m}x{m} for dim {self.dim}")
        scale = max(np.max(np.abs(self.Q)), 1.0)
        if np.max(np.abs(self.Q - self.Q.T)) > 1e-12 * scale:
            raise FieldError("Q must be symmetric")
        self.Q = 0.5 * (self.Q + self.Q.T)

    def full_symmetry_violation(self):
        """Max violation of the full-symmetry constraints linking Q entries.

        In 2D full index symmetry forces Q[2,2] == 2 Q[0,1]; in 3D the
        analogous constraints tie each off-diagonal block entry to the
        corresponding diagonal-pair entry.
        """
        Q = self.Q
        if self.dim == 2:
            return abs(Q[2, 2] - 2.0 * Q[0, 1])
        checks = [
            Q[3, 3] - 2.0 * Q[1, 2],
            Q[4, 4] - 2.0 * Q[0, 2],
            Q[5, 5] - 2.0 * Q[0, 1],
            Q[4, 5] - _SQRT2 * Q[0, 3],
            Q[3, 5] - _SQRT2 * Q[1, 4],
            Q[3, 4] - _SQRT2 * Q[2, 5],
        ]
        return max(abs(c) for c in checks)


def identity_form(dim):
    """The fourth-order identity: ``I : S = S`` for every symmetric S.

    Its Mandel form is the identity matrix.  It is pairwise but not fully
    symmetric, so the returned form has ``fully_symmetric=False``.
    """
    return Sym4Form(dim, np.eye(mandel_size(dim)), fully_symmetric=False)


def odeco_forms_batch(components, weights):
    """Mandel forms of a batch of odeco tensors.

    Parameters
    ----------
    components : np.ndarray
        Shape ``(nv, n, dim)``, orthonormal along the component axis.
    weights : np.ndarray
        Shape ``(nv, n)``.

    Returns
    -------
    np.ndarray
        Shape ``(nv, m, m)`` stack of quadratic-form matrices.
    """
    components = np.asarray(components, dtype=float)
    weights = np.asarray(weights, dtype=float)
    outer = components[..., :, None] * components[..., None, :]  # (nv, n, d, d)
    mvecs = sym_to_mandel(outer)  # (nv, n, m)
    return np.einsum("vn,vnp,vnq->vpq", weights, mvecs, mvecs)


def odeco_to_form(frame):
    """Mandel quadratic form of an odeco tensor.

    Q = sum_a w_a m_a m_a^T with m_a the Mandel vector of the rank-one
    projector onto component a.  The result is fully symmetric.
    """
    Q = odeco_forms_batch(frame.components[None], frame.weights[None])[0]
    return Sym4Form(frame.dim, Q, fully_symmetric=True)


def contract(A, form):
    """Contract a symmetric matrix against a fourth-order form: (A : T).

    ``(A : T)_kl = A_ij T_ijkl``; in Mandel coordinates this is ``Q @ vec(A)``.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (form.dim, form.dim):
        raise ParameterError(f"matrix shape {A.shape} does not match form dim {form.dim}")
    return mandel_to_sym(form.Q @ sym_to_mandel(A))


def alignment_quadratic(S, form):
    """Quadratic form S : T : S measuring alignment of S with the frame."""
    S = np.asarray(S, dtype=float)
    if S.shape != (form.dim, form.dim):
        raise ParameterError(f"matrix shape {S.shape} does not match form dim {form.dim}")
    v = sym_to_mandel(S)
    return float(v @ form.Q @ v)


def spectral_norm(frame):
    """Spectral norm max_{|v|=1} T(v, v, v, v) of an odeco tensor.

    For an :class:`OdecoFrame` this is the closed form ``max_a |w_a|``.
    Exact maximization of a general quartic is NP-hard, and every field in
    scope is odeco, so a raw :class:`Sym4Form` raises :class:`FieldError`.
    """
    if not isinstance(frame, OdecoFrame):
        raise FieldError(
            f"spectral norm needs an OdecoFrame, got {type(frame).__name__}"
        )
    if frame.weights.size == 0:
        return 0.0
    return float(np.max(np.abs(frame.weights)))


def modify_epsilon(form, norm_t, epsilon):
    """Epsilon-modified tensor ``norm_t * Id - (1 - epsilon) * T``.

    The identity contribution makes the result only pairwise symmetric, so
    the full-symmetry flag is cleared.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1], got {epsilon}")
    if norm_t < 0.0:
        raise ParameterError("tensor norm must be nonnegative")
    m = mandel_size(form.dim)
    Q = norm_t * np.eye(m) - (1.0 - epsilon) * form.Q
    return Sym4Form(form.dim, Q, fully_symmetric=False)


def epsilon_forms_batch(Q_stack, norms, epsilon):
    """Vectorized :func:`modify_epsilon` over stacked per-vertex forms."""
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1], got {epsilon}")
    Q_stack = np.asarray(Q_stack, dtype=float)
    norms = np.asarray(norms, dtype=float)
    m = Q_stack.shape[-1]
    eye = np.eye(m)
    return norms[:, None, None] * eye - (1.0 - epsilon) * Q_stack


def principal_symbol(form, zeta):
    """Evaluate the quartic principal-symbol polynomial at frequency zeta.

    For a conformal octahedral tensor with norm w this equals
    ``w * (|zeta|^4 - (1 - eps) * sum_a (xi_a . zeta)^4)`` and is bounded
    below by ``eps * w * |zeta|^4``.
    """
    zeta = np.asarray(zeta, dtype=float)
    v = sym_to_mandel(np.outer(zeta, zeta))
    return float(v @ form.Q @ v)
