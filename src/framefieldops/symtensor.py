"""Symmetric second- and fourth-order tensor algebra in dimensions 2 and 3.

Second-order symmetric tensors enter as plain ``(d, d)`` numpy arrays and
are used only as their Mandel vectors (:func:`sym_to_mandel`), in which
off-diagonal entries are scaled by sqrt(2) so that the vector dot product
equals the Frobenius inner product of the matrices.  Fourth-order tensors
that are symmetric in their first and last index pairs are stored as the
``(m, m)`` matrix of their quadratic form on Mandel vectors (m = 3 in 2D,
m = 6 in 3D).  That array is their only representation: every function here
takes and returns ``(..., m, m)`` stacks and broadcasts over the leading
axes, so one call serves a single tensor and a per-vertex field alike.

The orthogonally decomposable (odeco) tensors sum(w_a * xi_a^{x4}) over an
orthonormal set of component vectors are the main producers of such forms
(:func:`odeco_form`); they encode frames with per-direction weights.  The
operator uses their epsilon modification (:func:`modify_epsilon`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import FieldError, ParameterError, check_values

_SQRT2 = np.sqrt(2.0)

# Mandel component order: diagonal entries first, then off-diagonals.
# 2D: (11, 22, 12).  3D: (11, 22, 33, 23, 13, 12).
_PAIRS = {
    2: ((0, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)),
}


def mandel_size(dim):
    """Number of Mandel components for symmetric matrices in ``dim`` dimensions."""
    return len(mandel_pairs(dim))


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
        Shape ``(n,)``; entries must be finite and nonnegative.

    Anything else, NaN included, raises ``FieldError``.
    """

    components: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        comps = np.atleast_2d(np.asarray(self.components, dtype=float))
        n, dim = comps.shape
        w = check_values("frame weights", np.atleast_1d(self.weights), (n,), FieldError)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)
        if dim not in (2, 3):
            raise FieldError(f"component dimension must be 2 or 3, got {dim}")
        # The check passes only when its bound holds, so NaN fails it.
        gram = comps @ comps.T
        if not np.max(np.abs(gram - np.eye(n))) <= 1e-10:
            raise FieldError("frame components are not orthonormal within 1e-10")
        if not np.all(w >= 0):
            raise FieldError("frame weights must be nonnegative")

    @property
    def dim(self):
        return self.components.shape[1]


def odeco_form(components, weights):
    """Mandel forms of odeco tensors, broadcasting over leading axes.

    Q = sum_a w_a m_a m_a^T with m_a the Mandel vector of the rank-one
    projector onto component a.  The result is fully symmetric.

    Each entry is summed from contiguous per-component columns of w and of
    the m_a, as ``(w_a m_ap) m_aq`` from component 0 onward into a zero,
    which are the operations and the order of the three-operand ``einsum``
    that ``odeco_form_by_einsum`` in ``tests/oracles.py`` takes, so the
    two agree bit for bit.

    Parameters
    ----------
    components : np.ndarray
        Shape ``(..., n, dim)``, orthonormal along the component axis.
    weights : np.ndarray
        Shape ``(..., n)``.

    Returns
    -------
    np.ndarray
        Shape ``(..., m, m)``.
    """
    components = np.asarray(components, dtype=float)
    weights = np.asarray(weights, dtype=float)
    pairs = mandel_pairs(components.shape[-1])
    lead = np.broadcast_shapes(components.shape[:-2], weights.shape[:-1])
    # per component a: w_a and the entries of m_a, each a contiguous column
    w = [weights[..., a].copy() for a in range(weights.shape[-1])]
    m = [
        [c[..., i] * c[..., j] if i == j else _SQRT2 * (c[..., i] * c[..., j]) for i, j in pairs]
        for c in np.moveaxis(components, -2, 0)
    ]
    out = np.empty(lead + (len(pairs), len(pairs)))
    for p in range(len(pairs)):
        wm = [w_a * m_a[p] for w_a, m_a in zip(w, m, strict=True)]
        for q in range(len(pairs)):
            entry = np.zeros(lead)
            for wm_a, m_a in zip(wm, m):
                entry += wm_a * m_a[q]
            out[..., p, q] = entry
    return out


def modify_epsilon(Q, norms, epsilon):
    """Forms of the epsilon-modified tensors ``norm * Id - (1 - epsilon) * T``.

    ``Q`` has shape ``(..., m, m)`` and ``norms`` broadcasts against its
    leading axes.  The identity part leaves the result only pairwise
    symmetric.  This is the package's one check that epsilon is a finite
    float in (0, 1], else ``ParameterError``.
    """
    epsilon = check_values("epsilon", epsilon, ())
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1], got {epsilon}")
    Q = np.asarray(Q, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if np.any(norms < 0.0):
        raise ParameterError("tensor norms must be nonnegative")
    return norms[..., None, None] * np.eye(Q.shape[-1]) - (1.0 - epsilon) * Q


def principal_symbol(Q, zeta):
    """Evaluate the quartic principal-symbol polynomial at frequency zeta.

    This is ``(zeta zeta^T) : T : (zeta zeta^T)``, that is ``v' Q v`` with v
    the Mandel vector of ``zeta zeta^T``; a form whose last two axes do not
    match that length raises ``ParameterError``.  For a conformal
    octahedral tensor with norm w, epsilon-modified, it equals
    ``w * (|zeta|^4 - (1 - eps) * sum_a (xi_a . zeta)^4)`` and is bounded
    below by ``eps * w * |zeta|^4``.
    """
    zeta = np.asarray(zeta, dtype=float)
    v = sym_to_mandel(zeta[..., :, None] * zeta[..., None, :])
    Q = np.asarray(Q, dtype=float)
    if Q.shape[-2:] != (v.shape[-1], v.shape[-1]):
        raise ParameterError(
            f"form shape {Q.shape} does not match Mandel length {v.shape[-1]}"
        )
    return np.einsum("...p,...pq,...q->...", v, Q, v)
