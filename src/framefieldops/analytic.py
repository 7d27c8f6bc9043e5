"""Closed-form oracles: the Fourier spectrum of the constant-field operator
on the square, whose values are the operator's principal symbol on the
half-integer-pi frequency lattice, and conformal warps for the pullback
experiment."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .apps import nonzero_eigenpairs
from .errors import GeometryError, ParameterError
from .fem import assemble_operator
from .framefield import axis_frame, constant_field, map_coframe_field
from .geometry import SimplicialMesh
from .symtensor import modify_epsilon, odeco_form, principal_symbol


@dataclass
class SquareSpectrum:
    """Analytic eigenvalues of the axis-aligned operator on [-1, 1]^2.

    Frequencies live on the half-integer-pi lattice omega = (pi/2) (a, b);
    ``frequencies`` records (a, b) per returned eigenvalue, sorted ascending
    with multiplicities kept.
    """

    epsilon: float
    frequencies: np.ndarray
    values: np.ndarray


def square_spectrum(epsilon, count):
    """First ``count`` analytic eigenvalues on the square, ascending.

    A Fourier mode with frequency zeta is an eigenfunction of the constant
    axis-aligned operator, and its eigenvalue is the operator's principal
    symbol ``principal_symbol(Q, zeta)``, with Q the epsilon-modified form
    of the unit axis frame; expanded, ``2 wa^2 wb^2 + eps (wa^4 + wb^4)``.
    The lattice spacing pi/2 matches products of cosines on [-1, 1] whose
    odd derivatives vanish at the endpoints.  The lattice is enlarged
    until the returned values are provably the globally smallest ones.
    """
    Q = modify_epsilon(odeco_form(np.eye(2), np.ones(2)), 1.0, epsilon)
    if count < 1:
        raise ParameterError("count must be at least 1")
    K = 8
    while True:
        a, b = np.meshgrid(np.arange(K + 1), np.arange(K + 1), indexing="ij")
        ab = np.column_stack([a.ravel(), b.ravel()])
        vals = principal_symbol(Q, (np.pi / 2.0) * ab)
        order = np.argsort(vals, kind="stable")
        # a lattice point outside [0, K]^2 has a coordinate above K, and the
        # symbol there is at least its value at (K, 0)
        bound = principal_symbol(Q, (np.pi / 2.0) * np.array([K, 0]))
        if len(order) >= count and vals[order[count - 1]] < bound:
            break
        K *= 2
    take = order[:count]
    return SquareSpectrum(epsilon=epsilon, frequencies=ab[take], values=vals[take])


@dataclass
class ConformalMap:
    """A closed-form conformal planar map with its derivative fields."""

    name: str
    params: dict

    def _fz(self, z):
        if self.name == "polynomial":
            c = self.params["c"]
            return z + c * z**2, 1.0 + 2.0 * c * z
        if self.name == "exponential":
            w = np.exp(z)
            return w, w
        raise ParameterError(f"unknown map {self.name!r}")

    def apply(self, points):
        points = np.asarray(points, dtype=float)
        w, _ = self._fz(points[:, 0] + 1j * points[:, 1])
        return np.column_stack([w.real, w.imag])

    def inverse_jacobian(self, points):
        points = np.asarray(points, dtype=float)
        _, d = self._fz(points[:, 0] + 1j * points[:, 1])
        sq = np.abs(d) ** 2
        J = np.empty((len(points), 2, 2))
        J[:, 0, 0] = d.real / sq
        J[:, 0, 1] = d.imag / sq
        J[:, 1, 0] = -d.imag / sq
        J[:, 1, 1] = d.real / sq
        return J

    def validate_on(self, points):
        """Nonsingularity and injectivity checks by sampling.

        Raises GeometryError if the Jacobian determinant is not strictly
        positive at the sample points, or if two well-separated samples map
        to nearly the same image (self-intersection test).
        """
        points = np.asarray(points, dtype=float)
        _, d = self._fz(points[:, 0] + 1j * points[:, 1])
        if np.any(np.abs(d) ** 2 < 1e-12):
            raise GeometryError(f"{self.name} map is singular on the domain")
        imgs = self.apply(points)
        spacing = np.min(cKDTree(points).query(points, k=2)[0][:, 1])
        pairs = cKDTree(imgs).query_pairs(r=1e-9, output_type="ndarray")
        for i, j in pairs:
            if np.linalg.norm(points[i] - points[j]) > 0.5 * spacing:
                raise GeometryError(f"{self.name} map self-intersects on the domain")
        return True


def conformal_warp(name, **params):
    """Construct a named conformal map.

    ``polynomial``: z -> z + c z^2 (injective where |2 c z| < 1);
    ``exponential``: z -> exp(z) on a rectangle of height below 2 pi.
    """
    if name == "polynomial":
        params.setdefault("c", 0.05)
    elif name == "exponential":
        if params:
            raise ParameterError("the exponential map takes no parameters")
    else:
        raise ParameterError(f"unknown map {name!r}")
    return ConformalMap(name=name, params=params)


@dataclass
class WarpResult:
    values_base: np.ndarray
    values_warped: np.ndarray
    vectors_base: np.ndarray
    vectors_warped: np.ndarray
    base_mesh: SimplicialMesh
    warped_mesh: SimplicialMesh


def warp_experiment(base_mesh, warp, epsilon, modes, bc="neumann"):
    """Spectra of the constant-field operator and its coframe pullback.

    Builds the constant axis-aligned operator on ``base_mesh`` and the map
    coframe operator on the warped copy (same connectivity, mapped
    vertices), takes the ``modes`` smallest nonzero eigenpairs of each from
    ``nonzero_eigenpairs`` with matching boundary conditions, and returns
    both, with the base eigenfunctions sharing vertex indexing with the
    warped mesh for side-by-side export.
    """
    warp.validate_on(base_mesh.vertices)
    warped = SimplicialMesh(warp.apply(base_mesh.vertices), base_mesh.elements)
    field_base = constant_field(base_mesh, axis_frame(base_mesh.dim))
    field_warp = map_coframe_field(warped, warp.inverse_jacobian(base_mesh.vertices))

    op_base = assemble_operator(base_mesh, field_base, epsilon, bc)
    op_warp = assemble_operator(warped, field_warp, epsilon, bc)
    eig_base = nonzero_eigenpairs(op_base, modes)
    eig_warp = nonzero_eigenpairs(op_warp, modes)
    return WarpResult(
        values_base=eig_base.values,
        values_warped=eig_warp.values,
        vectors_base=eig_base.vectors,
        vectors_warped=eig_warp.vectors,
        base_mesh=base_mesh,
        warped_mesh=warped,
    )
