"""Closed-form oracles: the Fourier spectrum of the constant-field operator
on the square, whose values are the operator's principal symbol on the
half-integer-pi frequency lattice, and conformal warps for the pullback
experiment."""

from dataclasses import dataclass

import numpy as np

from .apps import nonzero_eigenpairs
from .errors import GeometryError, ParameterError, check_integer, check_values
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
    ``count`` must be an integer >= 1, else ``ParameterError``.
    """
    Q = modify_epsilon(odeco_form(np.eye(2), np.ones(2)), 1.0, epsilon)
    check_integer("count", count)
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
    return SquareSpectrum(frequencies=ab[take], values=vals[take])


# Each conformal map's parameters, with what each sets, and z -> (f(z), f'(z)).
MAPS = {
    "polynomial": ({"c": "strength"}, lambda z, c: (z + c * z**2, 1.0 + 2.0 * c * z)),
    "exponential": ({}, lambda z: (np.exp(z),) * 2),
}


@dataclass
class ConformalMap:
    """A closed-form conformal planar map with its derivative fields:
    ``params`` holds exactly the parameters ``MAPS`` lists for ``name``, each
    finite, or construction raises ``ParameterError`` naming the parameter."""

    name: str
    params: dict

    def __post_init__(self):
        if self.name not in MAPS:
            raise ParameterError(f"unknown map {self.name!r}, not one of {list(MAPS)}")
        wanted = MAPS[self.name][0]
        for key in {**self.params, **wanted}:
            if key not in wanted:
                raise ParameterError(f"the {self.name} map takes no parameter {key}")
            if key not in self.params:
                raise ParameterError(f"the {self.name} map needs its {wanted[key]} {key}")
            check_values(key, self.params[key], ())

    def _fz(self, points):
        points = np.asarray(points, dtype=float)
        return MAPS[self.name][1](points[:, 0] + 1j * points[:, 1], **self.params)

    def apply(self, points):
        w, _ = self._fz(points)
        return np.column_stack([w.real, w.imag])

    def inverse_jacobian(self, points):
        _, d = self._fz(points)
        sq = np.abs(d) ** 2
        J = np.empty((len(points), 2, 2))
        J[:, 0, 0] = d.real / sq
        J[:, 0, 1] = d.imag / sq
        J[:, 1, 0] = -d.imag / sq
        J[:, 1, 1] = d.real / sq
        return J

    def pullback(self, mesh):
        """The warped copy of ``mesh`` (same connectivity, mapped vertices)
        and the map's coframe field on it, after :meth:`validate_on` passes
        on the vertices."""
        self.validate_on(mesh.vertices)
        warped = SimplicialMesh(self.apply(mesh.vertices), mesh.elements)
        return warped, map_coframe_field(warped, self.inverse_jacobian(mesh.vertices))

    def validate_on(self, points):
        """Nonsingularity and injectivity checks by sampling.

        Raises GeometryError if the Jacobian determinant is not strictly
        positive at the sample points, or if two well-separated samples map
        to nearly the same image (self-intersection test).
        """
        from scipy.spatial import cKDTree

        points = np.asarray(points, dtype=float)
        _, d = self._fz(points)
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
    """The conformal map ``name`` of ``MAPS``, checked by ``ConformalMap``.

    ``polynomial``: z -> z + c z^2 for a finite c, which must be given
    (injective where |2 c z| < 1);
    ``exponential``: z -> exp(z) on a rectangle of height below 2 pi.
    """
    return ConformalMap(name=name, params=params)


@dataclass
class WarpResult:
    values_base: np.ndarray
    values_warped: np.ndarray
    vectors_base: np.ndarray
    vectors_warped: np.ndarray
    warped_mesh: SimplicialMesh


def warp_experiment(base_mesh, warp, epsilon, modes):
    """Spectra of the constant-field operator and its coframe pullback.

    Builds the constant axis-aligned operator on ``base_mesh`` and the map
    coframe operator on the warped copy from ``warp.pullback``, both under
    Neumann conditions, takes the ``modes`` smallest nonzero eigenpairs of
    each from ``nonzero_eigenpairs``, and returns both, with the base
    eigenfunctions sharing vertex indexing with the warped mesh for
    side-by-side export.
    """
    warped, field_warp = warp.pullback(base_mesh)
    field_base = constant_field(base_mesh, axis_frame(base_mesh.dim))

    op_base = assemble_operator(base_mesh, field_base, epsilon, "neumann")
    op_warp = assemble_operator(warped, field_warp, epsilon, "neumann")
    eig_base = nonzero_eigenpairs(op_base, modes)
    eig_warp = nonzero_eigenpairs(op_warp, modes)
    return WarpResult(
        values_base=eig_base.values,
        values_warped=eig_warp.values,
        vectors_base=eig_base.vectors,
        vectors_warped=eig_warp.vectors,
        warped_mesh=warped,
    )
