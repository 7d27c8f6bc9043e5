"""Validation experiments: each builds a hierarchy or sweep, measures the
relevant convergence or trend, and reports pass/fail with the raw numbers.

These are the library-level implementations behind ``validate`` on the
command line and the acceptance test suite; both run the same code with the
same default parameters.  Each docstring states the sizes and tolerances
that the validator fixes.

Discrete nonzero spectra come from ``apps.nonzero_eigenpairs``, directly
or through ``analytic.warp_experiment``: one request of ``count +
apps.nullity(op)`` pairs each, sized by the operator's zero-mode count.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .analytic import conformal_warp, square_spectrum, warp_experiment
from .apps import (
    isoline_crossings,
    nonzero_eigenpairs,
    radial_ratio,
    square_wave_boundary,
)
from .fem import apply_dirichlet_partition, assemble_operator
from .framefield import axis_frame, constant_field, harmonic_cross_field_2d, resample_field
from .geometry import _write_rows, compute_measures, mean_edge_length, prolong_linear
from .geometry import refine_uniform
from .meshgen import disk, structured_square
from .solve import diffuse

logger = logging.getLogger(__name__)


@dataclass
class ValidationReport:
    """A validator's verdict and raw numbers; the CSV columns are the keys
    of the first row, in order."""

    name: str
    passed: bool
    summary: str
    rows: list = field(default_factory=list)

    def write_csv(self, path):
        """Write the rows, ``%.17e`` in the columns whose first value is a
        float and ``%s`` in the others."""
        first = self.rows[0] if self.rows else {}
        fmt = ",".join("%.17e" if isinstance(v, float) else "%s" for v in first.values())
        table = np.array([[row[c] for c in first] for row in self.rows], dtype=object)
        with open(path, "w") as fh:
            fh.write(",".join(first) + "\n")
            _write_rows(fh, fmt, table)


def _hierarchy(mesh, refinements):
    """``mesh`` followed by ``refinements`` uniform refinements of it."""
    meshes = [mesh]
    for _ in range(refinements):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def _harmonic_fields(meshes):
    """The harmonic cross field on the finest mesh, restricted to each
    coarser one, so every level discretizes the same anisotropy."""
    fine = harmonic_cross_field_2d(meshes[-1])
    return [resample_field(fine, m) for m in meshes[:-1]] + [fine]


def validate_square_spectrum(base_n=46, finest_modes=10, rel_tol=0.05):
    """Discrete spectrum on the square versus the analytic Fourier lattice.

    Compares the 20 smallest nonzero eigenvalues of the constant axis field
    at epsilon 1 and 0.1 on ``structured_square(base_n)`` and its 2
    uniform refinements.  Runs both boundary-condition kinds
    and reports which matches the lattice better; the pass criteria (per-mode
    errors decreasing across resolutions for at least 90 % of the 20 modes,
    and finest-level relative error below ``rel_tol`` for the leading
    ``finest_modes``) are evaluated on the better-matching kind, which must
    be Neumann.  Each (epsilon, bc, level) makes one ``nonzero_eigenpairs``
    request.
    """
    meshes = _hierarchy(structured_square(base_n), 2)
    lengths = [mean_edge_length(m) for m in meshes]
    rows = []
    ok = True
    medians = {}
    for eps in (1.0, 0.1):
        lattice = square_spectrum(eps, 80).values
        ana = lattice[lattice > 0][:20]  # the lattice's one zero is exact
        errors = {}
        for bc in ("neumann", "natural"):
            per_level = []
            for mesh, L in zip(meshes, lengths):
                t0 = time.time()
                op = assemble_operator(
                    mesh, constant_field(mesh, axis_frame(2)), eps, bc
                )
                disc = nonzero_eigenpairs(op, 20).values
                per_level.append(np.abs(disc - ana))
                for i, (a, d) in enumerate(zip(ana, disc)):
                    rows.append(
                        {
                            "epsilon": eps, "bc": bc, "mean_edge_length": L,
                            "mode": i + 1, "analytic": a, "discrete": d,
                            "abs_error": abs(d - a),
                        }
                    )
                logger.info(
                    "square spectrum eps=%g bc=%s L=%.4g done in %.1fs",
                    eps, bc, L, time.time() - t0,
                )
            errors[bc] = np.array(per_level)
            medians[(eps, bc)] = float(np.median(per_level[-1] / ana))
        best = min(("neumann", "natural"), key=lambda b: medians[(eps, b)])
        err = errors[best]
        monotone = np.all(np.diff(err, axis=0) < 0, axis=0)
        frac = monotone.mean()
        rel_finest = np.max(err[-1][:finest_modes] / ana[:finest_modes])
        ok &= best == "neumann"
        ok &= frac >= 0.9 and rel_finest < rel_tol
        logger.info(
            "eps=%g: best bc %s, monotone %.0f%%, finest rel err %.4f",
            eps, best, 100 * frac, rel_finest,
        )
    summary = "; ".join(
        f"eps={e} {bc}: median rel err {m:.2e}" for (e, bc), m in medians.items()
    )
    return ValidationReport(
        name="square-spectrum",
        passed=bool(ok),
        summary=summary,
        rows=rows,
    )


def validate_refine_spectrum(rings=8):
    """Spectral convergence on a disk hierarchy with a restricted cross field.

    The hierarchy is ``disk(rings)`` and 3 uniform refinements of it.  The
    boundary-aligned field is computed at the finest level and restricted
    to the coarser ones, so the operators across levels discretize the same
    anisotropy; each is assembled at epsilon 0.1 under Neumann conditions.
    Eigenvalue errors against the finest level must decrease monotonically
    with mean edge length for each of modes 10, 20, 30 and 40.  Mode
    numbers count nonzero modes from 1, whatever the boundary conditions'
    nullity.
    """
    meshes = _hierarchy(disk(rings), 3)
    spectra = []
    for mesh, fld in zip(meshes, _harmonic_fields(meshes)):
        op = assemble_operator(mesh, fld, 0.1, "neumann")
        spectra.append(nonzero_eigenpairs(op, 40).values)
    ref = spectra[-1]
    lengths = [mean_edge_length(m) for m in meshes]
    rows, ok = [], True
    for mode in (10, 20, 30, 40):
        errs = [abs(s[mode - 1] - ref[mode - 1]) for s in spectra[:-1]]
        ok &= all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        for L, e in zip(lengths[:-1], errs):
            rows.append(
                {"mode": mode, "mean_edge_length": L, "abs_error": e,
                 "reference": ref[mode - 1]}
            )
    return ValidationReport(
        name="refine-spectrum",
        passed=bool(ok),
        summary=f"modes (10, 20, 30, 40) vs level 3 reference, monotone={ok}",
        rows=rows,
    )


def validate_warp():
    """Polynomial conformal warp sweep: warped vs unwarped spectra.

    Warps ``structured_square(24)`` with strengths c = 0.05, 0.025, 0.0125
    and 0 (the identity) and compares the 30 leading nonzero eigenvalues at
    epsilon 0.25.  The median relative deviation must decrease
    monotonically as the warp strength drops, and stay below 1e-10 for the
    identity map.
    """
    base = structured_square(24)
    rows, devs = [], {}
    for c in (0.05, 0.025, 0.0125, 0.0):
        res = warp_experiment(base, conformal_warp("polynomial", c=c), 0.25, 30)
        dev = np.abs(res.values_warped - res.values_base) / res.values_base
        devs[c] = float(np.median(dev))
        rows.append({"c": c, "median_rel_dev": devs[c], "max_rel_dev": float(dev.max())})
    strong, medium, weak, identity = devs.values()
    return ValidationReport(
        name="warp",
        passed=bool(strong > medium > weak and identity < 1e-10),
        summary=f"median deviations {dict((c, round(d, 6)) for c, d in devs.items())}",
        rows=rows,
    )


def validate_dirichlet_convergence(rings=6):
    """Square-wave Dirichlet solutions on a disk hierarchy.

    The hierarchy is ``disk(rings)`` and 3 uniform refinements of it, with
    the restricted harmonic cross field at epsilon 0.05 and 3-period
    square-wave boundary data.  Successive solutions (coarse prolonged onto
    fine) must approach each other in the mass-weighted L2 norm.
    """
    meshes = _hierarchy(disk(rings), 3)
    sols = []
    for mesh, fld in zip(meshes, _harmonic_fields(meshes)):
        op = assemble_operator(mesh, fld, 0.05, "neumann")
        u0 = square_wave_boundary(mesh, compute_measures(mesh), periods=3)
        sols.append(apply_dirichlet_partition(op, u0))
    rows, diffs = [], []
    for i in range(3):
        uf = prolong_linear(meshes[i], sols[i])
        mass = compute_measures(meshes[i + 1]).dual_volumes
        d = float(np.sqrt(mass @ (uf - sols[i + 1]) ** 2))
        diffs.append(d)
        rows.append(
            {"level": i, "mean_edge_length": mean_edge_length(meshes[i]),
             "l2_difference": d}
        )
    passed = all(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1))
    return ValidationReport(
        name="dirichlet-convergence",
        passed=bool(passed),
        summary=f"L2 level differences {[round(d, 5) for d in diffs]}",
        rows=rows,
    )


def validate_anisotropy(rings=40, tau=1e-5, epsilons=(1.0, 2e-1, 4e-2, 8e-3)):
    """Impulse-response anisotropy on the disk across the ellipticity sweep.

    The impulse at the center of ``disk(rings)`` is diffused for one
    implicit-Euler step of time ``tau`` under natural conditions with the
    constant axis field; the isoline at a quarter of the peak is extracted
    and its max/min radius about the center measured.  The ratio must increase strictly as
    epsilon decreases and stay within 0.05 of 1 at epsilon = 1.
    """
    mesh = disk(rings)
    fld = constant_field(mesh, axis_frame(2))
    u0 = np.zeros(mesh.num_vertices)
    u0[0] = 1.0
    rows, ratios = [], []
    for eps in sorted(epsilons, reverse=True):
        op = assemble_operator(mesh, fld, eps, "natural")
        u = diffuse(op, u0, tau)
        pts = isoline_crossings(mesh, u, 0.25 * u.max())
        r = radial_ratio(pts, mesh.vertices[0])
        ratios.append(r)
        rows.append({"epsilon": eps, "axis_ratio": r, "isoline_points": len(pts)})
    increasing = all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    # ratios run in descending epsilon, so ratios[0] belongs to max(epsilons)
    isotropic = abs(ratios[0] - 1.0) <= 0.05 if max(epsilons) == 1.0 else True
    passed = increasing and isotropic
    return ValidationReport(
        name="anisotropy",
        passed=bool(passed),
        summary=f"axis ratios {[round(r, 3) for r in ratios]} for epsilon "
                f"{sorted(epsilons, reverse=True)}",
        rows=rows,
    )


VALIDATORS = {
    "square-spectrum": validate_square_spectrum,
    "refine-spectrum": validate_refine_spectrum,
    "warp": validate_warp,
    "dirichlet-convergence": validate_dirichlet_convergence,
    "anisotropy": validate_anisotropy,
}
