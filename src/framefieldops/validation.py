"""Validation experiments: each builds a hierarchy or sweep, measures the
relevant convergence or trend, and reports pass/fail with the raw numbers.

These are the library-level implementations behind ``validate`` on the
command line and the acceptance test suite; both run the same code with the
same default parameters.

Discrete nonzero spectra come from ``apps.nonzero_eigenpairs`` (one
request of ``count + dim + 3`` pairs, repeated only when zero modes push
nonzero ones out), directly or through ``analytic.warp_experiment``.
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
from .geometry import compute_measures, mean_edge_length, prolong_linear, refine_uniform
from .meshgen import disk, structured_square
from .solve import diffuse, eigs_generalized

logger = logging.getLogger(__name__)


@dataclass
class ValidationReport:
    name: str
    passed: bool
    summary: str
    columns: list
    rows: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(row[c]) for c in self.columns) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17e}"
    return str(v)


def validate_square_spectrum(
    base_n=46,
    refinements=2,
    epsilons=(1.0, 0.1),
    modes=20,
    finest_modes=10,
    rel_tol=0.05,
    monotone_fraction=0.9,
):
    """Discrete spectrum on the square versus the analytic Fourier lattice.

    Runs both boundary-condition kinds and reports which matches the lattice
    better; the pass criteria (per-mode errors decreasing across resolutions
    for at least ``monotone_fraction`` of modes, and finest-level relative
    error below ``rel_tol`` for the leading modes) are evaluated on the
    better-matching kind.  Each (epsilon, bc, level) makes one
    ``nonzero_eigenpairs`` request.
    """
    meshes = [structured_square(base_n)]
    for _ in range(refinements):
        meshes.append(refine_uniform(meshes[-1]))
    lengths = [mean_edge_length(m) for m in meshes]
    rows = []
    ok = True
    medians = {}
    for eps in epsilons:
        lattice = square_spectrum(eps, 4 * modes).values
        ana = lattice[lattice > 0][:modes]  # the lattice's one zero is exact
        errors = {}
        for bc in ("neumann", "natural"):
            per_level = []
            for mesh, L in zip(meshes, lengths):
                t0 = time.time()
                op = assemble_operator(
                    mesh, constant_field(mesh, axis_frame(2)), eps, bc
                )
                disc = nonzero_eigenpairs(op, modes).values
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
        ok &= frac >= monotone_fraction and rel_finest < rel_tol
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
        columns=["epsilon", "bc", "mean_edge_length", "mode", "analytic",
                 "discrete", "abs_error"],
        rows=rows,
    )


def validate_refine_spectrum(
    rings=8, levels=4, epsilon=0.1, check_modes=(10, 20, 30, 40), bc="neumann"
):
    """Spectral convergence on a disk hierarchy with a resampled cross field.

    The boundary-aligned field is computed at the finest level and resampled
    down, so the operators across levels discretize the same anisotropy.
    Eigenvalue errors against the finest level must decrease monotonically
    with mean edge length for every checked mode.
    """
    meshes = [disk(rings)]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    fine_field = harmonic_cross_field_2d(meshes[-1])
    fields = [resample_field(fine_field, m) for m in meshes[:-1]] + [fine_field]
    k = max(check_modes) + 1
    spectra = []
    for mesh, fld in zip(meshes, fields):
        op = assemble_operator(mesh, fld, epsilon, bc)
        spectra.append(eigs_generalized(op, op.vertex_mass, k).values)
    ref = spectra[-1]
    lengths = [mean_edge_length(m) for m in meshes]
    rows, ok = [], True
    for mode in check_modes:
        errs = [abs(s[mode] - ref[mode]) for s in spectra[:-1]]
        ok &= all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        for L, e in zip(lengths[:-1], errs):
            rows.append(
                {"mode": mode, "mean_edge_length": L, "abs_error": e,
                 "reference": ref[mode]}
            )
    return ValidationReport(
        name="refine-spectrum",
        passed=bool(ok),
        summary=f"modes {check_modes} vs level {levels - 1} reference, "
                f"monotone={ok}",
        columns=["mode", "mean_edge_length", "abs_error", "reference"],
        rows=rows,
    )


def validate_warp(
    base_n=24, cs=(0.05, 0.025, 0.0125, 0.0), epsilon=0.25, modes=30, zero_tol=1e-10
):
    """Polynomial conformal warp sweep: warped vs unwarped spectra.

    The median relative deviation over the leading nonzero modes must
    decrease monotonically as the warp strength drops, and vanish for the
    identity map.
    """
    base = structured_square(base_n)
    rows, devs = [], []
    for c in cs:
        warp = conformal_warp("polynomial", c=c)
        res = warp_experiment(base, warp, epsilon, modes)
        dev = np.abs(res.values_warped - res.values_base) / res.values_base
        devs.append(float(np.median(dev)))
        rows.append({"c": c, "median_rel_dev": devs[-1], "max_rel_dev": float(dev.max())})
    sorted_cs = sorted((c for c in cs if c > 0), reverse=True)
    dev_by_c = {c: d for c, d in zip(cs, devs)}
    monotone = all(
        dev_by_c[a] > dev_by_c[b] for a, b in zip(sorted_cs, sorted_cs[1:])
    )
    identity_ok = all(dev_by_c[c] < zero_tol for c in cs if c == 0.0)
    passed = monotone and identity_ok
    return ValidationReport(
        name="warp",
        passed=bool(passed),
        summary=f"median deviations {dict((c, round(d, 6)) for c, d in dev_by_c.items())}",
        columns=["c", "median_rel_dev", "max_rel_dev"],
        rows=rows,
    )


def validate_dirichlet_convergence(rings=6, levels=4, epsilon=0.05, periods=3):
    """Square-wave Dirichlet solutions on a disk hierarchy.

    Successive solutions (coarse prolonged onto fine) must approach each
    other in the mass-weighted L2 norm.
    """
    meshes = [disk(rings)]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    fine_field = harmonic_cross_field_2d(meshes[-1])
    fields = [resample_field(fine_field, m) for m in meshes[:-1]] + [fine_field]
    sols = []
    for mesh, fld in zip(meshes, fields):
        op = assemble_operator(mesh, fld, epsilon, "neumann")
        u0 = square_wave_boundary(mesh, compute_measures(mesh), periods=periods)
        sols.append(apply_dirichlet_partition(op, u0))
    rows, diffs = [], []
    for i in range(levels - 1):
        uf = prolong_linear(meshes[i + 1], sols[i])
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
        columns=["level", "mean_edge_length", "l2_difference"],
        rows=rows,
    )


def validate_anisotropy(
    rings=40,
    tau=1e-5,
    epsilons=(1.0, 2e-1, 4e-2, 8e-3),
    level_fraction=0.25,
    isotropy_tol=0.05,
):
    """Impulse-response anisotropy on the disk across the ellipticity sweep.

    The impulse at the disk center is diffused for one implicit-Euler step;
    the isoline at a fraction of the peak is extracted and its max/min
    radius about the center measured.  The ratio must increase strictly as
    epsilon decreases and stay within ``isotropy_tol`` of 1 at epsilon = 1.
    """
    mesh = disk(rings)
    fld = constant_field(mesh, axis_frame(2))
    u0 = np.zeros(mesh.num_vertices)
    u0[0] = 1.0
    rows, ratios = [], []
    for eps in sorted(epsilons, reverse=True):
        op = assemble_operator(mesh, fld, eps, "natural")
        u = diffuse(op, u0, tau)
        pts = isoline_crossings(mesh, u, level_fraction * u.max())
        r = radial_ratio(pts, mesh.vertices[0])
        ratios.append(r)
        rows.append({"epsilon": eps, "axis_ratio": r, "isoline_points": len(pts)})
    increasing = all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    # ratios run in descending epsilon, so ratios[0] belongs to max(epsilons)
    isotropic = abs(ratios[0] - 1.0) <= isotropy_tol if max(epsilons) == 1.0 else True
    passed = increasing and isotropic
    return ValidationReport(
        name="anisotropy",
        passed=bool(passed),
        summary=f"axis ratios {[round(r, 3) for r in ratios]} for epsilon "
                f"{sorted(epsilons, reverse=True)}",
        columns=["epsilon", "axis_ratio", "isoline_points"],
        rows=rows,
    )


VALIDATORS = {
    "square-spectrum": validate_square_spectrum,
    "refine-spectrum": validate_refine_spectrum,
    "warp": validate_warp,
    "dirichlet-convergence": validate_dirichlet_convergence,
    "anisotropy": validate_anisotropy,
}
