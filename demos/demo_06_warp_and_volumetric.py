"""Coframe pullback and volumetric operators.

A conformal map carries the constant frame field to a coframe field on the
warped domain; at the highest differential order the two operators are
push-forwards of one another, so their spectra agree increasingly well as
the warp weakens.  The second half runs the operator on a tetrahedral ball
with a helical field.
"""

from pathlib import Path

import numpy as np

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.analytic import conformal_warp, warp_experiment
from framefieldops.vtkio import write_vtk

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

base = meshgen.structured_square(20)
for c in (0.05, 0.025, 0.0125):
    res = warp_experiment(base, conformal_warp("polynomial", c=c), epsilon=0.25, modes=30)
    med = np.median(np.abs(res.values_warped - res.values_base) / res.values_base)
    print(f"warp c = {c:<7}: median spectral deviation {med:.2e}")

res = warp_experiment(base, conformal_warp("polynomial", c=0.05), epsilon=0.25, modes=30)
# nonzero mode 19 is mode 20 of the full spectrum, counting the constant
write_vtk(
    out / "warped_modes.vtk",
    res.warped_mesh,
    {
        "warped_phi_20": res.vectors_warped[:, 19],
        "base_phi_20_on_warped": res.vectors_base[:, 19],
    },
)
print("wrote warped_modes.vtk (compare the two layers)")

# volumetric: helical field on the ball
ball = ff.refine_uniform(ff.refine_uniform(meshgen.ball()))
field = ff.helical_field_3d(ball, axis=[0, 0, 1], pitch=2.0)
op = ff.assemble_operator(ball, field, 0.05, "neumann")
eig = ff.eigs_generalized(op, op.vertex_mass, 24)
print("ball spectrum (first 8):", np.round(eig.values[:8], 3))
write_vtk(
    out / "ball_modes.vtk",
    ball,
    {f"phi_{k:02d}": eig.vectors[:, k] for k in (6, 12, 23)},
)
print("wrote ball_modes.vtk")
