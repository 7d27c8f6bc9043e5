"""Spectra: analytic ground truth on the square and field-aligned modes.

On the square with the constant axis-aligned field, the operator's
eigenvalues have the closed form 2 wa^2 wb^2 + eps (wa^4 + wb^4) on the
half-integer-pi frequency lattice.  The discrete spectrum converges to it
under refinement.  Eigenfunctions of an anisotropic operator oscillate
along the frame directions.
"""

from pathlib import Path

import numpy as np

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.analytic import square_spectrum
from framefieldops.vtkio import write_vtk

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

eps = 0.1
ana = square_spectrum(eps, 16)
print("analytic eigenvalues:", np.round(ana.values[:8], 3))
print("their lattice frequencies:", ana.frequencies[:8].tolist())

mesh = meshgen.structured_square(24)
for level in range(3):
    field = ff.constant_field(mesh, ff.axis_frame(2))
    op = ff.assemble_operator(mesh, field, eps, "neumann")
    nz = ff.nonzero_eigenpairs(op, 10).values
    err = np.abs(nz - ana.values[1:11]) / ana.values[1:11]
    print(
        f"mean edge {ff.mean_edge_length(mesh):.4f}: "
        f"max relative error over 10 modes {err.max():.2e}"
    )
    if level < 2:
        mesh = ff.refine_uniform(mesh)

# field-aligned eigenfunctions on the disk
disk = meshgen.disk(24)
field = ff.harmonic_cross_field_2d(disk)
op = ff.assemble_operator(disk, field, 0.05, "neumann")
eig = ff.eigs_generalized(op, op.vertex_mass, 40)
write_vtk(
    out / "disk_modes.vtk",
    disk,
    {f"phi_{k:02d}": eig.vectors[:, k] for k in (5, 15, 25, 39)},
)
print("wrote", out / "disk_modes.vtk")
