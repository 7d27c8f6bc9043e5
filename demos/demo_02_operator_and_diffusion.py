"""The frame field operator and its controllable anisotropy.

Assembles the operator on the disk for a sweep of ellipticity values and
diffuses an impulse from the center for one implicit-Euler step.  At
epsilon = 1 the operator is the Bilaplacian whatever the field, so the axis
field and the boundary-aligned harmonic cross field give the same matrix
and the response is round; as epsilon drops, diffusion concentrates along
the frame directions and the isoline grows arms.
"""

from pathlib import Path

import numpy as np

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.apps import isoline_crossings, radial_ratio
from framefieldops.vtkio import write_vtk

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

disk = meshgen.disk(32)
field = ff.constant_field(disk, ff.axis_frame(2))

# sanity: at epsilon = 1 the operator does not depend on the field
op1 = ff.assemble_operator(disk, field, 1.0, "natural")
harmonic = ff.harmonic_cross_field_2d(disk)
op1_harmonic = ff.assemble_operator(disk, harmonic, 1.0, "natural")
dev = abs(op1.matrix - op1_harmonic.matrix).max() / abs(op1.matrix).max()
print("epsilon = 1 field-independence deviation (relative):", dev)

impulse = np.zeros(disk.num_vertices)
impulse[0] = 1.0

tau = 1e-5
fields_out = {}
for eps in (1.0, 2e-1, 4e-2, 8e-3):
    op = ff.assemble_operator(disk, field, eps, "natural")
    u = ff.diffuse(op, impulse, tau)
    pts = isoline_crossings(disk, u, 0.25 * u.max())
    ratio = radial_ratio(pts, disk.vertices[0])
    print(f"eps = {eps:<6}: isoline major/minor radius ratio {ratio:.3f}")
    fields_out[f"impulse_eps_{eps:g}"] = u

write_vtk(out / "impulse_sweep.vtk", disk, fields_out)
print("wrote", out / "impulse_sweep.vtk")
