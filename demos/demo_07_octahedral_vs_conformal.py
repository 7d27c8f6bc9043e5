"""Octahedral versus conformal octahedral fields around a singularity.

A conformal octahedral field can represent a field singularity as an actual
zero of the tensor norm, whereas the normalized octahedral field keeps unit
norm everywhere.  The two operators share the same frame structure; their
eigenfunctions look alike but appear in a different order.
"""

from pathlib import Path

import numpy as np

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.vtkio import write_vtk

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

disk = meshgen.disk(12)
octa = ff.harmonic_cross_field_2d(disk)

# scale the weights to vanish at the field singularity (the disk center):
# same frame directions, conformal octahedral kind, zero norm at vertex 0
w = np.linalg.norm(disk.vertices, axis=1) ** 2
conf = ff.FrameField(disk, octa.components.copy(), np.column_stack([w, w]))
print("kinds:", octa.kind, "vs", conf.kind, "| zero-norm vertices:", (conf.norms == 0).sum())

eigs = {}
for name, field in (("octahedral", octa), ("conformal", conf)):
    op = ff.assemble_operator(disk, field, 0.05, "neumann")
    eig = ff.eigs_generalized(op, op.vertex_mass, 16)
    eigs[name] = eig
    print(f"{name:>11}: first eigenvalues {np.round(eig.values[:6], 4)}")

write_vtk(
    out / "octahedral_vs_conformal.vtk",
    disk,
    {
        "octahedral_phi_5": eigs["octahedral"].vectors[:, 5],
        "conformal_phi_5": eigs["conformal"].vectors[:, 5],
        "tensor_norm": conf.norms,
    },
)
print("wrote octahedral_vs_conformal.vtk")
