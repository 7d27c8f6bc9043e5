"""Meshes and frame fields: build domains, generate fields, write files.

Walks through the geometric layer: constructing disk/square/ball domains,
uniform refinement, boundary-aligned cross fields with their singularity,
and the CSV/OFF/MEDIT file formats everything else consumes.
"""

from pathlib import Path

import numpy as np

import framefieldops as ff
from framefieldops import meshgen

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# -- domains -----------------------------------------------------------------

disk = meshgen.disk(12)
square = meshgen.structured_square(16)
ball = ff.refine_uniform(meshgen.ball())
print("disk:  ", disk)
print("square:", square)
print("ball:  ", ball)

fine = ff.refine_uniform(disk)
print(
    f"refining the disk: {disk.num_elements} -> {fine.num_elements} triangles, "
    f"mean edge {ff.mean_edge_length(disk):.4f} -> {ff.mean_edge_length(fine):.4f}"
)

ff.save_mesh(disk, out / "disk.off")
ff.save_mesh(square, out / "square.obj")
ff.save_mesh(ball, out / "ball.mesh")

# -- a boundary-aligned cross field on the disk --------------------------------

measures = ff.compute_measures(disk)
field = ff.harmonic_cross_field_2d(disk)
residuals, aligned = ff.check_boundary_alignment(field, measures, 1e-6)
print(f"boundary alignment: max residual {residuals.max():.2e}, all aligned: {aligned.all()}")

# The 4-fold representation vector vanishes where the cross winds: the one
# index +1 singularity of a boundary-aligned disk field sits at the center.
low = np.flatnonzero(field.rep_magnitude < 0.3)
print(
    f"singular region: {len(low)} vertices with small symmetry vector, "
    f"all within radius {np.linalg.norm(disk.vertices[low], axis=1).max():.2f}"
)
ff.save_field(field, out / "disk_field.csv")

# -- volumetric fields ---------------------------------------------------------

helical = ff.helical_field_3d(ball, axis=[0, 0, 1], pitch=1.2)
ff.save_field(helical, out / "ball_helical.csv")
print("helical field kind:", helical.kind)

# field files round-trip losslessly
back = ff.load_field(ball, out / "ball_helical.csv")
print("round trip max form deviation:", np.abs(back.forms() - helical.forms()).max())
