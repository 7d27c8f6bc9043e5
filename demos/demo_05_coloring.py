"""Boundary-value coloring: diffusion-curve-style color propagation.

Solves a box-constrained quadratic program per RGB channel, pinning the
boundary colors and bounding every channel by its boundary extrema.  The
frame field steers where colors flow: the same boundary data colored with
two different fields gives visibly different interiors.
"""

from pathlib import Path

import numpy as np

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.vtkio import write_vtk

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

disk = meshgen.disk(16)
measures = ff.compute_measures(disk)
bv = measures.boundary_vertices
angle = np.arctan2(disk.vertices[bv, 1], disk.vertices[bv, 0])
boundary_rgb = 0.5 + 0.5 * np.column_stack(
    [np.cos(angle), np.sin(2 * angle), np.cos(3 * angle)]
)

fields = {
    "axis": ff.constant_field(disk, ff.axis_frame(2)),
    "aligned": ff.harmonic_cross_field_2d(disk),
}
results = {}
for name, field in fields.items():
    op = ff.assemble_operator(disk, field, 0.01, "natural")
    rgb = ff.color_by_boundary(op, boundary_rgb)
    results[name] = rgb
    write_vtk(out / f"coloring_{name}.vtk", disk, {"rgb": rgb})
    print(f"{name:>8}: channel ranges", [f"{rgb[:, c].min():.2f}..{rgb[:, c].max():.2f}" for c in range(3)])

diff = np.linalg.norm(results["axis"] - results["aligned"])
print(f"L2 difference between the two colorings: {diff:.3f} (the field matters)")
