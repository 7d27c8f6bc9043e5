"""Anisotropic spectral distances and descent paths.

Embeds vertices by eigenfunctions over eigenvalues, phi_k / Lambda_k;
distances are Euclidean in that embedding (so they form a true metric) and
acquire Manhattan-like structure as epsilon shrinks.  They are the
Green's-function distances of A^2: at epsilon = 1, where Lambda_k is the
square of a Laplacian eigenvalue lambda_k, each mode is weighted by
lambda_k^-4, not by the biharmonic distance's lambda_k^-2.  Shortest paths
are traced by greedy descent on the distance.
"""

from pathlib import Path

import numpy as np

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.apps import isoline_crossings, radial_ratio
from framefieldops.vtkio import write_polyline_obj, write_vtk

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

disk = meshgen.disk(16)
field = ff.constant_field(disk, ff.axis_frame(2))
source = 0  # disk center

layers = {}
for eps in (1.0, 1e-1, 1e-3):
    op = ff.assemble_operator(disk, field, eps, "neumann")
    emb = ff.build_embedding(op, n_modes=64)
    d = ff.distance_field(emb, source)
    pts = isoline_crossings(disk, d, np.quantile(d, 0.3))
    print(
        f"eps = {eps:<6}: isoline eccentricity "
        f"{radial_ratio(pts, disk.vertices[source]) - 1.0:.3f}"
    )
    layers[f"distance_eps_{eps:g}"] = d

write_vtk(out / "distances.vtk", disk, layers)

# descent paths from random starts back to the source
op = ff.assemble_operator(disk, field, 0.05, "neumann")
emb = ff.build_embedding(op, n_modes=64)
d = ff.distance_field(emb, source)
rng = np.random.default_rng(0)
paths = [
    ff.trace_descent_path(disk, d, int(s))
    for s in rng.choice(disk.num_vertices, 12, replace=False)
]
write_polyline_obj(out / "descent_paths.obj", paths)
reached = sum(np.allclose(p[-1], disk.vertices[source]) for p in paths)
print(f"{reached}/12 paths reached the source; wrote descent_paths.obj")
