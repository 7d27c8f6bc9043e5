"""Anisotropic fourth-order frame field operators on simplicial meshes.

Builds discrete operators from symmetric frame fields via mixed finite
elements and solves the associated boundary-value, diffusion, eigenvalue,
distance, and coloring problems.
"""

from .errors import (
    FieldError,
    FrameFieldOpsError,
    GeometryError,
    MeshFormatError,
    NumericalError,
    ParameterError,
)
from .geometry import (
    MeshMeasures,
    SimplicialMesh,
    compute_measures,
    gradient_matrix,
    load_mesh,
    mean_edge_length,
    prolong_linear,
    refine_uniform,
    save_mesh,
)
from .symtensor import (
    OdecoFrame,
    modify_epsilon,
    odeco_form,
    principal_symbol,
    sym_to_mandel,
)
from .framefield import (
    FrameField,
    axis_frame,
    check_boundary_alignment,
    constant_field,
    harmonic_cross_field_2d,
    helical_field_3d,
    load_field,
    map_coframe_field,
    resample_field,
    save_field,
)
from .fem import (
    AssembledOperator,
    MixedSystem,
    apply_dirichlet_partition,
    assemble_operator,
)
from .solve import (
    EigenResult,
    diffuse,
    eigs_generalized,
    solve_box_qp,
    solve_pinned,
    solve_spd,
)
from .analytic import SquareSpectrum, conformal_warp, square_spectrum, warp_experiment
from .apps import (
    SpectralEmbedding,
    build_embedding,
    color_by_boundary,
    distance_field,
    nonzero_eigenpairs,
    nullity,
    trace_descent_path,
    zero_modes,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
