"""Finite elements for the Poisson problem with noisy boundary observations.

The Dirichlet data is known only through point values g_i = g0(x_i) + e_i
on the boundary; the discrete problem enforces it weakly with a Lagrange
multiplier and an empirical quadrature pairing built from the observation
sites.  See the README for the governing formulation and usage.
"""

from .analysis import (
    ConvergenceTable,
    ErrorQuadrature,
    ErrorReport,
    Level,
    ManufacturedCase,
    RateEstimate,
    TailReport,
    compute_errors,
    estimate_rates,
    run_case,
    run_study,
    sine_case,
    tail_study,
)
from .assembly import (
    assemble_coupling_matrix,
    assemble_data_vector,
    assemble_load,
    assemble_stiffness,
)
from .mesh import (
    Boundary,
    MeshError,
    QualityReport,
    TriMesh,
    boundary_normal,
    boundary_point,
    build_disk_mesh,
    build_mesh,
    build_square_mesh,
    mesh_quality,
    read_mesh_text,
    write_mesh_text,
)
from .observations import (
    NoiseModel,
    ObservationSet,
    Placement,
    observe,
    place_points,
    quadrature_weights,
    sample_noise,
)
from .solver import SaddleSolution, SaddleSystem, SingularSystemError, solve_saddle

__version__ = "0.1.0"
