"""Stabilized primal-dual finite elements for unique continuation on disks."""

from .config import PerturbationSpec, RunConfig, parse_config
from .fem import (
    build_space,
    assemble_load_region,
    assemble_region_mass,
    assemble_stabilization,
    assemble_stiffness,
    error_norms,
    interpolate_nodal,
    triple_norm,
)
from .geometry import Geometry
from .harmonic import (
    HarmonicMonomial,
    StabilityExponents,
    combined_exponent,
    harmonic_norm_closed,
    optimal_alpha,
    three_ball_ratio,
)
from .mesh import build_disk_mesh, refine_uniform, validate
from .solver import (
    hminus1_residual,
    make_perturbation,
    solve_poisson,
    solve_uc,
    verify_positivity,
)
from .sparse import compose_saddle, solve_direct
from .studies import (
    fit_rate,
    run_convergence_study,
    run_perturbation_study,
    run_stagnation_study,
)

__version__ = "0.1.0"
