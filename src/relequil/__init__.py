"""Linear stability of relative equilibria of the planar n-body problem
under power-law and quasi-homogeneous pair potentials, computed through
symmetry-group block diagonalization and validated against a dense
eigensolver oracle."""

from .central import RefinementError, refine_central_configuration, regular_polygon
from .dynamics import (
    GrowthEstimate,
    Trajectory,
    estimate_growth_rate,
    integrate_rotating_frame,
)
from .model import (
    BodyConfiguration,
    CentralityReport,
    CollisionError,
    Equilibrium,
    NonCentralConfigurationError,
    PotentialSpec,
    angular_frequency_squared,
    is_central_configuration,
    potential_energy,
    potential_energy_terms,
    potential_gradient,
    potential_hessian,
)
from .pipeline import (
    AnalysisRequest,
    ConsistencyError,
    InputError,
    StabilityReport,
    run_analysis,
    run_sweep,
)
from .presets import PRESET_NAMES, get_case
from .spectrum import (
    StabilityVerdict,
    block_spectrum,
    classify,
    compare_spectra,
    decompose_blocks,
    full_linearization_spectrum,
)
from .symmetry import (
    SymmetryGroup,
    build_polygon_symmetry_group,
    decompose_multiplicities,
    dihedral,
    eigenvalues_by_trace_equations,
    invariance_defect,
)

__version__ = "0.1.0"
