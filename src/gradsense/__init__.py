"""gradsense: regional gradient observability for diffusion systems.

Decide whether sensor placements can recover the spatial gradient of a
heat-equation initial state on a subregion, compute the finite-rank
observability Gramian and margin, and reconstruct the initial gradient
from simulated measurements.  Library modules are pure functions over
immutable inputs; the ``gradsense`` CLI drives them from scenario files.
"""

from ._version import __version__
from .errors import ComputationError, ScenarioError, ValidationError
from .gramian import GramianResult, assemble_gramian, observability_constant, time_correlation
from .quadrature import QuadratureSpec
from .reconstruct import (
    ErrorRecord,
    ReconstructionResult,
    estimate_coefficients,
    gradient_field_on_region,
    reconstruction_error,
)
from .report import Report, emit_report
from .scenario import Scenario, load_scenario, parse_scenario
from .sensors import (
    FilamentSensor,
    MeasurementSeries,
    PointwiseSensor,
    ZonalSensor,
    gradient_signature,
    sensor_nodes,
    signature_matrix,
    simulate_output,
    state_signature,
    validate_sensor,
    zonal_around,
)
from .spectral import (
    Domain,
    GradientField,
    ModalBasis,
    Subregion,
    build_basis,
    eval_eigenfunction,
    eval_eigenfunction_gradient,
    gradient_gram,
    norm_on_region,
    propagate,
)
from .strategic import (
    BasisSplit,
    ClosedFormResult,
    EigenGroup,
    ForbiddenSetResult,
    StrategicVerdict,
    basis_split,
    closed_form_condition,
    exact_pointwise_verdict_1d,
    forbidden_sets_1d,
    group_eigenvalues,
    rank_test,
    residual_independence_check,
)
from .commands import location_scan, run_command

__all__ = [
    "__version__",
    "BasisSplit", "ClosedFormResult", "ComputationError", "Domain", "EigenGroup",
    "ErrorRecord", "FilamentSensor", "ForbiddenSetResult", "GradientField",
    "GramianResult", "MeasurementSeries", "ModalBasis", "PointwiseSensor",
    "QuadratureSpec", "ReconstructionResult", "Report", "Scenario", "ScenarioError",
    "StrategicVerdict", "Subregion", "ValidationError", "ZonalSensor",
    "assemble_gramian", "basis_split", "build_basis", "closed_form_condition",
    "emit_report", "estimate_coefficients", "eval_eigenfunction",
    "eval_eigenfunction_gradient", "exact_pointwise_verdict_1d", "forbidden_sets_1d",
    "gradient_field_on_region", "gradient_gram", "gradient_signature",
    "group_eigenvalues", "load_scenario", "location_scan",
    "norm_on_region", "observability_constant", "parse_scenario", "propagate",
    "rank_test", "reconstruction_error", "residual_independence_check", "run_command",
    "sensor_nodes", "signature_matrix", "simulate_output", "state_signature", "time_correlation",
    "validate_sensor", "zonal_around",
]
