"""Average-cost planning and simulation for an energy-harvesting small cell
that serves user requests by unicast and proactively pushes popular content.
"""

from .model import (
    Action,
    CalibrationError,
    DistanceGrid,
    SystemParams,
    calibrate_radio,
    zipf_pmf,
)
from .policies import (
    ThresholdProfile,
    non_push_optimal,
    threshold_profile,
    unicast_priority_table,
)
from .sim import SimConfig, SimMetrics, simulate, sweep
from .solver import (
    ConvergenceError,
    IterationRecord,
    MultichainError,
    OracleResult,
    PolicyIterationResult,
    PolicyTable,
    SingularPolicyError,
    ValueSolution,
    bellman_residual,
    brute_force_oracle,
    policy_evaluation,
    policy_improvement,
    policy_iteration,
    relative_value_iteration,
)
from .transition import (
    ArrivalPmf,
    KernelReport,
    TransitionKernel,
    build_kernel,
    validate_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ArrivalPmf",
    "CalibrationError",
    "ConvergenceError",
    "DistanceGrid",
    "IterationRecord",
    "KernelReport",
    "MultichainError",
    "OracleResult",
    "PolicyIterationResult",
    "PolicyTable",
    "SimConfig",
    "SimMetrics",
    "SingularPolicyError",
    "SystemParams",
    "ThresholdProfile",
    "TransitionKernel",
    "ValueSolution",
    "bellman_residual",
    "brute_force_oracle",
    "build_kernel",
    "calibrate_radio",
    "non_push_optimal",
    "policy_evaluation",
    "policy_improvement",
    "policy_iteration",
    "relative_value_iteration",
    "simulate",
    "sweep",
    "threshold_profile",
    "unicast_priority_table",
    "validate_kernel",
    "zipf_pmf",
    "__version__",
]
