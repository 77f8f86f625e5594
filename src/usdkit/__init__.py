"""Optimal unambiguous discrimination of two mixed quantum states.

Given two weighted density operators, this package computes the provably
unique optimal measurement that never misidentifies a state: reductions
to the strictly skew core, closed-form measurement families, the complete
four-dimensional solver, the core's k x k convex program, operational
optimality checks with explicit dual certificates, and an independent
convex-feasibility oracle for verification.  Candidate, program,
linear-algebra and oracle internals live in their submodules
(`usdkit.solver4d`, `usdkit.program`, `usdkit.linalg`, `usdkit.oracle`).
"""
from .closed_form import (ProbabilityWindow, fidelity_window,
                          single_detection_window, try_fidelity_form,
                          try_single_state_detection)
from .errors import (CertificateFailure, DimensionMismatch, IncompatibleRecord,
                     InvalidInconclusive, NoSolutionFound, NonConvergence,
                     NotHermitian, NotPSD, NotProper, NotReconstructible,
                     PreconditionViolated, UsdKitError, UsdNumericsWarning)
from .model import (MeasurementClassTag, UsdMeasurement, WeightedDensityPair,
                    is_proper, is_usd, success_probability)
from .optimality import (CertificateZ, OptimalityReport, SolverOutcome,
                         build_certificate, check_optimality, classify)
from .oracle import (OracleConfig, OracleResult, UniquenessReport,
                     oracle_optimize, uniqueness_probe)
from .pipeline import (ProblemFile, SweepRow, dispatch, load_measurement,
                       load_problem, rows_to_csv, save_measurement,
                       save_problem, sweep, sweep_bounds)
from .reductions import ReductionRecord, lift_measurement, reduce_fully
from .solver4d import solve_4d
from .tolerances import DEFAULT_TOL, ToleranceContext

__version__ = "0.1.0"

__all__ = [
    "CertificateFailure", "CertificateZ", "DEFAULT_TOL", "DimensionMismatch",
    "IncompatibleRecord", "InvalidInconclusive", "MeasurementClassTag",
    "NoSolutionFound", "NonConvergence",
    "NotHermitian", "NotPSD", "NotProper", "NotReconstructible",
    "OptimalityReport", "OracleConfig", "OracleResult",
    "PreconditionViolated", "ProbabilityWindow", "ProblemFile",
    "ReductionRecord", "SolverOutcome", "SweepRow",
    "ToleranceContext", "UniquenessReport", "UsdKitError", "UsdMeasurement",
    "UsdNumericsWarning", "WeightedDensityPair", "build_certificate",
    "check_optimality", "classify", "dispatch", "fidelity_window",
    "is_proper", "is_usd", "lift_measurement", "load_measurement",
    "load_problem", "oracle_optimize", "reduce_fully", "rows_to_csv",
    "save_measurement", "save_problem", "single_detection_window",
    "solve_4d", "success_probability", "sweep", "sweep_bounds",
    "try_fidelity_form", "try_single_state_detection", "uniqueness_probe",
]
