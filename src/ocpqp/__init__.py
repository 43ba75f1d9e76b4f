"""Structured augmented-Lagrangian QP solver for linear-quadratic optimal control."""

from .alm import SolveReport, Solver, SolverSettings, solve
from .bench import SpringMassConfig, gen_random_ocp, gen_spring_mass
from .compact import CompactBatch, NonPositivePivot
from .kkt import StructureMismatch
from .model import (
    OcpDims,
    OcpProblem,
    ValidationReport,
    load_problem,
    mul_G,
    mul_GT,
    mul_M,
    mul_MT,
    mul_Q,
    save_problem,
    validate,
)

__version__ = "0.1.0"
__all__ = [
    "CompactBatch",
    "NonPositivePivot",
    "StructureMismatch",
    "OcpDims",
    "OcpProblem",
    "ValidationReport",
    "load_problem",
    "save_problem",
    "mul_M",
    "mul_MT",
    "mul_G",
    "mul_GT",
    "mul_Q",
    "validate",
    "SolveReport",
    "Solver",
    "SolverSettings",
    "solve",
    "SpringMassConfig",
    "gen_random_ocp",
    "gen_spring_mass",
]
