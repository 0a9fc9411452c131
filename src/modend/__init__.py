"""modend: exact module-(co)end computations over skeletal fusion categories.

The package represents multiplicity-free fusion categories, their module
categories and module functors by exact structure constants over a number
field, assembles the balancing conditions of module ends and coends as
finite linear systems, and verifies the structural theorems of the theory
(naturality spaces, Peter-Weyl, the relative Serre functor, the double-dual
equivalence, adjoint shifts) on a bundled instance corpus.
"""

from .common import (InconsistentRigidity, NotATensorSubcategory, OracleMismatch,
                     ParseError, SerreCertificateFailure, SourceTargetMismatch,
                     UnknownCommand, UnknownLabel, UnknownName, UpsilonMismatch,
                     ValidationError, ValidationReport)
from .scalarfield import (DimensionMismatch, DivisionByZero, FieldElement,
                          FieldSpec, Matrix, ZeroDivisorDetected, subspace_equal)
from .fusioncat import FusionCategorySpec, compute_duality, validate_fusion
from .modcat import (InternalHomTable, ModuleCategorySpec, internal_hom,
                     opposite_module, regular_module, restrict_module,
                     validate_module)
from .modfunct import (ModuleFunctorSpec, act_right_functor, compose_functors,
                       identity_functor, validate_functor)
from .endengine import (Condition, DinaturalSystem, EndResult,
                        build_character_probe_system, build_hom_coend_system,
                        build_nat_system, build_serre_probe_system,
                        build_upsilon_probe_system, composite_nat_conditions,
                        nat_oracle_system, restrict_conditions, solve_coend,
                        solve_end)
from .theorems import (AdjointShiftResult, NatResult, SerreResult,
                       adjoint_shift_check, hom_lemma_suite, internal_character,
                       nat_m_dim, serre_functor, upsilon_regular)
from .cli import InstanceBundle, Report, load, run

__all__ = [
    "InconsistentRigidity", "NotATensorSubcategory", "OracleMismatch", "ParseError",
    "SerreCertificateFailure", "SourceTargetMismatch", "UnknownCommand", "UnknownLabel",
    "UnknownName", "UpsilonMismatch", "ValidationError", "ValidationReport",
    "DimensionMismatch", "DivisionByZero", "FieldElement", "FieldSpec", "Matrix",
    "ZeroDivisorDetected", "subspace_equal",
    "FusionCategorySpec", "compute_duality", "validate_fusion",
    "InternalHomTable", "ModuleCategorySpec", "internal_hom", "opposite_module",
    "regular_module", "restrict_module", "validate_module",
    "ModuleFunctorSpec", "act_right_functor", "compose_functors", "identity_functor",
    "validate_functor",
    "Condition", "DinaturalSystem", "EndResult", "build_character_probe_system",
    "build_hom_coend_system", "build_nat_system", "build_serre_probe_system",
    "build_upsilon_probe_system", "composite_nat_conditions", "nat_oracle_system",
    "restrict_conditions", "solve_coend", "solve_end",
    "AdjointShiftResult", "NatResult", "SerreResult", "adjoint_shift_check",
    "hom_lemma_suite", "internal_character", "nat_m_dim", "serre_functor",
    "upsilon_regular",
    "InstanceBundle", "Report", "load", "run",
]
__version__ = "0.1.0"
