"""Polynomial dynamics on p-adic integers: minimality deciders, cycle
structure of the finite reductions, and conjugacy to the +1 odometer."""

from .padic import (
    MAX_PRECISION,
    NonUnitError,
    PadicApprox,
    PadicError,
    PrecisionError,
    ValuationResult,
    canonicalize,
    is_prime,
)
from .dynamics import (
    DEFAULT_TABLE_BOUND,
    BijectivityReport,
    CycleDecomposition,
    FullCycleReport,
    IntPolynomial,
    LiftReport,
    NotFullCycleError,
    NotPeriodicError,
    ReducedMapTable,
    TableBoundError,
    TaylorData,
    cycle_decomposition,
    derivative,
    full_cycle_check,
    is_bijective_mod,
    is_full_cycle,
    lift_check,
    normalize_unit_constant,
    reduced_map_table,
    taylor_data,
)
from .criteria import (
    CoefficientSums,
    ConditionCheck,
    CrossValidationReport,
    MinimalityVerdict,
    closed_form,
    coefficient_sums,
    cross_validate,
    decide,
    decision_level,
    minimal_degree5_z3,
    minimal_general,
    minimal_z2,
    minimal_z2_larin_form,
    minimal_z3,
)
from .odometer import (
    ConjugacyTable,
    TowerReport,
    build_psi,
    full_cycle_stream,
    verify_conjugacy_tower,
)
from .sweep import DEFAULT_WORK_BUDGET, SweepConfig, SweepReport, run_sweep

__version__ = "0.1.0"
