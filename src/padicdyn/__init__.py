"""Polynomial dynamics on p-adic integers: minimality deciders, cycle
structure of the finite reductions, and conjugacy to the +1 odometer."""

from .padic import PadicError, PrecisionError, is_prime
from .dynamics import (
    DEFAULT_TABLE_BOUND,
    CycleDecomposition,
    IntPolynomial,
    NotFullCycleError,
    ReducedMapTable,
    TableBoundError,
    cycle_decomposition,
    is_full_cycle,
    reduced_map_table,
)
from .criteria import (
    CoefficientSums,
    ConditionCheck,
    MinimalityVerdict,
    closed_form,
    coefficient_sums,
    decide,
    decision_level,
    full_cycle_by_lifting,
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
