"""Polynomial dynamics on p-adic integers: minimality deciders, cycle
structure of the finite reductions, and conjugacy to the +1 odometer."""

from .padic import PadicError, is_prime
from .dynamics import (
    DEFAULT_TABLE_BOUND,
    CycleDecomposition,
    IntPolynomial,
    NotFullCycleError,
    ReducedMapTable,
    TableBoundError,
    cycle_decomposition,
    decision_level,
    full_cycle_by_lifting,
    is_full_cycle,
    reduced_map_table,
)
from .criteria import (
    ConditionCheck,
    MinimalityVerdict,
    closed_form,
    decide,
    minimal_general,
    minimal_z2,
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
