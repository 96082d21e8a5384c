"""The public records are named tuples: their fields in order, their
defaults, a pickle round trip (the sweep sends its config to pool
workers) and no attribute assignment.  And the import behind every CLI
start loads none of the modules that only some runs use."""

import os
import pickle
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from padicdyn import (
    ConditionCheck,
    ConjugacyTable,
    CycleDecomposition,
    MinimalityVerdict,
    ReducedMapTable,
    SweepConfig,
    SweepReport,
    TowerReport,
)
from padicdyn import dynamics, odometer
from padicdyn.dynamics import IntPolynomial, LiftStep, OrbitShape
from padicdyn.sweep import DEFAULT_WORK_BUDGET

SRC = Path(__file__).resolve().parent.parent / "src"

RECORDS = [
    (ReducedMapTable, ("prime", "level", "entries"), (3, 1, array("I", [1, 2, 0]))),
    (CycleDecomposition, ("prime", "level", "bijective", "cycles", "non_periodic_count"),
     (3, 1, True, ((0, 1, 2),), 0)),
    (ConjugacyTable, ("prime", "level", "orbit_index", "orbit_point"),
     (3, 1, array("I", [0, 1, 2]), array("I", [0, 1, 2]))),
    (TowerReport, ("prime", "n_max"), (3, 3)),
    (SweepConfig, ("prime", "degree", "bound", "a0", "n_max", "work_budget", "samples",
                   "seed", "workers"), (3, 2, 4, 2, 4, 100, 10, 7, 2)),
    (SweepReport, ("total", "agree_minimal", "agree_nonminimal", "disagreements",
                   "first_counterexample", "first_routes", "sampled"),
     (9, 3, 5, 1, (1, 2, 0), {"closed": True, "delta": False}, False)),
    (ConditionCheck, ("name", "residue", "modulus", "passed"), ("a1_odd", 1, 2, True)),
    (MinimalityVerdict, ("minimal", "method", "case", "conditions", "witness",
                         "failed_stage"),
     (False, "closed-form-p3", 1, (ConditionCheck("a1_odd", 0, 3, False),), (0, 1),
      "level-2")),
    (LiftStep, ("length", "a", "b", "kind"), (3, 1, 2, "grow")),
    (OrbitShape, ("tail", "length", "base", "steps"), (0, 9, 0, (LiftStep(3, 1, 2, "grow"),))),
]


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecords:
    def test_field_order(self, cls, fields, values):
        record = cls(*values)
        assert cls._fields == fields
        assert tuple(record) == values
        assert [getattr(record, name) for name in fields] == list(values)
        assert record == cls(**dict(zip(fields, values)))

    def test_pickle_round_trip(self, cls, fields, values):
        record = cls(*values)
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls and back == record

    def test_attributes_cannot_be_assigned(self, cls, fields, values):
        record = cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], values[0])
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_replace_keeps_the_class(self, cls, fields, values):
        record = cls(*values)._replace(**{fields[-1]: None})
        assert type(record) is cls and record[-1] is None


@pytest.mark.parametrize("module,name,field,value", [
    (dynamics, "reduced_map_table", "entries", array("I", [1, 2, 3, 4, 5, 6, 7, 8, 0])),
    (odometer, "verify_conjugacy_tower", "n_max", 2),
])
def test_what_the_benchmark_tracer_reads(module, name, field, value):
    # the tracer wraps the public functions each module defines, finds
    # these two by name and reads one field of each result
    fn = vars(module)[name]
    assert callable(fn) and not isinstance(fn, type) and fn.__module__ == module.__name__
    assert getattr(fn(IntPolynomial(3, (1, 1)), 2), field) == value


def test_sweep_config_defaults():
    cfg = SweepConfig(5, 3, 4)
    assert cfg == (5, 3, 4, 1, None, DEFAULT_WORK_BUDGET, None, 0, 1)
    assert cfg.resolved_n_max() == 2
    assert cfg._replace(n_max=4).resolved_n_max() == 4


def test_verdict_defaults_and_truth():
    v = MinimalityVerdict(True, "delta-rule")
    assert v[2:] == (None, (), None, None)
    assert v and not MinimalityVerdict(False, "delta-rule")


def test_cli_import_loads_no_optional_module():
    # -S: no site packages, so only what padicdyn.cli imports is loaded
    code = ("import sys, padicdyn.cli; print(' '.join(sorted(m for m in ("
            "'dataclasses', 'inspect', 'typing', 'random', 'concurrent.futures', "
            "'multiprocessing') if m in sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
