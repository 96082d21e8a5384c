"""Deciders for minimality of polynomial maps on p-adic integers.

Minimality (every orbit dense) is equivalent to the induced map on
Z/p^nZ being one full cycle at every level n, and a single level
settles it: level 2 for p > 3, level 3 for p in {2, 3}; minimal_general
reads it off the lifting walk of dynamics.  For p = 2 and p = 3 there
are also closed-form coefficient congruences; those run in O(degree)
with no iteration at all.

Congruences are stated on four coefficient sums of f = a0 + a1 x + ...:

    even_sum       sum of a_i, i even, i >= 2
    odd_sum        sum of a_i, i odd
    even_weighted  sum of i * a_i, i even
    odd_weighted   sum of i * a_i, i odd

and their "primed" variants where a_i is replaced by a_i * a0^(i-1),
which is what a unit-rescaling of the constant term does to the
coefficients.  For a0 = 1 the two families coincide and the sums are
kept as exact integers.  Only the p = 3 form reads the weighted sums,
and only mod 3, so only their residues mod 3 are computed.
"""

from __future__ import annotations

from collections import namedtuple

from .dynamics import (DEFAULT_TABLE_BOUND, IntPolynomial, _cycle_of_zero, _orbit_shape,
                       decision_level)
from .padic import PadicError

METHOD_P2 = "closed-form-p2"
METHOD_P3 = "closed-form-p3"
METHOD_DELTA = "delta-rule"


def _primed(c: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The coefficients c, constant term first, with a_i * a0^(i-1) mod m
    in place of a_i for i >= 1; c itself when a0 = 1."""
    a0 = c[0]
    if a0 == 1:
        return c
    return (a0, *(c[i] * pow(a0, i - 1, m) for i in range(1, len(c))))


def _sums(c: tuple[int, ...]) -> tuple[int, int]:
    """(even_sum, odd_sum) of the coefficients c, constant term first, as
    exact integers."""
    return sum(c[2::2]), sum(c[1::2])


def _weighted_mod3(c: tuple[int, ...]) -> tuple[int, int]:
    """(even_weighted, odd_weighted) mod 3 of the coefficients c, constant
    term first.  i mod 3 repeats with period 6 in i: 2, 1, 0 at even i
    = 2, 4, 6 and 1, 0, 2 at odd i = 1, 3, 5."""
    return ((2 * sum(c[2::6]) + sum(c[4::6])) % 3,
            (sum(c[1::6]) + 2 * sum(c[5::6])) % 3)


class ConditionCheck(namedtuple("ConditionCheck", "name residue modulus passed")):
    __slots__ = ()


class MinimalityVerdict(namedtuple(
        "MinimalityVerdict", "minimal method case conditions witness failed_stage",
        defaults=(None, (), None, None))):
    """A verdict and the conditions behind it.  case is the matched case of
    the p = 3 closed form, witness a cycle the orbit of 0 runs into, and
    failed_stage the first congruence level that broke in a staged closed
    form; each is None where it does not apply."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.minimal

    def to_record(self) -> dict:
        """Flat record with frozen field names, ready for JSON."""
        return {
            "minimal": self.minimal,
            "method": self.method,
            "case": self.case,
            "conditions": [
                {"name": c.name, "residue": c.residue, "modulus": c.modulus, "pass": c.passed}
                for c in self.conditions
            ],
            "witness": list(self.witness) if self.witness is not None else None,
            "failed_stage": self.failed_stage,
        }


# Each closed form has one core: it takes the coefficient tuple, constant
# term first (trailing zeros allowed), and returns (minimal, case,
# residues, passed), the residue and outcome of every condition in record
# order.  The public function checks its preconditions and turns that into
# records; a sweep calls the core alone (_CLOSED_FORMS holds both).  The
# p = 2 and p = 3 cores read the exact sums for constant term 1 and the
# primed sums mod p^2 otherwise.


def _verdict(method: str, core: tuple, names: tuple[str, ...],
             moduli: tuple[int, ...], stage: str) -> MinimalityVerdict:
    minimal, case, residues, passed = core
    conditions = tuple(map(ConditionCheck, names, residues, moduli, passed))
    return MinimalityVerdict(minimal, method, case, conditions, None,
                             None if minimal else stage)


_Z2_NAMES = ("a0_unit_mod_2", "a1_odd", "odd_sum_odd", "full_sum_one_mod_4",
             "lift_step_one_mod_4")


def _z2_core(c: tuple[int, ...]) -> tuple:
    a0, a1, a2 = (c + (0, 0))[:3]
    even, odd = _sums(_primed(c, 4))
    residues = (a0 % 2, a1 % 2, odd % 2, (even + odd) % 4,
                (2 * a2 * a0 + a1 * odd) % 4)
    # every condition asks for residue 1
    passed = tuple(r == 1 for r in residues)
    return all(passed), None, residues, passed


def minimal_z2(f: IntPolynomial) -> MinimalityVerdict:
    """Closed-form minimality over the 2-adic integers.

    Four congruences on coefficient sums; the first three decide
    minimality mod 2 and mod 4, the last one settles every higher level.
    """
    if f.prime != 2:
        raise PadicError(f"minimal_z2 needs prime 2, got {f.prime}")
    core = _z2_core(f.coefficients)
    unit, _, _, full, _ = core[2]
    # level 1 needs a0 and the full sum odd, level 2 the first four conditions
    if unit != 1 or full % 2 != 1:
        stage = "level-1"
    else:
        stage = "level-2" if not all(core[3][:4]) else "level-3"
    return _verdict(METHOD_P2, core, _Z2_NAMES, (2, 2, 2, 4, 4), stage)


# (even_weighted, odd_weighted, a1) mod 3 for the four admissible
# derivative patterns, and the case each one selects
_Z3_CASES = {(0, 2, 1): 1, (0, 1, 1): 2, (1, 0, 2): 3, (2, 0, 2): 4}
# the factor of a2 * a0 in each case's correction
_Z3_A2_FACTOR = {1: 3, 2: 6, 3: 6, 4: 3}
_Z3_NAMES = ("a0_unit_mod_3", "even_sum_zero_mod_3", "odd_sum_one_mod_3",
             "even_weighted_mod_3", "odd_weighted_mod_3", "a1_mod_3")


def _z3_core(c: tuple[int, ...]) -> tuple:
    a0, a1, a2 = (c + (0, 0))[:3]
    primed = _primed(c, 9)
    even, odd = _sums(primed)
    pattern = (*_weighted_mod3(primed), a1 % 3)
    case = _Z3_CASES.get(pattern)
    matched = case is not None
    unit, r_even, r_odd = a0 % 3, even % 3, odd % 3
    residues = (unit, r_even, r_odd, *pattern)
    passed = (unit != 0, r_even == 0, r_odd == 1, matched, matched, matched)
    if not matched:
        return False, None, residues, passed
    # shift = the quantity excluded mod 9; correction = the case's
    # second excluded value, built from a2 and a sparse six-step sum
    if case in (1, 3):
        shift = (odd + 5) % 9
        tail = sum(primed[5::6])
    else:
        shift = (even + 6) % 9
        tail = sum(primed[2::6])
    correction = (_Z3_A2_FACTOR[case] * a2 * a0 + 3 * tail) % 9
    gap = (shift - correction) % 9
    passed += (shift != 0, gap != 0)
    return all(passed), case, (*residues, shift, gap), passed


def minimal_z3(f: IntPolynomial) -> MinimalityVerdict:
    """Closed-form minimality over the 3-adic integers.

    Two congruences mod 3 on the plain sums, then the weighted sums and
    a1 must hit one of four residue patterns, and the matched case
    carries two exclusions mod 9.
    """
    if f.prime != 3:
        raise PadicError(f"minimal_z3 needs prime 3, got {f.prime}")
    core = _z3_core(f.coefficients)
    case = core[1]
    names = _Z3_NAMES if case is None else _Z3_NAMES + (
        f"case{case}_shift_nonzero_mod_9", f"case{case}_shift_vs_correction_mod_9")
    # level 1: a0 and the plain sums; level 2: the pattern and the shift
    passed = core[3]
    if not all(passed[:3]):
        stage = "level-1"
    else:
        stage = "level-2" if not all(passed[3:7]) else "level-3"
    return _verdict(METHOD_P3, core, names, (3, 3, 3, 3, 3, 3, 9, 9), stage)


def minimal_general(
    f: IntPolynomial, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> MinimalityVerdict:
    """Minimality for any prime via a full cycle at the decision level
    (3 for p in {2,3}, else 2), decided by lifting.  When there is none,
    the witness is the short cycle the orbit of 0 runs into at that
    level, from the same walk; table_bound caps its length."""
    p = f.prime
    level = decision_level(p)
    shape = _orbit_shape(f, level)
    if shape.length == p**level:
        cond = ConditionCheck("full_cycle_at_decision_level", p**level, p**level, True)
        return MinimalityVerdict(True, METHOD_DELTA, None, (cond,))
    witness = _cycle_of_zero(f, shape, table_bound)
    cond = ConditionCheck("full_cycle_at_decision_level", len(witness), p**level, False)
    return MinimalityVerdict(False, METHOD_DELTA, None, (cond,), witness)


_CLOSED_FORMS = {2: (minimal_z2, _z2_core), 3: (minimal_z3, _z3_core)}


def closed_form(f: IntPolynomial) -> MinimalityVerdict | None:
    """The closed-form verdict, minimal_z2 at p = 2 and minimal_z3 at
    p = 3; None for every other prime, which has no closed form."""
    record = _CLOSED_FORMS.get(f.prime, (None, None))[0]
    return None if record is None else record(f)


def decide(f: IntPolynomial) -> MinimalityVerdict:
    """Closed form where one exists (p = 2, 3), decision-level check
    otherwise."""
    verdict = closed_form(f)
    if verdict is None:
        verdict = minimal_general(f)
    return verdict
