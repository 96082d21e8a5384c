"""Deciders for minimality of polynomial maps on p-adic integers.

Minimality (every orbit dense) is equivalent to the induced map on
Z/p^nZ being one full cycle at every level n, and a single level
settles it: level 2 for p > 3, level 3 for p in {2, 3}; minimal_general
reads it off the lifting walk of dynamics.  For p = 2 and p = 3 there
are also closed-form coefficient congruences; those run in O(degree)
with no iteration at all.  At p >= 5 the maps = x + c mod p (a1 = 1 and
a_i = 0 mod p for i >= 2) have one congruence too (_class_core), which
minimal_general reads before it walks: a minimal verdict from it takes
no walk, and any other verdict walks for its witness.

Both congruences read a0, a1, a2 and six class sums of f = a0 + a1 x +
..., mod p^2 (_class_sums): S_r is the sum of a_i a0^(i-1) over i >= 1,
i = r mod 6, the coefficients a unit-rescaling of the constant term to
1 gives.  Every sum a form reads is linear in them:

    even_sum       S_0 + S_2 + S_4    of a_i a0^(i-1) over even i >= 2
    odd_sum        S_1 + S_3 + S_5    over odd i
    even_weighted  2 S_2 + S_4 mod 3  of i a_i a0^(i-1) over even i
    odd_weighted   S_1 + 2 S_5 mod 3  over odd i

as i mod 3 is 2, 1, 0 at i = 2, 4, 6 and 1, 0, 2 at i = 1, 3, 5 and
repeats with period 6.  The p = 3 form also reads the six-step tails
S_5 and S_2; the p = 2 form, even_sum and odd_sum mod 4.
"""

from __future__ import annotations

from collections import namedtuple

from .dynamics import (DEFAULT_TABLE_BOUND, IntPolynomial, _cycle_of_zero, _orbit_shape,
                       decision_level)
from .padic import PadicError

METHOD_P2 = "closed-form-p2"
METHOD_P3 = "closed-form-p3"
METHOD_DELTA = "delta-rule"


def _class_sums(c: tuple[int, ...], m: int) -> list[int]:
    """[S_0, .., S_5] mod m (module docstring) of c, constant term first."""
    sums, power = [0] * 6, 1
    for i in range(1, len(c)):
        sums[i % 6] += c[i] * power
        power = power * c[0] % m
    return [s % m for s in sums]


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


# Each closed form has one core: it takes a0, a1, a2 and the class sums
# mod p^2 and returns (minimal, case, residues, passed), the residue and
# outcome of every condition in record order.  The public function checks
# its preconditions, sums the coefficients (_closed) and turns that into
# records; a sweep steps the sums itself and calls the core alone
# (_CLOSED_FORMS holds both).


def _closed(core, c: tuple[int, ...], p: int) -> tuple:
    return core(*(c + (0, 0))[:3], _class_sums(c, p * p))


def _verdict(method: str, core: tuple, names: tuple[str, ...],
             moduli: tuple[int, ...], stage: str) -> MinimalityVerdict:
    minimal, case, residues, passed = core
    conditions = tuple(map(ConditionCheck, names, residues, moduli, passed))
    return MinimalityVerdict(minimal, method, case, conditions, None,
                             None if minimal else stage)


_Z2_NAMES = ("a0_unit_mod_2", "a1_odd", "odd_sum_odd", "full_sum_one_mod_4",
             "lift_step_one_mod_4")


def _z2_core(a0: int, a1: int, a2: int, s: list[int]) -> tuple:
    even, odd = s[0] + s[2] + s[4], s[1] + s[3] + s[5]
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
    core = _closed(_z2_core, f.coefficients, 2)
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


def _z3_core(a0: int, a1: int, a2: int, s: list[int]) -> tuple:
    even, odd = s[0] + s[2] + s[4], s[1] + s[3] + s[5]
    pattern = ((2 * s[2] + s[4]) % 3, (s[1] + 2 * s[5]) % 3, a1 % 3)
    case = _Z3_CASES.get(pattern)
    matched = case is not None
    unit, r_even, r_odd = a0 % 3, even % 3, odd % 3
    residues = (unit, r_even, r_odd, *pattern)
    passed = (unit != 0, r_even == 0, r_odd == 1, matched, matched, matched)
    if not matched:
        return False, None, residues, passed
    # shift = the quantity excluded mod 9; correction = the case's
    # second excluded value, built from a2 and a six-step tail
    if case in (1, 3):
        shift = (odd + 5) % 9
        tail = s[5]
    else:
        shift = (even + 6) % 9
        tail = s[2]
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
    core = _closed(_z3_core, f.coefficients, 3)
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


def _class_core(c: tuple[int, ...], p: int) -> bool | None:
    """The verdict of f = a0 + a1 x + ... (c, constant term first) at a
    prime p >= 5 when a1 = 1 and a_i = 0 mod p for every i >= 2; None for
    any other map.  f is minimal exactly when a0 != 0 and
    a0 - sum(a_i / p) != 0 mod p, the sum over i >= 2 with (p - 1) | i.

    Write f = x + a0 + p g(x), g with integer coefficients.  f' = 1 mod p,
    so the orbit of 0 mod p is x_j = j a0: a full cycle exactly when
    a0 != 0, and then its lift (dynamics.LiftStep) has a = (f^p)'(0) = 1
    mod p and b = f^p(0) / p mod p.  f^p(0) is the sum of f(x_j) - x_j =
    a0 + p g(x_j) over j < p, and x_j runs over every residue mod p, so
    b = a0 + sum g(x) over x mod p.  The sum of x^i over x mod p is -1
    mod p when i >= 1 and (p - 1) | i, else 0; (p - 1) | 1 fails for
    p > 2, so the x term of g drops out and b = a0 - sum(a_i / p).  The
    cycle grows into a full cycle mod p^2, the decision level, exactly
    when b != 0.
    """
    if len(c) < 2 or c[1] % p != 1 or any(a % p for a in c[2:]):
        return None
    return c[0] % p != 0 and (c[0] - sum(c[p - 1::p - 1]) // p) % p != 0


def minimal_general(
    f: IntPolynomial, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> MinimalityVerdict:
    """Minimality for any prime via a full cycle at the decision level
    (3 for p in {2,3}, else 2), decided by lifting; at p >= 5 a map
    = x + c mod p that _class_core finds minimal takes no walk.  When
    there is no full cycle, the witness is the short cycle the orbit of
    0 runs into at that level, from the same walk; table_bound caps its
    length."""
    p = f.prime
    level = decision_level(p)
    size = p**level
    if not (p > 3 and _class_core(f.coefficients, p)):
        shape = _orbit_shape(f, level)
        if shape.length != size:
            witness = _cycle_of_zero(f, shape, table_bound)
            cond = ConditionCheck("full_cycle_at_decision_level", len(witness), size, False)
            return MinimalityVerdict(False, METHOD_DELTA, None, (cond,), witness)
    cond = ConditionCheck("full_cycle_at_decision_level", size, size, True)
    return MinimalityVerdict(True, METHOD_DELTA, None, (cond,))


_CLOSED_FORMS = {2: (minimal_z2, _z2_core), 3: (minimal_z3, _z3_core)}


def closed_form(f: IntPolynomial) -> MinimalityVerdict | None:
    """The closed-form verdict, minimal_z2 at p = 2 and minimal_z3 at
    p = 3; None for every other prime, which has no closed form."""
    record = _CLOSED_FORMS.get(f.prime, (None, None))[0]
    return None if record is None else record(f)


def decide(f: IntPolynomial) -> MinimalityVerdict:
    """Closed form where one exists (p = 2, 3), decision-level check
    otherwise; that check answers a minimal map = x + c mod p at p >= 5
    from its coefficients."""
    verdict = closed_form(f)
    if verdict is None:
        verdict = minimal_general(f)
    return verdict
