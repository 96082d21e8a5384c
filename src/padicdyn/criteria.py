"""Deciders for minimality of polynomial maps on p-adic integers.

Minimality (every orbit dense) is equivalent to the induced map on
Z/p^nZ being one full cycle at every level n, and a single level
settles it: level 2 for p > 3, level 3 for p in {2, 3}.  For p = 2 and
p = 3 there are also closed-form coefficient congruences; those run in
O(degree) with no iteration at all.

Congruences are stated on four coefficient sums of f = a0 + a1 x + ...:

    even_sum       sum of a_i, i even, i >= 2
    odd_sum        sum of a_i, i odd
    even_weighted  sum of i * a_i, i even
    odd_weighted   sum of i * a_i, i odd

and their "primed" variants where a_i is replaced by a_i * a0^(i-1),
which is what a unit-rescaling of the constant term does to the
coefficients.  For a0 = 1 the two families coincide and the sums are
kept as exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import (
    DEFAULT_TABLE_BOUND,
    IntPolynomial,
    _check_table_size,
    full_cycle_check,
    is_full_cycle,
)
from .padic import PadicError

METHOD_P2 = "closed-form-p2"
METHOD_P2_LARIN = "closed-form-p2-larin"
METHOD_P3 = "closed-form-p3"
METHOD_P3_DEG5 = "closed-form-p3-deg5"
METHOD_DELTA = "delta-rule"


def decision_level(prime: int) -> int:
    """Smallest level whose full-cycle check settles minimality."""
    return 3 if prime in (2, 3) else 2


@dataclass(frozen=True)
class CoefficientSums:
    even_sum: int
    odd_sum: int
    even_weighted: int
    odd_weighted: int
    primed: bool
    # modulus exponent the primed sums are reduced at; None for exact sums
    precision: int | None = None


def coefficient_sums(
    f: IntPolynomial, *, primed: bool = False, precision: int = 2
) -> CoefficientSums:
    if not primed:
        a0_sums = [0, 0, 0, 0]
        for i in range(1, f.degree + 1):
            c = f.coefficient(i)
            if i % 2 == 0:
                a0_sums[0] += c
                a0_sums[2] += i * c
            else:
                a0_sums[1] += c
                a0_sums[3] += i * c
        return CoefficientSums(*a0_sums, primed=False)
    m = f.prime**precision
    a0 = f.coefficient(0)
    sums = [0, 0, 0, 0]
    for i in range(1, f.degree + 1):
        t = f.coefficient(i) * pow(a0, i - 1, m)
        if i % 2 == 0:
            sums[0] = (sums[0] + t) % m
            sums[2] = (sums[2] + i * t) % m
        else:
            sums[1] = (sums[1] + t) % m
            sums[3] = (sums[3] + i * t) % m
    return CoefficientSums(*sums, primed=True, precision=precision)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residue: int
    modulus: int
    passed: bool


@dataclass(frozen=True)
class MinimalityVerdict:
    minimal: bool
    method: str
    case: int | None = None
    conditions: tuple[ConditionCheck, ...] = ()
    witness: tuple[int, ...] | None = None
    # for the staged closed forms: first congruence level that broke
    failed_stage: str | None = None

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


def _sums_for(f: IntPolynomial) -> CoefficientSums:
    # exact integers when no rescaling is needed, residues mod p^2 otherwise
    if f.coefficient(0) == 1:
        return coefficient_sums(f)
    return coefficient_sums(f, primed=True, precision=2)


def minimal_z2(f: IntPolynomial) -> MinimalityVerdict:
    """Closed-form minimality over the 2-adic integers.

    Four congruences on coefficient sums; the first three decide
    minimality mod 2 and mod 4, the last one settles every higher level.
    """
    if f.prime != 2:
        raise PadicError(f"minimal_z2 needs prime 2, got {f.prime}")
    a0 = f.coefficient(0)
    a1 = f.coefficient(1)
    a2 = f.coefficient(2)
    s = _sums_for(f)
    unit_ok = a0 % 2 == 1
    c1 = a1 % 2
    c2 = s.odd_sum % 2
    c3 = (s.even_sum + s.odd_sum) % 4
    c4 = (2 * a2 * a0 + a1 * s.odd_sum) % 4
    conditions = (
        ConditionCheck("a0_unit_mod_2", a0 % 2, 2, unit_ok),
        ConditionCheck("a1_odd", c1, 2, c1 == 1),
        ConditionCheck("odd_sum_odd", c2, 2, c2 == 1),
        ConditionCheck("full_sum_one_mod_4", c3, 4, c3 == 1),
        ConditionCheck("lift_step_one_mod_4", c4, 4, c4 == 1),
    )
    minimal = all(c.passed for c in conditions)
    stage = None
    if not minimal:
        if not unit_ok or c3 % 2 != 1:
            stage = "level-1"
        elif c1 != 1 or c2 != 1 or c3 != 1:
            stage = "level-2"
        else:
            stage = "level-3"
    return MinimalityVerdict(minimal, METHOD_P2, None, conditions, None, stage)


def minimal_z2_larin_form(f: IntPolynomial) -> MinimalityVerdict:
    """Equivalent rephrasing of the p = 2 criterion (Larin's shape),
    restricted to constant term 1.  Must agree with minimal_z2."""
    if f.prime != 2:
        raise PadicError(f"minimal_z2_larin_form needs prime 2, got {f.prime}")
    if f.coefficient(0) != 1:
        raise PadicError("larin form assumes constant term 1")
    a1 = f.coefficient(1)
    a2 = f.coefficient(2)
    s = coefficient_sums(f)
    c1 = a1 % 2
    c2 = (s.odd_sum - a1 - 2 * a2) % 4
    c3 = (s.even_sum - a2 - (a1 + a2 - 1)) % 4
    conditions = (
        ConditionCheck("a1_odd", c1, 2, c1 == 1),
        ConditionCheck("odd_sum_gap_zero_mod_4", c2, 4, c2 == 0),
        ConditionCheck("even_sum_gap_zero_mod_4", c3, 4, c3 == 0),
    )
    minimal = all(c.passed for c in conditions)
    return MinimalityVerdict(minimal, METHOD_P2_LARIN, None, conditions)


# (even_weighted, odd_weighted, a1) mod 3 for the four admissible
# derivative patterns, in fixed case order 1..4
_Z3_PATTERNS = ((0, 2, 1), (0, 1, 1), (1, 0, 2), (2, 0, 2))


def _six_step_sum(f: IntPolynomial, first: int, m: int) -> int:
    # sum of a_i * a0^(i-1) over i = first, first+6, ... up to the degree
    a0 = f.coefficient(0)
    total = 0
    for i in range(first, f.degree + 1, 6):
        total = (total + f.coefficient(i) * pow(a0, i - 1, m)) % m
    return total


def minimal_z3(f: IntPolynomial) -> MinimalityVerdict:
    """Closed-form minimality over the 3-adic integers.

    Two congruences mod 3 on the plain sums, then the weighted sums and
    a1 must hit one of four residue patterns, and the matched case
    carries two exclusions mod 9.
    """
    if f.prime != 3:
        raise PadicError(f"minimal_z3 needs prime 3, got {f.prime}")
    a0 = f.coefficient(0)
    a1 = f.coefficient(1)
    a2 = f.coefficient(2)
    s = _sums_for(f)
    unit_ok = a0 % 3 != 0
    r_even = s.even_sum % 3
    r_odd = s.odd_sum % 3
    conditions = [
        ConditionCheck("a0_unit_mod_3", a0 % 3, 3, unit_ok),
        ConditionCheck("even_sum_zero_mod_3", r_even, 3, r_even == 0),
        ConditionCheck("odd_sum_one_mod_3", r_odd, 3, r_odd == 1),
    ]
    level1 = unit_ok and r_even == 0 and r_odd == 1

    pattern = (s.even_weighted % 3, s.odd_weighted % 3, a1 % 3)
    case = _Z3_PATTERNS.index(pattern) + 1 if pattern in _Z3_PATTERNS else None
    matched = case is not None
    conditions += [
        ConditionCheck("even_weighted_mod_3", pattern[0], 3, matched),
        ConditionCheck("odd_weighted_mod_3", pattern[1], 3, matched),
        ConditionCheck("a1_mod_3", pattern[2], 3, matched),
    ]

    if not matched:
        stage = "level-1" if not level1 else "level-2"
        return MinimalityVerdict(False, METHOD_P3, None, tuple(conditions), None, stage)

    # shift = the quantity excluded mod 9; correction = the case's
    # second excluded value, built from a2 and a sparse six-step sum
    if case in (1, 3):
        shift = (s.odd_sum + 5) % 9
        tail = _six_step_sum(f, 5, 9)
    else:
        shift = (s.even_sum + 6) % 9
        tail = _six_step_sum(f, 2, 9)
    a2w = (a2 * a0) % 9
    if case == 1:
        correction = (3 * a2w + 3 * tail) % 9
    elif case == 2:
        correction = (6 * a2w + 3 * tail) % 9
    elif case == 3:
        correction = (6 * a2w + 3 * tail) % 9
    else:
        correction = (3 * a2w + 3 * tail) % 9
    gap = (shift - correction) % 9
    first_ok = shift != 0
    second_ok = gap != 0
    conditions += [
        ConditionCheck(f"case{case}_shift_nonzero_mod_9", shift, 9, first_ok),
        ConditionCheck(f"case{case}_shift_vs_correction_mod_9", gap, 9, second_ok),
    ]
    minimal = level1 and first_ok and second_ok
    stage = None
    if not minimal:
        if not level1:
            stage = "level-1"
        elif not first_ok:
            stage = "level-2"
        else:
            stage = "level-3"
    return MinimalityVerdict(minimal, METHOD_P3, case, tuple(conditions), None, stage)


# degree-5 patterns: (a1..a5) mod 3 per case, and which sum is pinned
_DEG5_PATTERNS = {
    1: (1, 0, 1, 0, 2),
    2: (1, 0, 0, 0, 0),
    3: (2, 1, 0, 2, 2),
    4: (2, 2, 0, 1, 2),
}


def minimal_degree5_z3(f: IntPolynomial) -> MinimalityVerdict:
    """Resolved form of the 3-adic criterion for constant term 1 and
    degree at most 5: a residue pattern mod 3 on (a1..a5) plus one sum
    congruence mod 9 per case.  Absent coefficients count as zero.
    """
    if f.prime != 3:
        raise PadicError(f"minimal_degree5_z3 needs prime 3, got {f.prime}")
    if f.coefficient(0) != 1:
        raise PadicError("degree-5 form assumes constant term 1")
    if f.degree > 5:
        raise PadicError(f"degree {f.degree} exceeds 5")
    a = [f.coefficient(i) for i in range(6)]
    residues = tuple(a[i] % 3 for i in range(1, 6))
    case = None
    for k, pat in _DEG5_PATTERNS.items():
        if residues == pat:
            case = k
            break
    conditions = [
        ConditionCheck(f"a{i}_mod_3", residues[i - 1], 3, case is not None)
        for i in range(1, 6)
    ]
    if case is None:
        return MinimalityVerdict(False, METHOD_P3_DEG5, None, tuple(conditions),
                                 None, "level-2")
    odd_slots = (a[1] + a[3] + a[5]) % 9
    even_slots = (a[2] + a[4]) % 9
    if case == 1:
        ok = odd_slots == 7
        conditions.append(ConditionCheck("a1_a3_a5_sum_mod_9", odd_slots, 9, ok))
    elif case == 2:
        ok = even_slots in (0, 6)
        conditions.append(ConditionCheck("a2_a4_sum_mod_9", even_slots, 9, ok))
    elif case == 3:
        # target 1, not 7: forced by the exhaustive mod-27 cross-check
        # in the acceptance suite (one published table differs and loses
        # against brute force on 162 of 243 pattern tuples)
        ok = odd_slots == 1
        conditions.append(ConditionCheck("a1_a3_a5_sum_mod_9", odd_slots, 9, ok))
    else:
        ok = even_slots == 0
        conditions.append(ConditionCheck("a2_a4_sum_mod_9", even_slots, 9, ok))
    stage = None if ok else "level-3"
    return MinimalityVerdict(ok, METHOD_P3_DEG5, case, tuple(conditions), None, stage)


def _cycle_from_zero(f: IntPolynomial, n: int, table_bound: int) -> tuple[int, ...]:
    """The eventual cycle reached from 0 under f mod p^n."""
    # the walk may hold every residue, so it is bounded like a table
    size = _check_table_size(f.prime, n, table_bound)
    seen_at: dict[int, int] = {}
    order: list[int] = []
    x = 0
    while x not in seen_at:
        seen_at[x] = len(order)
        order.append(x)
        x = f.eval_mod(x, size)
    return tuple(order[seen_at[x]:])


def minimal_general(
    f: IntPolynomial, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> MinimalityVerdict:
    """Minimality for any prime via one full-cycle check at the decision
    level (3 for p in {2,3}, else 2).  When the check fails, the witness
    is the short cycle the orbit of 0 runs into at that level."""
    p = f.prime
    level = decision_level(p)
    report = full_cycle_check(f, level, table_bound=table_bound)
    if report.full_cycle:
        cond = ConditionCheck("full_cycle_at_decision_level", p**level, p**level, True)
        return MinimalityVerdict(True, METHOD_DELTA, None, (cond,))
    witness = _cycle_from_zero(f, level, table_bound)
    cond = ConditionCheck("full_cycle_at_decision_level", len(witness), p**level, False)
    return MinimalityVerdict(False, METHOD_DELTA, None, (cond,), witness)


def closed_form(f: IntPolynomial) -> MinimalityVerdict | None:
    """The closed-form verdict, minimal_z2 at p = 2 and minimal_z3 at
    p = 3; None for every other prime, which has no closed form."""
    if f.prime == 2:
        return minimal_z2(f)
    if f.prime == 3:
        return minimal_z3(f)
    return None


def decide(
    f: IntPolynomial, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> MinimalityVerdict:
    """Closed form where one exists (p = 2, 3), decision-level check
    otherwise."""
    verdict = closed_form(f)
    if verdict is None:
        verdict = minimal_general(f, table_bound=table_bound)
    return verdict


@dataclass(frozen=True)
class CrossValidationReport:
    prime: int
    coefficients: tuple[int, ...]
    verdict: MinimalityVerdict
    levels_checked: tuple[int, ...]
    full_cycle_by_level: tuple[bool, ...]
    consistent: bool
    detail: str | None = None


def cross_validate(
    f: IntPolynomial, n_max: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> CrossValidationReport:
    """Compare the coefficient-level verdict against explicit full-cycle
    checks at levels 1..n_max.

    minimal means a full cycle at every level; non-minimal means the
    full cycle breaks at some level at or below the decision level, so
    the checked range is extended that far when needed.
    """
    if n_max < 1:
        raise PadicError(f"n_max must be >= 1, got {n_max}")
    verdict = decide(f, table_bound=table_bound)
    top = n_max if verdict.minimal else max(n_max, decision_level(f.prime))
    levels = tuple(range(1, top + 1))
    flags = tuple(is_full_cycle(f, n, table_bound=table_bound) for n in levels)

    detail = None
    # full-cycle structure can only be lost going up, never regained
    monotone = all(flags[i] or not flags[i + 1] for i in range(len(flags) - 1))
    if not monotone:
        detail = "full-cycle flags are not downward-closed across levels"
        consistent = False
    elif verdict.minimal:
        consistent = all(flags)
        if not consistent:
            detail = f"verdict minimal but level {flags.index(False) + 1} has no full cycle"
    else:
        delta = decision_level(f.prime)
        consistent = not all(flags[:delta])
        if not consistent:
            detail = f"verdict non-minimal but levels 1..{delta} are all full cycles"
    return CrossValidationReport(
        prime=f.prime,
        coefficients=f.coefficients,
        verdict=verdict,
        levels_checked=levels,
        full_cycle_by_level=flags,
        consistent=consistent,
        detail=detail,
    )
