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
kept as exact integers.  Only the p = 3 form reads the weighted sums,
and only mod 3, so only their residues mod 3 are computed.
"""

from __future__ import annotations

from collections import namedtuple

from .dynamics import DEFAULT_TABLE_BOUND, IntPolynomial, TableBoundError
from .padic import PadicError

METHOD_P2 = "closed-form-p2"
METHOD_P3 = "closed-form-p3"
METHOD_DELTA = "delta-rule"


def decision_level(prime: int) -> int:
    """Smallest level whose full-cycle check settles minimality."""
    return 3 if prime in (2, 3) else 2


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
# records; a sweep calls the core alone.  The p = 2 and p = 3 cores read
# the exact sums for constant term 1 and the primed sums mod p^2 otherwise.


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


class LiftStep(namedtuple("LiftStep", "length a b kind")):
    """How the cycle that the orbit of 0 enters mod p^n lifts to mod
    p^(n+1) (Fan and Liao 2011).  Above its first point x, f^k moves
    x + p^n z to x + p^n (a z + b) mod p^(n+1), a = (f^k)'(x) mod p, so
    the orbit of 0 at the next level: keeps its k-cycle ("split", b = 0);
    grows into a k*p-cycle ("grow", a = 1); reaches a k-cycle j0 + 1 steps
    later, j0 the first step from x at which f' is 0 mod p ("attract",
    a = 0); or runs round a k*ord(a)-cycle ("partial").  a reads f' mod p
    only, so the next level's a is a^(k'/k): 1 after grow and partial."""

    __slots__ = ()


class OrbitShape(namedtuple("OrbitShape", "tail length base steps")):
    """The orbit of 0 mod p^level: `tail` residues, then a cycle of
    `length` residues from `base` = f^tail(0); steps[n - 1] is the lift
    from level n."""

    __slots__ = ()


def _order(a: int, p: int) -> int:
    r, y = 1, a
    while y != 1:
        r, y = r + 1, y * a % p
    return r


def _orbit_shape(f: IntPolynomial, level: int, *, stop: bool = False) -> OrbitShape | None:
    """Tail and cycle of the orbit of 0 mod p^level, in constant memory:
    Brent's cycle finding mod p, which also stops at the first return to
    0, with the hare carried mod p^level and a = (f^j)'(0) mod p, so that
    a periodic 0 has level 1's lift on its return; with a tail, Brent's
    second phase and a k-step walk from the cycle give it.  Higher lifts
    need no f': split takes no step, grow and partial walk on, attract
    walks k steps from its new base.  This walk decides every full cycle:
    f is one mod p^level exactly when the cycle length is p^level, and a
    full cycle mod p^n lifts to one mod p^(n+1) exactly when the lift is
    "grow".  With stop, the walk ends at the first level with no full
    cycle and returns the shape there; when that is level 1 it returns
    None, with no tail phase."""
    p = f.prime
    modulus = p**level
    fused, ev = f.eval_slope_mod, f.eval_mod
    # the hare stands on f^(power - 1 + length)(0)
    power = length = 1
    tortoise = 0
    x, a = fused(0, modulus)
    entry = None if a else (1, x)
    while (h := x % p) and h != tortoise:
        if power == length:
            tortoise, power, length = h, power * 2, 0
        x, d = fused(x, modulus)
        a = a * d % p
        if not a and entry is None:
            entry = (power + length, x)
        length += 1
    if not h:  # 0 is periodic, and the hare stands on its first return
        tail, length, base = 0, power - 1 + length, 0
    if stop and length < p:  # with a tail, too, the cycle is shorter than p
        return None
    if h:
        # Brent's second phase; the tortoise walks at the full modulus, so
        # it stops on f^tail(0)
        hare = 0
        for _ in range(length):
            hare = ev(hare, p)
        base = tail = 0
        while base % p != hare:
            base, hare, tail = ev(base, modulus), ev(hare, p), tail + 1
    steps = []
    walk = h  # does base start a cycle not walked yet?
    for n in range(1, level):
        if walk:
            x, a, entry = base, 1, None
            for j in range(1, length + 1):
                x, d = fused(x, modulus)
                a = a * d % p
                if not a and entry is None:
                    entry = (j, x)
        # x = f^length(base) mod p^level, and a and entry are its walk's
        q = p**n
        b = (x - base) % (q * p) // q
        step = LiftStep(length, a, b, "split" if b == 0 else "grow" if a == 1
                        else "attract" if a == 0 else "partial")
        steps.append(step)
        walk = step.kind == "attract"
        if walk:
            tail, base = tail + entry[0], entry[1]
        elif step.kind != "split":
            length *= p if step.kind == "grow" else _order(a, p)
            a = 1
        if n == level - 1 or stop and step.kind != "grow":
            break
        for _ in range(length - step.length):
            x = ev(x, modulus)
    return OrbitShape(tail, length, base, tuple(steps))


def _cycle_of_zero(f: IntPolynomial, shape: OrbitShape, table_bound: int) -> tuple[int, ...]:
    """The cycle the orbit of 0 runs into mod p^level, from its first
    residue on, given its shape there (level >= 2).  Its length is known
    before it is built, and table_bound caps it.  One block of k residues
    is walked with (f^i)' mod p, k the cycle length at level - 1; f^k
    moves the block's start y by p^(level-1) z and each later block by the
    next z of z -> a z + b, so its residues are f^i(y) + (f^i)'(y)
    p^(level-1) z mod p^level: one multiply-add each."""
    if shape.length > table_bound:
        raise TableBoundError(
            f"witness cycle of {shape.length} residues exceeds bound {table_bound}")
    p = f.prime
    modulus = p ** (len(shape.steps) + 1)
    q = modulus // p
    fused = f.eval_slope_mod
    last = shape.steps[-1]
    block = last.length
    ys, shifts = [], []
    x, slope = shape.base, 1
    for _ in range(block):
        ys.append(x)
        shifts.append(slope * q)
        x, d = fused(x, modulus)
        slope = slope * d % p
    zs = [0]
    for _ in range(shape.length // block - 1):
        zs.append((last.a * zs[-1] + last.b) % p)
    # column i holds f^i(y) in every block
    cycle = [0] * shape.length
    for i, (y, s) in enumerate(zip(ys, shifts)):
        cycle[i::block] = [(y + s * z) % modulus for z in zs]
    return tuple(cycle)


def full_cycle_by_lifting(f: IntPolynomial, n: int) -> bool:
    """Is f one full cycle mod p^n?  Decided by lifting, with no table:
    one walk of the orbit of 0 that stops at the first broken level.  A
    full cycle at the decision level is one at every level."""
    if n < 1:
        raise PadicError(f"level must be >= 1, got {n}")
    level = min(n, decision_level(f.prime))
    shape = _orbit_shape(f, level, stop=True)
    return shape is not None and shape.length == f.prime**level


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


def _closed_forms(prime: int) -> tuple:
    """(record function, core) of the closed form: minimal_z2 at p = 2,
    minimal_z3 at p = 3, and two Nones at every other prime."""
    if prime == 2:
        return minimal_z2, _z2_core
    if prime == 3:
        return minimal_z3, _z3_core
    return None, None


def closed_form(f: IntPolynomial) -> MinimalityVerdict | None:
    """The closed-form verdict, minimal_z2 at p = 2 and minimal_z3 at
    p = 3; None for every other prime, which has no closed form."""
    record = _closed_forms(f.prime)[0]
    return None if record is None else record(f)


def decide(f: IntPolynomial) -> MinimalityVerdict:
    """Closed form where one exists (p = 2, 3), decision-level check
    otherwise."""
    verdict = closed_form(f)
    if verdict is None:
        verdict = minimal_general(f)
    return verdict
