import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import criteria, dynamics
from padicdyn.criteria import (
    METHOD_DELTA,
    METHOD_P2,
    METHOD_P3,
    closed_form,
    decide,
    minimal_general,
    minimal_z2,
    minimal_z3,
)
from padicdyn.dynamics import (
    DEFAULT_TABLE_BOUND,
    IntPolynomial,
    TableBoundError,
    _orbit_shape,
    decision_level,
    full_cycle_by_lifting,
    is_full_cycle,
)
from padicdyn.odometer import verify_conjugacy_tower
from padicdyn.padic import PadicError

import oracles
from oracles import cross_validate

W2 = IntPolynomial(2, (1, 3, 0, 2))
W3 = IntPolynomial(3, (1, 4, 0, 4, 0, 2))
Q3 = IntPolynomial(3, (1, 1, 6))


def tails(prime, degree, max_coeff):
    return st.lists(
        st.integers(0, max_coeff), min_size=degree, max_size=degree
    ).filter(lambda t: any(c != 0 for c in t)).map(
        lambda t: IntPolynomial(prime, (1, *t))
    )


class TestDecisionLevel:
    def test_values(self):
        assert decision_level(2) == 3
        assert decision_level(3) == 3
        assert decision_level(5) == 2
        assert decision_level(101) == 2


def _core(core, c, prime):
    """The verdict of a closed-form core, read as a sweep reads it: from
    a0, a1, a2 and the class sums mod p^2 of c."""
    return core(*(c + (0, 0))[:3], criteria._class_sums(c, prime**2))[0]


def _read(s, m):
    # (even_sum, odd_sum) mod m and (even_weighted, odd_weighted) mod 3,
    # read from the class sums as the module docstring sets out
    return ((s[0] + s[2] + s[4]) % m, (s[1] + s[3] + s[5]) % m,
            (2 * s[2] + s[4]) % 3, (s[1] + 2 * s[5]) % 3)


class TestCoefficientSums:
    # S_r = sum of a_i a0^(i-1) over i >= 1, i = r mod 6, reduced mod m,
    # and the sums the forms read, each linear in them
    def test_frozen(self):
        assert criteria._class_sums(W3.coefficients, 9) == [0, 4, 0, 4, 0, 2]
        assert _read(criteria._class_sums(W3.coefficients, 9), 9) == (0, 10 % 9, 0, 26 % 3)
        assert criteria._class_sums(W2.coefficients, 4) == [0, 3, 0, 2, 0, 0]
        assert _read(criteria._class_sums(W2.coefficients, 4), 4)[:2] == (0, 5 % 4)
        assert criteria._class_sums((-2, 1, 1, 1, 1, 1, 1, 1), 9) == [
            (-2) ** 5 % 9, (1 + (-2) ** 6) % 9, -2 % 9, 4, -8 % 9, 16 % 9]

    def test_primed_reduces_to_plain_for_unit_constant_one(self):
        # at a0 = 1 every weight a0^(i-1) is 1: S_r sums the a_i themselves
        for c in (Q3.coefficients, W3.coefficients, (1, 5, -7, 2, 8, 3, 1, 4)):
            plain = [sum(a for i, a in enumerate(c) if i >= 1 and i % 6 == r) % 9
                     for r in range(6)]
            assert criteria._class_sums(c, 9) == plain, c

    def test_primed_weights(self):
        s = criteria._class_sums((2, 5, 7), 9)
        assert s == [0, 5, 7 * 2 % 9, 0, 0, 0]
        even, odd, even_w, odd_w = _read(s, 9)
        assert odd == 5 % 9
        assert even == (7 * 2) % 9
        assert even_w == (2 * 7 * 2) % 3
        assert odd_w == 5 % 3

    @given(st.integers(-60, 60), st.lists(st.integers(-10**6, 10**6), max_size=20),
           st.sampled_from([4, 9]))
    def test_weighted_mod3_matches_the_definition(self, a0, tail, m):
        c = (a0, *tail)
        primed = {i: a * a0 ** (i - 1) for i, a in enumerate(c) if i >= 1}
        s = criteria._class_sums(c, m)
        assert s == [sum(b for i, b in primed.items() if i % 6 == r) % m for r in range(6)]
        even = sum(b for i, b in primed.items() if i % 2 == 0)
        odd = sum(b for i, b in primed.items() if i % 2 == 1)
        assert _read(s, m)[:2] == (even % m, odd % m)
        if m == 9:
            assert _read(s, m)[2:] == (
                sum(i * b for i, b in primed.items() if i % 2 == 0) % 3,
                sum(i * b for i, b in primed.items() if i % 2 == 1) % 3)


class TestMinimalZ2:
    def test_frozen_witness_fails_at_level_three(self):
        v = minimal_z2(W2)
        assert not v.minimal
        assert v.failed_stage == "level-3"
        by_name = {c.name: c for c in v.conditions}
        assert by_name["lift_step_one_mod_4"].residue == 3
        assert not by_name["lift_step_one_mod_4"].passed
        assert all(
            by_name[k].passed
            for k in ("a0_unit_mod_2", "a1_odd", "odd_sum_odd", "full_sum_one_mod_4")
        )

    @pytest.mark.parametrize(
        "coeffs,minimal,stage",
        [
            ((1, 1), True, None),
            ((1, 3, 2), True, None),
            ((1, 1, 2), False, "level-2"),
            ((1, 2), False, "level-1"),
            ((0, 1), False, "level-1"),
            ((2, 3, 1), False, "level-1"),
            ((1, 1, 1), False, "level-1"),
        ],
    )
    def test_frozen_verdicts(self, coeffs, minimal, stage):
        v = minimal_z2(IntPolynomial(2, coeffs))
        assert v.minimal == minimal
        assert v.failed_stage == stage
        assert v.method == METHOD_P2

    def test_exhaustive_against_brute_force(self):
        # all monic-constant cubics with coefficients mod 8
        for a1 in range(8):
            for a2 in range(8):
                for a3 in range(8):
                    if a1 == a2 == a3 == 0:
                        continue
                    coeffs = (1, a1, a2, a3)
                    f = IntPolynomial(2, coeffs)
                    want = oracles.full_cycle_oracle(coeffs, 2, 3)
                    assert minimal_z2(f).minimal == want, coeffs

    def test_exhaustive_general_constant_term(self):
        # quadratics with any odd constant term
        for a0 in (1, 3, 5, 7):
            for a1 in range(8):
                for a2 in range(8):
                    if a1 == a2 == 0:
                        continue
                    coeffs = (a0, a1, a2)
                    f = IntPolynomial(2, coeffs)
                    want = oracles.full_cycle_oracle(coeffs, 2, 3)
                    assert minimal_z2(f).minimal == want, coeffs

    def test_even_constant_term_rejected_by_unit_condition(self):
        v = minimal_z2(IntPolynomial(2, (2, 3, 1)))
        assert not v.minimal
        assert v.conditions[0].name == "a0_unit_mod_2"
        assert not v.conditions[0].passed

    def test_wrong_prime(self):
        with pytest.raises(PadicError):
            minimal_z2(Q3)


class TestMinimalZ3:
    def test_frozen_witness_case1_gap_zero(self):
        v = minimal_z3(W3)
        assert not v.minimal and v.case == 1
        assert v.failed_stage == "level-3"
        by_name = {c.name: c for c in v.conditions}
        assert by_name["case1_shift_nonzero_mod_9"].residue == 6
        assert by_name["case1_shift_nonzero_mod_9"].passed
        assert by_name["case1_shift_vs_correction_mod_9"].residue == 0
        assert not by_name["case1_shift_vs_correction_mod_9"].passed

    def test_frozen_minimal_case2(self):
        v = minimal_z3(Q3)
        assert v.minimal and v.case == 2 and v.method == METHOD_P3
        w = minimal_z3(IntPolynomial(3, (1, 1)))
        assert w.minimal and w.case == 2

    @pytest.mark.parametrize(
        "tail,case",
        [
            ((4, 0, 1, 0, 2), 1),
            ((1, 6, 0, 0, 0), 2),
            ((2, 1, 3, 2, 5), 3),
            ((2, 8, 0, 1, 2), 4),
        ],
    )
    def test_frozen_minimal_per_case(self, tail, case):
        f = IntPolynomial(3, (1, *tail))
        v = minimal_z3(f)
        assert v.minimal and v.case == case
        # independent confirmation: an actual full cycle mod 27
        assert oracles.full_cycle_oracle(f.coefficients, 3, 3)

    def test_frozen_case3_near_miss(self):
        # case 3's positive above with a3 = 0 in place of 3: the same
        # residues mod 3, but the shift now meets the correction mod 9
        f = IntPolynomial(3, (1, 2, 1, 0, 2, 5))
        v = minimal_z3(f)
        assert not v.minimal and v.case == 3 and v.failed_stage == "level-3"
        assert v.conditions[7].name == "case3_shift_vs_correction_mod_9"
        assert v.conditions[7].residue == 0
        assert not oracles.full_cycle_oracle(f.coefficients, 3, 3)

    def test_frozen_pattern_mismatch(self):
        v = minimal_z3(IntPolynomial(3, (1, 1, 2, 0, 1)))
        assert not v.minimal
        assert v.case is None
        assert v.failed_stage == "level-2"

    def test_frozen_level1_failures(self):
        assert minimal_z3(IntPolynomial(3, (1, 2))).failed_stage == "level-1"
        assert minimal_z3(IntPolynomial(3, (3, 1))).failed_stage == "level-1"
        assert minimal_z3(IntPolynomial(3, (1, 1, 1))).failed_stage == "level-1"

    @given(tails(3, 5, 26))
    def test_agrees_with_brute_force(self, f):
        assert minimal_z3(f).minimal == oracles.full_cycle_oracle(
            f.coefficients, 3, 3
        )

    @given(st.integers(2, 8).filter(lambda a0: a0 % 3 != 0), tails(3, 4, 26))
    def test_general_constant_term_against_brute_force(self, a0, tail):
        f = IntPolynomial(3, (a0, *tail.coefficients[1:]))
        assert minimal_z3(f).minimal == oracles.full_cycle_oracle(
            f.coefficients, 3, 3
        )

    @given(tails(3, 5, 8), st.integers(0, 5), st.integers(1, 3))
    def test_residues_mod_9_determine_verdict(self, f, slot, reps):
        # the criterion reads nothing beyond each coefficient mod 9
        slot = min(slot, f.degree)
        bumped = list(f.coefficients)
        bumped[slot] += 9 * reps
        g = IntPolynomial(3, tuple(bumped))
        assert minimal_z3(f).minimal == minimal_z3(g).minimal

    def test_wrong_prime(self):
        with pytest.raises(PadicError):
            minimal_z3(W2)


class TestMinimalGeneral:
    def test_frozen_nonminimal_with_witness(self):
        v = minimal_general(IntPolynomial(5, (1, 1, 1)))
        assert not v.minimal and v.method == METHOD_DELTA
        assert v.witness == (3, 13, 8, 23)
        assert all(x % 5 == 3 for x in v.witness)
        cond = v.conditions[0]
        assert cond.name == "full_cycle_at_decision_level"
        assert cond.residue == 4 and cond.modulus == 25

    def test_frozen_minimal(self):
        v = minimal_general(IntPolynomial(5, (1, 1)))
        assert v.minimal and v.witness is None
        assert v.conditions[0].residue == 25

    @given(tails(5, 4, 24))
    def test_matches_full_cycle_at_decision_level(self, f):
        assert minimal_general(f).minimal == is_full_cycle(f, 2)

    def test_large_prime_builds_no_table(self, no_tables):
        v = minimal_general(IntPolynomial(1009, (1, 1)))
        assert v.minimal
        assert v.conditions[0].residue == 1009**2


def _tower_outcome(tower, f, n_max, table_bound):
    try:
        tower(f, n_max, table_bound=table_bound)
    except PadicError as e:
        return type(e).__name__, str(e)
    return "passed"


class TestWitnessByLifting:
    # one map per lift class at the decision level, with the level-1
    # (tail, length) of the orbit of 0 and its level-2 tail and witness
    @pytest.mark.parametrize("p,coeffs,kind,level1,tail,witness", [
        # b = 0: the 3-cycle mod 5 lifts to 3-cycles
        (5, (-3, -3, -2, 1), "split", (1, 3), 1, (22, 11, 3)),
        # a = 1, b != 0: the 2-cycle grows into one of length 2 * 5
        (5, (-2, 0, -1, 1), "grow", (1, 2), 1,
         (23, 11, 8, 21, 18, 6, 3, 16, 13, 1)),
        # a = 0, b != 0: f' vanishes mod 7 one step into the 2-cycle
        # (j0 = 1), so the orbit reaches its 2-cycle two steps later
        (7, (-1, -1, 0, -1), "attract", (2, 2), 4, (29, 32)),
        # a = 4, of order 3 mod 7: a 2-cycle of length 2 * 3
        (7, (-2, 0, 0, 1), "partial", (2, 2), 2, (39, 27, 32, 34, 4, 13)),
    ])
    def test_pinned_lift_class(self, p, coeffs, kind, level1, tail, witness):
        f = IntPolynomial(p, coeffs)
        assert _orbit_shape(f, 1)[:2] == level1
        shape = _orbit_shape(f, 2)
        assert shape.steps[-1].kind == kind
        assert (shape.tail, shape.length) == (tail, len(witness))
        v = minimal_general(f)
        assert not v.minimal and v.witness == witness
        order, start = oracles.orbit_from_zero(coeffs, p, 2)
        assert (start, tuple(order[start:])) == (tail, witness)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_the_orbit_walk_on_boxes(self, p):
        # every map a0 + a1 x + a2 x^2 + a3 x^3 with a1..a3 in [-2, 2] and
        # a0 in {1, -1, 2, p}: the witness at the decision level L, and
        # verify_conjugacy_tower's result or error up to L + 1 with the
        # default bound and p^2, equal those of the walk that remembers
        # every residue; the last lift reaches every class (no partial
        # split at p = 2, whose only unit is 1)
        level = decision_level(p)
        kinds = set()
        for a0 in sorted({1, -1, 2, p}):
            for tail in itertools.product(range(-2, 3), repeat=3):
                coeffs = (a0, *tail)
                f = IntPolynomial(p, coeffs)
                order, start = oracles.orbit_from_zero(coeffs, p, level)
                if start == 0 and len(order) == p**level:
                    assert minimal_general(f).minimal, coeffs
                else:
                    assert minimal_general(f).witness == tuple(order[start:]), coeffs
                kinds.add(_orbit_shape(f, level).steps[-1].kind)
                for bound in (DEFAULT_TABLE_BOUND, p**2):
                    for n_max in range(1, level + 2):
                        got = _tower_outcome(verify_conjugacy_tower, f, n_max, bound)
                        want = _tower_outcome(oracles.tower_by_walk, f, n_max, bound)
                        assert got == want, (coeffs, n_max, bound)
        assert kinds == {"split", "grow", "attract", *(["partial"] if p > 2 else [])}

    def test_bound_caps_the_witness_length(self):
        f = IntPolynomial(5, (1, 2, 1))
        assert minimal_general(f, table_bound=3).witness == (0, 1, 4)
        with pytest.raises(TableBoundError, match="witness cycle of 3 residues"):
            minimal_general(f, table_bound=2)

    def test_refusal_walks_only_the_lift_chain(self, monkeypatch):
        # the witness of (x + 1)^2 mod 100003^2 holds 2,466,716 residues;
        # refusing it costs one walk: Brent's on a tail and cycle of 571
        # residues mod p and one 74-step walk at level 2, and fills nothing
        f = IntPolynomial(100003, (1, 2, 1))
        calls = counting(monkeypatch)
        with pytest.raises(TableBoundError, match="witness cycle of 2466716 residues"):
            minimal_general(f, table_bound=2466715)
        assert calls[0] < 5000

    def test_minimal_map_costs_one_walk(self, monkeypatch):
        # a full cycle mod 7 in 7 steps of one walk carried mod 7^2, whose
        # first return also gives the lift to mod 7^2; its x^7 term keeps
        # it out of the coefficient rule's class, so the walk decides it
        f = IntPolynomial(7, (3, -1, 2, -2, 1, -1, 0, -2))
        calls = counting(monkeypatch)
        assert criteria._class_core(f.coefficients, 7) is None
        assert minimal_general(f).minimal
        assert calls == [7, 7]

    def test_minimal_class_map_takes_no_walk(self, monkeypatch):
        # 1 + x + 701 x^2 is = x + 1 mod 701: the coefficient rule alone
        # answers, with the record the walk gives
        f = IntPolynomial(701, (1, 1, 701))
        calls = counting(monkeypatch)
        v = minimal_general(f)
        assert calls == [0, 0]
        assert v.conditions == (criteria.ConditionCheck(
            "full_cycle_at_decision_level", 701**2, 701**2, True),)
        assert (v.minimal, v.method, v.witness) == (True, METHOD_DELTA, None)

    def test_minimal_map_at_p3_costs_nine_steps(self, monkeypatch):
        # 3 steps carrying f' to the first return mod 3, then 6 plain ones
        # to f^9(0) mod 27, the lift from level 2 (a stays 1 after a grow)
        calls = counting(monkeypatch)
        assert minimal_general(Q3).minimal
        assert calls == [9, 3]

    @pytest.mark.parametrize("f,walk,total", [
        (IntPolynomial(5, (1, 1, 1)), [10, 5], [12, 5]),
        (W3, [9, 3], [27, 3]),
    ], ids=["p5", "p3"])
    def test_witness_costs_two_steps_a_residue_of_the_cycle_below(
            self, monkeypatch, f, walk, total):
        # past the verdict walk, the witness is the column map of the cycle
        # of level L - 1 (two eval_mod calls a residue, no f') and then
        # multiply-adds: 1 + x + x^2 enters a fixed point mod 5, W3 a
        # 9-cycle mod 9
        calls = counting(monkeypatch)
        shape = _orbit_shape(f, decision_level(f.prime))
        assert calls == walk
        calls[:] = [0, 0]
        assert minimal_general(f).witness is not None
        assert calls == total == [walk[0] + 2 * shape.steps[-1].length, walk[1]]

    def test_verdict_alone_stops_at_the_break(self, monkeypatch):
        # 0 is not periodic mod 100003 under (x + 1)^2: the verdict is
        # Brent's first phase alone, with no tail phase and no lift
        f = IntPolynomial(100003, (1, 2, 1))
        calls = counting(monkeypatch)
        assert not full_cycle_by_lifting(f, 2)
        assert calls[0] < 2 * 571
        assert _orbit_shape(f, 1).tail > 0


def counting(monkeypatch):
    """calls[0] counts the Horner loops run from here on, through
    IntPolynomial.eval_mod and dynamics._eval_slope; calls[1] those of
    _eval_slope, which compute f' as well."""
    calls = [0, 0]
    eval_mod, eval_slope = IntPolynomial.eval_mod, dynamics._eval_slope

    def counted(f, x, m):
        calls[0] += 1
        return eval_mod(f, x, m)

    def counted_slope(h, x, m, p):
        calls[0] += 1
        calls[1] += 1
        return eval_slope(h, x, m, p)

    monkeypatch.setattr(IntPolynomial, "eval_mod", counted)
    monkeypatch.setattr(dynamics, "_eval_slope", counted_slope)
    return calls


def _signed_maps(count, seed):
    """p in {2, 3, 5, 7, 11, 13, 101} in turn, degree 1-12, signed
    coefficients with a0 != 1, every other one near-odometer:
    a0 + (1 + p k) x + p h(x)."""
    rng = random.Random(seed)
    primes = (2, 3, 5, 7, 11, 13, 101)
    for i in range(count):
        p = primes[i % len(primes)]
        tail = [rng.randint(-40, 40) for _ in range(rng.randint(1, 12))]
        if i // len(primes) % 2:
            tail = [1 + p * tail[0]] + [p * c for c in tail[1:]]
        tail[-1] = tail[-1] or p
        yield IntPolynomial(p, (rng.choice([c for c in range(-40, 41) if c != 1]), *tail))


class TestFusedWalk:
    def test_matches_the_rewalking_walk(self):
        # at every level 1..L+1 the fused walk's shape equals that of the
        # walk that walks each level again and evaluates f' apart, the
        # lifting verdict is that walk's with stop on, and the witness
        # built from the shape is that walk's cycle at the decision level
        # L.  p = 101 stops at L: a grow there would make the reference
        # walk 101^2 steps twice
        kinds = collections.Counter()
        for f in _signed_maps(2100, seed=11):
            p = f.prime
            level = decision_level(p)
            for n in range(1, level + 1 + (p < 101)):
                got = _orbit_shape(f, n)
                assert got == oracles.orbit_shape_by_rewalking(f, n), (f.coefficients, p, n)
                kinds.update(s.kind for s in got.steps)
                stopped = oracles.orbit_shape_by_rewalking(f, n, stop=True)
                assert full_cycle_by_lifting(f, n) == (
                    stopped is not None and stopped.length == p**n), (f.coefficients, p, n)
            want = oracles.orbit_shape_by_rewalking(f, level)
            witness = minimal_general(f).witness
            if want.length == p**level:
                assert witness is None
                continue
            x, cycle = want.base, []
            for _ in range(want.length):
                cycle.append(x)
                x = f.eval_mod(x, p**level)
            assert witness == tuple(cycle), (f.coefficients, p)
        assert set(kinds) == {"split", "grow", "attract", "partial"}, kinds


def _near_odometer_maps(count, seed):
    """(p, coefficients) of seeded maps a0 + (1 + p k) x + p h(x) at p in
    {5, 7, 11, 13, 101} in turn, of degree 1 to 3p (at most 210), so that
    terms with (p - 1) | i occur.  In turn a0 is drawn, a0 = 0 mod p, or
    a0 = sum(a_i / p) over those terms mod p, which makes b = 0."""
    rng = random.Random(seed)
    primes = (5, 7, 11, 13, 101)
    for i in range(count):
        p = primes[i % len(primes)]
        tail = [1 + p * rng.randint(-9, 9)]
        tail += [p * rng.randint(-9, 9) for _ in range(rng.randint(0, min(3 * p, 210) - 1))]
        tail[-1] = tail[-1] or p
        kind = i // len(primes) % 3
        a0 = (rng.randint(-3 * p, 3 * p) if kind == 0 else p * rng.randint(-3, 3)
              + (kind == 2) * sum(tail[p - 2::p - 1]) // p)
        yield p, (a0, *tail)


def _walked(monkeypatch, f):
    """minimal_general's verdict of f with the coefficient rule off, so
    that the lifting walk decides it."""
    with monkeypatch.context() as m:
        m.setattr(criteria, "_class_core", lambda c, p: None)
        return minimal_general(f)


class TestNearOdometerRule:
    """criteria._class_core, the verdict of maps = x + c mod p at p >= 5
    read off the coefficients, against the lifting walk and the walk
    that remembers every residue."""

    def test_matches_the_walks(self, monkeypatch):
        # every map at p <= 13 and every twentieth at p = 101, one of each
        # kind of a0 in turn, through the oracle walk, whose 101^2 steps
        # cost up to 0.3 s a minimal map
        outcomes, decided_by_the_sum = collections.Counter(), collections.Counter()
        for i, (p, c) in enumerate(_near_odometer_maps(600, seed=34)):
            f = IntPolynomial(p, c)
            got = criteria._class_core(c, p)
            assert got == full_cycle_by_lifting(f, 2), (p, c)
            assert minimal_general(f) == _walked(monkeypatch, f), (p, c)
            if p < 101 or i % 100 == 4:
                order, start = oracles.orbit_from_zero(c, p, 2)
                assert got == (start == 0 and len(order) == p**2), (p, c)
            outcomes[p, got] += 1
            decided_by_the_sum[p] += got != bool(c[0] % p)
        assert all(outcomes[p, v] >= 10 for p in (5, 7, 11, 13, 101) for v in (True, False))
        assert all(decided_by_the_sum[p] >= 5 for p in (5, 7, 11, 13, 101))

    def test_none_outside_the_class(self):
        # a class map with one a_i, i >= 2, moved off 0 mod p (a new x^2
        # term at degree 1); one = x + c mod p only as a function, by
        # its x^p term; and a1 off 1 mod p.  The walk decides each
        rng = random.Random(35)
        maps = [(7, (3, -1, 2, -2, 1, -1, 0, -2))]
        for p, c in _near_odometer_maps(150, seed=35):
            i = rng.randrange(2, len(c) + 1)
            off = rng.randint(1, p - 1)
            maps.append((p, c[:i] + (c[i] + off if i < len(c) else off,) + c[i + 1:]))
            padded = c + (0,) * (p + 1 - len(c))
            maps.append((p, (c[0], p * rng.randint(-3, 3), *padded[2:p], 1, *padded[p + 1:])))
            maps.append((p, (c[0], c[1] + off, *c[2:])))
        for p, c in maps:
            assert criteria._class_core(c, p) is None, (p, c)
            if p < 101:
                f = IntPolynomial(p, c)
                order, start = oracles.orbit_from_zero(c, p, 2)
                assert minimal_general(f).minimal == (start == 0 and len(order) == p**2)

    def test_constant_and_small_primes(self):
        assert criteria._class_core((4,), 5) is None
        assert criteria._class_core((4, 0), 5) is None
        # a zero constant term: 0 is a fixed point
        assert criteria._class_core((0, 1), 5) is False
        assert criteria._class_core((10, 1, 5), 5) is False
        # b = 1 - 5/5 = 0 mod 5 at x^4, while the x^3 term does not count
        assert criteria._class_core((1, 1, 0, 0, 5), 5) is False
        assert criteria._class_core((1, 1, 0, 5), 5) is True


class TestDecide:
    def test_method_dispatch(self):
        assert decide(W2).method == METHOD_P2
        assert decide(W3).method == METHOD_P3
        assert decide(IntPolynomial(5, (1, 1))).method == METHOD_DELTA

    @given(tails(2, 5, 31))
    def test_closed_form_equals_delta_rule_p2(self, f):
        assert decide(f).minimal == minimal_general(f).minimal

    @given(tails(3, 5, 26))
    def test_closed_form_equals_delta_rule_p3(self, f):
        assert decide(f).minimal == minimal_general(f).minimal

    def test_record_shape(self):
        rec = decide(W2).to_record()
        assert set(rec) == {
            "minimal", "method", "case", "conditions", "witness", "failed_stage"
        }
        assert all(
            set(c) == {"name", "residue", "modulus", "pass"}
            for c in rec["conditions"]
        )
        rec5 = minimal_general(IntPolynomial(5, (1, 1, 1))).to_record()
        assert rec5["witness"] == [3, 13, 8, 23]


def signed_polys(prime):
    """Degree 1-12, any constant term, signed coefficients; half of the
    draws are near-odometer maps a0 + (1 + p k) x + p h(x), so that
    minimal maps are common."""
    def build(args):
        near, a0, tail = args
        if near:
            tail = [1 + prime * tail[0]] + [prime * c for c in tail[1:]]
        if tail[-1] == 0:
            tail[-1] = prime
        return IntPolynomial(prime, (a0, *tail))

    return st.tuples(
        st.booleans(),
        st.integers(-40, 40),
        st.lists(st.integers(-40, 40), min_size=1, max_size=12),
    ).map(build)


class TestClosedForm:
    def test_dispatch(self):
        assert closed_form(W2) == minimal_z2(W2)
        assert closed_form(W3) == minimal_z3(W3)
        assert closed_form(IntPolynomial(5, (1, 1))) is None
        assert closed_form(IntPolynomial(7, (1, 4, 0, 4, 0, 2))) is None

    @settings(max_examples=400)
    @given(st.sampled_from([2, 3]).flatmap(signed_polys))
    def test_agrees_with_decision_level_check(self, f):
        assert closed_form(f).minimal == minimal_general(f).minimal, f.coefficients


def _box(a0, degree, seed):
    """Every map of one box: a1, a2 and the highest of the six-step tail
    slots 5, 8, 11 up to the degree range over [-3, 6), every residue
    mod 8 and mod 9; the other coefficients are fixed, signed and drawn
    from a seeded rng."""
    rng = random.Random(seed)
    fixed = [rng.randint(-9, 9) for _ in range(degree)]
    slots = sorted({s for s in (1, 2, max(s for s in (1, 2, 5, 8, 11) if s <= degree))
                    if s <= degree})
    for values in itertools.product(range(-3, 6), repeat=len(slots)):
        tail = fixed.copy()
        for slot, v in zip(slots, values):
            tail[slot - 1] = v
        yield (a0, *tail)


class TestCores:
    """The record-free cores that a sweep calls give the verdict of the
    public records, on the coefficient tuple with or without trailing
    zeros, and that verdict is the brute-force one mod p^3."""

    @pytest.mark.parametrize("prime,a0", [
        (2, 1), (2, -1), (2, 5), (2, 6), (3, 1), (3, -1), (3, 4), (3, -6),
    ])
    def test_cores_agree_with_records(self, prime, a0):
        record, core = criteria._CLOSED_FORMS[prime]
        seen = set()
        for degree in range(1, 13):
            for coeffs in _box(a0, degree, seed=degree):
                f = IntPolynomial(prime, coeffs)
                want = oracles.full_cycle_oracle(f.coefficients, prime, 3)
                assert record(f).minimal == want, (record.__name__, coeffs)
                for c in (f.coefficients, coeffs + (0, 0)):
                    assert _core(core, c, prime) == want, (core.__name__, c)
                seen.add(want)
        # both verdicts occur wherever a0 is a unit
        assert seen == ({True, False} if a0 % prime else {False})

    def test_sweep_cores_follow_the_prime(self):
        assert criteria._CLOSED_FORMS == {2: (minimal_z2, criteria._z2_core),
                                          3: (minimal_z3, criteria._z3_core)}


def _class_member(rng, rep, degree):
    """A map of the given degree (at least 8) in the p = 3 class of rep,
    whose constant term is 1: a random unit a0, random b_i mod 9 for
    i >= 3 with the last one of each six-step class setting its sum,
    a_i = b_i / a0^(i-1) mod 9, and a signed multiple of 9 on each."""
    a0 = rng.choice([a for a in range(-40, 41) if a % 3])
    b = [1, rep[1], rep[2], *(rng.randrange(9) for _ in range(degree - 2))]
    for e in range(3, 9):
        b[e + 6 * ((degree - e) // 6)] += rep[e] - sum(b[e::6])
    inverse = pow(a0, -1, 9)
    tail = [b[i] * pow(inverse, i - 1, 9) % 9 + 9 * rng.randint(-5, 5)
            for i in range(1, degree + 1)]
    return (a0, *tail[:-1], tail[-1] or 9)


def _x_plus_one_class(rng):
    """A random p = 3 representative (1, b1, .., b8) that is x + 1 mod 3
    as a map, drawn by rejection."""
    while True:
        rep = (1, *(rng.randrange(9) for _ in range(8)))
        if oracles.eval_pow_mod(rep, 1, 3) == 2 and oracles.eval_pow_mod(rep, 2, 3) == 0:
            return rep


class TestClassReductions:
    """The certificate of both closed forms rests on two reductions that
    carry every map to a representative in a finite box
    (oracles.class_representative): conjugating by x -> a0 x takes a unit
    constant term to 1, and the verdict reads only b1, b2 and the tail
    sums of b_i over i = e mod k, all mod m (k = 2, m = 8 at p = 2; k = 6,
    m = 9 at p = 3).  The boxes are acceptance C3 at p = 2 and the 9^8
    sweep at degree 8, bound 9 at p = 3, where the core and brute force
    agree on every representative.  Here, on maps of any constant term and
    degrees far above the boxes', the core and the brute-force verdict
    mod p^3 must both equal the brute-force verdict of the representative."""

    @pytest.mark.parametrize("prime", [2, 3])
    @pytest.mark.parametrize("spread", [60, 3])
    def test_random_maps(self, prime, spread):
        # degrees 1-40, constant terms and coefficients in [-spread, spread]
        _, core = criteria._CLOSED_FORMS[prime]
        rng = random.Random(prime * 100 + spread)
        seen = set()
        for _ in range(1000):
            coeffs = tuple(rng.randint(-spread, spread) for _ in range(rng.randint(2, 41)))
            rep = oracles.class_representative(coeffs, prime)
            want = oracles.full_cycle_oracle(rep, prime, 3)
            assert oracles.full_cycle_oracle(coeffs, prime, 3) == want, (coeffs, rep)
            assert _core(core, coeffs, prime) == want, (coeffs, rep)
            seen.add(want)
        assert seen == {True, False}

    def test_p3_class_members(self):
        # classes of maps that are x + 1 mod 3, where 2^4 3^9 of the 3^14
        # representatives are minimal, at degrees 9-45
        rng = random.Random(9)
        minimal = 0
        for _ in range(600):
            rep = _x_plus_one_class(rng)
            want = oracles.full_cycle_oracle(rep, 3, 3)
            member = _class_member(rng, rep, rng.randint(9, 45))
            assert oracles.class_representative(member, 3) == rep, member
            assert oracles.full_cycle_oracle(member, 3, 3) == want, (member, rep)
            assert _core(criteria._z3_core, member, 3) == want, (member, rep)
            minimal += want
        assert 0 < minimal < 600


class TestFullCycleByLifting:
    def test_frozen(self):
        assert full_cycle_by_lifting(Q3, 5)
        assert full_cycle_by_lifting(W2, 2) and not full_cycle_by_lifting(W2, 3)
        assert full_cycle_by_lifting(W3, 2) and not full_cycle_by_lifting(W3, 4)
        assert not full_cycle_by_lifting(IntPolynomial(5, (1, 1, 1)), 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_levels_below_one(self, n):
        with pytest.raises(PadicError):
            full_cycle_by_lifting(Q3, n)

    @settings(max_examples=400)
    @given(st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(
        lambda p: st.tuples(signed_polys(p), st.integers(1, decision_level(p) + 1))))
    def test_equals_brute_force(self, case):
        # levels 1..L+1: below, at and above the decision level L
        f, n = case
        assert full_cycle_by_lifting(f, n) == is_full_cycle(f, n), (f.coefficients, n)


class TestCrossValidate:
    def test_frozen_witness_tower(self):
        rep = cross_validate(W3, 3)
        assert rep.levels_checked == (1, 2, 3)
        assert rep.full_cycle_by_level == (True, True, False)
        assert rep.consistent and rep.detail is None
        assert not rep.verdict.minimal

    def test_extends_to_decision_level(self):
        rep = cross_validate(W3, 1)
        assert rep.levels_checked == (1, 2, 3)
        assert rep.consistent

    def test_minimal_tower(self):
        rep = cross_validate(Q3, 4)
        assert rep.full_cycle_by_level == (True, True, True, True)
        assert rep.consistent and rep.verdict.minimal

    @given(tails(3, 4, 26))
    def test_always_consistent_p3(self, f):
        assert cross_validate(f, 3).consistent

    @given(tails(2, 4, 15))
    def test_always_consistent_p2(self, f):
        assert cross_validate(f, 4).consistent

    def test_bad_n_max(self):
        with pytest.raises(PadicError):
            cross_validate(Q3, 0)
