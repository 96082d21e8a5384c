import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn.criteria import (
    METHOD_DELTA,
    METHOD_P2,
    METHOD_P2_LARIN,
    METHOD_P3,
    METHOD_P3_DEG5,
    CoefficientSums,
    closed_form,
    coefficient_sums,
    cross_validate,
    decide,
    decision_level,
    full_cycle_by_lifting,
    minimal_degree5_z3,
    minimal_general,
    minimal_z2,
    minimal_z2_larin_form,
    minimal_z3,
)
from padicdyn.dynamics import IntPolynomial, is_full_cycle
from padicdyn.padic import PadicError

import oracles

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


class TestCoefficientSums:
    def test_frozen(self):
        assert coefficient_sums(W3) == CoefficientSums(0, 10, 0, 26, primed=False)
        assert coefficient_sums(W2) == CoefficientSums(0, 5, 0, 9, primed=False)

    def test_primed_reduces_to_plain_for_unit_constant_one(self):
        plain = coefficient_sums(Q3)
        primed = coefficient_sums(Q3, primed=True, precision=2)
        assert (primed.even_sum, primed.odd_sum) == (
            plain.even_sum % 9,
            plain.odd_sum % 9,
        )
        assert primed.precision == 2

    def test_primed_weights(self):
        f = IntPolynomial(3, (2, 5, 7))
        s = coefficient_sums(f, primed=True, precision=2)
        assert s.odd_sum == 5 % 9
        assert s.even_sum == (7 * 2) % 9
        assert s.even_weighted == (2 * 7 * 2) % 9
        assert s.odd_weighted == 5 % 9


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

    def test_exhaustive_against_brute_force_and_larin(self):
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
                    assert minimal_z2_larin_form(f).minimal == want, coeffs

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


class TestLarinForm:
    def test_preconditions(self):
        with pytest.raises(PadicError):
            minimal_z2_larin_form(IntPolynomial(2, (3, 1)))
        with pytest.raises(PadicError):
            minimal_z2_larin_form(Q3)

    @given(tails(2, 5, 31))
    def test_agrees_with_primary_form(self, f):
        assert minimal_z2_larin_form(f).minimal == minimal_z2(f).minimal


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


class TestDegree5Form:
    def test_frozen_witness(self):
        v = minimal_degree5_z3(W3)
        assert not v.minimal and v.case == 1
        by_name = {c.name: c for c in v.conditions}
        assert by_name["a1_a3_a5_sum_mod_9"].residue == 1
        assert not by_name["a1_a3_a5_sum_mod_9"].passed

    @pytest.mark.parametrize(
        "tail,case",
        [
            ((4, 0, 1, 0, 2), 1),
            ((1, 6, 0, 0, 0), 2),
            ((2, 1, 3, 2, 5), 3),
            ((2, 8, 0, 1, 2), 4),
        ],
    )
    def test_positive_example_per_case(self, tail, case):
        f = IntPolynomial(3, (1, *tail))
        v = minimal_degree5_z3(f)
        assert v.minimal and v.case == case
        # independent confirmation: an actual full cycle mod 27
        assert oracles.full_cycle_oracle(f.coefficients, 3, 3)
        assert minimal_z3(f).minimal

    def test_case3_near_misses_are_not_minimal(self):
        # same residue pattern, sum 7 instead of 1 mod 9
        f = IntPolynomial(3, (1, 2, 1, 0, 2, 5))
        assert (2 + 0 + 5) % 9 == 7
        v = minimal_degree5_z3(f)
        assert not v.minimal and v.case == 3
        assert not oracles.full_cycle_oracle(f.coefficients, 3, 3)

    @given(tails(3, 5, 26))
    def test_agrees_with_general_form(self, f):
        assert minimal_degree5_z3(f).minimal == minimal_z3(f).minimal

    def test_preconditions(self):
        with pytest.raises(PadicError):
            minimal_degree5_z3(W2)
        with pytest.raises(PadicError):
            minimal_degree5_z3(IntPolynomial(3, (2, 1, 1)))
        with pytest.raises(PadicError):
            minimal_degree5_z3(IntPolynomial(3, (1, 0, 0, 0, 0, 0, 1)))


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
