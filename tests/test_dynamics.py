import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicdyn.dynamics import (
    IntPolynomial,
    NotFullCycleError,
    NotPeriodicError,
    TableBoundError,
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
from padicdyn.padic import NonUnitError, PadicError, PrecisionError, canonicalize

import oracles

W2 = IntPolynomial(2, (1, 3, 0, 2))        # 1 + 3x + 2x^3
W3 = IntPolynomial(3, (1, 4, 0, 4, 0, 2))  # 1 + 4x + 4x^3 + 2x^5
Q3 = IntPolynomial(3, (1, 1, 6))           # 1 + x + 6x^2


def iterate_mod(f, x, k, m):
    """k-fold iterate f(f(...f(x))) mod m through the library kernel."""
    for _ in range(k):
        x = f.eval_mod(x, m)
    return x


def poly_strategy(primes=(2, 3, 5), max_degree=5, coeff=50):
    return st.sampled_from(primes).flatmap(
        lambda p: st.lists(
            st.integers(-coeff, coeff), min_size=2, max_size=max_degree + 1
        ).filter(
            lambda cs: any(c != 0 for c in cs[1:])
        ).map(lambda cs: IntPolynomial(p, tuple(cs)))
    )


class TestConstruction:
    def test_text_round_trip(self):
        f = IntPolynomial.from_text(2, "1,3,0,2")
        assert f.coefficients == (1, 3, 0, 2)
        assert f.to_text() == "1,3,0,2"
        assert f.degree == 3
        g = IntPolynomial.from_text(5, " -2, 0 ,7 ")
        assert g.coefficients == (-2, 0, 7)

    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial(2, (1, 3, 0, 2, 0, 0)).coefficients == (1, 3, 0, 2)

    def test_degree_zero_rejected(self):
        with pytest.raises(PadicError):
            IntPolynomial(3, (7,))
        with pytest.raises(PadicError):
            IntPolynomial(3, (7, 0, 0))
        # formal opt-in used by derivative()
        assert IntPolynomial(3, (7,), allow_constant=True).degree == 0

    def test_bad_inputs(self):
        with pytest.raises(PadicError):
            IntPolynomial(4, (1, 1))
        with pytest.raises(PadicError):
            IntPolynomial.from_text(2, "1,x")

    def test_coefficient_accessor(self):
        assert W2.coefficient(3) == 2
        assert W2.coefficient(9) == 0
        assert W2.coefficient(-1) == 0


class TestEvaluate:
    def test_frozen_values(self):
        assert W2.eval_mod(1, 8) == 6
        assert W2.eval_mod(6, 8) == 3  # 451 mod 8
        # signed coefficients and arguments still land in [0, modulus)
        assert IntPolynomial(5, (-7, 0, -1)).eval_mod(-3, 25) == 9  # -16 mod 25

    @given(poly_strategy(), st.integers(-1000, 1000), st.integers(1, 6))
    def test_matches_pow_oracle(self, f, x, n):
        m = f.prime**n
        assert f.eval_mod(x, m) == oracles.eval_pow_mod(f.coefficients, x % m, m)

    @given(poly_strategy(), st.integers(0, 10**6), st.integers(2, 6))
    def test_compatible_with_reduction(self, f, x, n):
        # evaluating then reducing equals reducing then evaluating
        hi, lo = f.prime**n, f.prime ** (n - 1)
        assert f.eval_mod(x, hi) % lo == f.eval_mod(x % lo, lo)


class TestDerivative:
    def test_frozen(self):
        assert derivative(W3).coefficients == (4, 0, 12, 0, 10)
        assert derivative(W2, 2).coefficients == (0, 12)
        assert derivative(IntPolynomial(3, (1, 1)), 2).coefficients == (0,)
        assert derivative(W2, 0) == W2

    @given(poly_strategy(max_degree=4, coeff=9), poly_strategy(max_degree=3, coeff=9))
    def test_product_rule(self, f, g):
        if f.prime != g.prime:
            return
        fg = oracles.poly_mul(list(f.coefficients), list(g.coefficients))
        lhs = oracles.poly_derivative(fg)
        df = list(derivative(f).coefficients)
        dg = list(derivative(g).coefficients)
        rhs = oracles.poly_mul(df, list(g.coefficients))
        alt = oracles.poly_mul(list(f.coefficients), dg)
        width = max(len(lhs), len(rhs), len(alt))
        pad = lambda v: v + [0] * (width - len(v))
        assert pad(lhs) == [a + b for a, b in zip(pad(rhs), pad(alt))]


class TestTables:
    def test_frozen_table(self):
        t = reduced_map_table(W2, 2)
        assert t.entries == (1, 2, 3, 0)
        assert t.prime == 2 and t.level == 2

    @given(poly_strategy(), st.integers(1, 3))
    def test_projection_compatibility(self, f, n):
        small = reduced_map_table(f, n).entries
        big = reduced_map_table(f, n + 1).entries
        m = f.prime**n
        assert all(big[x] % m == small[x % m] for x in range(len(big)))

    @given(poly_strategy(), st.integers(1, 3))
    def test_matches_oracle(self, f, n):
        assert list(reduced_map_table(f, n).entries) == oracles.table_oracle(
            f.coefficients, f.prime, n
        )

    def test_table_bound(self):
        with pytest.raises(TableBoundError):
            reduced_map_table(W2, 5, table_bound=16)
        with pytest.raises(PadicError):
            reduced_map_table(W2, 0)


class TestBijectivity:
    def test_frozen_noninjective(self):
        f = IntPolynomial(5, (1, 1, 1))
        assert oracles.table_oracle(f.coefficients, 5, 1) == [1, 3, 2, 3, 1]
        rep = is_bijective_mod(f, 1)
        assert not rep
        x, y = rep.collision
        assert x != y
        m = 5
        assert oracles.eval_pow_mod(f.coefficients, x, m) == oracles.eval_pow_mod(
            f.coefficients, y, m
        )

    def test_frozen_bijective(self):
        assert is_bijective_mod(W2, 3).bijective
        assert is_bijective_mod(W2, 3).collision is None

    @given(poly_strategy(), st.integers(1, 3))
    def test_matches_permutation_oracle(self, f, n):
        table = oracles.table_oracle(f.coefficients, f.prime, n)
        assert is_bijective_mod(f, n).bijective == oracles.is_permutation(table)


class TestCycles:
    def test_frozen_p2_witness(self):
        dec = cycle_decomposition(W2, 3)
        assert dec.cycles == ((0, 1, 6, 3), (2, 7, 4, 5))
        assert dec.bijective and dec.non_periodic_count == 0
        dec2 = cycle_decomposition(W2, 2)
        assert dec2.cycles == ((0, 1, 2, 3),)

    def test_frozen_fixed_points(self):
        dec = cycle_decomposition(IntPolynomial(5, (1, 1, 1)), 1)
        assert dec.cycles == ((2,), (3,))
        assert dec.non_periodic_count == 3
        assert not dec.bijective

    @given(poly_strategy(), st.integers(1, 3))
    def test_matches_cycles_oracle(self, f, n):
        table = oracles.table_oracle(f.coefficients, f.prime, n)
        want_cycles, want_free = oracles.cycles_oracle(table)
        dec = cycle_decomposition(f, n)
        assert list(dec.cycles) == want_cycles
        assert dec.non_periodic_count == want_free
        assert dec.bijective == oracles.is_permutation(table)

    @given(poly_strategy(), st.integers(1, 3))
    def test_canonical_shape(self, f, n):
        dec = cycle_decomposition(f, n)
        seen = set()
        last_min = -1
        for cyc in dec.cycles:
            assert cyc[0] == min(cyc)
            assert cyc[0] > last_min
            last_min = cyc[0]
            assert not (set(cyc) & seen)
            seen |= set(cyc)
        assert len(seen) + dec.non_periodic_count == f.prime**n


class TestFullCycle:
    def test_frozen(self):
        assert is_full_cycle(Q3, 2)
        assert is_full_cycle(W2, 2) and not is_full_cycle(W2, 3)
        assert is_full_cycle(W3, 2) and not is_full_cycle(W3, 3)

    @given(poly_strategy(), st.integers(1, 3))
    def test_matches_oracle(self, f, n):
        assert is_full_cycle(f, n) == oracles.full_cycle_oracle(f.coefficients, f.prime, n)

    def test_orbit_fallback_strategy(self):
        # force the no-table path with a tiny bound
        rep = full_cycle_check(Q3, 3, table_bound=9)
        assert rep.strategy == "orbit" and rep.spot_check_level == 2
        assert rep.full_cycle == is_full_cycle(Q3, 3)
        rep2 = full_cycle_check(W2, 3, table_bound=4)
        assert rep2.strategy == "orbit"
        assert rep2.full_cycle == is_full_cycle(W2, 3)
        # non-bijective map is caught by the spot check
        rep3 = full_cycle_check(IntPolynomial(5, (1, 1, 1)), 2, table_bound=5)
        assert rep3.strategy == "orbit" and not rep3.full_cycle

    def test_table_strategy(self):
        assert full_cycle_check(Q3, 2).strategy == "table"


class TestIterate:
    def test_frozen(self):
        assert iterate_mod(W2, 0, 4, 16) == 0  # f^4(0) = 183469056 = 64 * 2866704
        assert iterate_mod(W2, 0, 1, 16) == 1

    @given(poly_strategy(), st.integers(0, 20), st.integers(0, 20), st.integers(1, 4))
    def test_composition_law(self, f, a, b, n):
        m = f.prime**n
        x = 7 % m
        assert iterate_mod(f, x, a + b, m) == iterate_mod(f, iterate_mod(f, x, a, m), b, m)

    @given(poly_strategy(), st.integers(0, 12), st.integers(1, 4))
    def test_matches_oracle(self, f, k, n):
        m = f.prime**n
        got = iterate_mod(f, 3 % m, k, m)
        assert got == oracles.iterate_oracle(f.coefficients, 3 % m, k, m)


class TestTaylorData:
    def test_frozen_p2(self):
        td = taylor_data(W2, 2, canonicalize(0, 2, 3), 1)
        assert td.displacement.value == 0  # f^4(0) is divisible by 8
        assert td.level == 2 and td.precision == 1

    def test_frozen_p3(self):
        td = taylor_data(Q3, 1, canonicalize(0, 3, 2), 1)
        # f^3(0) = 15 mod 27, so displacement 15/3 = 5 = 2 mod 3
        assert td.displacement.value == 2
        assert td.derivative.value == 1

    @pytest.mark.parametrize("f,n", [(W2, 1), (W2, 2), (Q3, 1)])
    def test_against_symbolic_composition(self, f, n):
        p = f.prime
        for x0 in range(p**n):
            if oracles.iterate_oracle(f.coefficients, x0, p**n, p**n) != x0:
                continue
            alpha, beta, gamma = oracles.taylor_oracle(f.coefficients, p, n, x0, 2)
            td = taylor_data(f, n, canonicalize(x0, p, n + 2), 2, with_curvature=True)
            assert td.derivative.value == alpha
            assert td.displacement.value == beta
            assert td.curvature is not None and td.curvature.value == gamma

    @given(poly_strategy(primes=(2, 3)), st.integers(1, 2), st.integers(0, 50))
    def test_affine_model_of_iterate(self, f, n, z):
        # g(x0 + p^n z) = x0 + p^n (alpha z + beta) holds mod p^2n
        p = f.prime
        if not is_full_cycle(f, n):
            return
        td = taylor_data(f, n, canonicalize(0, p, 2 * n), n)
        alpha, beta = td.derivative.value, td.displacement.value
        m = p ** (2 * n)
        got = iterate_mod(f, p**n * z % m, p**n, m)
        want = (p**n * (alpha * z + beta)) % p ** (2 * n)
        assert got == want

    @given(poly_strategy(primes=(2, 3, 5), max_degree=4, coeff=30), st.integers(1, 2))
    def test_derivative_power_tower(self, f, n):
        # alpha at level n equals the p-th power of alpha at level n-1
        # mod p^(n-1); vacuous below level 2
        if n < 2 or not is_full_cycle(f, n):
            return
        p = f.prime
        hi = taylor_data(f, n, canonicalize(0, p, n + n), n)
        lo = taylor_data(f, n - 1, canonicalize(0, p, n - 1 + n), n)
        m = p ** (n - 1)
        assert hi.derivative.value % m == pow(lo.derivative.value, p, m)

    def test_preconditions(self):
        with pytest.raises(PrecisionError):
            taylor_data(W2, 2, canonicalize(0, 2, 2), 1)  # needs 3 digits
        with pytest.raises(NotPeriodicError):
            # 0 -> 1 -> 3 -> 3 ... mod 5: never returns to 0
            taylor_data(IntPolynomial(5, (1, 1, 1)), 1, canonicalize(0, 5, 2), 1)
        with pytest.raises(PadicError):
            taylor_data(W2, 2, canonicalize(0, 3, 3), 1)

    def test_curvature_parity_p2(self):
        # second derivative of an integer polynomial composition is even,
        # so the halving must always succeed
        td = taylor_data(W2, 2, canonicalize(0, 2, 4), 2, with_curvature=True)
        assert td.curvature is not None
        td3 = taylor_data(Q3, 1, canonicalize(0, 3, 3), 2, with_curvature=True)
        assert td3.curvature is not None

    def test_curvature_not_computed_by_default(self):
        assert taylor_data(Q3, 1, canonicalize(0, 3, 2), 1).curvature is None


class TestLiftCheck:
    def test_frozen(self):
        assert lift_check(Q3, 1).lifts
        assert lift_check(Q3, 2).lifts
        rep = lift_check(W2, 2)
        assert not rep.lifts
        assert rep.displacement_mod_p == 0 and rep.derivative_mod_p == 1

    def test_requires_full_cycle(self):
        with pytest.raises(NotFullCycleError):
            lift_check(IntPolynomial(5, (1, 1, 1)), 1)
        with pytest.raises(NotFullCycleError):
            lift_check(W2, 3)

    @given(poly_strategy(primes=(2, 3, 5), max_degree=4, coeff=30), st.integers(1, 2))
    def test_equivalent_to_next_level_full_cycle(self, f, n):
        if not is_full_cycle(f, n):
            return
        assert lift_check(f, n).lifts == is_full_cycle(f, n + 1)


class TestNormalizeUnitConstant:
    def test_frozen(self):
        g = normalize_unit_constant(IntPolynomial(3, (2, 2)), 2)
        assert g.coefficients == (1, 2)

    def test_nonunit_constant(self):
        with pytest.raises(NonUnitError):
            normalize_unit_constant(IntPolynomial(3, (3, 1)), 2)

    @given(poly_strategy(primes=(2, 3), max_degree=4, coeff=20), st.integers(1, 3))
    def test_conjugation_preserves_cycle_type(self, f, n):
        if f.coefficient(0) % f.prime == 0:
            return
        g = normalize_unit_constant(f, 3)
        if g.degree == 0:
            return  # degree collapsed mod p^3: nothing to compare
        assert g.coefficient(0) == 1
        assert is_full_cycle(f, n) == is_full_cycle(g, n)

    def test_unit_weights_match_definition(self):
        f = IntPolynomial(3, (2, 5, 7, 1))
        g = normalize_unit_constant(f, 2)
        inv = pow(2, -1, 9)
        for i in range(4):
            assert g.coefficient(i) == (f.coefficient(i) * pow(2, i, 9) * inv) % 9
