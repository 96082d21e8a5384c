import random
import time
import tracemalloc
from itertools import repeat, zip_longest
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from padicdyn import dynamics
from padicdyn.dynamics import (
    IntPolynomial,
    TableBoundError,
    _column_map,
    _orbit_shape,
    cycle_decomposition,
    decision_level,
    full_cycle_by_lifting,
    is_full_cycle,
    reduced_map_table,
)
from padicdyn.padic import PadicError

import oracles
from oracles import NotPeriodicError, derivative, taylor_data

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
        assert f.degree == 3
        g = IntPolynomial.from_text(5, " -2, 0 ,7 ")
        assert g.coefficients == (-2, 0, 7)

    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial(2, (1, 3, 0, 2, 0, 0)).coefficients == (1, 3, 0, 2)

    def test_degree_zero_rejected(self):
        # the parser of outside text refuses a constant, trailing zeros
        # trimmed first; the constructor takes it as a formal map
        with pytest.raises(PadicError, match="degree 0"):
            IntPolynomial.from_text(3, "7")
        with pytest.raises(PadicError, match="degree 0"):
            IntPolynomial.from_text(3, "7,0,0")
        assert IntPolynomial(3, (7, 0, 0)).degree == 0

    def test_bad_inputs(self):
        with pytest.raises(PadicError):
            IntPolynomial(4, (1, 1))
        with pytest.raises(PadicError):
            IntPolynomial.from_text(2, "1,x")


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


class TestEvalSlope:
    def test_frozen_values(self):
        # W2 = 1 + 3x + 2x^3, W2' = 3 + 6x^2
        assert W2.eval_slope_mod(1, 8) == (6, 1)
        assert W2.eval_slope_mod(-3, 8) == (2, 1)  # -62 mod 8, 57 mod 2
        assert IntPolynomial(5, (7,)).eval_slope_mod(9, 25) == (7, 0)

    @given(st.sampled_from([2, 3, 5, 7, 101]),
           st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=15),
           st.integers(1, 4), st.integers(-10**7, 10**7))
    def test_matches_pow_oracle(self, p, coeffs, n, x):
        # degrees 0-14, signed coefficients, x negative or past p^n
        f = IntPolynomial(p, tuple(coeffs))
        m = p**n
        assert f.eval_slope_mod(x, m) == (
            oracles.eval_pow_mod(f.coefficients, x, m),
            oracles.eval_pow_mod(oracles.poly_derivative(f.coefficients), x, p))


class TestDerivative:
    def test_frozen(self):
        assert derivative(W3).coefficients == (4, 0, 12, 0, 10)
        assert derivative(derivative(W2)).coefficients == (0, 12)
        assert derivative(derivative(IntPolynomial(3, (1, 1)))).coefficients == (0,)

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
        assert tuple(t.entries) == (1, 2, 3, 0)
        assert t.prime == 2 and t.level == 2

    @given(poly_strategy(), st.integers(1, 3))
    def test_projection_compatibility(self, f, n):
        small = reduced_map_table(f, n).entries
        big = reduced_map_table(f, n + 1).entries
        m = f.prime**n
        assert all(big[x] % m == small[x % m] for x in range(len(big)))

    # degrees 0 to 16, any constant term, signed coefficients, levels to 6
    @given(st.sampled_from((2, 3, 5)),
           st.integers(0, 16).flatmap(lambda d: st.lists(
               st.integers(-50, 50), min_size=d + 1, max_size=d + 1)),
           st.integers(1, 6))
    @example(3, [7], 4)  # a constant
    @example(2, [-3, 5, 0, -1, 2, 1, -4, 9], 6)  # degree 7
    @example(5, list(range(-8, 9)), 3)  # degree 16
    @example(3, [2, -1] * 20 + [1], 5)  # degree 40
    @example(2, [1] * 13, 1)  # p^n = 2 below the degree, 12
    def test_matches_oracle(self, p, coeffs, n):
        f = IntPolynomial(p, coeffs)
        assert list(reduced_map_table(f, n).entries) == oracles.table_oracle(
            f.coefficients, p, n
        )

    def test_table_bound(self):
        with pytest.raises(TableBoundError):
            reduced_map_table(W2, 5, table_bound=16)
        # refused from the level, before 2^(10^9) is computed
        t0 = time.perf_counter()
        with pytest.raises(TableBoundError):
            reduced_map_table(W2, 10**9)
        assert time.perf_counter() - t0 < 1.0
        with pytest.raises(PadicError):
            reduced_map_table(W2, 0)


class TestBijectivity:
    def test_frozen_noninjective(self):
        f = IntPolynomial(5, (1, 1, 1))
        assert oracles.table_oracle(f.coefficients, 5, 1) == [1, 3, 2, 3, 1]
        rep = oracles.is_bijective_mod(f, 1)
        assert not rep and not cycle_decomposition(f, 1).bijective
        x, y = rep.collision
        assert x != y
        m = 5
        assert oracles.eval_pow_mod(f.coefficients, x, m) == oracles.eval_pow_mod(
            f.coefficients, y, m
        )

    def test_frozen_bijective(self):
        assert oracles.is_bijective_mod(W2, 3).bijective
        assert oracles.is_bijective_mod(W2, 3).collision is None
        assert cycle_decomposition(W2, 3).bijective

    @given(poly_strategy(), st.integers(1, 3))
    def test_matches_permutation_oracle(self, f, n):
        table = oracles.table_oracle(f.coefficients, f.prime, n)
        want = oracles.is_permutation(table)
        assert oracles.is_bijective_mod(f, n).bijective == want
        assert cycle_decomposition(f, n).bijective == want


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

    @pytest.mark.parametrize("f,n", [
        (W2, 3),  # bijective, two 4-cycles
        (IntPolynomial(5, (1, 1, 1)), 2),  # not bijective
        (IntPolynomial(3, (0, 1)), 2),  # the identity: nine fixed points
        (IntPolynomial(2, (1, 1)), 10),  # one cycle of 1024
        (IntPolynomial(3, (1, 1, 1)), 8),  # two fixed points, walked above level 4's
    ])
    def test_matches_oracle_in_bounded_memory(self, f, n):
        table = oracles.table_oracle(f.coefficients, f.prime, n)
        want_cycles, want_free = oracles.cycles_oracle(table)
        tracemalloc.start()
        try:
            dec = cycle_decomposition(f, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result's tuples and residues, the walk's path and state, and
        # the map table of 4 bytes a residue: no copy of a cycle but its
        # tuple.  A cycle sliced and rotated in lists takes 58 bytes a
        # residue at 2^10
        assert peak < 48 * len(table) + 1024
        assert list(map(tuple, dec.cycles)) == want_cycles
        assert dec.non_periodic_count == want_free
        assert dec.bijective == oracles.is_permutation(table)

    @given(poly_strategy(), st.integers(1, 3))
    def test_matches_cycles_oracle(self, f, n):
        table = oracles.table_oracle(f.coefficients, f.prime, n)
        want_cycles, want_free = oracles.cycles_oracle(table)
        dec = cycle_decomposition(f, n)
        assert list(map(tuple, dec.cycles)) == want_cycles
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


# the deepest level tested at each prime: above the small levels the
# cycles mod p^n are lifted from those of level ceil(n/2), so each of
# these recurses at least twice before a level walks its map table
DEEP_LEVELS = {2: 12, 3: 8, 5: 5, 7: 4}


def _shifted_identity(p, rng):
    """a0 + x + (x^p - x) g(x) + p h(x), seeded: x + a0 on Z/p, a0 a unit,
    with f' = 1 - g mod p varying from residue to residue."""
    a0 = rng.choice([a for a in range(-2 * p, 2 * p) if a % p])
    h = [p * rng.randint(-9, 9) for _ in range(rng.randint(2, 6))]
    spread = oracles.poly_mul([0, -1] + [0] * (p - 2) + [1],
                              [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))])
    return tuple(map(sum, zip_longest([a0, 1], spread, h, fillvalue=0)))


def maps_without_full_cycle(p, n, rng):
    """Seeded maps that are no full cycle mod p^n, by test id: the
    bijections x, -x and x + p; f = c mod p, whose one periodic residue
    mod p is c; where one exists (1 < n, ceil(n/2) below the decision
    level) a full cycle mod p^ceil(n/2) that breaks by level n; and three
    of degree 1-8 with signed coefficients and a0 != 1."""
    m = (n + 1) // 2
    full = oracles.full_cycle_oracle
    maps = {"x": (0, 1), "-x": (0, -1), "x+p": (p, 1)}
    maps["one-periodic-mod-p"] = (
        rng.choice([c for c in range(-3 * p, 3 * p) if c != 1]),
        *(p * rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 6))))
    if m < min(n, decision_level(p)):
        maps["full-mod-p^m"] = next(c for c in map(_shifted_identity, repeat(p, 5000), repeat(rng))
                                    if c[0] != 1 and full(c, p, m) and not full(c, p, n))
    signed = ([rng.randint(-30, 30) for _ in range(rng.randint(2, 9))] for _ in range(1000))
    signed = (c for c in signed if c[0] != 1 and c[-1] and not full(c, p, n))
    for i in range(3):
        maps[f"signed{i}"] = tuple(next(signed))
    return maps


_rng = random.Random(25)
NO_FULL_CYCLE = [(IntPolynomial(p, coeffs), n, f"p{p}-n{n}-{name}")
                 for p, top in DEEP_LEVELS.items() for n in range(1, top + 1)
                 for name, coeffs in maps_without_full_cycle(p, n, _rng).items()]


def test_maps_without_full_cycle_cover_every_kind():
    names = {case[2].split("-", 2)[2] for case in NO_FULL_CYCLE}
    assert {"x", "-x", "x+p", "one-periodic-mod-p", "full-mod-p^m"} <= names
    assert any(min(f.coefficients) < 0 for f, _, _ in NO_FULL_CYCLE)
    assert all(f.coefficients[0] != 1 for f, _, _ in NO_FULL_CYCLE)
    for p, top in DEEP_LEVELS.items():
        fulls = [n for f, n, name in NO_FULL_CYCLE
                 if f.prime == p and name.endswith("full-mod-p^m")]
        assert fulls == [n for n in range(2, top + 1) if (n + 1) // 2 < decision_level(p)]


def test_deep_levels_recurse_twice(monkeypatch):
    levels = []
    inner = dynamics.cycle_decomposition

    def recorded(f, n, **kwargs):
        levels.append(n)
        return inner(f, n, **kwargs)

    monkeypatch.setattr(dynamics, "cycle_decomposition", recorded)
    for p, top in DEEP_LEVELS.items():
        levels.clear()
        recorded(IntPolynomial(p, (0, 1)), top)
        assert len(levels) >= 3 and dynamics._small_level(p, levels[-1]), levels


@pytest.mark.parametrize("f,n,name", NO_FULL_CYCLE, ids=[case[2] for case in NO_FULL_CYCLE])
def test_no_full_cycle_matches_cycles_oracle(f, n, name):
    table = oracles.table_oracle(f.coefficients, f.prime, n)
    want_cycles, want_free = oracles.cycles_oracle(table)
    dec = cycle_decomposition(f, n)
    assert list(map(tuple, dec.cycles)) == want_cycles
    assert dec.non_periodic_count == want_free
    assert dec.bijective == oracles.is_permutation(table)


def column_lifts(f, n):
    """(k, A, B) for each cycle (x_0, ..., x_(k-1)) of level m = ceil(n/2),
    x_0 its least residue, through pow(): with K = p^m and q = p^(n - m),
    f^k maps x_0 + Kt to x_0 + K (At + B) mod p^n, A the product of f'
    over the cycle mod q."""
    p = f.prime
    m = (n + 1) // 2
    k, q = p**m, p ** (n - m)
    cycles, _ = oracles.cycles_oracle(oracles.table_oracle(f.coefficients, p, m))
    df = oracles.poly_derivative(list(f.coefficients))
    return [(len(c), prod(oracles.eval_pow_mod(df, x, q) for x in c) % q,
             (oracles.iterate_oracle(f.coefficients, c[0], len(c), p**n) - c[0]) // k % q)
            for c in cycles]


def test_column_map_matches_the_oracle():
    # at any residue x above each cycle of level ceil(n/2), the kernel's
    # bases and slopes give f^i(x + Kt) for every t mod q, and f^k(x + Kt)
    # = x + K g(t), g(t) = At + B mod q: A is column_lifts', the same over
    # the whole column, and B is read off f^k(x) through pow(); from n = 2
    # (q = p, the witness's split) to 8, signed coefficients, a0 != 1,
    # degree 1-9.  Tables of p^n > 7^5 entries would be slow, so above
    # that size only (A, B) is checked
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        for _ in range(8):
            tail = [rng.randint(-30, 30) for _ in range(rng.randint(1, 9))]
            tail[-1] = tail[-1] or -p
            f = IntPolynomial(p, (rng.choice([c for c in range(-30, 31) if c != 1]), *tail))
            for n in range(2, 9):
                m = (n + 1) // 2
                k, q, size = p**m, p ** (n // 2), p**n
                below, _ = oracles.cycles_oracle(oracles.table_oracle(f.coefficients, p, m))
                table = oracles.table_oracle(f.coefficients, p, n) if size <= 7**5 else None
                for c, (_, a_lift, _) in zip(below, column_lifts(f, n)):
                    x = c[0] + k * rng.randrange(q)
                    bases, slopes, a, b = _column_map(f, n, x, len(c))
                    at = oracles.iterate_oracle(f.coefficients, x, len(c), size)
                    assert (a, b) == (a_lift, (at - x) // k % q), (f.coefficients, n, c)
                    for t in range(q if table else 0):
                        y = (x + k * t) % size
                        for base, slope in zip(bases, slopes):
                            assert y == (base + slope * t) % size, (f.coefficients, n, c, t)
                            y = table[y]
                        assert y == (x + k * (a * t + b)) % size, (f.coefficients, n, c, t)


def unit_order(a, q):
    r, y = 1, a % q
    while y != 1:
        r, y = r + 1, y * a % q
    return r


# 2 mod 7 lifted to a cube root of 1 mod 7^4: 2^(7^3) = 2 mod 7 and its cube
# is 2^(3 * 7^3) = 1 mod 7^4, as 2^3 = 1 mod 7
ZETA7 = pow(2, 7**3, 7**4)

# each map has a cycle of level ceil(n/2) whose lift g(t) = At + B is of
# the named kind
AFFINE_LIFTS = {
    "contracting": (3, (1, 1, 1), 6, lambda p, q, k, a, b: a % p == 0),
    "A=1": (2, (2, 1), 9, lambda p, q, k, a, b: a == 1 and b != 0),
    "A=1-mod-p": (3, (3, 4), 6, lambda p, q, k, a, b: a % p == 1 and a != 1),
    "order-above-p": (3, (3, 2), 7, lambda p, q, k, a, b: a % p and unit_order(a, q) > p),
    "identity": (5, (0, -1), 4, lambda p, q, k, a, b: (a, b) == (1, 0) and k == 2),
    "identity-of-three": (7, (0, ZETA7), 4, lambda p, q, k, a, b: (a, b) == (1, 0) and k == 3),
    "p2-A=3-mod-4": (2, (0, 3), 10, lambda p, q, k, a, b: a % 4 == 3),
    # two maps on which a block length read off the cycle length alone,
    # k p^ceil(e/2) for a cycle of k p^e residues (p not dividing k),
    # fails: nine 9-cycles above the identity at 3^4, and two 4-cycles
    # (B = 2) at 2^12
    "regression-p3": (3, (10, 20, 2, 1, 30, -24, -14, 19), 4,
                      lambda p, q, k, a, b: (k, a, b) == (9, 1, 0)),
    "regression-p2": (2, (-25, -29, -28, -22, 10), 12,
                      lambda p, q, k, a, b: a % 4 == 3),
}


@pytest.mark.parametrize("stepped", [True, False], ids=["stepped", "multiply-adds"])
@pytest.mark.parametrize("name", AFFINE_LIFTS)
def test_affine_lifts_match_cycles_oracle(name, stepped, monkeypatch):
    # above _STEP_BOUND, whose modulus no packed field holds, every cycle
    # comes from multiply-adds
    if not stepped:
        monkeypatch.setattr(dynamics, "_STEP_BOUND", 1)
    p, coeffs, n, kind = AFFINE_LIFTS[name]
    f = IntPolynomial(p, coeffs)
    q = p ** (n // 2)
    assert not dynamics._small_level(p, n) and not full_cycle_by_lifting(f, n)
    assert any(kind(p, q, *lift) for lift in column_lifts(f, n))
    table = oracles.table_oracle(f.coefficients, p, n)
    dec = cycle_decomposition(f, n)
    assert (list(map(tuple, dec.cycles)), dec.non_periodic_count) == oracles.cycles_oracle(table)
    assert dec.bijective == oracles.is_permutation(table)


@pytest.mark.parametrize("name", AFFINE_LIFTS)
def test_long_cycles_step_by_blocks_of_k_times_the_order_of_a(name):
    # above a cycle of k residues mod K with a unit A of order d mod q,
    # f^(kd) moves each periodic residue r by K a_i D mod p^n, which
    # depends on r mod K alone
    p, coeffs, n, _ = AFFINE_LIFTS[name]
    f = IntPolynomial(p, coeffs)
    m = (n + 1) // 2
    k, size = p**m, p**n
    lifts = dict(zip((c[0] for c in oracles.cycles_oracle(
        oracles.table_oracle(f.coefficients, p, m))[0]), column_lifts(f, n)))
    below = cycle_decomposition(f, m).cycles
    least = {x: c[0] for c in below for x in c}
    for c in cycle_decomposition(f, n).cycles:
        length, a, _ = lifts[least[c[0] % k]]
        if not a % p:
            continue
        block = length * unit_order(a, size // k)
        moves = {(r % k, (c[(j + block) % len(c)] - r) % size) for j, r in enumerate(c)}
        assert len(moves) == len({r % k for r in c})


def test_no_full_cycle_is_sized_by_its_cycles():
    # one 2-cycle of 3^15 = 14,348,907 residues, lifted from the cycles of
    # 3^8, 3^4, 3^2 and 3: no table or marker of p^n entries
    f = IntPolynomial(3, (1, 1, 1))
    tracemalloc.start()
    try:
        dec = cycle_decomposition(f, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec.cycles) == 1 and dec.non_periodic_count == 3**15 - 2
    assert peak < 1 << 20


class TestFullCycle:
    def test_frozen(self):
        assert is_full_cycle(Q3, 2)
        assert is_full_cycle(W2, 2) and not is_full_cycle(W2, 3)
        assert is_full_cycle(W3, 2) and not is_full_cycle(W3, 3)

    @given(poly_strategy(), st.integers(1, 3))
    def test_matches_oracle(self, f, n):
        assert is_full_cycle(f, n) == oracles.full_cycle_oracle(f.coefficients, f.prime, n)

    def test_rejects_level_below_one(self):
        with pytest.raises(PadicError):
            is_full_cycle(Q3, 0)


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
        td = taylor_data(W2, 2, 0, 1)
        assert td.displacement == 0  # f^4(0) is divisible by 8
        assert td.level == 2 and td.precision == 1

    def test_frozen_p3(self):
        td = taylor_data(Q3, 1, 0, 1)
        # f^3(0) = 15 mod 27, so displacement 15/3 = 5 = 2 mod 3
        assert td.displacement == 2
        assert td.derivative == 1

    @pytest.mark.parametrize("f,n", [(W2, 1), (W2, 2), (Q3, 1)])
    def test_against_symbolic_composition(self, f, n):
        p = f.prime
        for x0 in range(p**n):
            if oracles.iterate_oracle(f.coefficients, x0, p**n, p**n) != x0:
                continue
            alpha, beta = oracles.taylor_oracle(f.coefficients, p, n, x0, 2)
            td = taylor_data(f, n, x0, 2)
            assert td.derivative == alpha
            assert td.displacement == beta

    @given(poly_strategy(primes=(2, 3)), st.integers(1, 2), st.integers(0, 50))
    def test_affine_model_of_iterate(self, f, n, z):
        # g(x0 + p^n z) = x0 + p^n (alpha z + beta) holds mod p^2n
        p = f.prime
        if not is_full_cycle(f, n):
            return
        td = taylor_data(f, n, 0, n)
        alpha, beta = td.derivative, td.displacement
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
        hi = taylor_data(f, n, 0, n)
        lo = taylor_data(f, n - 1, 0, n)
        m = p ** (n - 1)
        assert hi.derivative % m == pow(lo.derivative, p, m)

    def test_preconditions(self):
        with pytest.raises(NotPeriodicError):
            # 0 -> 1 -> 3 -> 3 ... mod 5: never returns to 0
            taylor_data(IntPolynomial(5, (1, 1, 1)), 1, 0, 1)
        with pytest.raises(PadicError):
            taylor_data(W2, 0, 0, 1)
        with pytest.raises(PadicError):
            taylor_data(W2, 2, 0, 0)


def lift_from(f, n):
    """The lift from level n that the walk deciding every verdict
    classifies, or None when it stops at a broken level first."""
    shape = _orbit_shape(f, n + 1, stop=True)
    return shape.steps[n - 1] if shape is not None and len(shape.steps) == n else None


class TestLiftCheck:
    # the lift of a full cycle mod p^n to mod p^(n+1), as classified by
    # _orbit_shape: a = (f^(p^n))'(0) mod p and
    # b = f^(p^n)(0) / p^n mod p, and the cycle lifts ("grow") exactly
    # when a = 1 and b != 0
    def test_frozen(self):
        assert lift_from(Q3, 1).kind == "grow"
        assert lift_from(Q3, 2).kind == "grow"
        step = lift_from(W2, 2)
        assert step.kind == "split"
        assert (step.length, step.a, step.b) == (4, 1, 0)

    def test_requires_full_cycle(self):
        # 0 -> 1 -> 3 -> 3 mod 5 is no full cycle, and W2 breaks at level 3:
        # the walk stops there and classifies no lift from that level
        assert lift_from(IntPolynomial(5, (1, 1, 1)), 1) is None
        assert lift_from(W2, 3) is None

    @pytest.mark.parametrize("f", [W2, W3])
    def test_rejects_period_one_level_down(self, f):
        # 0 has period p^2 mod p^3: f^(p^3)(0) = 0 mod p^3, so only the
        # early return at step p^2 shows the cycle is not full
        p = f.prime
        assert iterate_mod(f, 0, p**2, p**3) == 0
        assert iterate_mod(f, 0, p**3, p**3) == 0
        assert is_full_cycle(f, 2) and not is_full_cycle(f, 3)
        assert lift_from(f, 2).kind == "split"
        assert lift_from(f, 3) is None
        shape = _orbit_shape(f, 4, stop=True)
        assert (shape.tail, shape.length, len(shape.steps)) == (0, p**2, 2)

    @given(poly_strategy(primes=(2, 3, 5, 7), max_degree=6, coeff=30), st.integers(1, 3))
    def test_raises_exactly_without_full_cycle(self, f, n):
        # the walk lifts from level n exactly when level n is a full cycle
        assert (lift_from(f, n) is not None) == is_full_cycle(f, n)

    @given(poly_strategy(primes=(2, 3, 5), max_degree=4, coeff=30), st.integers(1, 2))
    def test_matches_taylor_data(self, f, n):
        if not is_full_cycle(f, n):
            return
        step = lift_from(f, n)
        td = taylor_data(f, n, 0, 1)
        assert step.length == f.prime**n
        assert (step.a, step.b) == (td.derivative, td.displacement)

    @given(poly_strategy(primes=(2, 3, 5), max_degree=4, coeff=30), st.integers(1, 2))
    def test_equivalent_to_next_level_full_cycle(self, f, n):
        if not is_full_cycle(f, n):
            return
        assert (lift_from(f, n).kind == "grow") == is_full_cycle(f, n + 1)
