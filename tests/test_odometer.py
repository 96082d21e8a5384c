import tracemalloc
from collections import Counter
from itertools import chain, product
from operator import eq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicdyn import odometer
from padicdyn.criteria import decide
from padicdyn.dynamics import (
    DEFAULT_TABLE_BOUND,
    IntPolynomial,
    NotFullCycleError,
    TableBoundError,
    decision_level,
    full_cycle_by_lifting,
    reduced_map_table,
)
from padicdyn.odometer import (
    ConjugacyTable,
    TowerReport,
    build_psi,
    full_cycle_stream,
    verify_conjugacy_tower,
)
from padicdyn.padic import PadicError

import oracles

W2 = IntPolynomial(2, (1, 3, 0, 2))
Q3 = IntPolynomial(3, (1, 1, 6))
X_PLUS_1 = {p: IntPolynomial(p, (1, 1)) for p in (2, 3, 5)}

def flat(blocks):
    """The ints of an iterator of blocks, as build_psi and
    full_cycle_stream yield them."""
    return list(chain.from_iterable(blocks))


MINIMAL_SAMPLES = [
    Q3,
    IntPolynomial(3, (1, 1)),
    IntPolynomial(3, (1, 4, 0, 1, 0, 2)),  # degree-5 case 1
    IntPolynomial(2, (1, 1)),
    IntPolynomial(2, (1, 3, 2)),
    IntPolynomial(5, (1, 1)),
]


class TestBuildPsi:
    def test_frozen_index_table(self):
        t = build_psi(Q3, 2)
        assert flat(t.orbit_index) == [0, 1, 8, 6, 7, 5, 3, 4, 2]
        assert flat(t.orbit_point) == [0, 1, 8, 6, 7, 5, 3, 4, 2]
        assert t.prime == 3 and t.level == 2

    def test_tables_are_mutually_inverse(self):
        # each field is an iterator, read once
        for f in MINIMAL_SAMPLES:
            t = build_psi(f, 3)
            size = f.prime**3
            index, points = flat(t.orbit_index), flat(t.orbit_point)
            assert sorted(index) == list(range(size))
            assert all(points[index[x]] == x for x in range(size))

    def test_conjugation_identity(self):
        # indexing by hitting time turns f into the +1 map
        for f in MINIMAL_SAMPLES:
            for n in (1, 2, 3):
                index = flat(build_psi(f, n).orbit_index)
                table = reduced_map_table(f, n).entries
                size = f.prime**n
                assert all(
                    index[table[x]] == (index[x] + 1) % size for x in range(size)
                )

    def test_odometer_is_its_own_conjugacy(self):
        t = build_psi(X_PLUS_1[5], 2)
        assert flat(t.orbit_index) == list(range(25))

    def test_rejects_short_cycle(self):
        with pytest.raises(NotFullCycleError):
            build_psi(W2, 3)
        with pytest.raises(NotFullCycleError):
            build_psi(IntPolynomial(5, (1, 1, 1)), 1)

    def test_refuses_before_either_table_is_built(self):
        # 1 + 3x runs round half of Z/2^18; the refusal comes from the
        # lifting walk, which holds no table of 2^18 entries
        f = IntPolynomial(2, (1, 3))
        tracemalloc.start()
        try:
            with pytest.raises(NotFullCycleError, match="closes after 131072 of 262144"):
                build_psi(f, 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_tables_take_bytes_per_residue(self):
        # both tables, read to their ends, hold a few blocks of K = 2^8
        # residues and no map table: under a byte a residue, where two
        # index arrays would take 8
        f = X_PLUS_1[2]
        tracemalloc.start()
        try:
            t = build_psi(f, 16)
            plus_one = (all(map(eq, chain.from_iterable(t.orbit_index), range(1 << 16)))
                        and all(map(eq, chain.from_iterable(t.orbit_point), range(1 << 16))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plus_one
        assert peak < 1 << 16

    # every map a0 + a1 x + a2 x^2 with a0..a2 in [-2, 2], at levels 1 and
    # 2, and up to level 5 at p = 2 and 3, past their decision level
    SMALL_MAPS = [(p, coeffs, n) for p in (2, 3, 5)
                  for coeffs in product(range(-2, 3), repeat=3)
                  for n in range(1, 6 if p < 5 else 3)]

    def test_matches_the_orbit_walk_with_no_table(self, no_tables):
        # the error of the walk that remembers every residue, which counts
        # the residues the orbit of 0 visits, or finds it visits all and
        # misses 0, where the orbit of 0 is no full cycle
        seen = set()
        for p, coeffs, n in self.SMALL_MAPS:
            order, start = oracles.orbit_from_zero(coeffs, p, n)
            size = p**n
            if start == 0 and len(order) == size:
                continue
            seen.add((start > 0, len(order) < size))
            with pytest.raises(NotFullCycleError) as err:
                build_psi(IntPolynomial(p, coeffs), n)
            assert str(err.value) == (
                f"orbit of 0 closes after {len(order)} of {size} residues "
                f"at level {n}" if len(order) < size
                else f"orbit of 0 does not return to 0 at level {n}")
        # 0 periodic on a short cycle, 0 not periodic, and a tail and cycle
        # that cover every residue
        assert seen == {(False, True), (True, True), (True, False)}

    def test_full_cycles_match_the_orbit_walk(self):
        full = 0
        for p, coeffs, n in self.SMALL_MAPS:
            order, start = oracles.orbit_from_zero(coeffs, p, n)
            if start == 0 and len(order) == p**n:
                full += 1
                t = build_psi(IntPolynomial(p, coeffs), n)
                assert flat(t.orbit_point) == list(order)
        assert full


def _outcome(tower, f, n_max, table_bound):
    try:
        return tower(f, n_max, table_bound=table_bound)
    except PadicError as e:
        return type(e).__name__, str(e)


def _kind(outcome):
    if isinstance(outcome, TowerReport):
        return "passed"
    name, text = outcome
    return f"{name} at level {text.rsplit(' ', 1)[1]}" if "level" in text else name


class TestConjugacyTower:
    @pytest.mark.parametrize("f,n_max", [(X_PLUS_1[2], 3), (Q3, 3), (X_PLUS_1[3], 4)])
    def test_passes_for_minimal_maps(self, f, n_max):
        assert verify_conjugacy_tower(f, n_max) == TowerReport(f.prime, n_max)

    def test_raises_for_nonminimal_map(self):
        with pytest.raises(NotFullCycleError):
            verify_conjugacy_tower(W2, 3)

    def test_bad_n_max(self):
        with pytest.raises(PadicError):
            verify_conjugacy_tower(Q3, 0)

    @pytest.mark.parametrize("p,exponents,bound", [
        (2, (1, 2, 3), 4), (3, (1, 3, 5), 6), (5, (1, 4), 10), (7, (1, 6), 14)])
    def test_matches_oracle_on_boxes(self, p, exponents, bound):
        # every map a0 + sum a_e x^e, a_e in [0, bound), with a0 = 1, the
        # unit -1 and the non-unit p, at n_max = 1..L+2 and table bounds
        # default and p^2: the same report, or the same error type and
        # text, as the table-built tower
        level = decision_level(p)
        seen = set()
        for a0 in (1, -1, p):
            for tail in product(range(bound), repeat=len(exponents)):
                coeffs = [a0] + [0] * exponents[-1]
                for e, a in zip(exponents, tail):
                    coeffs[e] = a
                f = IntPolynomial(p, coeffs)
                for table_bound in (DEFAULT_TABLE_BOUND, p**2):
                    for n_max in range(1, level + 3):
                        got = _outcome(verify_conjugacy_tower, f, n_max, table_bound)
                        want = _outcome(oracles.tower_oracle, f, n_max, table_bound)
                        assert got == want, (coeffs, n_max, table_bound)
                        seen.add(_kind(got))
        # the box reaches every outcome: a pass, the bound, and a break at
        # each level up to the decision level
        assert seen == {"passed", "TableBoundError", *(
            f"NotFullCycleError at level {k}" for k in range(1, level + 1))}

    def test_bound_alone_refuses_with_no_walk(self, monkeypatch):
        # level 1 is over the bound, and a break can come no sooner: no
        # kernel runs
        def refuse(*args, **kwargs):
            raise AssertionError("the orbit was walked")

        monkeypatch.setattr(IntPolynomial, "eval_mod", refuse)
        monkeypatch.setattr(IntPolynomial, "eval_slope_mod", refuse)
        f = IntPolynomial(1000003, (1, 1))
        with pytest.raises(TableBoundError, match=r"^table of 1000003\^1 entries exceeds bound 1000$"):
            verify_conjugacy_tower(f, 1, table_bound=1000)
        with pytest.raises(TableBoundError, match=r"^table of 2\^1 entries exceeds bound 1$"):
            verify_conjugacy_tower(W2, 5, table_bound=1)

    @pytest.mark.parametrize("f,n_max,table_bound,walked,error", [
        # x + 1 at p = 2: 2^3 > 4, so no level above 2 is lifted
        (X_PLUS_1[2], 5, 4, 2, ("TableBoundError", "table of 2^3 entries exceeds bound 4")),
        # W2 breaks at level 3, above the last level the bound allows
        (W2, 5, 4, 2, ("TableBoundError", "table of 2^3 entries exceeds bound 4")),
        (W2, 5, 8, 3, ("NotFullCycleError",
                       "orbit of 0 closes after 4 of 8 residues at level 3")),
        # no level past the decision level is lifted
        (X_PLUS_1[5], 4, 10**6, 2, None),
    ])
    def test_walks_only_below_the_first_level_over_the_bound(
            self, monkeypatch, f, n_max, table_bound, walked, error):
        levels = []

        def lift(g, level):
            levels.append(level)
            return full_cycle_by_lifting(g, level)

        monkeypatch.setattr(odometer, "full_cycle_by_lifting", lift)
        outcome = _outcome(verify_conjugacy_tower, f, n_max, table_bound)
        assert outcome == _outcome(oracles.tower_oracle, f, n_max, table_bound)
        assert max(levels) == walked
        assert outcome == (error or TowerReport(f.prime, n_max))

    @given(st.sampled_from(MINIMAL_SAMPLES))
    def test_tower_always_passes_for_certified_minimal(self, f):
        assert decide(f).minimal
        assert verify_conjugacy_tower(f, 3) == TowerReport(f.prime, 3)


class TestFullCycleStream:
    def test_frozen_translation_orbit(self):
        got = flat(full_cycle_stream(X_PLUS_1[3], 2, 0, 10))
        assert got == [0, 1, 2, 3, 4, 5, 6, 7, 8, 0]

    def test_frozen_witness_orbit(self):
        got = flat(full_cycle_stream(Q3, 2, 0, 9))
        assert got == [0, 1, 8, 6, 7, 5, 3, 4, 2]

    def test_seed_reduction_and_count(self):
        got = flat(full_cycle_stream(Q3, 1, 10, 4))
        assert got[0] == 1 and len(got) == 4
        assert flat(full_cycle_stream(Q3, 1, 0, 0)) == []

    def test_period_is_exactly_p_to_n(self):
        size = 27
        got = flat(full_cycle_stream(Q3, 3, 5, 2 * size))
        assert got[:size] != got[1 : size + 1]
        assert sorted(got[:size]) == list(range(size))
        assert got[size:] == got[:size]

    def test_equidistribution_across_classes(self):
        # one full period hits every class mod 3^m exactly 3^(n-m) times
        n = 3
        got = flat(full_cycle_stream(Q3, n, 0, 3**n))
        for m in (1, 2):
            counts = Counter(x % 3**m for x in got)
            assert all(counts[r] == 3 ** (n - m) for r in range(3**m))

    def test_full_cycle_checked_at_the_stream_level(self):
        # a full cycle mod 9 that breaks mod 27: the level-2 stream runs,
        # the level-3 stream is refused before its first residue
        w3 = IntPolynomial(3, (1, 4, 0, 4, 0, 2))
        assert len(flat(full_cycle_stream(w3, 2, 0, 9))) == 9
        with pytest.raises(NotFullCycleError):
            full_cycle_stream(w3, 3, 0, 5)

    def test_no_certificate_requires_full_cycle(self):
        with pytest.raises(NotFullCycleError):
            full_cycle_stream(W2, 3, 0, 5)

    def test_negative_count(self):
        with pytest.raises(PadicError):
            full_cycle_stream(Q3, 1, 0, -1)

    def test_lazy_before_first_next(self):
        stream = full_cycle_stream(Q3, 2, 0, 3)
        assert next(chain.from_iterable(stream)) == 0


class TestDataShapes:
    def test_conjugacy_table_is_frozen(self):
        t = build_psi(Q3, 1)
        assert isinstance(t, ConjugacyTable)
        with pytest.raises(AttributeError):
            t.level = 9
