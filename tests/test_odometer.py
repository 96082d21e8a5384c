from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicdyn import odometer
from padicdyn.criteria import decide
from padicdyn.dynamics import IntPolynomial, NotFullCycleError, reduced_map_table
from padicdyn.odometer import (
    ConjugacyTable,
    build_psi,
    full_cycle_stream,
    verify_conjugacy_tower,
)
from padicdyn.padic import PadicError

W2 = IntPolynomial(2, (1, 3, 0, 2))
Q3 = IntPolynomial(3, (1, 1, 6))
X_PLUS_1 = {p: IntPolynomial(p, (1, 1)) for p in (2, 3, 5)}

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
        assert t.orbit_index == (0, 1, 8, 6, 7, 5, 3, 4, 2)
        assert t.orbit_point == (0, 1, 8, 6, 7, 5, 3, 4, 2)
        assert t.prime == 3 and t.level == 2

    def test_tables_are_mutually_inverse(self):
        for f in MINIMAL_SAMPLES:
            t = build_psi(f, 3)
            size = f.prime**3
            assert sorted(t.orbit_index) == list(range(size))
            assert all(t.orbit_point[t.orbit_index[x]] == x for x in range(size))

    def test_conjugation_identity(self):
        # indexing by hitting time turns f into the +1 map
        for f in MINIMAL_SAMPLES:
            for n in (1, 2, 3):
                t = build_psi(f, n)
                table = reduced_map_table(f, n).entries
                size = f.prime**n
                assert all(
                    t.orbit_index[table[x]] == (t.orbit_index[x] + 1) % size
                    for x in range(size)
                )

    def test_odometer_is_its_own_conjugacy(self):
        t = build_psi(X_PLUS_1[5], 2)
        assert t.orbit_index == tuple(range(25))

    def test_rejects_short_cycle(self):
        with pytest.raises(NotFullCycleError):
            build_psi(W2, 3)
        with pytest.raises(NotFullCycleError):
            build_psi(IntPolynomial(5, (1, 1, 1)), 1)


class TestConjugacyTower:
    @pytest.mark.parametrize("f,n_max", [(X_PLUS_1[2], 3), (Q3, 3), (X_PLUS_1[3], 4)])
    def test_passes_for_minimal_maps(self, f, n_max):
        rep = verify_conjugacy_tower(f, n_max)
        assert rep.passed
        assert rep.n_max == n_max and len(rep.levels) == n_max
        assert all(c.conjugation_ok and c.projection_ok for c in rep.levels)

    def test_raises_for_nonminimal_map(self):
        with pytest.raises(NotFullCycleError):
            verify_conjugacy_tower(W2, 3)

    def test_bad_n_max(self):
        with pytest.raises(PadicError):
            verify_conjugacy_tower(Q3, 0)

    def test_one_map_table_per_level(self, monkeypatch):
        built = []

        def counting_table(f, n, **kwargs):
            built.append(n)
            return reduced_map_table(f, n, **kwargs)

        monkeypatch.setattr(odometer, "reduced_map_table", counting_table)
        assert verify_conjugacy_tower(Q3, 4).passed
        assert built == [1, 2, 3, 4]

    @given(st.sampled_from(MINIMAL_SAMPLES))
    def test_tower_always_passes_for_certified_minimal(self, f):
        assert decide(f).minimal
        assert verify_conjugacy_tower(f, 3).passed


class TestFullCycleStream:
    def test_frozen_translation_orbit(self):
        got = list(full_cycle_stream(X_PLUS_1[3], 2, 0, 10))
        assert got == [0, 1, 2, 3, 4, 5, 6, 7, 8, 0]

    def test_frozen_witness_orbit(self):
        got = list(full_cycle_stream(Q3, 2, 0, 9))
        assert got == [0, 1, 8, 6, 7, 5, 3, 4, 2]

    def test_seed_reduction_and_count(self):
        got = list(full_cycle_stream(Q3, 1, 10, 4))
        assert got[0] == 1 and len(got) == 4
        assert list(full_cycle_stream(Q3, 1, 0, 0)) == []

    def test_period_is_exactly_p_to_n(self):
        size = 27
        got = list(full_cycle_stream(Q3, 3, 5, 2 * size))
        assert got[:size] != got[1 : size + 1]
        assert sorted(got[:size]) == list(range(size))
        assert got[size:] == got[:size]

    def test_equidistribution_across_classes(self):
        # one full period hits every class mod 3^m exactly 3^(n-m) times
        n = 3
        got = list(full_cycle_stream(Q3, n, 0, 3**n))
        for m in (1, 2):
            counts = Counter(x % 3**m for x in got)
            assert all(counts[r] == 3 ** (n - m) for r in range(3**m))

    def test_full_cycle_checked_at_the_stream_level(self):
        # a full cycle mod 9 that breaks mod 27: the level-2 stream runs,
        # the level-3 stream is refused before its first residue
        w3 = IntPolynomial(3, (1, 4, 0, 4, 0, 2))
        assert len(list(full_cycle_stream(w3, 2, 0, 9))) == 9
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
        assert next(stream) == 0


class TestDataShapes:
    def test_conjugacy_table_is_frozen(self):
        t = build_psi(Q3, 1)
        assert isinstance(t, ConjugacyTable)
        with pytest.raises(AttributeError):
            t.level = 9
