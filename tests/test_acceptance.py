"""Acceptance gate: ten go/no-go criteria for the minimality decider.

Each test prints one PASS line with the measured quantities once its
assertions hold, so a verbose run reads as a checklist.  Tolerances
(runtime budgets, sample sizes, zero-violation requirements) are stated
inline next to each assertion.
"""

import random
import time
from collections import Counter
from itertools import chain, product

from padicdyn.criteria import minimal_general, minimal_z2, minimal_z3
from padicdyn.dynamics import (
    IntPolynomial,
    _orbit_shape,
    cycle_decomposition,
    is_full_cycle,
    reduced_map_table,
)
from padicdyn.odometer import TowerReport, full_cycle_stream, verify_conjugacy_tower
from padicdyn.sweep import SweepConfig, run_sweep

import oracles
from oracles import is_bijective_mod, taylor_data, tower_oracle

W2 = IntPolynomial(2, (1, 3, 0, 2))
W3 = IntPolynomial(3, (1, 4, 0, 4, 0, 2))


def _best_of_five(fn) -> float:
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cycle_containing_zero(f, n):
    for cyc in cycle_decomposition(f, n).cycles:
        if 0 in cyc:
            return tuple(cyc)
    raise AssertionError("0 is not periodic")


def _sample_minimal_p3(rng, count, allow_any_unit_constant=True):
    """Seeded rejection sampling of certified-minimal 3-adic polynomials."""
    found = []
    a0_choices = (1, 2, 4, 5, 7, 8) if allow_any_unit_constant else (1,)
    while len(found) < count:
        coeffs = (rng.choice(a0_choices),
                  *(rng.randrange(27) for _ in range(rng.randrange(2, 6))))
        if not any(coeffs[1:]):
            continue
        f = IntPolynomial(3, coeffs)
        if minimal_z3(f).minimal:
            found.append(f)
    return found


def _sample_minimal_p2(rng, count):
    found = []
    while len(found) < count:
        coeffs = (rng.choice((1, 3, 5, 7)),
                  *(rng.randrange(16) for _ in range(rng.randrange(2, 6))))
        if not any(coeffs[1:]):
            continue
        f = IntPolynomial(2, coeffs)
        if minimal_z2(f).minimal:
            found.append(f)
    return found


def test_c01_p2_witness_cycles_and_verdicts():
    assert cycle_decomposition(W2, 2).cycles == ((0, 1, 2, 3),)
    assert _cycle_containing_zero(W2, 3) == (0, 1, 6, 3)
    closed = minimal_z2(W2)
    delta = minimal_general(W2)
    assert not closed.minimal and not delta.minimal
    elapsed = _best_of_five(lambda: (minimal_z2(W2), minimal_general(W2)))
    assert elapsed < 1e-3  # both deciders together, under a millisecond
    print(f"C1 PASS: p=2 witness cycles exact, both verdicts not-minimal, "
          f"decided in {elapsed * 1e6:.0f} us")


def test_c02_p3_witness_cycles_and_verdicts():
    # a full cycle: one array, filled from the orbit engine's blocks
    cycles = cycle_decomposition(W3, 2).cycles
    assert tuple(map(tuple, cycles)) == ((0, 1, 2, 6, 7, 5, 3, 4, 8),)
    assert _cycle_containing_zero(W3, 3) == (0, 1, 11, 15, 7, 23, 3, 13, 17)
    closed = minimal_z3(W3)
    delta = minimal_general(W3)
    assert not closed.minimal and not delta.minimal
    assert closed.case == 1
    elapsed = _best_of_five(lambda: (minimal_z3(W3), minimal_general(W3)))
    assert elapsed < 1e-3
    print(f"C2 PASS: p=3 witness cycles exact, both verdicts not-minimal, "
          f"decided in {elapsed * 1e6:.0f} us")


def test_c03_exhaustive_equivalence_p2():
    t0 = time.perf_counter()
    rep = run_sweep(SweepConfig(2, 4, 8))
    elapsed = time.perf_counter() - t0
    assert rep.total == 4096
    assert rep.disagreements == 0, rep.first_counterexample
    assert elapsed < 1.0  # stated budget for the 8^4 box
    # every class representative of the p = 2 certificate: with the
    # reduction tests (test_criteria.TestClassReductions), every map
    box = [(1, *t) for t in product(range(8), repeat=4)]
    brute = [oracles.full_cycle_oracle(c, 2, 3) for c in box]
    assert [minimal_z2(IntPolynomial(2, c)).minimal for c in box] == brute
    assert sum(brute) == rep.agree_minimal
    print(f"C3 PASS: 4096 p=2 polynomials, closed = mod-8 check, "
          f"{rep.agree_minimal} minimal, 0 disagreements, {elapsed:.2f}s")


def test_c04_exhaustive_equivalence_p3():
    t0 = time.perf_counter()
    rep = run_sweep(SweepConfig(3, 5, 9))
    brute = sum(
        oracles.full_cycle_oracle((1, *t), 3, 3)
        for t in product(range(9), repeat=5)
    )
    elapsed = time.perf_counter() - t0
    assert rep.total == 59049
    assert rep.disagreements == 0, rep.first_counterexample
    assert rep.agree_minimal == 405
    assert brute == 405
    assert elapsed < 30.0  # stated single-threaded budget
    print(f"C4 PASS: 59049 p=3 polynomials, closed = mod-27 check "
          f"= brute force, 405 minimal, 0 disagreements, {elapsed:.2f}s")


def test_c05_decision_level_sharpness_p5_p7():
    rng = random.Random(0x5E7)
    checked = 0
    minimal_seen = 0
    for p in (5, 7):
        for _ in range(500):
            while True:
                coeffs = tuple(rng.randrange(p * p) for _ in range(5))
                if any(coeffs[1:]):
                    break
            f = IntPolynomial(p, coeffs)
            fc2 = is_full_cycle(f, 2)
            # level 2 settles it: deeper levels must agree either way
            assert is_full_cycle(f, 3) == fc2, coeffs
            assert is_full_cycle(f, 4) == fc2, coeffs
            checked += 1
            minimal_seen += fc2
    assert checked == 1000 and minimal_seen > 0
    print(f"C5 PASS: {checked} random degree-4 maps over p in (5, 7), "
          f"level-2 verdict persisted at levels 3 and 4 "
          f"({minimal_seen} minimal)")


def test_c06_lift_check_equals_next_level():
    # the walk that decides every verdict classifies the lift of each
    # full-cycle level n; "grow" must be exactly a full cycle at n + 1
    population = [
        t for t in product(range(9), repeat=5)
        if any(t) and is_full_cycle(IntPolynomial(3, (1, *t)), 1)
    ]
    sizes = [len(population)]
    for n in (1, 2, 3):
        survivors = []
        for t in population:
            f = IntPolynomial(3, (1, *t))
            grows = _orbit_shape(f, n + 1).steps[n - 1].kind == "grow"
            nxt = is_full_cycle(f, n + 1)
            assert grows == nxt, (t, n)
            if nxt:
                survivors.append(t)
        population = survivors
        sizes.append(len(population))
    assert sizes == [6561, 648, 405, 405]
    print("C6 PASS: grow lift = next-level full cycle over the p=3 box, "
          "populations 6561 -> 648 -> 405 -> 405, 0 disagreements")


def test_c07_displacement_recurrence():
    rng = random.Random(0xBE7A)
    maps = _sample_minimal_p3(rng, 100)
    for f in maps:
        for n in (1, 2):
            mod = 3**n
            at_zero = taylor_data(f, n, 0, n)
            at_image = taylor_data(f, n, f.coefficients[0], n)
            fprime_at_zero = f.coefficients[1] % mod
            want = (at_zero.displacement * fprime_at_zero) % mod
            assert at_image.displacement == want, (f.coefficients, n)
    print("C7 PASS: displacement(f(0)) = displacement(0) * f'(0) mod 3^n "
          "for 100 certified-minimal maps at n = 1, 2")


def test_c08_conjugacy_towers():
    rng = random.Random(0x70E5)
    for p, n_max, sample in (
        (2, 6, _sample_minimal_p2(rng, 50)),
        (3, 4, _sample_minimal_p3(rng, 50)),
    ):
        for f in sample:
            report = verify_conjugacy_tower(f, n_max)
            assert report == TowerReport(p, n_max), f.coefficients
            # the identities themselves, at every residue of every level
            assert tower_oracle(f, n_max) == report, f.coefficients
    print("C8 PASS: conjugation and projection identities exhaustively "
          "verified for 50 minimal maps per prime (n_max 6 at p=2, 4 at p=3)")


def test_c09_stream_period_and_equidistribution():
    for prime, n, coeffs, seed in ((2, 10, (1, 3, 2), 7), (3, 6, (1, 1, 6), 11)):
        f = IntPolynomial(prime, coeffs)
        verdict = minimal_z2(f) if prime == 2 else minimal_z3(f)
        assert verdict.minimal
        size = prime**n
        values = list(chain.from_iterable(full_cycle_stream(f, n, seed, size + 1)))
        assert values[0] == seed
        assert sorted(values[:size]) == list(range(size))  # no early return
        assert values[size] == seed  # first return at exactly p^n
        for m in range(1, n + 1):
            counts = Counter(x % prime**m for x in values[:size])
            expected = prime ** (n - m)
            assert all(counts[c] == expected for c in range(prime**m))
    print("C9 PASS: periods exactly 2^10 and 3^6, every class mod p^m hit "
          "exactly p^(n-m) times per period")


def test_c10_isometry_and_preimage_counts():
    populations = []
    for p, degree, bound in ((2, 4, 8), (3, 5, 9)):
        size = p**3
        val = [3] * size
        for d in range(1, size):
            v, x = 0, d
            while x % p == 0:
                x //= p
                v += 1
            val[d] = v
        bijective = 0
        for t in product(range(bound), repeat=degree):
            if not any(t):
                continue
            f = IntPolynomial(p, (1, *t))
            if not is_bijective_mod(f, 3):
                continue
            bijective += 1
            table = reduced_map_table(f, 3).entries
            for x in range(size):
                tx = table[x]
                for y in range(x + 1, size):
                    assert val[(tx - table[y]) % size] == val[(x - y) % size]
            for m in (1, 2, 3):
                counts = Counter(v % p**m for v in table)
                assert all(counts[c] == p ** (3 - m) for c in range(p**m))
        populations.append(bijective)
    assert populations == [512, 3888]
    print("C10 PASS: valuation preserved on all pairs and preimage counts "
          "p^(3-m) for 512 bijective p=2 maps and 3888 bijective p=3 maps")
