"""The orbit of a full cycle mod p^n in blocks (dynamics._orbit_blocks),
and the three tables and streams built on it.

With K = p^ceil(n/2), the orbit mod p^n is blocks of K residues, each the
one before it plus a fixed step vector, because (f^K)' = 1 mod
p^(n - ceil(n/2)) along the orbit.  Every map here is a seeded full cycle
mod p^n of degree 1-12, with signed coefficients and a0 != 1; each claim
is checked against a plain walk or an oracle that evaluates through pow().
"""

import json
import random
import time
import tracemalloc
from array import array
from itertools import chain, islice
from math import prod

import pytest

from padicdyn.cli import main
from padicdyn import dynamics
from padicdyn.dynamics import (IntPolynomial, TableBoundError, _orbit_blocks, cycle_decomposition,
                               full_cycle_by_lifting)
from padicdyn.odometer import build_psi, full_cycle_stream

import oracles

# every level 1..7 at p = 2 and 3; at larger primes the levels with at
# most 3,125 residues, so that 3 p^n + 5 residues stay cheap to check
LEVELS = [(p, n) for p in (2, 3, 5, 7, 11) for n in range(1, 8) if p**n <= 3125]


def full_cycle_map(p, n, degree, rng):
    """A seeded full cycle mod p^n of the given degree: a0 + x + (x^p -
    x) g(x) + p h(x), which is x + a0 on Z/p (every full p-cycle at p = 2
    and 3), with f'(z) = 1 - g(z) mod p varying with z; g and h have
    signed coefficients and a0 is a unit mod p other than 1.  Drawn until
    the orbit of 0 walked through pow() is one cycle mod p^n."""
    units = [a for a in range(-2 * p, 2 * p) if a % p]
    while True:
        a0 = rng.choice(units)
        h = [rng.randint(-9, 9) for _ in range(degree + 1)]
        coeffs = [a0 + p * h[0], 1 + p * h[1]] + [p * c for c in h[2:]]
        if degree >= p:
            g = [rng.randint(-9, 9) for _ in range(degree - p + 1)]
            spread = oracles.poly_mul([0, -1] + [0] * (p - 2) + [1], g)
            coeffs = [a + b for a, b in zip(coeffs, spread)]
        f = IntPolynomial(p, coeffs)
        if (f.degree == degree and coeffs[0] != 1
                and oracles.full_cycle_oracle(f.coefficients, p, n)):
            return f


# three maps a level, the degrees running through 1..12 in turn
_rng = random.Random(18)
MAPS = [(full_cycle_map(p, n, 1 + (3 * i + j) % 12, _rng), n)
        for i, (p, n) in enumerate(LEVELS) for j in range(3)]


def _ids(case):
    f, n = case
    return f"p{f.prime}-n{n}-d{f.degree}"


def walk(f, n, seed, count):
    """count residues of the orbit of seed mod p^n, one eval_mod a step."""
    size = f.prime**n
    x = seed % size
    values = []
    for _ in range(count):
        values.append(x)
        x = f.eval_mod(x, size)
    return values


def flat(blocks):
    """The ints of an iterator of blocks, as the engine, build_psi and
    full_cycle_stream yield them."""
    return list(chain.from_iterable(blocks))


def blocks(f, n, seed, count):
    return flat(_orbit_blocks(f, n, seed, count))


def inverse(order):
    """index[x] = k where order[k] = x."""
    index = [0] * len(order)
    for k, x in enumerate(order):
        index[x] = k
    return index


def test_maps_cover_every_degree_and_signed_constant():
    assert {f.degree for f, _ in MAPS} == set(range(1, 13))
    assert any(f.coefficients[0] < 0 for f, _ in MAPS)
    assert all(f.coefficients[0] != 1 for f, _ in MAPS)
    assert {(f.prime, n) for f, n in MAPS} == set(LEVELS)


@pytest.mark.parametrize("case", MAPS, ids=map(_ids, MAPS))
def test_iterate_derivative_is_one_along_the_orbit(case):
    # (f^K)'(y) is the product of f' over the K orbit points from y
    f, n = case
    p = f.prime
    k = p ** ((n + 1) // 2)
    q = p ** (n - (n + 1) // 2)
    order, _ = oracles.orbit_from_zero(f.coefficients, p, n)
    df = oracles.derivative(f).coefficients
    slopes = [oracles.eval_pow_mod(df, x, q) for x in order]
    slopes += slopes[:k]
    assert all(prod(slopes[i:i + k]) % q == 1 % q for i in range(len(order)))


@pytest.mark.parametrize("case", MAPS, ids=map(_ids, MAPS))
def test_blocks_match_the_plain_walk(case):
    f, n = case
    size = f.prime**n
    k = f.prime ** ((n + 1) // 2)
    seed = random.Random(size + f.degree).randrange(-size, 2 * size)
    for count in (0, 1, 2 * k - 1, 2 * k, 2 * k + 1, size, 3 * size + 5):
        assert blocks(f, n, seed, count) == walk(f, n, seed, count), count


@pytest.mark.parametrize("case", MAPS, ids=map(_ids, MAPS))
def test_later_blocks_keep_each_position_mod_k(case):
    # the shape the packed stream writer reads: every block holds K
    # positions, the first too and the last maybe fewer, each keeping the
    # residue mod K that it has in the first block; all are arrays of one
    # typecode
    f, n = case
    size = f.prime**n
    k = f.prime ** ((n + 1) // 2)
    seed = random.Random(size + 2 * f.degree).randrange(size)
    count = 3 * size + 5
    got = list(_orbit_blocks(f, n, seed, count))
    assert [len(b) for b in got] == [k] * (count // k) + [count % k] * (count % k > 0)
    assert {(type(b), b.typecode) for b in got} == {(array, got[0].typecode)}
    low = [x % k for x in got[0]]
    for block in got:
        assert [x % k for x in block] == low[:len(block)]


# on both sides of each field width of the packed kernel (32 bits up to
# 2^31, 64 above), and at the top of its range
KERNEL_MODULI = [7**5, 2**30, 2**30 + 3, 2**31, 2**31 + 1, 3**20, 65521**2, 2**32, 2**63]


@pytest.mark.parametrize("modulus", KERNEL_MODULI)
def test_stepped_blocks_match_stepping_each_residue(modulus):
    # 0 and modulus - 1 against each other in both vectors, sums of
    # modulus - 1, modulus and modulus + 1, then random residues
    k = 40
    rng = random.Random(modulus)
    top = modulus - 1
    block = [0, 0, top, top, 1, 2] + [rng.randrange(modulus) for _ in range(k - 6)]
    step = [0, top, 0, top, top, top] + [rng.randrange(modulus) for _ in range(k - 6)]
    for left in (0, 1, k - 1, k, k + 1, 5 * k + 3):
        want, x = [], block
        while len(want) < left:
            x = [(a + s) % modulus for a, s in zip(x, step)]
            want += x
        got = list(dynamics._stepped_blocks(block, step, modulus, left))
        assert [len(b) for b in got] == [k] * (left // k) + [left % k] * (left % k > 0)
        assert list(chain.from_iterable(got)) == want[:left], left


# x + 1, whose stepped blocks pass p^n - 1 from a seed 3K below p^n, and
# a seeded full cycle mod 27, so one mod 3^20, where the fields are 64 bits
WRAPS = [(IntPolynomial(p, (1, 1)), n) for p, n in ((2, 32), (3, 20), (65521, 2))]
WRAPS.append((full_cycle_map(3, 3, 5, random.Random(28)), 20))


@pytest.mark.parametrize("case", WRAPS, ids=map(_ids, WRAPS))
def test_blocks_match_the_plain_walk_across_the_wrap(case):
    f, n = case
    size, k = f.prime**n, f.prime ** ((n + 1) // 2)
    assert k <= dynamics._BLOCK_BOUND
    seed = size - 3 * k
    want = walk(f, n, seed, 6 * k)
    assert blocks(f, n, seed, 6 * k) == want
    assert flat(full_cycle_stream(f, n, seed, 6 * k)) == want
    # one typecode for the walked and the stepped blocks, on both sides
    # of 2^31, so that writers may join them as bytes
    assert len({b.typecode for b in _orbit_blocks(f, n, seed, 6 * k)}) == 1


def test_index_past_the_block_bound_reads_its_head_from_the_walk():
    # K = 2^17 exceeds the engine's block bound, where a stream is a lazy
    # walk; build_psi still reads its first K residues and both step
    # vectors from the column kernel's walk, and steps both tables
    f = IntPolynomial(2, (1, 1))
    k = 1 << 17
    assert k > dynamics._BLOCK_BOUND
    t = build_psi(f, 33, table_bound=1 << 33)
    assert list(islice(chain.from_iterable(t.orbit_point), 3 * k)) == list(range(3 * k))
    assert list(islice(chain.from_iterable(t.orbit_index), 3 * k)) == list(range(3 * k))


@pytest.mark.parametrize("case", MAPS, ids=map(_ids, MAPS))
def test_tables_and_stream_match_their_oracles(case, request):
    f, n = case
    p = f.prime
    size = p**n
    if size > 2 * p ** ((n + 1) // 2):
        # where the engine's walk is not the whole orbit, no table is built
        request.getfixturevalue("no_tables")
    order, start = oracles.orbit_from_zero(f.coefficients, p, n)
    assert start == 0 and len(order) == size
    t = build_psi(f, n)
    assert flat(t.orbit_point) == order
    assert flat(t.orbit_index) == inverse(order)
    dec = cycle_decomposition(f, n)
    assert [list(c) for c in dec.cycles] == [order]
    assert dec.bijective and dec.non_periodic_count == 0
    seed = random.Random(size - f.degree).randrange(size)
    want = [order[(order.index(seed) + i) % size] for i in range(3 * size + 5)]
    assert flat(full_cycle_stream(f, n, seed, 3 * size + 5)) == want


@pytest.mark.parametrize("case", MAPS, ids=map(_ids, MAPS))
def test_conjugacy_rows_and_record_invert_the_orbit(case, capsys):
    # the closed-form index in residue order, at odd and even n, against
    # the inverse of the orbit walked through pow()
    f, n = case
    order, _ = oracles.orbit_from_zero(f.coefficients, f.prime, n)
    index = inverse(order)
    argv = ["conjugacy", "--prime", str(f.prime),
            "--coeffs=" + ",".join(map(str, f.coefficients)), "--level", str(n)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(f"{x} {k}\n" for x, k in enumerate(index))
    assert main([*argv, "--format", "structured"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["orbit_index"] == index and record["orbit_point"] == order


def test_bound_refuses_before_any_walk(monkeypatch, no_tables):
    def refuse(*args, **kwargs):
        raise AssertionError("the orbit was walked")

    monkeypatch.setattr(IntPolynomial, "eval_mod", refuse)
    monkeypatch.setattr(IntPolynomial, "eval_slope_mod", refuse)
    f = IntPolynomial(2, (1, 1))
    for fn in (build_psi, cycle_decomposition):
        with pytest.raises(TableBoundError, match=r"^table of 2\^11 entries exceeds bound 1024$"):
            fn(f, 11, table_bound=1024)


def test_index_above_the_kernel_range_is_refused_before_any_walk(monkeypatch):
    # 2^64 residues would overflow the packed kernel's 64-bit fields
    def refuse(*args, **kwargs):
        raise AssertionError("the orbit was walked")

    monkeypatch.setattr(IntPolynomial, "eval_mod", refuse)
    monkeypatch.setattr(IntPolynomial, "eval_slope_mod", refuse)
    refused = r"^table of 2\^64 entries exceeds bound 9223372036854775808$"
    with pytest.raises(TableBoundError, match=refused):
        build_psi(IntPolynomial(2, (1, 1)), 64, table_bound=1 << 70)


class _Kernel:
    """Counts IntPolynomial.eval_mod calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = IntPolynomial.eval_mod

        def counted(f, x, modulus):
            self.calls += 1
            return original(f, x, modulus)

        monkeypatch.setattr(IntPolynomial, "eval_mod", counted)

    def cost(self, fn, *args, **kwargs):
        before = self.calls
        result = fn(*args, **kwargs)
        return result, self.calls - before


@pytest.mark.parametrize("p,coeffs,n", [
    (2, (1, 1), 12), (2, (-3, -3, 0, 4), 9), (3, (1, 1, 6), 7), (5, (-3, 1, 0, 5), 5),
    (7, (1, 1, 0, 7), 4),
])
def test_kernel_steps_beyond_the_lifting_decision(monkeypatch, p, coeffs, n):
    f = IntPolynomial(p, coeffs)
    size = p**n
    k = p ** ((n + 1) // 2)
    kernel = _Kernel(monkeypatch)
    _, lifting = kernel.cost(full_cycle_by_lifting, f, n)

    def drained_psi(f, n):
        # one column kernel call of 2K steps serves both tables, read to
        # their ends
        t = build_psi(f, n)
        return flat(t.orbit_index), flat(t.orbit_point)

    for fn in (drained_psi, cycle_decomposition):
        _, calls = kernel.cost(fn, f, n)
        assert calls - lifting <= min(size, 2 * k), fn.__name__
    for count in (0, 3, 2 * k - 1, 2 * k + 1, 3 * size):
        stream, calls = kernel.cost(full_cycle_stream, f, n, 1, count)
        assert calls == lifting
        values, calls = kernel.cost(flat, stream)
        assert len(values) == count and calls <= min(count, 2 * k)


def test_deep_stream_is_lazy_and_bounded(capsys, monkeypatch):
    # K = 2^500: three residues cost three kernel steps past the lifting
    # decision, never a walk of 2K
    f = IntPolynomial(2, (1, 1))
    kernel = _Kernel(monkeypatch)
    _, lifting = kernel.cost(full_cycle_by_lifting, f, 1000)
    t0 = time.perf_counter()
    code, calls = kernel.cost(
        main, ["stream", "--prime", "2", "--coeffs", "1,1", "--level", "1000", "--count", "3"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and capsys.readouterr().out.split() == ["0", "1", "2"]
    assert calls - lifting <= 3


def _peak_bytes(values, count):
    """Peak memory traced while count residues are read from values."""
    tracemalloc.start()
    try:
        for _ in islice(values, count):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1000, 40])
def test_deep_stream_with_the_default_count_holds_no_residues(n):
    # K = 2^500 and 2^20 exceed the block bound: the stream of all 2^n
    # residues is a plain walk, whatever it has read
    f = IntPolynomial(2, (1, 1))
    assert 2 ** ((n + 1) // 2) > dynamics._BLOCK_BOUND
    few = _peak_bytes(chain.from_iterable(full_cycle_stream(f, n, 0, 2**n)), 10**4)
    many = _peak_bytes(chain.from_iterable(full_cycle_stream(f, n, 0, 2**n)), 10**5)
    assert many < 64 << 10 and many < 2 * few + (4 << 10)


def test_stream_in_blocks_holds_a_bounded_number_of_residues():
    # K = 2^15: past the column kernel's two lists of K, freed before the
    # first block, a stream holds about four blocks of ints, 4K (8 + 28)
    # bytes, however many it reads
    f = IntPolynomial(2, (1, 1))
    k = 1 << 15
    assert k <= dynamics._BLOCK_BOUND
    some = _peak_bytes(chain.from_iterable(full_cycle_stream(f, 30, 0, 2**30)), 4 * k)
    more = _peak_bytes(chain.from_iterable(full_cycle_stream(f, 30, 0, 2**30)), 12 * k)
    assert more < 160 * k and more < some + (64 << 10)


def test_index_in_blocks_holds_a_bounded_number_of_residues():
    # K = 2^12 at level 24: the column kernel's two lists of K and a few
    # blocks of K ints, K (8 + 28) bytes each, however many index
    # residues are read
    f = IntPolynomial(2, (1, 1))
    k = 1 << 12

    def index():
        yield from chain.from_iterable(build_psi(f, 24).orbit_index)

    some = _peak_bytes(index(), 2**16)
    more = _peak_bytes(index(), 2**20)
    assert more < 8 * 36 * k and more < some + (64 << 10)


@pytest.mark.parametrize("p,coeffs,n", [(1009, (1, 1), 1), (2, (1, 1), 3), (2, (1, 3, 2), 2)])
def test_small_levels_read_the_map_table(monkeypatch, p, coeffs, n):
    # 2K >= p^n: the engine would walk the whole orbit, so build_psi and
    # cycle_decomposition read it from the map table, with d + 1 kernel
    # steps, and cycle_decomposition skips the lifting walk
    f = IntPolynomial(p, coeffs)
    size = p**n
    order, start = oracles.orbit_from_zero(f.coefficients, p, n)
    assert start == 0 and len(order) == size <= 2 * p ** ((n + 1) // 2)
    kernel = _Kernel(monkeypatch)
    _, lifting = kernel.cost(full_cycle_by_lifting, f, n)
    t, calls = kernel.cost(build_psi, f, n)
    assert flat(t.orbit_point) == order and calls - lifting <= f.degree + 1
    monkeypatch.setattr(IntPolynomial, "eval_slope_mod", None)
    dec, calls = kernel.cost(cycle_decomposition, f, n)
    assert dec.cycles == (tuple(order),) and calls <= f.degree + 1


@pytest.mark.parametrize("p,coeffs,n", [
    (2, (0, 1), 12), (2, (1, 3, 0, 2), 9), (3, (1, 1, 1), 8), (3, (1, 4, 0, 4, 0, 2), 7),
    (5, (1, 1, 1), 5), (7, (-2, -1, 3), 4),
])
def test_no_full_cycle_fills_the_columns_above_the_cycles_below(monkeypatch, p, coeffs, n):
    # above the small levels a map with no full cycle builds no map table
    # at level n: two kernel calls for each periodic residue mod K =
    # p^ceil(n/2) fill the column above it, beyond the lifting walk and
    # the decomposition of level ceil(n/2)
    f = IntPolynomial(p, coeffs)
    m = (n + 1) // 2
    assert not dynamics._small_level(p, n)
    levels = []
    tabulate = dynamics.reduced_map_table

    def recorded(f, n, **kwargs):
        levels.append(n)
        return tabulate(f, n, **kwargs)

    monkeypatch.setattr(dynamics, "reduced_map_table", recorded)
    kernel = _Kernel(monkeypatch)
    full, lifting = kernel.cost(full_cycle_by_lifting, f, n)
    below, sublevel = kernel.cost(cycle_decomposition, f, m)
    levels.clear()
    dec, calls = kernel.cost(cycle_decomposition, f, n)
    assert not full and n not in levels
    periodic = sum(map(len, below.cycles))
    assert calls - lifting - sublevel == 2 * periodic <= 2 * p**m
    table = oracles.table_oracle(f.coefficients, p, n)
    assert (list(map(tuple, dec.cycles)), dec.non_periodic_count) == oracles.cycles_oracle(table)
