"""Conjugating a one-cycle polynomial map to the +1 odometer.

When f induces a single p^n-cycle on Z/p^nZ, indexing each residue by
the time the orbit of 0 reaches it turns f into x -> x + 1.  The index
tables at successive levels are compatible with reduction mod p^n, so
they assemble into a conjugacy with the adding machine on Z_p.  Both
tables and the stream come from the orbit engine (_orbit_blocks), its
first 2 p^ceil(n/2) residues setting up the index: no map table past
the levels where those are the whole orbit, no table of p^n entries.
The tower builds no table: it sizes each level and decides it by lifting.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate, chain, islice, repeat

from .dynamics import (DEFAULT_TABLE_BOUND, IntPolynomial, NotFullCycleError, _check_table_size,
                       _no_full_cycle, _orbit_blocks, _small_level, _stepped_blocks, _typecode,
                       decision_level, full_cycle_by_lifting, reduced_map_table)
from .padic import PadicError


class ConjugacyTable(namedtuple("ConjugacyTable", "prime level orbit_index orbit_point")):
    """psi_n, the conjugacy of f with x -> x + 1 mod p^n, as two iterators
    read once: orbit_index yields psi_n(x) = k, f^k(0) = x, for x = 0, 1,
    ..., and orbit_point its inverse, f^k(0) for k = 0, 1, ...; psi_n(0) =
    0 and psi_n(f(x)) = psi_n(x) + 1 mod p^n.
    """

    __slots__ = ()


def build_psi(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> ConjugacyTable:
    """Index table of the full cycle at level n, decided by lifting before
    any residue is walked; without one, the error counts the residues the
    orbit of 0 visits mod p^n.  With K = p^ceil(n/2), q = p^n / K and x_i =
    f^i(0), x_0..x_(K-1) hit every class mod K once and x_(i+jK) = x_i +
    jK u_i mod p^n, u_i a unit mod q (_orbit_blocks): so the index of cK +
    r, r = x_i mod K, is i + K ((c - x_i // K) u_i^-1 mod q), and the next
    block's is K u_i^-1 on, mod p^n: the engine's first 2K residues set up
    orbit_index, and it yields orbit_point.  At the small levels
    (_small_level) the map table gives the orbit, one loop its inverse."""
    size = _check_table_size(f.prime, n, table_bound)
    if not full_cycle_by_lifting(f, n):
        raise _no_full_cycle(f, n, size)
    if _small_level(f.prime, n):
        table = reduced_map_table(f, n, table_bound=table_bound).entries
        # 0, f(0), f(f(0)), ...: size residues
        points = array(_typecode(size), accumulate(
            repeat(None, size - 1), lambda x, _: table[x], initial=0))
        index = array(points.typecode, [0]) * size
        for i, x in enumerate(points):
            index[x] = i
        return ConjugacyTable(f.prime, n, iter(index), iter(points))
    k, q = f.prime ** ((n + 1) // 2), f.prime ** (n // 2)
    points = chain.from_iterable(_orbit_blocks(f, n, 0, size))
    head = list(islice(points, 2 * k))
    first, step = [0] * k, [0] * k  # orbit_index at 0..K - 1, and K u^-1
    for i, (x, y) in enumerate(zip(head, head[k:])):
        h, r = divmod(x, k)
        v = pow((y - x) // k, -1, q)
        first[r], step[r] = i + k * (-h * v % q), k * v
    index = chain.from_iterable(_stepped_blocks(first, step, size, size - k))
    return ConjugacyTable(f.prime, n, chain(first, index), chain(head, points))


class TowerReport(namedtuple("TowerReport", "prime n_max")):
    """A tower certified at every level 1..n_max; a failure raises."""

    __slots__ = ()


def verify_conjugacy_tower(
    f: IntPolynomial, n_max: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> TowerReport:
    """Certify the odometer conjugacy at levels 1..n_max, with no table.

    Both identities hold wherever f is one full cycle.  psi_n indexes the
    orbit of 0, psi_n(f^k(0) mod p^n) = k mod p^n, so psi_n(f(x)) =
    psi_n(x) + 1 (conjugation); reduction mod p^n commutes with f, so
    psi_(n+1)(x) = psi_n(x mod p^n) mod p^n (projection).  Each level is
    sized against table_bound and then, up to the decision level, decided
    by lifting; past it a full cycle holds at every level.  So the errors
    are those of an exhaustive check indexing a table per level in turn:
    TableBoundError at the first level above table_bound, or
    NotFullCycleError at the first broken level, counting the residues
    the orbit of 0 visits there (its tail and cycle).
    """
    if n_max < 1:
        raise PadicError(f"n_max must be >= 1, got {n_max}")
    for n in range(1, n_max + 1):
        size = _check_table_size(f.prime, n, table_bound)
        if n <= decision_level(f.prime) and not full_cycle_by_lifting(f, n):
            raise _no_full_cycle(f, n, size)
    return TowerReport(f.prime, n_max)


def full_cycle_stream(
    f: IntPolynomial, n: int, seed: int, count: int
) -> Iterator[int]:
    """Lazily yield `count` residues of the orbit of `seed` mod p^n.

    For a minimal map this is a maximal-period sequence: period exactly
    p^n, every residue class mod p^m hit equally often.  The full cycle
    at level n is checked here by lifting, before the first residue, at
    a cost that does not grow with n past the decision level.  The
    residues come from _orbit_blocks: at most min(count, 2 p^ceil(n/2))
    kernel steps, each yielded as it is walked, then blocks of sums.
    """
    if count < 0:
        raise PadicError(f"count must be nonnegative, got {count}")
    if not full_cycle_by_lifting(f, n):
        raise NotFullCycleError(f"no full cycle at level {n}")
    return chain.from_iterable(_orbit_blocks(f, n, seed, count))
