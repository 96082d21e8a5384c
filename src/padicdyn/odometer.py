"""Conjugating a one-cycle polynomial map to the +1 odometer.

When f induces a single p^n-cycle on Z/p^nZ, indexing each residue by
the time the orbit of 0 reaches it turns f into x -> x + 1.  The index
tables at successive levels are compatible with reduction mod p^n, so
they assemble into a conjugacy with the adding machine on Z_p.  Both
tables come from one call of the column kernel (_column_map) on 2
p^ceil(n/2) residues, the stream from the orbit engine (_orbit_blocks):
no map table past the levels where those are the whole orbit, no table
of p^n entries.  The tower builds no table: it sizes each level and
decides it by lifting.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, repeat
from operator import mod, mul

from .dynamics import (_STEP_BOUND, DEFAULT_TABLE_BOUND, IntPolynomial, NotFullCycleError,
                       _check_table_size, _column_map, _no_full_cycle, _orbit_blocks,
                       _small_level, _stepped_blocks, _typecode, decision_level,
                       full_cycle_by_lifting, reduced_map_table)
from .padic import PadicError


class ConjugacyTable(namedtuple("ConjugacyTable", "prime level orbit_index orbit_point")):
    """psi_n, the conjugacy of f with x -> x + 1 mod p^n, as two iterators
    of arrays read once: orbit_index gives psi_n(x) = k, f^k(0) = x, for x
    = 0, 1, ..., and orbit_point its inverse, f^k(0) for k = 0, 1, ...;
    psi_n(0) = 0 and psi_n(f(x)) = psi_n(x) + 1 mod p^n.
    """

    __slots__ = ()


def build_psi(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> ConjugacyTable:
    """Index table of the full cycle at level n, decided by lifting before
    any residue is walked; without one, the error counts the residues the
    orbit of 0 visits mod p^n.  With K = p^ceil(n/2), q = p^n / K and x_i =
    f^i(0), x_0..x_(K-1) hit every class mod K once and x_(i+jK) = x_i +
    jK u_i mod p^n, u_i = a_i B a unit mod q (_column_map): so the index
    of cK + r, r = x_i mod K, is i + K ((c - x_i // K) u_i^-1 mod q), and
    the next block's is K u_i^-1 on, mod p^n.  At the small levels
    (_small_level) the map table gives the orbit, one loop its inverse.  A
    level above _STEP_BOUND, the largest modulus the index is stepped at,
    is refused as one above table_bound is."""
    size = _check_table_size(f.prime, n, min(table_bound, _STEP_BOUND))
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
        return ConjugacyTable(f.prime, n, iter((index,)), iter((points,)))
    k, q = f.prime ** ((n + 1) // 2), f.prime ** (n // 2)
    bases, slopes, _, b = _column_map(f, n, 0, k)
    head = array(_typecode(size), bases)
    del bases
    shift = array(head.typecode, map(mod, map(mul, slopes, repeat(b)), repeat(size)))
    del slopes  # shift[i] = K u_i; the kernel's lists are freed once read
    first, step = array(head.typecode, [0]) * k, array(head.typecode, [0]) * k
    for i, (x, s) in enumerate(zip(head, shift)):  # orbit_index at 0..K - 1, and K u^-1
        h, r = divmod(x, k)
        v = pow(s // k, -1, q)
        first[r], step[r] = i + k * (-h * v % q), k * v
    index = _stepped_blocks(first, step, size, size - k)
    points = _stepped_blocks(head, shift, size, size - k)
    return ConjugacyTable(f.prime, n, chain((first,), index), chain((head,), points))


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
) -> Iterator[Iterable[int]]:
    """Lazily yield `count` residues of the orbit of `seed` mod p^n, in
    the orbit engine's blocks (_orbit_blocks): arrays, or one lazy walk.

    For a minimal map this is a maximal-period sequence: period exactly
    p^n, every residue class mod p^m hit equally often.  The full cycle
    at level n is checked here by lifting, before the first residue, at
    a cost that does not grow with n past the decision level.  The
    residues cost at most min(count, 2 p^ceil(n/2)) kernel steps: where
    count is at most that or the blocks would pass _BLOCK_BOUND, the one
    block is the walk itself, else the column kernel gives the first
    block of p^ceil(n/2) and blocks stepped from it follow.
    """
    if count < 0:
        raise PadicError(f"count must be nonnegative, got {count}")
    if not full_cycle_by_lifting(f, n):
        raise NotFullCycleError(f"no full cycle at level {n}")
    return _orbit_blocks(f, n, seed, count)
