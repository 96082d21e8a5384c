"""Conjugating a one-cycle polynomial map to the +1 odometer.

When f induces a single p^n-cycle on Z/p^nZ, indexing each residue by
the time the orbit of 0 reaches it turns f into x -> x + 1.  The index
tables at successive levels are compatible with reduction mod p^n, so
they assemble into a conjugacy with the adding machine on Z_p.  The
index tables and the stream take the orbit from dynamics._orbit_blocks,
p^ceil(n/2) kernel steps and then blocks of residues, with no map table
past the levels where those steps would be the whole orbit.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain

from .criteria import OrbitShape, _orbit_shape, decision_level, full_cycle_by_lifting
from .dynamics import (DEFAULT_TABLE_BOUND, IntPolynomial, NotFullCycleError,
                       TableBoundError, _check_table_size, _orbit_blocks, _typecode,
                       reduced_map_table)
from .padic import PadicError


class ConjugacyTable(namedtuple("ConjugacyTable", "prime level orbit_index orbit_point")):
    """orbit_index[x] = k with f^k(0) = x; orbit_point is its inverse.

    orbit_index[0] = 0 and orbit_index[f(x)] = orbit_index[x] + 1 mod p^n.
    Both are arrays of 4 bytes a residue (8 above 2^32 residues).
    """

    __slots__ = ()


def _no_full_cycle(shape: OrbitShape, n: int, size: int) -> NotFullCycleError:
    """The refusal of level n, counting the residues the orbit of 0 visits
    mod p^n (its tail and cycle), from its shape there."""
    k = shape.tail + shape.length
    return NotFullCycleError(
        f"orbit of 0 closes after {k} of {size} residues at level {n}" if k < size
        else f"orbit of 0 does not return to 0 at level {n}")


def build_psi(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> ConjugacyTable:
    """Index table of the full cycle at level n.  The full cycle is
    decided by lifting before any table is built; without one, the error
    counts the residues the orbit of 0 visits mod p^n.  orbit_point is the
    orbit of 0 in blocks (_orbit_blocks), and orbit_index its inverse.
    Where 2 p^ceil(n/2) >= p^n (n = 1, or p = 2 and n <= 3) the engine
    would walk the whole orbit, and the map table, one C pass, is
    cheaper: the orbit is read from it instead."""
    size = _check_table_size(f.prime, n, table_bound)
    if not full_cycle_by_lifting(f, n):
        raise _no_full_cycle(_orbit_shape(f, n), n, size)
    orbit_index = array(_typecode(size), [0]) * size
    if size > 2 * f.prime ** ((n + 1) // 2):
        orbit_point = array(orbit_index.typecode, chain.from_iterable(_orbit_blocks(f, n, 0, size)))
        for k, x in enumerate(orbit_point):
            orbit_index[x] = k
    else:
        table = reduced_map_table(f, n, table_bound=table_bound).entries
        orbit_point = array(orbit_index.typecode, [0]) * size
        x = 0
        for k in range(size):
            orbit_index[x] = k
            orbit_point[k] = x
            x = table[x]
    return ConjugacyTable(f.prime, n, orbit_index, orbit_point)


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
    psi_(n+1)(x) = psi_n(x mod p^n) mod p^n (projection).  One walk of
    the orbit of 0, which stops at the first broken level, decides whether
    levels 1..n_max are full cycles.  The errors are those of an
    exhaustive check indexing a table per level in turn: TableBoundError
    at the first level above table_bound, or NotFullCycleError at the
    first broken level b, counting the residues the orbit of 0 visits mod
    p^b (its tail and cycle).
    """
    if n_max < 1:
        raise PadicError(f"n_max must be >= 1, got {n_max}")
    p = f.prime
    # levels 1..m - 1 fit the bound; a break at level m or above comes no
    # sooner than the bound's refusal at m, so the walk stops below m
    over = None
    for m in range(1, n_max + 1):
        try:
            _check_table_size(p, m, table_bound)
        except TableBoundError as error:
            over = error
            break
    else:
        m = n_max + 1
    top = min(m - 1, decision_level(p))
    if top:
        # a break at level 1 comes back as None, with no tail; the count
        # its message reports takes a second walk mod p
        shape = _orbit_shape(f, top, stop=True) or _orbit_shape(f, 1)
        if shape.length != p**top:
            broken = len(shape.steps) + 1
            raise _no_full_cycle(shape, broken, p**broken)
    if over:
        raise over
    return TowerReport(p, n_max)


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
