"""Conjugating a one-cycle polynomial map to the +1 odometer.

When f induces a single p^n-cycle on Z/p^nZ, indexing each residue by
the time the orbit of 0 reaches it turns f into x -> x + 1.  The index
tables at successive levels are compatible with reduction mod p^n, so
they assemble into a conjugacy with the adding machine on Z_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .criteria import _orbit_shape, decision_level, full_cycle_by_lifting
from .dynamics import DEFAULT_TABLE_BOUND, IntPolynomial, NotFullCycleError, _check_table_size
from .padic import PadicError


@dataclass(frozen=True)
class ConjugacyTable:
    """orbit_index[x] = k with f^k(0) = x; orbit_point is its inverse.

    orbit_index[0] = 0 and orbit_index[f(x)] = orbit_index[x] + 1 mod p^n.
    """

    prime: int
    level: int
    orbit_index: tuple[int, ...]
    orbit_point: tuple[int, ...]


def build_psi(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> ConjugacyTable:
    """Index table of the full cycle at level n, from one walk of the
    orbit of 0 with no map table; errors out when the cycle is not full."""
    size = _check_table_size(f.prime, n, table_bound)
    eval_mod = f.eval_mod
    orbit_index = [-1] * size
    orbit_point = [0] * size
    x = 0
    for k in range(size):
        if orbit_index[x] != -1:
            raise NotFullCycleError(
                f"orbit of 0 closes after {k} of {size} residues at level {n}"
            )
        orbit_index[x] = k
        orbit_point[k] = x
        x = eval_mod(x, size)
    if x != 0:
        raise NotFullCycleError(f"orbit of 0 does not return to 0 at level {n}")
    return ConjugacyTable(f.prime, n, tuple(orbit_index), tuple(orbit_point))


@dataclass(frozen=True)
class TowerReport:
    """A tower certified at every level 1..n_max; a failure raises."""

    prime: int
    n_max: int


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
    top = min(n_max, decision_level(p))
    # a break at level 1 comes back as None, with no tail; the count its
    # message reports takes a second walk mod p
    shape = _orbit_shape(f, top, stop=True) or _orbit_shape(f, 1)
    broken = None if shape.length == p**top else len(shape.steps) + 1
    for n in range(1, n_max + 1):
        size = _check_table_size(p, n, table_bound)
        if n == broken:
            k = shape.tail + shape.length
            raise NotFullCycleError(
                f"orbit of 0 closes after {k} of {size} residues at level {n}" if k < size
                else f"orbit of 0 does not return to 0 at level {n}")
    return TowerReport(p, n_max)


def full_cycle_stream(
    f: IntPolynomial, n: int, seed: int, count: int
) -> Iterator[int]:
    """Lazily yield `count` residues of the orbit of `seed` mod p^n.

    For a minimal map this is a maximal-period sequence: period exactly
    p^n, every residue class mod p^m hit equally often.  The full cycle
    at level n is checked here by lifting, before the first residue, at
    a cost that does not grow with n past the decision level.
    """
    if count < 0:
        raise PadicError(f"count must be nonnegative, got {count}")
    if not full_cycle_by_lifting(f, n):
        raise NotFullCycleError(f"no full cycle at level {n}")

    def generate() -> Iterator[int]:
        size = f.prime**n
        x = seed % size
        for _ in range(count):
            yield x
            x = f.eval_mod(x, size)

    return generate()
