"""Conjugating a one-cycle polynomial map to the +1 odometer.

When f induces a single p^n-cycle on Z/p^nZ, indexing each residue by
the time the orbit of 0 reaches it turns f into x -> x + 1.  The index
tables at successive levels are compatible with reduction mod p^n, so
they assemble into a conjugacy with the adding machine on Z_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .dynamics import (
    DEFAULT_TABLE_BOUND,
    IntPolynomial,
    NotFullCycleError,
    ReducedMapTable,
    full_cycle_check,
    reduced_map_table,
)
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
    """Index table of the full cycle at level n; errors out when the
    cycle is not full."""
    return _index_orbit(reduced_map_table(f, n, table_bound=table_bound))


def _index_orbit(fmap: ReducedMapTable) -> ConjugacyTable:
    table = fmap.entries
    n = fmap.level
    size = len(table)
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
        x = table[x]
    if x != 0:
        raise NotFullCycleError(f"orbit of 0 does not return to 0 at level {n}")
    return ConjugacyTable(fmap.prime, n, tuple(orbit_index), tuple(orbit_point))


@dataclass(frozen=True)
class LevelCheck:
    level: int
    conjugation_ok: bool
    projection_ok: bool


@dataclass(frozen=True)
class TowerReport:
    prime: int
    n_max: int
    levels: tuple[LevelCheck, ...]
    passed: bool


def verify_conjugacy_tower(
    f: IntPolynomial, n_max: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> TowerReport:
    """Build index tables at levels 1..n_max and verify, exhaustively,
    the conjugation identity at each level and the compatibility of
    consecutive tables under reduction mod p^n."""
    if n_max < 1:
        raise PadicError(f"n_max must be >= 1, got {n_max}")
    p = f.prime
    maps, tables = {}, {}
    for n in range(1, n_max + 1):
        # index each level as soon as its table exists, so a broken cycle
        # is reported before any larger table is built
        maps[n] = reduced_map_table(f, n, table_bound=table_bound)
        tables[n] = _index_orbit(maps[n])
    checks = []
    for n in range(1, n_max + 1):
        size = p**n
        psi = tables[n].orbit_index
        fmap = maps[n].entries
        conj = all(psi[fmap[x]] == (psi[x] + 1) % size for x in range(size))
        if n < n_max:
            upper = tables[n + 1].orbit_index
            proj = all(upper[x] % size == psi[x % size] for x in range(size * p))
        else:
            proj = True
        checks.append(LevelCheck(n, conj, proj))
    return TowerReport(p, n_max, tuple(checks),
                       all(c.conjugation_ok and c.projection_ok for c in checks))


def full_cycle_stream(
    f: IntPolynomial,
    n: int,
    seed: int,
    count: int,
    *,
    table_bound: int = DEFAULT_TABLE_BOUND,
) -> Iterator[int]:
    """Lazily yield `count` residues of the orbit of `seed` mod p^n.

    For a minimal map this is a maximal-period sequence: period exactly
    p^n, every residue class mod p^m hit equally often.  The full cycle
    at level n is checked here, before the first residue.
    """
    if count < 0:
        raise PadicError(f"count must be nonnegative, got {count}")
    if not full_cycle_check(f, n, table_bound=table_bound).full_cycle:
        raise NotFullCycleError(f"no full cycle at level {n}")

    def generate() -> Iterator[int]:
        size = f.prime**n
        x = seed % size
        for _ in range(count):
            yield x
            x = f.eval_mod(x, size)

    return generate()
