"""Polynomial maps on residue rings Z/p^nZ and their cycle structure.

A polynomial with integer coefficients induces a compatible family of
self-maps of Z/p^nZ, one per level n.  Everything here works on those
finite reductions; iteration is always pointwise, never symbolic.  A
map that is one full cycle mod p^n has its orbit produced in blocks
(_orbit_blocks) from p^ceil(n/2) kernel steps; the map table
(reduced_map_table) serves the cycles of every other map.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, islice, repeat
from operator import add, mod, sub

from .padic import PadicError, _check_prime


class TableBoundError(PadicError):
    pass


class NotFullCycleError(PadicError):
    pass


# Largest level (p^n residues) that cycle decompositions and odometer
# tables will cover, and the longest witness cycle of a non-minimal
# verdict.  Full-cycle verdicts, towers and streams build no table.
DEFAULT_TABLE_BOUND = 1 << 24

# Longest block (p^ceil(n/2) residues) that _orbit_blocks holds: about
# 4 blocks of Python ints, 10 MB, at most.  Every level within the
# default table bound has shorter blocks (the longest, 251^2, is at
# 251^3); a deeper stream is a plain walk that holds no residue.
_BLOCK_BOUND = 1 << 16


class IntPolynomial:
    """Integer-coefficient polynomial, constant term first.

    Trailing zero coefficients are trimmed.  A constant is a legal map
    (the all-zero tail of a sweep box builds one) and every route reports
    it as not minimal; from_text, the parser of outside text, refuses it.
    """

    __slots__ = ("prime", "coefficients", "_horner")

    def __init__(self, prime: int, coefficients: Iterable[int]) -> None:
        _check_prime(prime)
        coeffs = tuple(map(int, coefficients))
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.prime = prime
        self.coefficients = coeffs or (0,)
        # highest degree first, the order Horner's rule consumes them
        self._horner = self.coefficients[::-1]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> int:
        return self.coefficients[i] if 0 <= i < len(self.coefficients) else 0

    @classmethod
    def from_text(cls, prime: int, text: str) -> "IntPolynomial":
        """Parse the shared text format: comma-separated signed decimals,
        constant term first ("1,3,0,2" is 1 + 3x + 2x^3).  Degree 0 is
        refused after trailing zeros are trimmed: a constant is no
        dynamical system worth studying."""
        try:
            coeffs = tuple(int(part.strip()) for part in text.split(","))
        except ValueError as e:
            raise PadicError(f"bad coefficient list {text!r}") from e
        f = cls(prime, coeffs)
        if f.degree < 1:
            raise PadicError("degree 0 polynomial rejected")
        return f

    def eval_mod(self, x: int, modulus: int) -> int:
        """f(x) mod modulus.  With eval_slope_mod, the only Horner loops of
        the package: every orbit walk and stream evaluates here, and a map
        table its first degree + 1 values (reduced_map_table)."""
        # exact integers throughout and a single reduction at the end;
        # for the residues and degrees used here that is faster than
        # reducing after every step
        acc = 0
        for c in self._horner:
            acc = acc * x + c
        return acc % modulus

    def eval_slope_mod(self, x: int, modulus: int) -> tuple[int, int]:
        """(f(x) mod modulus, f'(x) mod p) from one Horner loop, for the
        walks that carry the derivative of an iterate mod p."""
        acc = slope = 0
        for c in self._horner:
            slope = slope * x + acc
            acc = acc * x + c
        return acc % modulus, slope % self.prime

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0 and self.degree > 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts) if parts else "0"


def _check_table_size(prime: int, level: int, table_bound: int) -> int:
    if level < 1:
        raise PadicError(f"level must be >= 1, got {level}")
    # p^level >= 2^level > table_bound once level reaches the bound's bit
    # length, so a deep level is refused before p^level is computed
    if level >= table_bound.bit_length() or (size := prime**level) > table_bound:
        raise TableBoundError(
            f"table of {prime}^{level} entries exceeds bound {table_bound}"
        )
    return size


class ReducedMapTable(namedtuple("ReducedMapTable", "prime level entries")):
    """Value table of the induced map on Z/p^level: entries[x] = f(x) mod p^level."""

    __slots__ = ()


def reduced_map_table(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> ReducedMapTable:
    """The one tabulation of f: f(x) = sum_j C(x, j) D_j, D_j the j-th
    difference of f at 0, so for degree d, d + 1 kernel calls and d running
    sums in C give f at 0..p^n - 1, reduced once at the end."""
    size = _check_table_size(f.prime, n, table_bound)
    d = min(f.degree, size - 1)  # C(x, j) = 0 for j > x
    heads = [f.eval_mod(x, size) for x in range(d + 1)]
    for j in range(1, d + 1):  # heads[j] becomes D_j
        heads[j:] = [b - a for a, b in zip(heads[j - 1:], heads[j:])]
    values = repeat(heads[d], size - d)  # constant, or read at 0 alone
    for head in reversed(heads[:d]):
        values = accumulate(values, initial=head)
    entries = array(_typecode(size), map(mod, values, repeat(size)))
    return ReducedMapTable(f.prime, n, entries)


def _typecode(size: int) -> str:
    """The array typecode of residues mod size: 4 bytes a residue when
    they fit."""
    return "I" if size <= 1 << 32 else "Q"


def _orbit_blocks(f: IntPolynomial, n: int, seed: int, count: int) -> Iterator[Iterable[int]]:
    """The first count residues of the orbit of seed mod p^n, in blocks to
    be read in turn, for f one full cycle mod p^n.

    With K = p^ceil(n/2), x_(i+jK) = x_i + j (x_(i+K) - x_i) mod p^n: K^2
    = 0 mod p^n, so f^K(y + Kt) = f^K(y) + Kt (f^K)'(y), and (f^K)'(y) is
    the product of f' over K orbit points, one in every class mod
    p^ceil(n/2), which is 1 mod p^floor(n/2) for a full cycle.  So the
    first block walks min(count, 2K) residues through eval_mod, lazily,
    and each later one is a list of K: the block before it plus the step
    vector of the first two, reduced mod p^n, in two passes in C.  Where
    K exceeds _BLOCK_BOUND the first block walks all count residues, and
    keeps none, so a stream of any length holds a bounded number."""
    size = f.prime**n
    k = f.prime ** ((n + 1) // 2)
    blocks = count > 2 * k and k <= _BLOCK_BOUND  # do lists follow the walk?
    kept = []

    def walk(x: int) -> Iterator[int]:
        for _ in range(2 * k if blocks else count):
            yield x
            if blocks:
                kept.append(x)
            x = f.eval_mod(x, size)

    yield walk(seed % size)
    if not blocks:
        return
    block = kept[k:]
    step = list(map(mod, map(sub, block, kept), repeat(size)))
    kept.clear()
    for left in range(count - 2 * k, 0, -k):  # the last block holds left < K
        block = list(map(mod, map(add, block, step), repeat(size, left)))
        yield block


class CycleDecomposition(namedtuple(
        "CycleDecomposition", "prime level bijective cycles non_periodic_count")):
    """Cycle structure of the induced map at one level: a tuple of cycles,
    each a tuple of residues.

    Each cycle is rotated so its minimal element comes first and the
    cycles are sorted by that element.  Residues that are not periodic
    (only reachable, never revisited) are just counted.
    """

    __slots__ = ()


def cycle_decomposition(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> CycleDecomposition:
    """The cycles of f mod p^n.  A full cycle, decided by lifting, is the
    orbit of 0 in blocks (_orbit_blocks), with no table; any other map's
    cycles, and every map's at the levels where the engine would walk the
    whole orbit, come from one path-marking walk of its map table."""
    from .criteria import full_cycle_by_lifting  # criteria imports this module

    size = _check_table_size(f.prime, n, table_bound)
    # where 2K >= p^n (n = 1, or p = 2 and n <= 3) the engine would walk
    # the whole orbit after the lifting walk: the map table below costs
    # one C pass and finds a full cycle as well
    if size > 2 * f.prime ** ((n + 1) // 2) and full_cycle_by_lifting(f, n):
        # one cycle, from its least residue 0
        cycle = tuple(chain.from_iterable(_orbit_blocks(f, n, 0, size)))
        return CycleDecomposition(f.prime, n, True, (cycle,), 0)
    table = reduced_map_table(f, n, table_bound=table_bound).entries
    seen = bytearray(size)
    cycles = []
    for start in range(size):
        if seen[start]:
            continue
        path = []
        x = start
        while not seen[x]:
            seen[x] = 1
            path.append(x)
            x = table[x]
        if x == start:  # every residue below start is seen: start is least
            cycles.append(tuple(path))
        elif x in path:
            # the path from x on is a new cycle: one copy, from its least residue
            i = path.index(x)
            k = path.index(min(islice(path, i, None)), i)
            cycles.append(tuple(chain(islice(path, k, None), islice(path, i, k))))
    del table, seen  # freed before tuple(cycles) copies the list
    cycles.sort()  # by first element: the cycles are disjoint
    periodic = sum(map(len, cycles))
    return CycleDecomposition(
        prime=f.prime,
        level=n,
        bijective=(periodic == size),
        cycles=tuple(cycles),
        non_periodic_count=size - periodic,
    )


def is_full_cycle(f: IntPolynomial, n: int) -> bool:
    """Does the induced map on Z/p^n consist of one cycle through all
    p^n residues?  The brute-force check: walk the orbit of 0 until its
    first return, which comes at step p^n exactly when the cycle is
    full.  It is the sweep's independent reference; deciders lift from
    mod p instead (criteria.full_cycle_by_lifting)."""
    if n < 1:
        raise PadicError(f"level must be >= 1, got {n}")
    size = f.prime**n
    x = 0
    for steps in range(1, size + 1):
        x = f.eval_mod(x, size)
        if x == 0:
            return steps == size
    return False
