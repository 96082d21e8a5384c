"""Polynomial maps on residue rings Z/p^nZ and their cycle structure.

A polynomial with integer coefficients induces a compatible family of
self-maps of Z/p^nZ, one per level n.  Everything here works on those
finite reductions; iteration is always pointwise, never symbolic.  One
walk of the orbit of 0 on the coefficient tuple, which stops at the
first level whose cycle does not lift (_full_cycle_lifts), decides
whether f is one full cycle mod p^n; the same walk carried on to
classify every lift (_orbit_shape) gives the shape that a witness or a
refusal names.  Both take f and f' mod p from one Horner loop
(_eval_slope), the only one besides IntPolynomial.eval_mod.  f is
affine on each column x + p^ceil(n/2) t, so one column kernel
(_column_map) gives a full cycle's first block and step vector
(_orbit_blocks), and lifts any other map's cycles from those of level
ceil(n/2), found the same way, down to a level small enough to walk
the map table (reduced_map_table).  A non-minimal verdict's witness is
that lift of one cycle: 2k kernel calls for its k residues at level
L - 1, then a multiply-add a residue.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, compress, repeat
from math import gcd
from operator import itemgetter, mod, mul

from .padic import PadicError, _check_prime


class TableBoundError(PadicError):
    pass


class NotFullCycleError(PadicError):
    pass


# Largest level (p^n residues) that cycle decompositions and odometer
# tables will cover, and the longest witness cycle of a non-minimal
# verdict.  Full-cycle verdicts, towers and streams build no table.
DEFAULT_TABLE_BOUND = 1 << 24

# Longest block (K = p^ceil(n/2) residues) that _orbit_blocks steps: the
# column kernel's two K-entry lists, freed before the first block is
# read, then a few packed ints of 4 or 8 bytes a residue.  Reading 2^18
# residues of x + 1 peaks at 2.8 MB traced at K = 2^15, and at 5.8 MB at
# this bound, where those lists dominate (CPython 3.11).  Every level
# within the default table bound has shorter blocks (the longest, 251^2,
# is at 251^3); a deeper stream is a plain walk that holds no residue.
_BLOCK_BOUND = 1 << 16

# Largest modulus _stepped_blocks steps: its widest fields hold 64 bits.
_STEP_BOUND = 1 << 63

# Shortest block of a cycle that _cycles_above steps: stepping costs
# about 1 us a block and 40 ns a residue, a multiply-add 100-150 ns.
_SHORT_BLOCK = 64


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
        """f(x) mod modulus.  With _eval_slope, the only Horner loops of the
        package: every orbit walk and stream evaluates here, and a map
        table its first degree + 1 values (reduced_map_table)."""
        # exact integers throughout and a single reduction at the end;
        # for the residues and degrees used here that is faster than
        # reducing after every step
        acc = 0
        for c in self._horner:
            acc = acc * x + c
        return acc % modulus

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


def _eval_slope(h: Sequence[int], x: int, modulus: int, p: int) -> tuple[int, int]:
    """(f(x) mod modulus, f'(x) mod p) from one Horner loop over h, the
    coefficients of f highest degree first (leading zeros allowed), for
    the walks that carry the derivative of an iterate mod p."""
    acc = slope = 0
    for c in h:
        slope = slope * x + acc
        acc = acc * x + c
    return acc % modulus, slope % p


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
    """The array typecode of residues mod size: 4 bytes a residue up to
    2^31, the widest modulus _stepped_blocks steps in 32-bit fields, so
    every block of one orbit shares it."""
    return "I" if size <= 1 << 31 else "Q"


def _orbit_blocks(f: IntPolynomial, n: int, seed: int, count: int) -> Iterator[Iterable[int]]:
    """The first count residues of the orbit of seed mod p^n, in blocks to
    be read in turn, for f one full cycle mod p^n: arrays of one typecode
    (_typecode), or one lazy walk.

    With K = p^ceil(n/2), the orbit is blocks of K residues, each the one
    before plus a step vector mod p^n (_column_map): the kernel's 2K calls
    give the first block and that vector, and each later block costs a
    few int operations on the packed block before it (_stepped_blocks).
    Where count is at most 2K, or K exceeds _BLOCK_BOUND, the walk gives
    all count residues lazily and keeps none, so a stream of any length
    holds a bounded number.

    Readers rely on the shape: no array comes before a lazy walk, every
    array holds K positions, the last maybe fewer, and position i keeps
    its residue mod K, since each step is a multiple of K."""
    size = f.prime**n
    k = f.prime ** ((n + 1) // 2)
    if count <= 2 * k or k > _BLOCK_BOUND:
        walk = accumulate(repeat(size), f.eval_mod, initial=seed % size)
        # count may pass sys.maxsize, which islice refuses
        yield map(itemgetter(1), zip(range(count), walk))
        return
    bases, slopes, _, b = _column_map(f, n, seed % size, k)
    first = array(_typecode(size), bases)
    del bases
    step = array(first.typecode, map(mod, map(mul, slopes, repeat(b)), repeat(size)))
    del slopes  # each kernel list freed once read, before the first block is read
    yield first
    yield from _stepped_blocks(first, step, size, count - k)


def _stepped_blocks(block: Sequence[int], step: Iterable[int], modulus: int,
                    left: int) -> Iterator[array]:
    """The blocks after `block`, each the one before it plus `step` mod
    modulus, `left` residues in all: the last may be short.

    Each vector is packed into one int, a w-bit field a residue (w = 32
    while modulus <= 2^31, else 64; modulus <= _STEP_BOUND), so a block
    costs a few int operations in C.  They are exact for fields x, s <
    modulus <= 2^(w-1): a field of t = x + s is below 2 modulus <= 2^w;
    with off = 2^(w-1) - modulus >= 0 in every field, a field of t + off
    lies in [2^(w-1) - modulus, 2^(w-1) + modulus - 2], inside [0, 2^w),
    so no field carries into the next, and its top bit is set exactly
    where t >= modulus.  Those bits, shifted to the bottom of their
    fields, masked and times modulus, take modulus off just the fields
    that hold at least modulus: none borrows, and each is x + s mod
    modulus."""
    tc = _typecode(modulus)
    w = 32 if tc == "I" else 64
    k = len(block)
    x, s = (int.from_bytes(array(tc, v), sys.byteorder) for v in (block, step))
    del block, step  # held packed from here on, 4 or 8 bytes a residue
    ones = int.from_bytes(array(tc, [1]) * k, sys.byteorder)
    off = ones * ((1 << (w - 1)) - modulus)
    for left in range(left, 0, -k):
        t = x + s
        x = t - ((t + off) >> (w - 1) & ones) * modulus
        out = array(tc, x.to_bytes(k * w // 8, sys.byteorder))
        del out[left:]
        yield out


def decision_level(prime: int) -> int:
    """Smallest level whose full-cycle check settles minimality."""
    return 3 if prime in (2, 3) else 2


class LiftStep(namedtuple("LiftStep", "length a b kind")):
    """How the cycle that the orbit of 0 enters mod p^n lifts to mod
    p^(n+1) (Fan and Liao 2011).  Above its first point x, f^k moves
    x + p^n z to x + p^n (a z + b) mod p^(n+1), a = (f^k)'(x) mod p, so
    the orbit of 0 at the next level: keeps its k-cycle ("split", b = 0);
    grows into a k*p-cycle ("grow", a = 1); reaches a k-cycle j0 + 1 steps
    later, j0 the first step from x at which f' is 0 mod p ("attract",
    a = 0); or runs round a k*ord(a)-cycle ("partial").  a reads f' mod p
    only, so the next level's a is a^(k'/k): 1 after grow and partial."""

    __slots__ = ()


class OrbitShape(namedtuple("OrbitShape", "tail length base steps")):
    """The orbit of 0 mod p^level: `tail` residues, then a cycle of
    `length` residues from `base` = f^tail(0); steps[n - 1] is the lift
    from level n."""

    __slots__ = ()


def _order(a: int, p: int) -> int:
    r, y = 1, a
    while y != 1:
        r, y = r + 1, y * a % p
    return r


def _orbit_shape(f: IntPolynomial, level: int) -> OrbitShape:
    """Tail and cycle of the orbit of 0 mod p^level, in constant memory:
    Brent's cycle finding mod p, which also stops at the first return to
    0, with the hare carried mod p^level and a = (f^j)'(0) mod p, so that
    a periodic 0 has level 1's lift on its return; with a tail, Brent's
    second phase and a k-step walk from the cycle give it.  Higher lifts
    need no f': split takes no step, grow and partial walk on, attract
    walks k steps from its new base.  f is one full cycle mod p^level
    exactly when the cycle length is p^level, but the verdict alone is
    _full_cycle_lifts, which stops at the first broken level; the shape
    serves the witness and the refusal that name the cycle."""
    p, h = f.prime, f._horner
    modulus = p**level
    fused, ev = _eval_slope, f.eval_mod
    # the hare stands on f^(power - 1 + length)(0)
    power = length = 1
    tortoise = 0
    x, a = fused(h, 0, modulus, p)
    entry = None if a else (1, x)
    while (r := x % p) and r != tortoise:
        if power == length:
            tortoise, power, length = r, power * 2, 0
        x, d = fused(h, x, modulus, p)
        a = a * d % p
        if not a and entry is None:
            entry = (power + length, x)
        length += 1
    if not r:  # 0 is periodic, and the hare stands on its first return
        tail, length, base = 0, power - 1 + length, 0
    else:
        # Brent's second phase; the tortoise walks at the full modulus, so
        # it stops on f^tail(0)
        hare = 0
        for _ in range(length):
            hare = ev(hare, p)
        base = tail = 0
        while base % p != hare:
            base, hare, tail = ev(base, modulus), ev(hare, p), tail + 1
    steps = []
    walk = r  # does base start a cycle not walked yet?
    for n in range(1, level):
        if walk:
            x, a, entry = base, 1, None
            for j in range(1, length + 1):
                x, d = fused(h, x, modulus, p)
                a = a * d % p
                if not a and entry is None:
                    entry = (j, x)
        # x = f^length(base) mod p^level, and a and entry are its walk's
        q = p**n
        b = (x - base) % (q * p) // q
        step = LiftStep(length, a, b, "split" if b == 0 else "grow" if a == 1
                        else "attract" if a == 0 else "partial")
        steps.append(step)
        walk = step.kind == "attract"
        if walk:
            tail, base = tail + entry[0], entry[1]
        elif step.kind != "split":
            length *= p if step.kind == "grow" else _order(a, p)
            a = 1
        if n == level - 1:
            break
        for _ in range(length - step.length):
            x = ev(x, modulus)
    return OrbitShape(tail, length, base, tuple(steps))


def _full_cycle_lifts(c: Sequence[int], p: int, level: int) -> bool:
    """Is the map with coefficients c, constant term first (trailing zeros
    allowed), one full cycle mod p^level?  One walk of the orbit of 0
    that builds no polynomial and stops at the first broken level:
    Brent's first phase mod p, as in _orbit_shape, stops at the first
    repeat, and f is a full cycle mod p exactly when that is 0's return
    at step p.  Above level 1 the lift from each level n must be "grow"
    (LiftStep): a = (f^(p^n))'(0) = 1 mod p, which is (f^p)'(0)^(p^(n-1)),
    and b = f^(p^n)(0)/p^n != 0 mod p, with p^(n+1) - p^n steps from one
    level's b to the next."""
    h = c[::-1]
    modulus = p**level
    power = length = 1
    tortoise = 0
    x, a = _eval_slope(h, 0, modulus, p)
    while (r := x % p) and r != tortoise:
        if power == length:
            tortoise, power, length = r, power * 2, 0
        x, d = _eval_slope(h, x, modulus, p)
        a = a * d % p
        length += 1
    if r or power - 1 + length != p or level > 1 and a != 1:
        return False
    for n in range(1, level):  # x = f^(p^n)(0) mod p^level
        q = p**n
        if not x // q % p:
            return False
        if n < level - 1:
            for _ in range(q * p - q):
                x = _eval_slope(h, x, modulus, p)[0]
    return True


def _cycle_of_zero(f: IntPolynomial, shape: OrbitShape, table_bound: int) -> tuple[int, ...]:
    """The cycle the orbit of 0 runs into mod p^level, from its first
    residue on, given its shape there.  table_bound caps its known length.
    level - 1 = ceil(level/2) at level 2 and 3, so it is the g-orbit of 0
    above base (_column_map)."""
    if shape.length > table_bound:
        raise TableBoundError(
            f"witness cycle of {shape.length} residues exceeds bound {table_bound}")
    p, level, k = f.prime, len(shape.steps) + 1, shape.steps[-1].length
    size = p**level
    bases, slopes, a, b = _column_map(f, level, shape.base, k)
    ts = [0]
    for _ in range(shape.length // k - 1):
        ts.append((a * ts[-1] + b) % p)
    cycle = [0] * shape.length
    for i, (x, s) in enumerate(zip(bases, slopes)):  # position i of every block
        cycle[i::k] = [(x + s * t) % size for t in ts]
    return tuple(cycle)


def full_cycle_by_lifting(f: IntPolynomial, n: int) -> bool:
    """Is f one full cycle mod p^n?  Decided by lifting, with no table:
    one walk of the orbit of 0 that stops at the first broken level
    (_full_cycle_lifts).  A full cycle at the decision level is one at
    every level."""
    if n < 1:
        raise PadicError(f"level must be >= 1, got {n}")
    return _full_cycle_lifts(f.coefficients, f.prime, min(n, decision_level(f.prime)))


def _no_full_cycle(f: IntPolynomial, n: int, size: int) -> NotFullCycleError:
    """The refusal of level n, where f is no full cycle mod p^n = size: it
    counts the residues the orbit of 0 visits there (its tail and cycle)."""
    shape = _orbit_shape(f, n)
    k = shape.tail + shape.length
    return NotFullCycleError(
        f"orbit of 0 closes after {k} of {size} residues at level {n}" if k < size
        else f"orbit of 0 does not return to 0 at level {n}")


def _small_level(prime: int, n: int) -> bool:
    """Is 2 p^ceil(n/2) >= p^n (n = 1, or p = 2 and n <= 3)?  There
    _orbit_blocks would walk the whole orbit of a full cycle, and the map
    table, one C pass, serves it instead."""
    return 2 * prime ** ((n + 1) // 2) >= prime**n


class CycleDecomposition(namedtuple(
        "CycleDecomposition", "prime level bijective cycles non_periodic_count")):
    """Cycle structure of the induced map at one level: a tuple of cycles,
    each a sequence of residues: an array where the orbit engine's blocks
    fill it (a full cycle, and the stepped cycles of _stepped_cycles),
    else a tuple.

    Each cycle is rotated so its minimal element comes first and the
    cycles are sorted by that element.  Residues that are not periodic
    (only reachable, never revisited) are just counted.
    """

    __slots__ = ()


def cycle_decomposition(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> CycleDecomposition:
    """The cycles of f mod p^n.  At the small levels, one path-marking walk
    of the map table; above them a full cycle, decided by lifting, is the
    orbit of 0 in blocks (_orbit_blocks), copied into one array, 4 bytes
    a residue up to 2^31, and any other map's cycles are
    lifted from those of level ceil(n/2) (_cycles_above), with no table
    and no walk of p^n residues."""
    size = _check_table_size(f.prime, n, table_bound)
    if _small_level(f.prime, n):
        table = reduced_map_table(f, n, table_bound=table_bound).entries
        todo = bytearray(b"\1") * size  # the residues still to walk
        cycles = []
        # compress reads todo as the walk clears it: each start is the
        # least residue not walked yet
        for start in compress(range(size), todo):
            path = []
            x = start
            while todo[x]:
                todo[x] = 0
                path.append(x)
                x = table[x]
            if x == start:  # none below start is left to walk: start is least
                cycles.append(tuple(path))
            elif x in path:  # the path from x on is a new cycle
                cycles.append(_least_first(path[path.index(x):]))
        del table, todo  # freed before tuple(cycles) copies the list
        periodic = sum(map(len, cycles))
    elif full_cycle_by_lifting(f, n):
        # one cycle, from its least residue 0, filled block by block
        cycle = array(_typecode(size))
        for block in _orbit_blocks(f, n, 0, size):
            cycle.extend(block)
        return CycleDecomposition(f.prime, n, True, (cycle,), 0)
    else:
        below = cycle_decomposition(f, (n + 1) // 2, table_bound=table_bound).cycles
        cycles, periodic = _cycles_above(f, n, below)
        del below
    cycles.sort(key=itemgetter(0))  # the cycles are disjoint
    return CycleDecomposition(
        prime=f.prime,
        level=n,
        bijective=(periodic == size),
        cycles=tuple(cycles),
        non_periodic_count=size - periodic,
    )


def _least_first(cycle: Sequence[int]) -> tuple[int, ...]:
    """cycle as a tuple turned to start at its least residue: a tuple
    that starts there is returned as it is."""
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def _column_map(f: IntPolynomial, n: int, x: int, length: int) -> tuple[list, list, int, int]:
    """(bases, slopes, A, B) for the k = length residues from x mod p^n,
    whose cycle mod K = p^ceil(n/2) has k residues, from two kernel calls
    a residue, with q = p^floor(n/2).

    K^2 = 0 mod p^n, so f(y + Kt) = f(y) + Kt f'(y), f'(y) = (f(y + K) -
    f(y))/K mod q.  Composed along y_i = f^i(x), f^i maps x + Kt to
    bases[i] + slopes[i] t mod p^n, bases[i] = y_i and slopes[i] = K a_i,
    a_i the product of f' over y_0..y_(i-1); f^k maps it to x + K g(t),
    g(t) = At + B mod q, A = a_k and B = (f^k(x) - x)/K.  A periodic
    residue reduces to a periodic one mod K, and its cycle meets the
    column above x in a cycle of g; a g-cycle (g^j(t)) of length L is the
    f-cycle of kL residues f^(i + kj)(x + Kt) = bases[i] + slopes[i]
    g^j(t) mod p^n.  Where f is one full cycle mod p^n, k = K and A = 1,
    the product of f' over one residue of every class mod K: its orbit is
    blocks of K residues, each the one before plus slopes[i] B."""
    k, q = f.prime ** ((n + 1) // 2), f.prime ** (n // 2)
    size = k * q
    bases, slopes, a, y = [], [], 1, x
    for _ in range(length):
        bases.append(y)
        slopes.append(k * a)
        y, z = f.eval_mod(y, size), f.eval_mod(y + k, size)
        a = a * ((z - y) // k) % q
    return bases, slopes, a, (y - x) // k % q


def _cycles_above(f: IntPolynomial, n: int,
                  below: Iterable[tuple[int, ...]]) -> tuple[list, int]:
    """The cycles of f mod p^n, each from its least residue, and the count
    of their residues, given the cycles of level m = ceil(n/2), for n above
    the small levels.  Above each cycle (x_0, ..., x_(k-1)) mod K = p^m,
    f^k acts on the column above x_0 as g(t) = At + B mod q = p^(n - m),
    and each cycle of f above it is that of a cycle of g (_column_map).
    - If p divides A, g contracts, and its one periodic point is its fixed
      point B (1 - A)^-1: one cycle of k residues.
    - If A = 1 and B = 0, g is the identity: q cycles of k residues, each
      position a progression in t.  Where k = 1 they are x_0 + Kt, kept
      until the end to come in residue order.
    - Otherwise g is a bijection whose cycles come in blocks
      (_stepped_cycles)."""
    p = f.prime
    k, q = p ** ((n + 1) // 2), p ** (n // 2)
    size = k * q
    cycles, fixed, periodic = [], [], 0
    for c in below:
        bases, slopes, a, b = _column_map(f, n, c[0], len(c))
        if not a % p:
            t = b * pow(1 - a, -1, q) % q
            cycles.append(_least_first([(x + s * t) % size for x, s in zip(bases, slopes)]))
            periodic += len(c)
            continue
        periodic += len(c) * q
        if a != 1 or b:
            cycles += _stepped_cycles(bases, slopes, a, b, k, q)
        elif len(c) == 1:
            fixed.append(c[0])
        else:
            cols = [list(map(mod, range(x, x + q * s, s), repeat(size)))
                    for x, s in zip(bases, slopes)]
            # a cycle of two starts at its least residue when sorted
            cycles.extend(zip(map(min, *cols), map(max, *cols)) if len(c) == 2
                          else map(_least_first, zip(*cols)))
    if fixed:  # x_0 + Kt for every t, in residue order
        ordered = array(_typecode(size), [0]) * (len(fixed) * q)
        for i, x in enumerate(fixed):
            ordered[i::len(fixed)] = array(ordered.typecode, range(x, size, k))
        cycles.extend(zip(ordered))
    return cycles, periodic


def _stepped_cycles(bases: list, slopes: list, a: int, b: int, k: int, q: int) -> list:
    """The cycles of f mod p^n = Kq, K = k, above a cycle of k' residues
    mod K, each from its least residue (_cycles_above): f^i(x_0 + Kt) =
    bases[i] + slopes[i] t mod p^n, and g(t) = at + b mod q is a bijection
    other than the identity.

    With d the order of a mod q, g^d(t) = t + D, and g commutes with g^d,
    so aD = D: with h = gcd(D, q), a = 1 mod q/h, so g carries the class t
    + hZ onto g(t) + hZ and g(t + w) = g(t) + w for w in hZ.  From the
    least class t_0 of a cycle of g on Z/h, g^d'(t_0) = t_0 + e after its
    d' steps (d' divides d), and e generates hZ/q, as D = (d/d') e does.
    So the g-cycle of t_0 is its d' classes whole, and its f-cycle is q/h
    blocks of k' d' residues, each the block before it plus the step
    vector K a_i e mod p^n, slopes[i] = K a_i.  As a_i e lies in hZ, each
    position keeps its residue mod Kh from block to block: the least
    residue of the cycle is the least of the first block's mod Kh, in the
    block j where j K a_i e closes the gap at that position.  The cycle is
    produced from there, least residue first: by multiply-adds, whole
    blocks up to _SHORT_BLOCK residues, as a tuple, or past them stepped
    (_stepped_blocks) into one array.  Only the h classes are walked."""
    size = k * q
    cycles = []
    power, shift = a, b  # a^j and g^j(0), up to j = d
    while power != 1:
        power, shift = power * a % q, (a * shift + b) % q
    h = gcd(shift, q)
    todo = bytearray(b"\1") * h
    for t0 in compress(range(h), todo):  # read as the walk clears it
        ts, t = [t0], (a * t0 + b) % q
        while (r := t % h) != t0:
            todo[r] = 0
            ts.append(t)
            t = (a * t + b) % q
        blocks, width, kh, e = q // h, len(bases) * len(ts), k * h, t - t0
        first = [(x + s * t) % size for t in ts for x, s in zip(bases, slopes)]
        steps = [s * e % size for s in slopes] * len(ts)
        # the least residue: at position i, in block j
        low = [r % kh for r in first]
        i = low.index(min(low))
        j = (low[i] - first[i]) % size // kh * pow(steps[i] // kh, -1, blocks) % blocks
        # blocks in the first; above _STEP_BOUND all of them
        rows = blocks if size > _STEP_BOUND else min(blocks, -(-_SHORT_BLOCK // width))
        head = range(i + j * width, i + (j + rows) * width)
        cycle = [(first[u % width] + u // width * steps[u % width]) % size for u in head]
        if rows < blocks:
            step = [steps[u % width] * rows % size for u in head]
            cycle = array(_typecode(size), cycle)
            # packed from the first rows before the first block is yielded
            for block in _stepped_blocks(cycle, step, size, (blocks - rows) * width):
                cycle.extend(block)
        cycles.append(cycle if rows < blocks else tuple(cycle))
    return cycles


def is_full_cycle(f: IntPolynomial, n: int) -> bool:
    """Does the induced map on Z/p^n consist of one cycle through all
    p^n residues?  The brute-force check: walk the orbit of 0 until its
    first return, which comes at step p^n exactly when the cycle is
    full.  It is the sweep's independent reference; deciders lift from
    mod p instead (full_cycle_by_lifting)."""
    if n < 1:
        raise PadicError(f"level must be >= 1, got {n}")
    size = f.prime**n
    x = 0
    for steps in range(1, size + 1):
        x = f.eval_mod(x, size)
        if x == 0:
            return steps == size
    return False
