"""Polynomial maps on residue rings Z/p^nZ and their cycle structure.

A polynomial with integer coefficients induces a compatible family of
self-maps of Z/p^nZ, one per level n.  Everything here works on those
finite reductions; iteration is always pointwise, never symbolic.  One
walk of the orbit of 0 that lifts its cycle level by level (_orbit_shape)
decides whether f is one full cycle mod p^n; a full cycle has its orbit
produced in blocks (_orbit_blocks) from p^ceil(n/2) kernel steps.  Any
other map's cycles are walked only above the periodic residues of level
ceil(n/2), found the same way, down to a level small enough for the map
table (reduced_map_table).
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, compress, islice, repeat, tee
from operator import add, itemgetter, mod, sub

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
    first block is min(count, 2K) residues of one walk through eval_mod
    in C, handed on lazily and kept until they give the step vector, and
    each later one is a list of K: the block before it plus that step
    vector mod p^n, in two passes in C.  Where K exceeds _BLOCK_BOUND the
    walk gives all count residues and keeps none, so a stream of any
    length holds a bounded number."""
    size = f.prime**n
    k = f.prime ** ((n + 1) // 2)
    walk = accumulate(repeat(size), f.eval_mod, initial=seed % size)
    if count <= 2 * k or k > _BLOCK_BOUND:
        # count may pass sys.maxsize, which islice refuses
        yield map(itemgetter(1), zip(range(count), walk))
        return
    first, kept = tee(islice(walk, 2 * k))
    yield first
    kept = list(kept)
    step = list(map(mod, map(sub, islice(kept, k, None), kept), repeat(size)))
    later = _stepped_blocks(kept[k:], step, size, count - 2 * k)
    kept.clear()  # later holds the one block it steps from
    yield from later


def _stepped_blocks(block: list, step: list, modulus: int, left: int) -> Iterator[list[int]]:
    """The blocks after `block`, each the one before it plus `step` mod
    modulus (two passes in C), `left` residues in all: the last may be short."""
    for left in range(left, 0, -len(block)):
        block = list(map(mod, map(add, block, step), repeat(modulus, left)))
        yield block


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


def _orbit_shape(f: IntPolynomial, level: int, *, stop: bool = False) -> OrbitShape | None:
    """Tail and cycle of the orbit of 0 mod p^level, in constant memory:
    Brent's cycle finding mod p, which also stops at the first return to
    0, with the hare carried mod p^level and a = (f^j)'(0) mod p, so that
    a periodic 0 has level 1's lift on its return; with a tail, Brent's
    second phase and a k-step walk from the cycle give it.  Higher lifts
    need no f': split takes no step, grow and partial walk on, attract
    walks k steps from its new base.  This walk decides every full cycle:
    f is one mod p^level exactly when the cycle length is p^level, and a
    full cycle mod p^n lifts to one mod p^(n+1) exactly when the lift is
    "grow".  With stop, the walk ends at the first level with no full
    cycle and returns the shape there; when that is level 1 it returns
    None, with no tail phase."""
    p = f.prime
    modulus = p**level
    fused, ev = f.eval_slope_mod, f.eval_mod
    # the hare stands on f^(power - 1 + length)(0)
    power = length = 1
    tortoise = 0
    x, a = fused(0, modulus)
    entry = None if a else (1, x)
    while (h := x % p) and h != tortoise:
        if power == length:
            tortoise, power, length = h, power * 2, 0
        x, d = fused(x, modulus)
        a = a * d % p
        if not a and entry is None:
            entry = (power + length, x)
        length += 1
    if not h:  # 0 is periodic, and the hare stands on its first return
        tail, length, base = 0, power - 1 + length, 0
    if stop and length < p:  # with a tail, too, the cycle is shorter than p
        return None
    if h:
        # Brent's second phase; the tortoise walks at the full modulus, so
        # it stops on f^tail(0)
        hare = 0
        for _ in range(length):
            hare = ev(hare, p)
        base = tail = 0
        while base % p != hare:
            base, hare, tail = ev(base, modulus), ev(hare, p), tail + 1
    steps = []
    walk = h  # does base start a cycle not walked yet?
    for n in range(1, level):
        if walk:
            x, a, entry = base, 1, None
            for j in range(1, length + 1):
                x, d = fused(x, modulus)
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
        if n == level - 1 or stop and step.kind != "grow":
            break
        for _ in range(length - step.length):
            x = ev(x, modulus)
    return OrbitShape(tail, length, base, tuple(steps))


def _cycle_of_zero(f: IntPolynomial, shape: OrbitShape, table_bound: int) -> tuple[int, ...]:
    """The cycle the orbit of 0 runs into mod p^level, from its first
    residue on, given its shape there (level >= 2).  Its length is known
    before it is built, and table_bound caps it.  One block of k residues
    is walked with (f^i)' mod p, k the cycle length at level - 1; f^k
    moves the block's start y by p^(level-1) z and each later block by the
    next z of z -> a z + b, so its residues are f^i(y) + (f^i)'(y)
    p^(level-1) z mod p^level: one multiply-add each."""
    if shape.length > table_bound:
        raise TableBoundError(
            f"witness cycle of {shape.length} residues exceeds bound {table_bound}")
    p = f.prime
    modulus = p ** (len(shape.steps) + 1)
    q = modulus // p
    fused = f.eval_slope_mod
    last = shape.steps[-1]
    block = last.length
    ys, shifts = [], []
    x, slope = shape.base, 1
    for _ in range(block):
        ys.append(x)
        shifts.append(slope * q)
        x, d = fused(x, modulus)
        slope = slope * d % p
    zs = [0]
    for _ in range(shape.length // block - 1):
        zs.append((last.a * zs[-1] + last.b) % p)
    # column i holds f^i(y) in every block
    cycle = [0] * shape.length
    for i, (y, s) in enumerate(zip(ys, shifts)):
        cycle[i::block] = [(y + s * z) % modulus for z in zs]
    return tuple(cycle)


def full_cycle_by_lifting(f: IntPolynomial, n: int) -> bool:
    """Is f one full cycle mod p^n?  Decided by lifting, with no table:
    one walk of the orbit of 0 that stops at the first broken level.  A
    full cycle at the decision level is one at every level."""
    if n < 1:
        raise PadicError(f"level must be >= 1, got {n}")
    level = min(n, decision_level(f.prime))
    shape = _orbit_shape(f, level, stop=True)
    return shape is not None and shape.length == f.prime**level


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
    each a tuple of residues.

    Each cycle is rotated so its minimal element comes first and the
    cycles are sorted by that element.  Residues that are not periodic
    (only reachable, never revisited) are just counted.
    """

    __slots__ = ()


def cycle_decomposition(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> CycleDecomposition:
    """The cycles of f mod p^n, by one path-marking walk of the residues
    that can be periodic; a full cycle, decided by lifting, is the orbit of
    0 in blocks (_orbit_blocks) instead.  At the small levels the walk
    takes every residue, through the map table.  Above them a periodic
    residue lies above a cycle of level m = ceil(n/2), and K = p^m has K^2
    = 0 mod p^n, so f(x + Kt) = f(x) + t (f(x + K) - f(x)): the column
    above a periodic x mod K costs two kernel calls and one progression in
    C, and f maps these columns into themselves."""
    size = _check_table_size(f.prime, n, table_bound)
    if _small_level(f.prime, n):
        table = reduced_map_table(f, n, table_bound=table_bound).entries
        todo = bytearray(b"\1") * size  # the residues still to walk
    elif full_cycle_by_lifting(f, n):
        # one cycle, from its least residue 0
        cycle = tuple(chain.from_iterable(_orbit_blocks(f, n, 0, size)))
        return CycleDecomposition(f.prime, n, True, (cycle,), 0)
    else:
        m = (n + 1) // 2
        k, q = f.prime**m, f.prime ** (n - m)
        table = array(_typecode(size), [0]) * size
        todo = bytearray(size)
        for x in chain.from_iterable(cycle_decomposition(f, m, table_bound=table_bound).cycles):
            y = f.eval_mod(x, size)
            # a range needs a nonzero step, and size steps as 0 does mod size
            step = (f.eval_mod(x + k, size) - y) % size or size
            table[x::k] = array(table.typecode,
                                map(mod, range(y, y + q * step, step), repeat(size)))
            todo[x::k] = b"\1" * q
    cycles = []
    # compress reads todo as the walk clears it: each start is the least
    # residue not walked yet
    for start in compress(range(size), todo):
        path = []
        x = start
        while todo[x]:
            todo[x] = 0
            path.append(x)
            x = table[x]
        if x == start:  # none below start is left to walk: start is least
            cycles.append(tuple(path))
        elif x in path:
            # the path from x on is a new cycle: one copy, from its least residue
            i = path.index(x)
            j = path.index(min(islice(path, i, None)), i)
            cycles.append(tuple(chain(islice(path, j, None), islice(path, i, j))))
    del table, todo  # freed before tuple(cycles) copies the list
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
