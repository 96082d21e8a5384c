"""Polynomial maps on residue rings Z/p^nZ and their cycle structure.

A polynomial with integer coefficients induces a compatible family of
self-maps of Z/p^nZ, one per level n.  Everything here works on those
finite reductions; iteration is always pointwise, never symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .padic import PadicError, _check_prime


class TableBoundError(PadicError):
    pass


class NotFullCycleError(PadicError):
    pass


# Largest map table (p^n entries) that cycle decompositions and odometer
# tables will hold, and the longest witness cycle of a non-minimal
# verdict.  Full-cycle verdicts, towers and streams build no table.
DEFAULT_TABLE_BOUND = 1 << 24


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, constant term first.

    Trailing zero coefficients are trimmed.  A constant is a legal map
    (the all-zero tail of a sweep box builds one) and every route reports
    it as not minimal; from_text, the parser of outside text, refuses it.
    """

    prime: int
    coefficients: tuple[int, ...]
    # highest degree first, the order Horner's rule consumes them
    _horner: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_prime(self.prime)
        self._set_coefficients(tuple(map(int, self.coefficients)))

    @classmethod
    def _of_ints(cls, prime: int, coeffs: tuple[int, ...]) -> "IntPolynomial":
        """The polynomial of a tuple of ints at a prime already checked.
        It skips the checks and conversions of __init__, which halves the
        cost of the polynomial a sweep builds for every tuple of its box."""
        f = object.__new__(cls)
        object.__setattr__(f, "prime", prime)
        f._set_coefficients(coeffs)
        return f

    def _set_coefficients(self, coeffs: tuple[int, ...]) -> None:
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        coeffs = coeffs or (0,)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_horner", coeffs[::-1])

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
        the package: every table, orbit walk and stream evaluates here."""
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


@dataclass(frozen=True)
class ReducedMapTable:
    """Value table of the induced map on Z/p^level: entries[x] = f(x) mod p^level."""

    prime: int
    level: int
    entries: tuple[int, ...]


def reduced_map_table(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> ReducedMapTable:
    size = _check_table_size(f.prime, n, table_bound)
    eval_mod = f.eval_mod
    return ReducedMapTable(f.prime, n, tuple([eval_mod(x, size) for x in range(size)]))


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycle structure of the induced map at one level.

    Each cycle is rotated so its minimal element comes first and the
    cycles are sorted by that element.  Residues that are not periodic
    (only reachable, never revisited) are just counted.
    """

    prime: int
    level: int
    bijective: bool
    cycles: tuple[tuple[int, ...], ...]
    non_periodic_count: int


def cycle_decomposition(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> CycleDecomposition:
    table = reduced_map_table(f, n, table_bound=table_bound).entries
    size = len(table)
    state = bytearray(size)  # 0 unseen, 1 on current path, 2 resolved
    cycles = []
    for start in range(size):
        if state[start]:
            continue
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = table[x]
        if state[x] == 1:
            # walked into the current path: its tail is a new cycle
            cyc = path[path.index(x):]
            k = cyc.index(min(cyc))
            cycles.append(tuple(cyc[k:] + cyc[:k]))
        for y in path:
            state[y] = 2
    cycles.sort(key=lambda c: c[0])
    periodic = sum(len(c) for c in cycles)
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
