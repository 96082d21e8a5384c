"""Polynomial maps on residue rings Z/p^nZ and their cycle structure.

A polynomial with integer coefficients induces a compatible family of
self-maps of Z/p^nZ, one per level n.  Everything here works on those
finite reductions; iteration is always pointwise, never symbolic.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from .padic import PadicApprox, PadicError, PrecisionError, _check_prime


class TableBoundError(PadicError):
    pass


class NotPeriodicError(PadicError):
    pass


class NotFullCycleError(PadicError):
    pass


# Largest map table (p^n entries) that cycle decompositions, bijectivity
# checks, odometer tables and the witness walk of a non-minimal verdict
# will hold.  Full-cycle verdicts and streams build no table.
DEFAULT_TABLE_BOUND = 1 << 24


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, constant term first.

    Trailing zero coefficients are trimmed.  Degree 0 is rejected unless
    allow_constant is passed: a constant is a legal formal polynomial
    (derivatives produce them) but not a dynamical system worth studying.
    """

    prime: int
    coefficients: tuple[int, ...]
    allow_constant: InitVar[bool] = False
    # highest degree first, the order Horner's rule consumes them
    _horner: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, allow_constant: bool):
        _check_prime(self.prime)
        coeffs = tuple(int(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0,)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_horner", coeffs[::-1])
        if len(coeffs) < 2 and not allow_constant:
            raise PadicError(
                "degree 0 polynomial rejected; pass allow_constant=True for formal use"
            )

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> int:
        return self.coefficients[i] if 0 <= i < len(self.coefficients) else 0

    @classmethod
    def from_text(cls, prime: int, text: str) -> "IntPolynomial":
        """Parse the shared text format: comma-separated signed decimals,
        constant term first ("1,3,0,2" is 1 + 3x + 2x^3)."""
        try:
            coeffs = tuple(int(part.strip()) for part in text.split(","))
        except ValueError as e:
            raise PadicError(f"bad coefficient list {text!r}") from e
        return cls(prime, coeffs)

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coefficients)

    def eval_mod(self, x: int, modulus: int) -> int:
        """f(x) mod modulus.  The one Horner loop of the package: every
        table, orbit walk and stream evaluates through it."""
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


def derivative(f: IntPolynomial, order: int = 1) -> IntPolynomial:
    """Formal derivative; repeated term rule, may degrade to a constant
    or to the zero polynomial."""
    if order < 0:
        raise PadicError("derivative order must be nonnegative")
    coeffs = f.coefficients
    for _ in range(order):
        coeffs = tuple(i * coeffs[i] for i in range(1, len(coeffs))) or (0,)
    return IntPolynomial(f.prime, coeffs, allow_constant=True)


def _check_table_size(prime: int, level: int, table_bound: int) -> int:
    if level < 1:
        raise PadicError(f"level must be >= 1, got {level}")
    size = prime**level
    if size > table_bound:
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
class BijectivityReport:
    bijective: bool
    # first pair (x, y), x < y, with equal images, when not bijective
    collision: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.bijective


def is_bijective_mod(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> BijectivityReport:
    table = reduced_map_table(f, n, table_bound=table_bound).entries
    first_preimage: dict[int, int] = {}
    for x, y in enumerate(table):
        if y in first_preimage:
            return BijectivityReport(False, (first_preimage[y], x))
        first_preimage[y] = x
    return BijectivityReport(True, None)


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


@dataclass(frozen=True)
class FullCycleReport:
    full_cycle: bool
    level: int
    # always "orbit", the only way the check runs; perfbench/spans.py reads it
    strategy: str = "orbit"

    def __bool__(self) -> bool:
        return self.full_cycle


def full_cycle_check(f: IntPolynomial, n: int) -> FullCycleReport:
    """Does the induced map on Z/p^n consist of one cycle through all
    p^n residues?  The brute-force reference: walk the orbit of 0 until
    its first return, which comes at step p^n exactly when the cycle is
    full.  Production code decides this by lifting from mod p
    (criteria.full_cycle_by_lifting)."""
    if n < 1:
        raise PadicError(f"level must be >= 1, got {n}")
    size = f.prime**n
    x = 0
    for steps in range(1, size + 1):
        x = f.eval_mod(x, size)
        if x == 0:
            return FullCycleReport(steps == size, n)
    return FullCycleReport(False, n)


def is_full_cycle(f: IntPolynomial, n: int) -> bool:
    return full_cycle_check(f, n).full_cycle


@dataclass(frozen=True)
class TaylorData:
    """First-order data of the p^n-fold iterate g = f^(p^n) at a periodic
    base point x0: g(x0 + p^n z) = x0 + p^n (derivative * z + displacement)
    up to O(p^2n).

    derivative   g'(x0), a chain-rule product over the orbit
    displacement (g(x0) - x0) / p^n, exact at the stated precision
    """

    prime: int
    level: int
    precision: int
    base_point: PadicApprox
    derivative: PadicApprox
    displacement: PadicApprox


def taylor_data(
    f: IntPolynomial, n: int, x0: PadicApprox, precision: int
) -> TaylorData:
    """Walk the orbit of x0 under f for p^n steps, carrying the value and
    the first derivative of the composition.

    Requires x0 known to at least n + precision digits and p^n-periodic
    at level n.  Internal arithmetic runs at n + precision digits.
    """
    if f.prime != x0.prime:
        raise PadicError(f"prime mismatch: {f.prime} vs {x0.prime}")
    if n < 1 or precision < 1:
        raise PadicError("level and precision must be >= 1")
    p = f.prime
    work = n + precision
    if x0.precision < work:
        raise PrecisionError(
            f"base point precision {x0.precision} below required {work}"
        )
    modulus = p**work
    df = derivative(f)

    x0v = x0.value % modulus
    v = x0v
    deriv_acc = 1
    for _ in range(p**n):
        deriv_acc = (deriv_acc * df.eval_mod(v, modulus)) % modulus
        v = f.eval_mod(v, modulus)

    step = p**n
    diff = (v - x0v) % modulus
    if diff % step != 0:
        raise NotPeriodicError(
            f"base point {x0.value} is not p^{n}-periodic at level {n}"
        )
    return TaylorData(
        prime=p,
        level=n,
        precision=precision,
        base_point=PadicApprox(p, work, x0v),
        derivative=PadicApprox(p, precision, deriv_acc % p**precision),
        displacement=PadicApprox(p, precision, (diff // step) % p**precision),
    )


@dataclass(frozen=True)
class LiftReport:
    """Whether one-cycle structure at level n lifts to level n+1.

    Given a full cycle at level n, the lift happens exactly when the
    displacement of the p^n-fold iterate at 0 is a unit and its
    derivative is 1 mod p.
    """

    lifts: bool
    derivative_mod_p: int
    displacement_mod_p: int

    def __bool__(self) -> bool:
        return self.lifts


def lift_check(f: IntPolynomial, n: int) -> LiftReport:
    """One walk of the orbit of 0, p^n steps at modulus p^(n+1), carrying
    the product of f' mod p along it.  The same walk checks the
    precondition: 0 must first return mod p^n at step p^n, which is a
    full cycle at level n; otherwise NotFullCycleError."""
    if n < 1:
        raise PadicError(f"level must be >= 1, got {n}")
    p = f.prime
    cycle = p**n
    modulus = cycle * p
    df = derivative(f)
    x = 0
    slope = 1
    for step in range(1, cycle + 1):
        slope = slope * df.eval_mod(x, p) % p
        x = f.eval_mod(x, modulus)
        if x % cycle == 0:
            break
    if step < cycle or x % cycle:
        raise NotFullCycleError(f"lift_check needs a full cycle at level {n} first")
    displacement = x // cycle
    return LiftReport(lifts=(displacement != 0 and slope == 1),
                      derivative_mod_p=slope, displacement_mod_p=displacement)
