"""Polynomial maps on residue rings Z/p^nZ and their cycle structure.

A polynomial with integer coefficients induces a compatible family of
self-maps of Z/p^nZ, one per level n.  Everything here works on those
finite reductions; iteration is always pointwise, never symbolic.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from .padic import (
    NonUnitError,
    PadicApprox,
    PadicError,
    PrecisionError,
    _check_prime,
    canonicalize,
)


class TableBoundError(PadicError):
    pass


class NotPeriodicError(PadicError):
    pass


class NotFullCycleError(PadicError):
    pass


# A full map table of p^n entries is only materialized below this size;
# larger levels fall back to orbit walking.
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
    # "table" below the table bound, "orbit" above it
    strategy: str
    spot_check_level: int | None = None

    def __bool__(self) -> bool:
        return self.full_cycle


def full_cycle_check(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> FullCycleReport:
    """Does the induced map on Z/p^n consist of one cycle through all
    p^n residues?  Decided by first return of the orbit of 0."""
    if n < 1:
        raise PadicError(f"level must be >= 1, got {n}")
    p = f.prime
    size = p**n
    if size <= table_bound:
        table = reduced_map_table(f, n, table_bound=table_bound).entries
        x = table[0]
        steps = 1
        while x != 0 and steps < size:
            x = table[x]
            steps += 1
        return FullCycleReport(x == 0 and steps == size, n, "table")

    # Too big to tabulate.  A failed bijection at any lower level already
    # rules a full cycle out; check the largest level that fits.
    spot = n - 1
    while p**spot > table_bound:
        spot -= 1
    if spot >= 1 and not is_bijective_mod(f, spot, table_bound=table_bound):
        return FullCycleReport(False, n, "orbit", spot)
    # Orbit of 0: a first return at step k means k distinct residues seen,
    # so return at exactly p^n is equivalent to a full cycle.
    x = 0
    for steps in range(1, size + 1):
        x = f.eval_mod(x, size)
        if x == 0:
            return FullCycleReport(steps == size, n, "orbit", spot if spot >= 1 else None)
    return FullCycleReport(False, n, "orbit", spot if spot >= 1 else None)


def is_full_cycle(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> bool:
    return full_cycle_check(f, n, table_bound=table_bound).full_cycle


@dataclass(frozen=True)
class TaylorData:
    """First-order data of the p^n-fold iterate g = f^(p^n) at a periodic
    base point x0: g(x0 + p^n z) = x0 + p^n (derivative * z + displacement)
    up to O(p^2n).

    derivative   g'(x0), a chain-rule product over the orbit
    displacement (g(x0) - x0) / p^n, exact at the stated precision
    curvature    g''(x0) / 2 when requested; None when the halving is not
                 exact at the working precision (p = 2 only)
    """

    prime: int
    level: int
    precision: int
    base_point: PadicApprox
    derivative: PadicApprox
    displacement: PadicApprox
    curvature: PadicApprox | None = None


def taylor_data(
    f: IntPolynomial,
    n: int,
    x0: PadicApprox,
    precision: int,
    *,
    with_curvature: bool = False,
) -> TaylorData:
    """Walk the orbit of x0 under f for p^n steps, carrying the value and
    the first (and optionally second) derivative of the composition.

    Requires x0 known to at least n + precision digits and p^n-periodic
    at level n.  Internal arithmetic runs at n + precision digits, with
    one guard digit for the p = 2 curvature halving.
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
    guard = modulus * p if (with_curvature and p == 2) else modulus
    df = derivative(f)
    d2f = derivative(f, 2) if with_curvature else None

    x0v = x0.value % guard
    v = x0v
    deriv_acc = 1
    second_acc = 0
    for _ in range(p**n):
        dv = df.eval_mod(v, guard)
        if with_curvature:
            second_acc = (d2f.eval_mod(v, guard) * deriv_acc * deriv_acc + dv * second_acc) % guard
        deriv_acc = (deriv_acc * dv) % guard
        v = f.eval_mod(v, guard)

    step = p**n
    diff = (v - x0v) % modulus
    if diff % step != 0:
        raise NotPeriodicError(
            f"base point {x0.value} is not p^{n}-periodic at level {n}"
        )
    displacement = (diff // step) % p**precision
    deriv = deriv_acc % p**precision

    curvature = None
    if with_curvature:
        if p == 2:
            # the integer second derivative of a composition of integer
            # polynomials is even; a failed parity check means the guard
            # precision cannot certify the halving
            if second_acc % 2 == 0:
                curvature = PadicApprox(p, precision, (second_acc // 2) % p**precision)
        else:
            inv2 = pow(2, -1, p**precision)
            curvature = PadicApprox(p, precision, (second_acc * inv2) % p**precision)

    base = PadicApprox(p, work, x0.value % modulus)
    return TaylorData(
        prime=p,
        level=n,
        precision=precision,
        base_point=base,
        derivative=PadicApprox(p, precision, deriv),
        displacement=PadicApprox(p, precision, displacement),
        curvature=curvature,
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


def lift_check(
    f: IntPolynomial, n: int, *, table_bound: int = DEFAULT_TABLE_BOUND
) -> LiftReport:
    if f.prime**n <= table_bound:
        if not is_full_cycle(f, n, table_bound=table_bound):
            raise NotFullCycleError(
                f"lift_check needs a full cycle at level {n} first"
            )
    td = taylor_data(f, n, canonicalize(0, f.prime, n + 1), 1)
    a = td.derivative.value
    b = td.displacement.value
    return LiftReport(lifts=(b % f.prime != 0 and a % f.prime == 1),
                      derivative_mod_p=a, displacement_mod_p=b)


def normalize_unit_constant(f: IntPolynomial, precision: int) -> IntPolynomial:
    """Conjugate scaling that moves the constant term to 1: the map
    x -> f(a0 x)/a0 has coefficients a_i * a0^(i-1), returned as residues
    mod p^precision.  Needs a0 to be a unit mod p."""
    p = f.prime
    a0 = f.coefficient(0)
    if a0 % p == 0:
        raise NonUnitError(
            f"constant term {a0} divisible by {p}: 0 stays fixed mod {p}"
        )
    m = p**precision
    inv = pow(a0, -1, m)
    coeffs = [(a0 * inv) % m]
    power = inv  # a0^(i-1) built up incrementally
    for i in range(1, f.degree + 1):
        power = (power * a0) % m
        coeffs.append((f.coefficient(i) * power) % m)
    return IntPolynomial(p, tuple(coeffs), allow_constant=True)
