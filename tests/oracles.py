"""Independent reference implementations used only by tests.

Everything here deliberately avoids the library's code paths: evaluation
goes through pow() per monomial instead of Horner, cycle structure is
recovered by repeated iteration instead of a path-marking sweep, and
iterate derivatives come from symbolic composition instead of chain-rule
products.

`derivative` and `orbit_shape_by_rewalking` are code the library
replaced, kept as references: the formal derivative as an IntPolynomial,
and the walk of the orbit of 0 that walked each level's cycle again,
evaluating f and f' apart through the library's eval_mod.

The exhaustive re-checks further down (the table-built conjugacy tower,
Taylor data of the p^n-fold iterate, bijectivity and the cross-validation
of a verdict against full cycles level by level) take an IntPolynomial
and raise the library's error types, so tests can compare results and
errors directly; they evaluate only through eval_pow_mod.
"""

from dataclasses import dataclass

from padicdyn.criteria import MinimalityVerdict, decide
from padicdyn.dynamics import (
    DEFAULT_TABLE_BOUND,
    IntPolynomial,
    LiftStep,
    NotFullCycleError,
    OrbitShape,
    TableBoundError,
    _order,
    decision_level,
)
from padicdyn.odometer import TowerReport
from padicdyn.padic import PadicError


def eval_pow_mod(coeffs, x, m):
    return sum(c * pow(x, i, m) for i, c in enumerate(coeffs)) % m


def table_oracle(coeffs, p, n):
    m = p**n
    return [eval_pow_mod(coeffs, x, m) for x in range(m)]


def is_permutation(table):
    return sorted(table) == list(range(len(table)))


def full_cycle_oracle(coeffs, p, n):
    """Walk from 0 with a seen-set; full cycle iff the first repeat is 0
    after exactly p^n fresh residues."""
    m = p**n
    seen = set()
    x = 0
    while x not in seen:
        seen.add(x)
        x = eval_pow_mod(coeffs, x, m)
    return x == 0 and len(seen) == m


def class_representative(coeffs, p):
    """The representative (c0, b1, .., b_(2+k)) mod m of the class of
    f = coeffs (constant term first) at p = 2 (k = 2, m = 8) or p = 3
    (k = 6, m = 9).  A unit constant term a0 goes to 1 by conjugating with
    x -> a0 x, which gives b_i = a_i a0^(i-1); a non-unit one fixes 0 mod
    p, so it and the a_i are kept as they are.  Then b1, b2 and, for
    3 <= e < 3 + k, the sum of b_i over i >= 3, i = e mod k, as the
    coefficient of x^e.  At p = 2 this is f mod 8 as a map (x^2 = 1 for
    odd x, x^3 = 0 for even x); at p = 3 it keeps f mod 9 and the verdict
    mod 27, not f mod 27."""
    k, m = (2, 8) if p == 2 else (6, 9)
    a0 = coeffs[0]
    b = [1, *(a * pow(a0, i, m) for i, a in enumerate(coeffs[1:]))] if a0 % p else list(coeffs)
    b += [0] * (3 + k - len(b))
    return tuple(x % m for x in (*b[:3], *(sum(b[e::k]) for e in range(3, 3 + k))))


def orbit_from_zero(coeffs, p, n):
    """The residues the orbit of 0 visits mod p^n up to its first repeat,
    in order, and the index at which its eventual cycle starts: a walk
    that remembers every residue it has seen."""
    m = p**n
    seen_at = {}
    order = []
    x = 0
    while x not in seen_at:
        seen_at[x] = len(order)
        order.append(x)
        x = eval_pow_mod(coeffs, x, m)
    return order, seen_at[x]


def tower_by_walk(f, n_max, table_bound=DEFAULT_TABLE_BOUND):
    """The conjugacy tower's outcome from one walk of the orbit of 0 per
    level: the bound at the first level above it, else the first level
    whose orbit of 0 is no full cycle, counting the residues it visits."""
    p = f.prime
    for n in range(1, n_max + 1):
        size = p**n
        if size > table_bound:
            raise TableBoundError(f"table of {p}^{n} entries exceeds bound {table_bound}")
        order, start = orbit_from_zero(f.coefficients, p, n)
        count = len(order)
        if start or count < size:
            raise NotFullCycleError(
                f"orbit of 0 closes after {count} of {size} residues at level {n}"
                if count < size else f"orbit of 0 does not return to 0 at level {n}")


def cycles_oracle(table):
    """Cycle sets via brute iteration: f^N with N >= len(table) carries
    every residue onto its eventual cycle and is onto each cycle, so the
    periodic residues are the image of f^N, here f^(2^k) from k
    squarings of the table.  Each cycle is then iterated from its least
    residue."""
    m = len(table)
    power = list(table)
    for _ in range(m.bit_length()):
        power = [power[y] for y in power]
    periodic = set(power)
    cycles = []
    seen = set()
    for x in sorted(periodic):
        if x in seen:
            continue
        cyc = [x]
        y = table[x]
        while y != x:
            cyc.append(y)
            y = table[y]
        cycles.append(tuple(cyc))
        seen.update(cyc)
    return cycles, m - len(periodic)


def iterate_oracle(coeffs, x, k, m):
    for _ in range(k):
        x = eval_pow_mod(coeffs, x, m)
    return x


def poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def poly_compose(outer, inner):
    """outer(inner(x)) as an exact integer coefficient list (Horner in
    the polynomial ring)."""
    acc = [0]
    for c in reversed(outer):
        acc = poly_mul(acc, list(inner))
        if not acc:
            acc = [0]
        acc[0] += c
    return acc


def poly_self_compose(coeffs, k):
    g = [0, 1]
    for _ in range(k):
        g = poly_compose(coeffs, g)
    return g


def poly_derivative(coeffs, order=1):
    c = list(coeffs)
    for _ in range(order):
        c = [i * c[i] for i in range(1, len(c))] or [0]
    return c


def derivative(f):
    """Formal derivative of an IntPolynomial; may degrade to a constant or
    to the zero polynomial."""
    return IntPolynomial(f.prime, tuple(poly_derivative(f.coefficients)))


def orbit_shape_by_rewalking(f, level, *, stop=False):
    """dynamics._orbit_shape as it was before the walk was fused: Brent's
    cycle finding mod p (stopping at the first return to 0 as well), then
    one k-step walk per level from the cycle's first point, carrying f'
    mod p from a separate evaluation of the derivative."""
    p = f.prime
    ev = f.eval_mod
    power = length = 1
    tortoise, hare = 0, ev(0, p)
    while hare and hare != tortoise:
        if power == length:
            tortoise, power, length = hare, power * 2, 0
        hare = ev(hare, p)
        length += 1
    if not hare:
        tail, length, base = 0, power - 1 + length, 0
    if stop and length < p:
        return None
    modulus = p**level
    if hare:
        hare = 0
        for _ in range(length):
            hare = ev(hare, p)
        base = tail = 0
        while base % p != hare:
            base, hare, tail = ev(base, modulus), ev(hare, p), tail + 1
    df = derivative(f).eval_mod
    steps = []
    for n in range(1, level):
        q = p**n
        x, a, entry = base, 1, None
        for j in range(1, length + 1):
            if a:
                a = a * df(x % p, p) % p
                x = ev(x, modulus)
                if not a:
                    entry = (j, x)
            else:
                x = ev(x, modulus)
        b = (x - base) % (q * p) // q
        step = LiftStep(length, a, b, "split" if b == 0 else "grow" if a == 1
                        else "attract" if a == 0 else "partial")
        if step.kind == "grow":
            length *= p
        elif step.kind == "attract":
            tail, base = tail + entry[0], entry[1]
        elif step.kind == "partial":
            length *= _order(a, p)
        steps.append(step)
        if stop and step.kind != "grow":
            break
    return OrbitShape(tail, length, base, tuple(steps))


def taylor_oracle(coeffs, p, n, x0, precision):
    """alpha, beta of the p^n-fold self-composition, from the exact
    symbolic composition.  Only feasible for tiny p^n."""
    g = poly_self_compose(list(coeffs), p**n)
    g1 = poly_derivative(g)
    m = p**precision
    value = eval_pow_mod(g, x0, p ** (n + precision))
    assert (value - x0) % p**n == 0
    beta = ((value - x0) // p**n) % m
    alpha = eval_pow_mod(g1, x0, m)
    return alpha, beta


def _bounded_table(f, n, table_bound):
    p = f.prime
    if n < 1:
        raise PadicError(f"level must be >= 1, got {n}")
    if p**n > table_bound:
        raise TableBoundError(f"table of {p}^{n} entries exceeds bound {table_bound}")
    return table_oracle(f.coefficients, p, n)


def tower_oracle(f, n_max, table_bound=DEFAULT_TABLE_BOUND):
    """The conjugacy tower checked exhaustively: at each level 1..n_max in
    turn a map table and the orbit index psi of 0 through it, then the
    conjugation identity psi(f(x)) = psi(x) + 1 at every residue and the
    projection identity psi_(n+1)(x) = psi_n(x mod p^n) mod p^n.  Both
    are asserted, so a report comes back only when every level holds."""
    if n_max < 1:
        raise PadicError(f"n_max must be >= 1, got {n_max}")
    p = f.prime
    tables, psis = [], []
    for n in range(1, n_max + 1):
        table = _bounded_table(f, n, table_bound)
        size = len(table)
        psi = [-1] * size
        x = 0
        for k in range(size):
            if psi[x] != -1:
                raise NotFullCycleError(
                    f"orbit of 0 closes after {k} of {size} residues at level {n}")
            psi[x] = k
            x = table[x]
        if x != 0:
            raise NotFullCycleError(f"orbit of 0 does not return to 0 at level {n}")
        tables.append(table)
        psis.append(psi)
    for n in range(1, n_max + 1):
        size = p**n
        table, psi = tables[n - 1], psis[n - 1]
        assert all(psi[table[x]] == (psi[x] + 1) % size for x in range(size)), (
            f"conjugation fails at level {n}")
        assert n == n_max or all(psis[n][x] % size == psi[x % size]
                                 for x in range(size * p)), (
            f"projection fails at level {n}")
    return TowerReport(p, n_max)


class NotPeriodicError(PadicError):
    pass


@dataclass(frozen=True)
class TaylorData:
    """First-order data of the p^n-fold iterate g = f^(p^n) at a periodic
    base point x0: g(x0 + p^n z) = x0 + p^n (derivative * z + displacement)
    up to O(p^2n).

    base_point   x0 mod p^(n + precision)
    derivative   g'(x0) mod p^precision, a chain-rule product over the orbit
    displacement (g(x0) - x0) / p^n mod p^precision
    """

    prime: int
    level: int
    precision: int
    base_point: int
    derivative: int
    displacement: int


def taylor_data(f, n, x0, precision):
    """Walk the orbit of x0 under f for p^n steps, carrying the value and
    the first derivative of the composition, mod p^(n + precision).
    Requires x0 to be p^n-periodic at level n."""
    if n < 1 or precision < 1:
        raise PadicError("level and precision must be >= 1")
    p = f.prime
    step = p**n
    m = p**precision
    modulus = step * m
    df = poly_derivative(f.coefficients)
    x0v = x0 % modulus
    v = x0v
    deriv_acc = 1
    for _ in range(step):
        deriv_acc = deriv_acc * eval_pow_mod(df, v, modulus) % modulus
        v = eval_pow_mod(f.coefficients, v, modulus)
    diff = (v - x0v) % modulus
    if diff % step != 0:
        raise NotPeriodicError(f"base point {x0} is not p^{n}-periodic at level {n}")
    return TaylorData(p, n, precision, x0v, deriv_acc % m, (diff // step) % m)


@dataclass(frozen=True)
class BijectivityReport:
    bijective: bool
    # first pair (x, y), x < y, with equal images, when not bijective
    collision: tuple | None

    def __bool__(self):
        return self.bijective


def is_bijective_mod(f, n, table_bound=DEFAULT_TABLE_BOUND):
    first_preimage = {}
    for x, y in enumerate(_bounded_table(f, n, table_bound)):
        if y in first_preimage:
            return BijectivityReport(False, (first_preimage[y], x))
        first_preimage[y] = x
    return BijectivityReport(True, None)


@dataclass(frozen=True)
class CrossValidationReport:
    prime: int
    coefficients: tuple
    verdict: MinimalityVerdict
    levels_checked: tuple
    full_cycle_by_level: tuple
    consistent: bool
    detail: str | None = None


def cross_validate(f, n_max):
    """Compare the library's verdict (decide) against explicit full-cycle
    checks at levels 1..n_max.

    minimal means a full cycle at every level; non-minimal means the
    full cycle breaks at some level at or below the decision level, so
    the checked range is extended that far when needed.
    """
    if n_max < 1:
        raise PadicError(f"n_max must be >= 1, got {n_max}")
    verdict = decide(f)
    delta = decision_level(f.prime)
    top = n_max if verdict.minimal else max(n_max, delta)
    levels = tuple(range(1, top + 1))
    flags = tuple(full_cycle_oracle(f.coefficients, f.prime, n) for n in levels)

    detail = None
    # full-cycle structure can only be lost going up, never regained
    monotone = all(flags[i] or not flags[i + 1] for i in range(len(flags) - 1))
    if not monotone:
        detail = "full-cycle flags are not downward-closed across levels"
        consistent = False
    elif verdict.minimal:
        consistent = all(flags)
        if not consistent:
            detail = f"verdict minimal but level {flags.index(False) + 1} has no full cycle"
    else:
        consistent = not all(flags[:delta])
        if not consistent:
            detail = f"verdict non-minimal but levels 1..{delta} are all full cycles"
    return CrossValidationReport(f.prime, f.coefficients, verdict, levels, flags,
                                 consistent, detail)
