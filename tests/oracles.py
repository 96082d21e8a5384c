"""Independent reference implementations used only by tests.

Everything here deliberately avoids the library's code paths: evaluation
goes through pow() per monomial instead of Horner, cycle structure is
recovered by repeated iteration instead of a path-marking sweep, and
iterate derivatives come from symbolic composition instead of chain-rule
products.
"""


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


def cycles_oracle(table):
    """Cycle sets via brute iteration: x is periodic iff iterating the
    table size times from x comes back to x."""
    m = len(table)
    periodic = set()
    for x in range(m):
        y = x
        for _ in range(m):
            y = table[y]
        # y is now on the eventual cycle of x; x is periodic iff reachable back
        z = y
        on_cycle = {z}
        z = table[z]
        while z != y:
            on_cycle.add(z)
            z = table[z]
        if x in on_cycle:
            periodic.add(x)
    cycles = []
    unassigned = set(periodic)
    while unassigned:
        x = min(unassigned)
        cyc = [x]
        y = table[x]
        while y != x:
            cyc.append(y)
            y = table[y]
        cycles.append(tuple(cyc))
        unassigned -= set(cyc)
    return sorted(cycles, key=lambda c: c[0]), m - len(periodic)


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


def mod_inverse_euclid(a, m):
    """Extended Euclid, kept separate from pow(a, -1, m)."""
    old_r, r = a % m, m
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r != 1:
        raise ValueError(f"{a} not invertible mod {m}")
    return old_s % m


def valuation_oracle(value, p):
    if value == 0:
        return None
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


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
