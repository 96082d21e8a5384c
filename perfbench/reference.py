"""Independent reference answers the benchmark checks the CLI against.

Nothing here imports padicdyn.  Every function works on a plain
coefficient tuple (constant term first) and uses only the definition of
minimality: f is minimal on Z_p exactly when the orbit of 0 is one full
cycle mod p^L, with L = 3 for p in {2, 3} and L = 2 otherwise.
"""

from __future__ import annotations


def decision_level(p: int) -> int:
    return 3 if p in (2, 3) else 2


def horner(coeffs: tuple[int, ...], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def orbit_first_broken(coeffs: tuple[int, ...], p: int, top: int) -> int | None:
    """First level n in 1..top at which the orbit of 0 mod p^n is not a
    full cycle, or None when it is a full cycle at every one of them.

    Walks the orbit of 0 mod p^top for p^top steps: at level n the orbit
    is the reduction of that walk, and it is a full cycle exactly when
    its first return to 0 comes at step p^n.
    """
    size = p**top
    first_return = {}  # level -> first step k >= 1 with x_k = 0 mod p^n
    x = 0
    for k in range(1, size + 1):
        x = horner(coeffs, x, size)
        for n in range(1, top + 1):
            if n not in first_return and x % p**n == 0:
                first_return[n] = k
        if len(first_return) == top:
            break
    for n in range(1, top + 1):
        if first_return.get(n) != p**n:
            return n
    return None


def lift_first_broken(coeffs: tuple[int, ...], p: int) -> int | None:
    """Same answer as orbit_first_broken(coeffs, p, 2) in O(p * degree).

    A full cycle mod p lifts to a full cycle mod p^2 exactly when the
    p-fold iterate g = f^p has g'(0) = 1 mod p and (g(0) - 0) / p a unit
    mod p.  The walk runs p steps mod p^2, carrying the chain-rule product
    of f' along the orbit mod p.
    """
    m = p * p
    deriv = tuple(i * coeffs[i] for i in range(1, len(coeffs))) or (0,)
    seen = bytearray(p)
    x = 0
    chain = 1
    for _ in range(p):
        r = x % p
        if seen[r]:
            return 1
        seen[r] = 1
        chain = chain * horner(deriv, x, p) % p
        x = horner(coeffs, x, m)
    if x % p != 0:
        return 1
    if chain != 1 or (x // p) % p == 0:
        return 2
    return None


def first_return(coeffs: tuple[int, ...], modulus: int) -> int | None:
    """First step k in 1..modulus with f^k(0) = 0 mod modulus, if any;
    the map is one full cycle mod modulus exactly when k = modulus."""
    x = 0
    for k in range(1, modulus + 1):
        x = horner(coeffs, x, modulus)
        if x == 0:
            return k
    return None


def eventual_cycle(coeffs: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """The cycle the orbit of 0 mod modulus runs into, in orbit order."""
    seen_at = {}
    order = []
    x = 0
    while x not in seen_at:
        seen_at[x] = len(order)
        order.append(x)
        x = horner(coeffs, x, modulus)
    return tuple(order[seen_at[x]:])


def is_cycle(coeffs: tuple[int, ...], modulus: int, cycle) -> bool:
    """Are the residues of `cycle` distinct, in range and successive
    images under f, closing up after the last one?"""
    if not cycle or len(set(cycle)) != len(cycle):
        return False
    if any(not 0 <= x < modulus for x in cycle):
        return False
    nxt = list(cycle[1:]) + [cycle[0]]
    return all(horner(coeffs, x, modulus) == y for x, y in zip(cycle, nxt))
