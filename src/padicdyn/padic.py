"""The package's error types and the prime check.

Every residue mod p^n in padicdyn is a plain int in [0, p^n); this
module only says which p are accepted and what a refusal raises.
"""

from __future__ import annotations

from functools import lru_cache


class PadicError(ValueError):
    pass


class PrecisionError(PadicError):
    pass


_PRIME_CAP = 1 << 32
_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic primality for n < 2^32. Larger inputs raise."""
    if n >= _PRIME_CAP:
        raise PrecisionError(f"prime {n} >= 2^32 not supported")
    if n < 2:
        return False
    if n in _SMALL_PRIMES:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise PadicError(f"{p} is not a prime below 2^32")
