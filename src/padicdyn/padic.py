"""The package's base error type and the prime check.

Every residue mod p^n in padicdyn is a plain int in [0, p^n); this
module only says which p are accepted and what a refusal raises.
"""

from __future__ import annotations

from functools import lru_cache


class PadicError(ValueError):
    pass


_PRIME_CAP = 1 << 32


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic primality for n < 2^32. Larger inputs raise."""
    if n >= _PRIME_CAP:
        raise PadicError(f"prime {n} >= 2^32 not supported")
    if n < 4:
        return n >= 2
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
