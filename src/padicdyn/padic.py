"""Finite-precision p-adic integers as canonical residues mod p^N.

A value known to N base-p digits is stored as the unique representative
in [0, p^N).  Digits are derived on demand, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class PadicError(ValueError):
    pass


class PrecisionError(PadicError):
    pass


class NonUnitError(PadicError):
    """Inversion (or unit-normalization) applied to a multiple of p."""


# Precision cap keeps p^N arithmetic predictable; raise it consciously,
# not by accident.
MAX_PRECISION = 64

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


def _check_precision(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise PrecisionError(f"precision must be a positive integer, got {n}")
    if n > MAX_PRECISION:
        raise PrecisionError(f"precision {n} exceeds cap {MAX_PRECISION}")


@dataclass(frozen=True, slots=True)
class ValuationResult:
    """p-adic valuation of a residue.

    valuation is None when the residue is 0 at the working precision, in
    which case only a lower bound (>= precision) is known.
    """

    valuation: int | None
    precision: int

    @property
    def at_least_precision(self) -> bool:
        return self.valuation is None

    @property
    def norm_exponent(self) -> int | None:
        # |x|_p = p^norm_exponent
        return None if self.valuation is None else -self.valuation

    def __str__(self) -> str:
        if self.valuation is None:
            return f">={self.precision}"
        return str(self.valuation)


@dataclass(frozen=True, slots=True)
class PadicApprox:
    """Immutable residue `value` mod prime^precision."""

    prime: int
    precision: int
    value: int

    def __post_init__(self):
        _check_prime(self.prime)
        _check_precision(self.precision)
        if not (0 <= self.value < self.prime**self.precision):
            raise PadicError(
                f"value {self.value} out of range for {self.prime}^{self.precision}"
            )

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def digits(self) -> tuple[int, ...]:
        """Base-p digits, least significant first, exactly `precision` of them."""
        out = []
        v = self.value
        for _ in range(self.precision):
            v, d = divmod(v, self.prime)
            out.append(d)
        return tuple(out)

    def digit_string(self) -> str:
        # little-endian, dot-separated: residue 11 at p=3, N=3 -> "2.0.1"
        return ".".join(str(d) for d in self.digits())

    def reduce_precision(self, m: int) -> "PadicApprox":
        if not (1 <= m <= self.precision):
            raise PrecisionError(f"cannot reduce precision {self.precision} to {m}")
        return PadicApprox(self.prime, m, self.value % self.prime**m)

    def valuation(self) -> ValuationResult:
        if self.value == 0:
            return ValuationResult(None, self.precision)
        v = 0
        x = self.value
        while x % self.prime == 0:
            x //= self.prime
            v += 1
        return ValuationResult(v, self.precision)

    @property
    def is_unit(self) -> bool:
        return self.value % self.prime != 0

    def inverse(self) -> "PadicApprox":
        if not self.is_unit:
            raise NonUnitError(
                f"{self.value} is divisible by {self.prime}, not invertible"
            )
        return PadicApprox(self.prime, self.precision, pow(self.value, -1, self.modulus))

    def _coerce(self, other) -> "PadicApprox":
        if isinstance(other, PadicApprox):
            if other.prime != self.prime:
                raise PadicError(f"prime mismatch: {self.prime} vs {other.prime}")
            if other.precision != self.precision:
                raise PrecisionError(
                    f"precision mismatch: {self.precision} vs {other.precision}"
                )
            return other
        if isinstance(other, int):
            return canonicalize(other, self.prime, self.precision)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PadicApprox(self.prime, self.precision, (self.value + o.value) % self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PadicApprox(self.prime, self.precision, (self.value - o.value) % self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PadicApprox(self.prime, self.precision, (self.value * o.value) % self.modulus)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise PadicError("negative exponent; use inverse() explicitly")
        return PadicApprox(self.prime, self.precision, pow(self.value, k, self.modulus))

    def __str__(self) -> str:
        return f"{self.value} mod {self.prime}^{self.precision}"


def canonicalize(i: int, prime: int, precision: int) -> PadicApprox:
    """Canonical residue of any signed integer mod prime^precision."""
    _check_prime(prime)
    _check_precision(precision)
    return PadicApprox(prime, precision, i % prime**precision)

