import pytest

from padicdyn.padic import PrecisionError, is_prime


def test_is_prime_small_and_rejection():
    odds = [n for n in range(2, 200) if is_prime(n)]
    sieve = [n for n in range(2, 200)
             if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert odds == sieve
    with pytest.raises(PrecisionError):
        is_prime(1 << 33)
    # largest 32-bit primes are accepted, their neighbors rejected
    assert is_prime(4294967291)
    assert not is_prime(4294967295)
