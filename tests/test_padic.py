import pytest

from padicdyn.padic import PadicError, is_prime


def test_is_prime_small_and_rejection():
    limit = 10**4
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, limit, d))
    assert [n for n in range(-5, limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]]
    with pytest.raises(PadicError, match="not supported"):
        is_prime(1 << 33)
    # largest 32-bit primes are accepted, their neighbors rejected
    assert is_prime(4294967291)
    assert not is_prime(4294967295)
