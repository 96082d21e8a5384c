import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicdyn.padic import (
    MAX_PRECISION,
    NonUnitError,
    PadicApprox,
    PadicError,
    PrecisionError,
    canonicalize,
    is_prime,
)

from oracles import mod_inverse_euclid, valuation_oracle

primes = st.sampled_from([2, 3, 5, 7, 11, 13])


def residues(max_precision=8):
    return primes.flatmap(
        lambda p: st.integers(1, max_precision).flatmap(
            lambda n: st.builds(
                PadicApprox,
                st.just(p),
                st.just(n),
                st.integers(0, p**n - 1),
            )
        )
    )


# long-division checks done by hand: 64 = 8*8 + 0, -1 + 9 = 8, 451 = 56*8 + 3
@pytest.mark.parametrize(
    "i,p,n,want",
    [(64, 2, 3, 0), (-1, 3, 2, 8), (451, 2, 3, 3), (0, 7, 1, 0), (11, 3, 3, 11)],
)
def test_canonicalize_frozen(i, p, n, want):
    assert canonicalize(i, p, n).value == want


@given(st.integers(-(10**12), 10**12), primes, st.integers(1, 10))
def test_canonicalize_periodic(i, p, n):
    m = p**n
    assert canonicalize(i, p, n).value == canonicalize(i + m, p, n).value
    assert 0 <= canonicalize(i, p, n).value < m


def test_reduce_precision_frozen():
    x = canonicalize(451, 2, 9)
    assert x.value == 451
    assert x.reduce_precision(3).value == 3
    with pytest.raises(PrecisionError):
        x.reduce_precision(10)
    with pytest.raises(PrecisionError):
        x.reduce_precision(0)


@given(residues())
def test_digits_reassemble(x):
    ds = x.digits()
    assert len(ds) == x.precision
    assert all(0 <= d < x.prime for d in ds)
    assert sum(d * x.prime**i for i, d in enumerate(ds)) == x.value


def test_digit_string_frozen():
    assert canonicalize(11, 3, 3).digit_string() == "2.0.1"
    assert canonicalize(6, 2, 4).digit_string() == "0.1.1.0"


def test_pow_frozen():
    # naive repeated multiplication: 2^10 = 1024, 1024 - 37*27 = 25
    acc = 1
    for _ in range(10):
        acc = acc * 2 % 27
    assert acc == 25
    assert (canonicalize(2, 3, 3) ** 10).value == 25
    with pytest.raises(PadicError):
        canonicalize(2, 3, 3) ** -1


@pytest.mark.parametrize("a,p,n,want", [(2, 3, 2, 5), (7, 5, 2, 18)])
def test_mod_inverse_frozen(a, p, n, want):
    assert mod_inverse_euclid(a, p**n) == want
    assert canonicalize(a, p, n).inverse().value == want


@pytest.mark.parametrize("a,p,n", [(6, 3, 2), (0, 2, 5), (10, 5, 3)])
def test_mod_inverse_nonunit(a, p, n):
    with pytest.raises(NonUnitError):
        canonicalize(a, p, n).inverse()


@given(residues())
def test_inverse_involution(x):
    if not x.is_unit:
        return
    inv = x.inverse()
    assert inv.inverse() == x
    assert (x * inv).value == 1
    assert inv.value == mod_inverse_euclid(x.value, x.modulus)


def test_valuation_frozen():
    v = canonicalize(12, 3, 4).valuation()
    assert v.valuation == 1 and v.norm_exponent == -1 and not v.at_least_precision
    z = canonicalize(0, 2, 5).valuation()
    assert z.valuation is None and z.at_least_precision and z.norm_exponent is None
    assert str(z) == ">=5"
    assert canonicalize(64, 2, 10).valuation().valuation == 6


@given(residues())
def test_valuation_matches_oracle(x):
    got = x.valuation().valuation
    assert got == valuation_oracle(x.value, x.prime)


@given(residues(), residues())
def test_valuation_additive_under_mul(x, y):
    if x.prime != y.prime or x.precision != y.precision:
        return
    vx, vy = x.valuation().valuation, y.valuation().valuation
    if vx is None or vy is None:
        return
    if vx + vy < x.precision:
        assert (x * y).valuation().valuation == vx + vy


@given(residues(), st.integers(-100, 100), st.integers(-100, 100))
def test_reduction_is_ring_homomorphism(x, a, b):
    if x.precision < 2:
        return
    m = x.precision - 1
    u = canonicalize(a, x.prime, x.precision)
    v = canonicalize(b, x.prime, x.precision)
    for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
        full = op(u, v).reduce_precision(m)
        low = op(u.reduce_precision(m), v.reduce_precision(m))
        assert full == low


def test_arithmetic_mismatch_errors():
    x = canonicalize(1, 2, 3)
    with pytest.raises(PadicError):
        x + canonicalize(1, 3, 3)
    with pytest.raises(PrecisionError):
        x + canonicalize(1, 2, 4)
    # plain ints are canonicalized into x's ring
    assert (x + 9).value == (1 + 9) % 8
    assert (3 * x).value == 3
    assert (1 - x).value == 0


def test_construction_validation():
    with pytest.raises(PadicError):
        PadicApprox(4, 2, 1)  # not prime
    with pytest.raises(PadicError):
        PadicApprox(2, 3, 8)  # value out of range
    with pytest.raises(PrecisionError):
        PadicApprox(2, 0, 0)
    with pytest.raises(PrecisionError):
        canonicalize(1, 2, MAX_PRECISION + 1)
    # the cap itself is fine
    assert canonicalize(1, 2, MAX_PRECISION).precision == MAX_PRECISION


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


def test_immutability():
    x = canonicalize(5, 3, 2)
    with pytest.raises(AttributeError):
        x.value = 6
