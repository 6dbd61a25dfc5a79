import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timesb.errors import InvariantError, PreconditionError
from timesb.numtheory import (
    Factorization,
    _brent_rho,
    factorize,
    group_exponent_factored,
    is_prime,
    largest_prime,
    mult_order_bruteforce,
    mult_order_fast,
    radical,
    unit_group_exponent,
    vp,
)

from oracles import factor_bruteforce


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael():
    # Carmichael numbers fool Fermat tests; they must not fool this one.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**19 - 1))


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(10**6).factors == ((2, 6), (5, 6))
    # semiprime beyond the trial division bound
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_matches_bruteforce_small():
    for n in range(1, 3000):
        assert factorize(n).factors == factor_bruteforce(n)


@pytest.mark.parametrize(
    "n",
    [
        3**11,
        2**40,
        999983,  # largest prime below 10^6
        999983 * 1000033,  # >= 10^12, one factor just below 10^6
        2 * 999983**2,
        3 * 999979 * 999983,
        1000000000039,  # prime >= 10^12
        1000003**2,
        2**5 * 3**4 * 999961,
    ],
)
def test_factorize_matches_bruteforce(n):
    assert factorize(n).factors == factor_bruteforce(n)


def test_factorize_grows_prime_table_lazily():
    # a/3^11 needs primes up to 3 only: the table stays at its first size
    code = (
        "from timesb import numtheory as nt; nt.factorize(3**11); "
        "print(nt._prime_table_limit)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert int(out) == 64


def test_brent_rho_on_a_prime_raises_invariant_error():
    # no offset splits a prime; the error maps to exit 3, not a traceback
    with pytest.raises(InvariantError, match="rho failed to split 1000003"):
        _brent_rho(1000003)


def test_factorize_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        factorize(0)
    with pytest.raises(PreconditionError):
        factorize(-6)


def test_factorization_validates():
    with pytest.raises(PreconditionError):
        Factorization(value=12, factors=((2, 1), (3, 1)))
    with pytest.raises(PreconditionError):
        Factorization(value=12, factors=((3, 1), (2, 2)))
    with pytest.raises(PreconditionError):
        Factorization(value=16, factors=((4, 2),))


def test_factorization_accessors():
    f = factorize(360)
    assert f.primes == (2, 3, 5)
    assert f.exponent(2) == 3
    assert f.exponent(7) == 0
    assert dict(f) == {2: 3, 3: 2, 5: 1}


@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    for p, e in f:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_vp_examples():
    assert vp(48, 2) == 4
    assert vp(48, 3) == 1
    assert vp(48, 5) == 0
    assert vp(-8, 2) == 3
    with pytest.raises(PreconditionError):
        vp(0, 2)
    with pytest.raises(PreconditionError):
        vp(10, 4)


def test_radical_examples():
    assert radical(1) == 1
    assert radical(360) == 30
    assert radical(1024) == 2
    with pytest.raises(PreconditionError):
        radical(0)


def test_largest_prime():
    assert largest_prime(2) == 2
    assert largest_prime(360) == 5
    assert largest_prime(97) == 97
    with pytest.raises(PreconditionError):
        largest_prime(1)


def test_order_bruteforce_examples():
    assert mult_order_bruteforce(3, 8) == 2
    assert mult_order_bruteforce(2, 9) == 6
    assert mult_order_bruteforce(10, 7) == 6
    assert mult_order_bruteforce(7, 1) == 1
    with pytest.raises(PreconditionError):
        mult_order_bruteforce(6, 9)


def test_order_fast_examples():
    # ord(2 mod 3^5) = 2 * 3^4 = 162; lambda(3^5) = 2 * 3^4
    assert mult_order_fast(2, 243, {2: 1, 3: 4}) == 162
    assert mult_order_fast(3, 8, {2: 1}) == 2
    assert mult_order_fast(7, 1, {}) == 1
    with pytest.raises(PreconditionError):
        mult_order_fast(2, 7, {2: 1})  # 2 is not a multiple of ord(2,7)=3


@given(
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=2, max_value=400),
)
@settings(max_examples=200)
def test_order_fast_agrees_with_bruteforce(b, m):
    if math.gcd(b, m) != 1:
        return
    lam = group_exponent_factored(factorize(m))
    assert mult_order_fast(b, m, lam) == mult_order_bruteforce(b, m)


@given(st.integers(min_value=2, max_value=300))
@settings(max_examples=100)
def test_order_divides_group_exponent(m):
    lam = group_exponent_factored(factorize(m))
    e_mult = 1
    for p, e in lam.items():
        e_mult *= p**e
    for b in range(2, m):
        if math.gcd(b, m) == 1:
            assert e_mult % mult_order_bruteforce(b, m) == 0


def test_unit_group_exponent_examples():
    assert unit_group_exponent(7, 2) == 42
    assert unit_group_exponent(3, 1) == 2
    assert unit_group_exponent(2, 1) == 1
    assert unit_group_exponent(2, 2) == 2
    assert unit_group_exponent(2, 5) == 8
    with pytest.raises(PreconditionError):
        unit_group_exponent(6, 2)


@given(st.integers(min_value=1, max_value=8), st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=60)
def test_unit_group_exponent_annihilates(n, p):
    m = p**n
    lam = unit_group_exponent(p, n)
    for b in range(1, min(m, 200)):
        if math.gcd(b, m) == 1:
            assert pow(b, lam, m) == 1


def test_group_exponent_factored_examples():
    # lambda(8) = 2, lambda(9) = 6, lambda(5) = 4 -> lambda(360) = lcm = 12
    lam = group_exponent_factored(factorize(360))
    assert lam == {2: 2, 3: 1}
    assert group_exponent_factored(factorize(1)) == {}
