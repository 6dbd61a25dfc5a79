"""Exact integer arithmetic: factorization, valuations, multiplicative orders.

Everything here works on plain Python integers and is deterministic. The
factorizer does trial division by sieved primes up to 10^6 (the table grows
only as far as the cofactor's square root asks), then a
deterministic Miller-Rabin (base set valid below 3.3e24) with Brent's rho for
composites that survive trial division.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import InvariantError, PreconditionError

_TRIAL_LIMIT = 10**6

# Witnesses making Miller-Rabin deterministic for n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_prime_table: list[int] = []  # every prime <= _prime_table_limit
_prime_table_limit = 1


def _grow_prime_table() -> list[int]:
    """Double the cached prime table (64 at first, 10^6 at most); return it.

    Doubling keeps the sieving done for any cofactor within twice one sieve
    of the largest limit that cofactor needed.
    """
    global _prime_table, _prime_table_limit
    top = min(max(64, 2 * _prime_table_limit), _TRIAL_LIMIT)
    sieve = bytearray([1]) * (top + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(top) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    _prime_table = [i for i, f in enumerate(sieve) if f]
    _prime_table_limit = top
    return _prime_table


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below 3.3e24 (probabilistic above)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    # Returns a nontrivial factor of composite odd n. Deterministic: the
    # polynomial offset c walks 1, 2, 3, ... until a factor shows up. If
    # none of 99 offsets splits n (a prime, or an unlucky composite), the
    # factorization cannot go on: InvariantError, exit 3 at the CLI.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InvariantError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its prime factorization.

    factors is a tuple of (prime, exponent) pairs with strictly increasing
    primes and exponents >= 1; the empty tuple encodes 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.value < 1:
            raise PreconditionError(f"factorization of nonpositive {self.value}")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise PreconditionError("factor primes must strictly increase")
            if e < 1:
                raise PreconditionError(f"exponent {e} < 1 for prime {p}")
            if not is_prime(p):
                raise PreconditionError(f"{p} is not prime")
            prod *= p**e
            last = p
        if prod != self.value:
            raise PreconditionError(
                f"factors reconstruct {prod}, expected {self.value}"
            )

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def __iter__(self):
        return iter(self.factors)


def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1."""
    if n < 1:
        raise PreconditionError(f"factorize requires n >= 1, got {n}")
    m = n
    found: list[tuple[int, int]] = []
    primes = _prime_table
    i = 0
    while True:
        if i == len(primes):
            # grow the table only while the cofactor still needs it
            if _prime_table_limit >= min(isqrt(m), _TRIAL_LIMIT):
                break
            primes = _grow_prime_table()
        p = primes[i]
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            found.append((p, e))
        i += 1
    if m > 1:
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            # trial division ruled out divisors up to min(sqrt(m), 10^6)
            found.append((m, 1))
        else:
            counts: dict[int, int] = {}
            stack = [m]
            while stack:
                k = stack.pop()
                if is_prime(k):
                    counts[k] = counts.get(k, 0) + 1
                    continue
                d = _brent_rho(k)
                stack.append(d)
                stack.append(k // d)
            found.extend(sorted(counts.items()))
            found.sort()
    return Factorization(value=n, factors=tuple(found))


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise PreconditionError("valuation of 0 is undefined")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def radical(n: int) -> int:
    """Product of the distinct primes dividing n (1 for n = 1)."""
    if n < 1:
        raise PreconditionError(f"radical requires n >= 1, got {n}")
    r = 1
    for p, _ in factorize(n):
        r *= p
    return r


def largest_prime(n: int) -> int:
    """Largest prime divisor of n >= 2."""
    if n < 2:
        raise PreconditionError(f"{n} has no prime divisor")
    return factorize(n).factors[-1][0]


def mult_order_bruteforce(base: int, modulus: int) -> int:
    """Multiplicative order of base mod modulus by repeated multiplication.

    The reference implementation everything faster is checked against.
    """
    if modulus < 1:
        raise PreconditionError(f"modulus must be >= 1, got {modulus}")
    if modulus == 1:
        return 1
    if gcd(base, modulus) != 1:
        raise PreconditionError(f"gcd({base}, {modulus}) != 1, no order")
    b = base % modulus
    x = 1
    for k in range(1, modulus):  # the order divides phi(modulus) < modulus
        x = x * b % modulus
        if x == 1:
            return k
    raise InvariantError(f"no order of {base} mod {modulus}")


def _as_factor_pairs(exponent_factors) -> list[tuple[int, int]]:
    if isinstance(exponent_factors, Factorization):
        return list(exponent_factors.factors)
    if isinstance(exponent_factors, dict):
        return sorted(exponent_factors.items())
    return sorted(exponent_factors)


def mult_order_fast(base: int, modulus: int, exponent_factors) -> int:
    """Multiplicative order given a factored multiple of the group exponent.

    exponent_factors describes E = prod p^e with base**E = 1 mod modulus (e.g.
    the Carmichael function of the modulus); the order is found by dividing
    out primes of E while the power stays 1.
    """
    if modulus < 1:
        raise PreconditionError(f"modulus must be >= 1, got {modulus}")
    if modulus == 1:
        return 1
    if gcd(base, modulus) != 1:
        raise PreconditionError(f"gcd({base}, {modulus}) != 1, no order")
    pairs = _as_factor_pairs(exponent_factors)
    e_mult = 1
    for p, e in pairs:
        e_mult *= p**e
    if pow(base, e_mult, modulus) != 1:
        raise PreconditionError(
            f"{e_mult} is not a multiple of the order of {base} mod {modulus}"
        )
    order = e_mult
    for p, e in pairs:
        for _ in range(e):
            if order % p == 0 and pow(base, order // p, modulus) == 1:
                order //= p
            else:
                break
    return order


def unit_group_exponent(p: int, n: int) -> int:
    """Exponent of the unit group mod p**n.

    Odd p: the group is cyclic of order (p-1)p^(n-1). p = 2: trivial for n = 1,
    order 2 for n = 2, and 2 x 2^(n-2) (exponent 2^(n-2)) for n >= 3.
    """
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if n < 1:
        raise PreconditionError(f"exponent must be >= 1, got {n}")
    if p == 2:
        if n == 1:
            return 1
        if n == 2:
            return 2
        return 2 ** (n - 2)
    return (p - 1) * p ** (n - 1)


def group_exponent_factored(fact: Factorization) -> dict[int, int]:
    """Factored exponent of the unit group mod fact.value (Carmichael lambda)."""
    lam: dict[int, int] = {}

    def fold(k: int):
        for p, e in factorize(k):
            if lam.get(p, 0) < e:
                lam[p] = e

    for p, n in fact:
        fold(unit_group_exponent(p, n))
    return lam
