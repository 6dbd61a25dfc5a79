"""Multiplicative order of a base modulo S-smooth integers, in closed form.

For a base b and a prime p not dividing b there is a stabilization exponent n
past which ord(b, p^k) just picks up a factor p per extra power of p. Knowing
ord(b, p^n) for each prime of a set S therefore pins down ord(b, d) for every
d composed of primes of S: split d into the part d0 above per-prime caps N_p
and the bounded remainder d1, and ord(b, d) = d0 * ord(b, d1).

Note on p = 2: the stabilization exponent used here is
max(3, v2(b-1), v2(b+1) + 1). The variant without the +1 undercounts for
b = 7 mod 8 (e.g. ord(7, 16) = 2, not 4), which would break the growth rule
one step too early.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Iterable, Mapping

from ._record import record
from .errors import PreconditionError
from .numtheory import factorize, group_exponent_factored, is_prime, mult_order_fast, vp


def stabilization_exponent(base: int, p: int) -> int:
    """Smallest safe n with ord(base, p^k) = p^(k-n) * ord(base, p^n) for k >= n."""
    if base < 2:
        raise PreconditionError(f"base must be >= 2, got {base}")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if base % p == 0:
        raise PreconditionError(f"prime {p} divides base {base}")
    if p == 2:
        return max(3, vp(base - 1, 2), vp(base + 1, 2) + 1)
    # v_p(base^(p-1) - 1), at least 1 by Fermat
    n = 1
    while pow(base, p - 1, p ** (n + 1)) == 1:
        n += 1
    return n


def cap_exponent(p: int, stable: Mapping[int, tuple[int, int]]) -> int:
    """Cap N_p given per-prime (stabilization exponent, order there) for all of S.

    stable maps each q in S to (n_q, ord(base, q^n_q)). The cap is the max over
    q of n_p - v_p(ord at p's own stabilization) + v_p(ord at q's); the q = p
    term contributes n_p, so the result is always >= n_p.
    """
    if p not in stable:
        raise PreconditionError(f"prime {p} missing from stabilization data")
    n_p, ord_p = stable[p]
    base_term = n_p - vp(ord_p, p) if ord_p % p == 0 else n_p
    best = 0
    for _, (_, ord_q) in sorted(stable.items()):
        best = max(best, base_term + (vp(ord_q, p) if ord_q % p == 0 else 0))
    return best


@record(hidden=("p_minus_1",))
class PrimeOrderStats:
    """Per-prime order data: stabilization exponent, cap, and ord at
    stabilization, with the factored p - 1 as {prime: exponent} when known
    (build_profile keeps it, so no order over the profile factors it again;
    hidden, since a dict does not hash)."""

    stable_exp: int
    cap_exp: int
    order_at_stable: int
    p_minus_1: dict[int, int] | None = None

    def __post_init__(self):
        if not 1 <= self.stable_exp <= self.cap_exp:
            raise PreconditionError(
                f"need 1 <= n <= N, got n={self.stable_exp} N={self.cap_exp}"
            )
        if self.order_at_stable < 1:
            raise PreconditionError("order must be positive")


@record
class OrderProfile:
    """Immutable per-prime order structure of a base over a prime set."""

    base: int
    records: tuple[tuple[int, PrimeOrderStats], ...]

    def __post_init__(self):
        if self.base < 2:
            raise PreconditionError(f"base must be >= 2, got {self.base}")
        if not self.records:
            raise PreconditionError("prime set must be non-empty")
        last = 1
        for p, st in self.records:
            if p <= last:
                raise PreconditionError("primes must strictly increase")
            if not is_prime(p):
                raise PreconditionError(f"{p} is not prime")
            if self.base % p == 0:
                raise PreconditionError(f"prime {p} divides base {self.base}")
            if p == 2 and st.stable_exp < 3:
                raise PreconditionError("stabilization exponent at 2 must be >= 3")
            if pow(self.base, st.order_at_stable, p**st.stable_exp) != 1:
                raise PreconditionError(
                    f"recorded order {st.order_at_stable} is not an "
                    f"annihilator mod {p}^{st.stable_exp}"
                )
            last = p

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.records)

    def stats(self, p: int) -> PrimeOrderStats:
        for q, st in self.records:
            if q == p:
                return st
        raise PreconditionError(f"prime {p} not in profile {self.primes}")

    def cap_modulus(self) -> int:
        """Product of p^N_p over the profile's primes."""
        m = 1
        for p, st in self.records:
            m *= p**st.cap_exp
        return m

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "primes": list(self.primes),
            "per_prime": {
                str(p): {
                    "n": st.stable_exp,
                    "N": st.cap_exp,
                    "ord": st.order_at_stable,
                }
                for p, st in self.records
            },
        }


def build_profile(base: int, primes: Iterable[int]) -> OrderProfile:
    """Compute the full order profile of base over the given primes.

    ord(base, p^n) at each stabilization exponent n comes from
    mult_order_fast over the factored exponent of the unit group mod p^n, so
    a prime near 1e9 costs a factorization of p - 1, not O(p) steps; each
    record keeps that factorization for the orders over the profile. The
    brute-force order stays the oracle it is checked against (the `order`
    command below 10^6, `verify` and the tests). stabilization_exponent
    rejects a base below 2, a non-prime and a prime dividing the base, and
    OrderProfile an empty prime set.
    """
    stable: dict[int, tuple[int, int]] = {}
    p_minus_1: dict[int, dict[int, int]] = {}
    for p in sorted(set(primes)):
        n_p = stabilization_exponent(base, p)
        p_minus_1[p] = factorize(p - 1)
        lam = group_exponent_factored({p: n_p}, p_minus_1)
        stable[p] = (n_p, mult_order_fast(base, p**n_p, lam))
    records = tuple(
        (p, PrimeOrderStats(n_p, cap_exponent(p, stable), ord_p, p_minus_1[p]))
        for p, (n_p, ord_p) in stable.items()
    )
    return OrderProfile(base=base, records=records)


@record
class DenominatorSplit:
    """d = d0 * d1 with d0 the excess above the caps and d1 the capped part."""

    d: int
    d0: int
    d1: int

    def __post_init__(self):
        if self.d0 < 1 or self.d1 < 1 or self.d0 * self.d1 != self.d:
            raise PreconditionError(
                f"invalid split {self.d} != {self.d0} * {self.d1}"
            )


def split_denominator(profile: OrderProfile, d: int) -> DenominatorSplit:
    """Split d, a product of the profile primes, as d0 * d1:
    d1 = gcd(d, cap_modulus) is the part of d under the caps N_p and d0 the
    excess above them."""
    rest, rad = d, prod(profile.primes)
    while rest > 0 and (g := gcd(rest, rad)) > 1:
        rest //= g
    if rest != 1:
        raise PreconditionError(
            f"denominator {d} is not a product of the profile primes "
            f"{list(profile.primes)}"
        )
    d1 = gcd(d, profile.cap_modulus())
    return DenominatorSplit(d=d, d0=d // d1, d1=d1)


def order_from_profile(profile: OrderProfile, exponents: Mapping[int, int]) -> int:
    """ord(base, prod p^e_p) in closed form; exponents may be 0 (prime absent)."""
    primes = set(profile.primes)
    for p, e in exponents.items():
        if p not in primes:
            raise PreconditionError(f"prime {p} not in profile primes")
        if e < 0:
            raise PreconditionError(f"exponent of {p} must be >= 0, got {e}")
    d = prod(p**e for p, e in exponents.items())
    return _order_of_split(profile, split_denominator(profile, d))


def _order_of_split(profile: OrderProfile, split: DenominatorSplit) -> int:
    """ord(base, d0 * d1) = d0 * ord(base, d1) for a split over the profile;
    lambda(d1) comes from the profile's factored p - 1, with no new
    factorization."""
    if split.d1 == 1:
        return split.d0
    lam = group_exponent_factored(
        {p: vp(split.d1, p) for p in profile.primes if split.d1 % p == 0},
        {p: st.p_minus_1 for p, st in profile.records},
    )
    return split.d0 * mult_order_fast(profile.base, split.d1, lam)
