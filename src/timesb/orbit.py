"""Orbits of rationals under x -> b*x mod 1, exactly.

An orbit of a rational is finite: a transient while powers of primes shared
with b drain out of the denominator, then a cycle through numerators coprime
to the surviving denominator. For denominators built from a fixed prime set
the cycle is a union of arithmetic progressions (the capped-part orbit shifted
by multiples of 1/d0), which is what makes the effective density bound D work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import InvariantError, PreconditionError
from .numtheory import factorize
from .orders import DenominatorSplit, OrderProfile, order_from_profile, split_denominator
from .rational import frac_str


def _require_unit_interval(x: Fraction, allow_one: bool = False) -> None:
    if x < 0 or x > 1 or (x == 1 and not allow_one):
        rng = "[0,1]" if allow_one else "[0,1)"
        raise PreconditionError(f"{frac_str(x)} outside {rng}")


def times_b(base: int, x: Fraction) -> Fraction:
    """One step of the map: fractional part of base * x."""
    if base < 2:
        raise PreconditionError(f"base must be >= 2, got {base}")
    _require_unit_interval(x)
    n = base * x.numerator % x.denominator
    return Fraction(n, x.denominator)


@dataclass(frozen=True)
class OrbitInfo:
    """All points of a forward orbit in first-visit order."""

    base: int
    start: Fraction
    points: tuple[Fraction, ...]
    preperiod: int
    period: int

    @property
    def cycle(self) -> tuple[Fraction, ...]:
        return self.points[self.preperiod :]

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "start": frac_str(self.start),
            "points": [frac_str(p) for p in self.points],
            "preperiod": self.preperiod,
            "period": self.period,
        }


def orbit(base: int, x: Fraction) -> OrbitInfo:
    """Forward orbit of x until the first repeat, by exact iteration."""
    if base < 2:
        raise PreconditionError(f"base must be >= 2, got {base}")
    _require_unit_interval(x)
    n, d = x.numerator, x.denominator
    seen: dict[tuple[int, int], int] = {}
    pts: list[Fraction] = []
    while (n, d) not in seen:
        seen[(n, d)] = len(pts)
        pts.append(Fraction(n, d))
        n = base * n % d
        g = gcd(n, d)
        n, d = n // g, d // g
    first = seen[(n, d)]
    return OrbitInfo(
        base=base,
        start=x,
        points=tuple(pts),
        preperiod=first,
        period=len(pts) - first,
    )


@dataclass(frozen=True)
class OrbitDecomposition:
    """The two descriptions of a purely periodic orbit, verified equal.

    a1 is the orbit as iterated; a2 rebuilds it from the capped-part orbit
    plus offsets j/d0. Both are stored sorted.
    """

    base: int
    start: Fraction
    split: DenominatorSplit
    order: int
    a1: tuple[Fraction, ...]
    a2: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "fraction": frac_str(self.start),
            "d0": self.split.d0,
            "d1": self.split.d1,
            "order": self.order,
            "a1": [frac_str(p) for p in self.a1],
            "a2": [frac_str(p) for p in self.a2],
            "a1_equals_a2": self.a1 == self.a2,
        }


def decompose(profile: OrderProfile, x: Fraction) -> OrbitDecomposition:
    """Split the orbit of x through the d0/d1 factorization and verify it.

    Requires den(x) composed of the profile's primes (hence coprime to the
    base). Raises InvariantError if the two constructions disagree; that
    would mean the profile's caps are wrong.
    """
    _require_unit_interval(x)
    d = x.denominator
    if gcd(profile.base, d) != 1:
        raise PreconditionError(
            f"denominator {d} shares a factor with base {profile.base}"
        )
    fact = factorize(d)
    split = split_denominator(profile, fact)
    exps = dict(fact)
    order = order_from_profile(profile, exps)

    a1_info = orbit(profile.base, x)
    if a1_info.preperiod != 0:
        raise InvariantError(f"orbit of {frac_str(x)} not purely periodic")
    a1 = tuple(sorted(a1_info.points))

    d0, d1 = split.d0, split.d1
    inner = orbit(profile.base, Fraction(x.numerator % d1, d1))
    if len(a1) != d0 * len(inner.points):
        raise InvariantError(
            f"|A1| = {len(a1)} but d0 * |orbit mod d1| = "
            f"{d0 * len(inner.points)} for {frac_str(x)}"
        )
    a2_set = {q / d0 + Fraction(j, d0) for q in inner.points for j in range(d0)}
    a2 = tuple(sorted(a2_set))

    if len(a1) != order:
        raise InvariantError(
            f"orbit length {len(a1)} != closed-form order {order} for {frac_str(x)}"
        )
    if a1 != a2:
        raise InvariantError(f"A1 != A2 for base {profile.base}, x = {frac_str(x)}")
    return OrbitDecomposition(
        base=profile.base, start=x, split=split, order=order, a1=a1, a2=a2
    )


@dataclass(frozen=True)
class DensityReport:
    """How well a finite point set fills the closed unit interval."""

    points: tuple[Fraction, ...]
    cover_radius: Fraction
    epsilon: Fraction
    is_dense: bool

    def to_json_dict(self) -> dict:
        return {
            "count": len(self.points),
            "cover_radius": frac_str(self.cover_radius),
            "epsilon": frac_str(self.epsilon),
            "is_dense": self.is_dense,
        }


def cover_radius(points: Iterable[Fraction]) -> Fraction:
    """Exact sup over x in [0,1] of the distance from x to the point set.

    End gaps count at full length (nothing beyond the interval helps them),
    interior gaps at half.
    """
    pts = sorted(set(points))
    if not pts:
        raise PreconditionError("cover radius of an empty point set")
    for p in pts:
        _require_unit_interval(p, allow_one=True)
    worst = max(pts[0], 1 - pts[-1])
    for a, b in zip(pts, pts[1:]):
        half = (b - a) / 2
        if half > worst:
            worst = half
    return worst


def density_report(points: Sequence[Fraction], epsilon: Fraction) -> DensityReport:
    if epsilon <= 0:
        raise PreconditionError(f"epsilon must be positive, got {frac_str(epsilon)}")
    pts = tuple(sorted(set(points)))
    radius = cover_radius(pts)
    return DensityReport(
        points=pts, cover_radius=radius, epsilon=epsilon, is_dense=radius <= epsilon
    )


def density_bound(profile: OrderProfile, epsilon: Fraction) -> Fraction:
    """Denominator threshold D: any S-denominator beyond it forces an
    epsilon-dense orbit."""
    if epsilon <= 0:
        raise PreconditionError(f"epsilon must be positive, got {frac_str(epsilon)}")
    return Fraction(profile.cap_modulus(), 1) / (2 * epsilon)


def coprime_part(d: int, base: int) -> int:
    """Largest divisor of d coprime to base."""
    if d < 1 or base < 2:
        raise PreconditionError(f"need d >= 1 and base >= 2, got {d}, {base}")
    g = gcd(d, base)
    while g > 1:
        d //= g
        g = gcd(d, base)
    return d


def extend_prime_set(primes: Iterable[int], d_extra: int, base: int) -> tuple[int, ...]:
    """Adjoin the primes of d_extra not dividing base to an existing set."""
    s = set(primes)
    for p in s:
        if base % p == 0:
            raise PreconditionError(f"prime {p} divides base {base}")
    if d_extra < 1:
        raise PreconditionError(f"d_extra must be >= 1, got {d_extra}")
    for p, _ in factorize(d_extra):
        if base % p != 0:
            s.add(p)
    return tuple(sorted(s))
