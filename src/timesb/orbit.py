"""Orbits of rationals under x -> b*x mod 1, exactly.

An orbit of a/d is finite: every point is r/d for a remainder r in [0, d),
and one step is r -> b*r mod d, so the orbit is a walk over integer
remainders that ends at the first repeat. The walk shows a transient while
powers of primes shared with b drain out of the denominator, then a cycle
through the remainders whose points have the surviving, coprime denominator.
For denominators built from a fixed prime set the cycle is a union of
arithmetic progressions (the capped-part orbit shifted by multiples of 1/d0),
which is what makes the effective density bound D work.

One private walk, `_remainder_walk`, serves `orbit`, `decompose` and the
digit expansions in `timesb.cantor`. An orbit keeps its remainders and prints
each point r/d with one gcd; `Fraction`s are built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InvariantError, PreconditionError
from .numtheory import factorize
from .orders import DenominatorSplit, OrderProfile, _order_of_split, split_denominator
from .rational import frac_str


def _require_unit_interval(x: Fraction) -> None:
    if x < 0 or x >= 1:
        raise PreconditionError(f"{frac_str(x)} outside [0,1)")


def _remainder_walk(
    base: int, num: int, den: int, good: Sequence[bool] | None = None
) -> tuple[list[int], int | None]:
    """Remainders num, b*num mod den, ... up to the first repeat, and the
    index where the cycle starts (the preperiod). Given a digit table good,
    the walk ends with index None at the first remainder r whose digit
    b*r // den is not good."""
    seen: dict[int, int] = {}
    rems: list[int] = []
    r = num
    while r not in seen:
        if good is not None and not good[base * r // den]:
            return rems, None
        seen[r] = len(rems)
        rems.append(r)
        r = base * r % den
    return rems, seen[r]


def _point_strs(remainders: Iterable[int], den: int) -> list[str]:
    """Each point r/den as frac_str prints it, with one gcd per point."""
    out = []
    for r in remainders:
        g = gcd(r, den)
        out.append(str(r // g) if g == den else f"{r // g}/{den // g}")
    return out


@dataclass(frozen=True)
class OrbitInfo:
    """All points r/den of a forward orbit in first-visit order, kept as
    their remainders r over den = den(start)."""

    base: int
    start: Fraction
    remainders: tuple[int, ...]
    preperiod: int
    period: int

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        den = self.start.denominator
        return tuple(Fraction(r, den) for r in self.remainders)

    @property
    def cycle(self) -> tuple[Fraction, ...]:
        return self.points[self.preperiod :]

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "start": frac_str(self.start),
            "points": _point_strs(self.remainders, self.start.denominator),
            "preperiod": self.preperiod,
            "period": self.period,
        }


def orbit(base: int, x: Fraction) -> OrbitInfo:
    """Forward orbit of x until the first repeat, by the remainder walk."""
    if base < 2:
        raise PreconditionError(f"base must be >= 2, got {base}")
    _require_unit_interval(x)
    rems, first = _remainder_walk(base, x.numerator, x.denominator)
    return OrbitInfo(
        base=base,
        start=x,
        remainders=tuple(rems),
        preperiod=first,
        period=len(rems) - first,
    )


@dataclass(frozen=True)
class OrbitDecomposition:
    """The two descriptions of a purely periodic orbit, verified equal.

    a1 is the orbit as iterated; a2 rebuilds it from the capped-part orbit
    plus offsets j/d0. Once they compare equal, both are the sorted
    remainders r of the points r/den(start), stored once.
    """

    base: int
    start: Fraction
    split: DenominatorSplit
    order: int
    remainders: tuple[int, ...]

    @property
    def a1(self) -> tuple[Fraction, ...]:
        den = self.start.denominator
        return tuple(Fraction(r, den) for r in self.remainders)

    a2 = a1

    def to_json_dict(self) -> dict:
        points = _point_strs(self.remainders, self.start.denominator)
        return {
            "base": self.base,
            "fraction": frac_str(self.start),
            "d0": self.split.d0,
            "d1": self.split.d1,
            "order": self.order,
            "a1": points,
            "a2": points,
            "a1_equals_a2": True,  # decompose raises when they differ
        }


def decompose(profile: OrderProfile, x: Fraction) -> OrbitDecomposition:
    """Split the orbit of x through the d0/d1 factorization and verify it.

    Both descriptions are compared as sorted numerators over d = den(x):
    A1 is the remainder walk of x itself, and A2 shifts each remainder q of
    the walk mod d1 by j/d0, i.e. q/d + j/d0 = (q + j*d1)/d for j < d0.

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
    split = split_denominator(profile, factorize(d))
    order = _order_of_split(profile, split)

    rems, preperiod = _remainder_walk(profile.base, x.numerator, d)
    if preperiod != 0:
        raise InvariantError(f"orbit of {frac_str(x)} not purely periodic")
    a1 = sorted(rems)

    d0, d1 = split.d0, split.d1
    inner, _ = _remainder_walk(profile.base, x.numerator % d1, d1)
    if len(a1) != d0 * len(inner):
        raise InvariantError(
            f"|A1| = {len(a1)} but d0 * |orbit mod d1| = "
            f"{d0 * len(inner)} for {frac_str(x)}"
        )
    a2 = sorted(q + j * d1 for q in inner for j in range(d0))

    if len(a1) != order:
        raise InvariantError(
            f"orbit length {len(a1)} != closed-form order {order} for {frac_str(x)}"
        )
    if a1 != a2:
        raise InvariantError(f"A1 != A2 for base {profile.base}, x = {frac_str(x)}")
    return OrbitDecomposition(
        base=profile.base, start=x, split=split, order=order, remainders=tuple(a1)
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


def _cover(points: Iterable[Fraction]) -> tuple[list[int], int, Fraction]:
    """The distinct points as ascending numerators over their common
    denominator (for an orbit, the start's denominator), and the cover
    radius: end gaps count at full length (nothing beyond the interval helps
    them), interior gaps at half."""
    pts = list(points)
    if not pts:
        raise PreconditionError("cover radius of an empty point set")
    den = lcm(*{p.denominator for p in pts})
    nums = sorted({p.numerator * (den // p.denominator) for p in pts})
    for n in (nums[0], nums[-1]):
        if not 0 <= n <= den:
            raise PreconditionError(f"{frac_str(Fraction(n, den))} outside [0,1]")
    gap = max((b - a for a, b in zip(nums, nums[1:])), default=0)
    return nums, den, Fraction(max(2 * nums[0], 2 * (den - nums[-1]), gap), 2 * den)


def cover_radius(points: Iterable[Fraction]) -> Fraction:
    """Exact sup over x in [0,1] of the distance from x to the point set."""
    return _cover(points)[2]


def density_report(points: Sequence[Fraction], epsilon: Fraction) -> DensityReport:
    if epsilon <= 0:
        raise PreconditionError(f"epsilon must be positive, got {frac_str(epsilon)}")
    nums, den, radius = _cover(points)
    return DensityReport(
        points=tuple(Fraction(n, den) for n in nums),
        cover_radius=radius,
        epsilon=epsilon,
        is_dense=radius <= epsilon,
    )


def density_bound(profile: OrderProfile, epsilon: Fraction) -> Fraction:
    """Denominator threshold D: any S-denominator beyond it forces an
    epsilon-dense orbit."""
    if epsilon <= 0:
        raise PreconditionError(f"epsilon must be positive, got {frac_str(epsilon)}")
    return Fraction(profile.cap_modulus(), 1) / (2 * epsilon)
