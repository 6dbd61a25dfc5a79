"""Orbits of rationals under x -> b*x mod 1, exactly.

An orbit of a/d is finite: every point is r/d for a remainder r in [0, d),
and one step is r -> b*r mod d, so the orbit is a walk over integer
remainders. Its transient lasts while powers of primes shared with b drain
out of the denominator: mu rounds of q //= gcd(q, b), from q = den(a/d),
leave the coprime part of q, and every later point has that reduced
denominator, so the walk knows where its cycle starts before it takes a
step and ends when the cycle comes back round. For denominators built from
a fixed prime set the cycle is a union of arithmetic progressions (the
capped-part orbit shifted by multiples of 1/d0), which is what makes the
effective density bound D work.

One private walk, `_remainder_walk`, serves `orbit`, `decompose` and the
digit expansions in `timesb.cantor`. An orbit keeps the walk's list of
remainders and nothing else of its size: its JSON record is written in text
blocks of at most `_BLOCK` points, with one gcd per run of points sharing a
reduced denominator (each transient point, then the whole cycle), and
`decompose` checks A1 = A2 against the coset construction as a generator,
never built. `Fraction`s are built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import eq
from typing import Iterable, Iterator, Sequence

from .errors import InvariantError, PreconditionError
from .orders import DenominatorSplit, OrderProfile, _order_of_split, split_denominator
from .rational import frac_str


def _require_unit_interval(x: Fraction) -> None:
    if x < 0 or x >= 1:
        raise PreconditionError(f"{frac_str(x)} outside [0,1)")


def _remainder_walk(
    base: int, num: int, den: int, good: Sequence[bool] | None = None
) -> tuple[list[int], int | None]:
    """Remainders num, b*num mod den, ... up to the first repeat, and the
    index where the cycle starts (the preperiod), for 0 <= num < den. Given
    a digit table good, the walk ends with index None at the first remainder
    r whose digit b*r // den is not good.

    The preperiod mu is the number of rounds of q //= gcd(q, b) from
    q = den // gcd(num, den); the cycle starts at r_mu = num * b^mu mod den
    and the walk ends when r comes back to it."""
    mu, q = 0, den // gcd(num, den)
    while (g := gcd(q, base)) > 1:
        q //= g
        mu += 1
    start = num * pow(base, mu, den) % den
    rems: list[int] = []
    r = num
    while True:
        if good is not None and not good[base * r // den]:
            return rems, None
        rems.append(r)
        r = base * r % den
        if r == start and len(rems) > mu:
            return rems, mu


# points per text block of a JSON record
_BLOCK = 4096


def _points_json(rems: Sequence[int], den: int, cut: int) -> Iterator[str]:
    """The JSON list of frac_str(Fraction(r, den)) over rems, as json.dumps
    writes it with separators (",", ":"), in text blocks of at most _BLOCK
    points, for the remainders of an orbit of a reduced fraction over den
    with its cycle from index cut. Each transient point has a reduced
    denominator of its own; every cycle point has the same one, so one gcd
    serves the whole cycle."""
    sep = "["
    for lo, hi in [(i, i + 1) for i in range(cut)] + [(cut, len(rems))]:
        g = gcd(rems[lo], den)
        if g == den:  # the cycle (0)
            yield sep + '"0"'
            sep = ","
            continue
        tail = f"/{den // g}"
        join = f'{tail}","'.join
        for i in range(lo, hi, _BLOCK):
            run = rems[i : min(i + _BLOCK, hi)]
            nums = run if g == 1 else [r // g for r in run]
            yield sep + '"' + join(map(str, nums)) + tail + '"'
            sep = ","
    yield "]"


@dataclass(frozen=True)
class OrbitInfo:
    """All points r/den of a forward orbit in first-visit order, kept as
    their remainders r over den = den(start): the walk's own list, which
    must not be mutated (points caches what it held, and the JSON writer
    reads it as it is now). Holding a list, the record is not hashable."""

    base: int
    start: Fraction
    remainders: Sequence[int]
    preperiod: int
    period: int

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        den = self.start.denominator
        return tuple(Fraction(r, den) for r in self.remainders)

    @property
    def cycle(self) -> tuple[Fraction, ...]:
        return self.points[self.preperiod :]

    def json_chunks(self) -> Iterator[str]:
        """base, period, points (as frac_str), preperiod and start as one
        line of compact JSON with sorted keys, newline included, in chunks
        of at most _BLOCK points."""
        yield f'{{"base":{self.base},"period":{self.period},"points":'
        yield from _points_json(self.remainders, self.start.denominator, self.preperiod)
        yield f',"preperiod":{self.preperiod},"start":"{frac_str(self.start)}"}}\n'


def orbit(base: int, x: Fraction) -> OrbitInfo:
    """Forward orbit of x until the first repeat, by the remainder walk."""
    if base < 2:
        raise PreconditionError(f"base must be >= 2, got {base}")
    _require_unit_interval(x)
    rems, first = _remainder_walk(base, x.numerator, x.denominator)
    return OrbitInfo(
        base=base,
        start=x,
        remainders=rems,
        preperiod=first,
        period=len(rems) - first,
    )


@dataclass(frozen=True)
class OrbitDecomposition:
    """The two descriptions of a purely periodic orbit, verified equal.

    a1 is the orbit as iterated; a2 rebuilds it from the capped-part orbit
    plus offsets j/d0. Once they compare equal, both are the sorted
    remainders r of the points r/den(start): the walk's own list, sorted in
    place, and the only copy of either. It must not be mutated, since a1, a2
    and the JSON writer all read it; holding a list, the record is not
    hashable.
    """

    base: int
    start: Fraction
    split: DenominatorSplit
    order: int
    remainders: Sequence[int]

    @property
    def a1(self) -> tuple[Fraction, ...]:
        den = self.start.denominator
        return tuple(Fraction(r, den) for r in self.remainders)

    a2 = a1

    def json_chunks(self) -> Iterator[str]:
        """a1 and a2 (as frac_str; the same blocks, built once, since
        decompose raises when they differ), base, d0, d1, fraction and order
        as one line of compact JSON with sorted keys, newline included."""
        points = list(_points_json(self.remainders, self.start.denominator, 0))
        yield '{"a1":'
        yield from points
        yield ',"a1_equals_a2":true,"a2":'
        yield from points
        yield (
            f',"base":{self.base},"d0":{self.split.d0},"d1":{self.split.d1},'
            f'"fraction":"{frac_str(self.start)}","order":{self.order}}}\n'
        )


def _is_coset_union(a1: list[int], inner: list[int], d0: int, d1: int) -> bool:
    """Whether a1 == [q + j*d1 for j in range(d0) for q in inner], compared
    element by element against the right side as a generator, never built."""
    return len(a1) == d0 * len(inner) and all(
        map(eq, a1, (q + j * d1 for j in range(d0) for q in inner))
    )


def decompose(profile: OrderProfile, x: Fraction) -> OrbitDecomposition:
    """Split the orbit of x through the d0/d1 factorization and verify it.

    Both descriptions are compared as sorted numerators over d = den(x):
    A1 is the remainder walk of x itself, sorted in place, and A2 shifts
    each remainder q of the walk mod d1 by j/d0, i.e.
    q/d + j/d0 = (q + j*d1)/d for j < d0; with the q ascending and q < d1,
    A2 comes out sorted, and is compared with A1 element by element as a
    generator, never built.

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
    split = split_denominator(profile, d)
    order = _order_of_split(profile, split)

    a1, preperiod = _remainder_walk(profile.base, x.numerator, d)
    if preperiod != 0:
        raise InvariantError(f"orbit of {frac_str(x)} not purely periodic")
    a1.sort()

    d0, d1 = split.d0, split.d1
    inner, _ = _remainder_walk(profile.base, x.numerator % d1, d1)
    inner.sort()

    if len(a1) != order:
        raise InvariantError(
            f"orbit length {len(a1)} != closed-form order {order} for {frac_str(x)}"
        )
    if not _is_coset_union(a1, inner, d0, d1):
        raise InvariantError(f"A1 != A2 for base {profile.base}, x = {frac_str(x)}")
    return OrbitDecomposition(
        base=profile.base, start=x, split=split, order=order, remainders=a1
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
