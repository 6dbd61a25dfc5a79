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
digit expansions in `timesb.cantor`, and hands its remainders out in lists
of at most `_BLOCK`; neither command holds its whole text. An orbit is its
preperiod, from the gcd rule, and its period, from a counting pass round
the cycle that stores nothing. Its JSON record is written from a
second walk a block at a time, with one gcd per run of points sharing a
reduced denominator (each transient point, then the whole cycle), and that
pass checks that it wrote preperiod + period points. `decompose` keeps only
the sorted walk mod d1, bounded by the profile's cap modulus and not by d
(it is the whole orbit only when d0 = 1, and then A1 itself); it streams
the walk of a/d once, each point taking its own slot of A2 in a bytearray,
and writes A1 = A2 block by block from the coset construction.
OrbitInfo.points walks the orbit again, and builds its `Fraction`s, only
when asked for.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Sequence

from ._record import record
from .errors import InvariantError, PreconditionError
from .orders import DenominatorSplit, OrderProfile, _order_of_split, split_denominator
from .rational import frac_str


def _require_unit_interval(x: Fraction) -> None:
    if x < 0 or x >= 1:
        raise PreconditionError(f"{frac_str(x)} outside [0,1)")


def _cycle_start(base: int, num: int, den: int) -> tuple[int, int]:
    """The preperiod mu of the walk from num, 0 <= num < den, and the
    remainder r_mu where its cycle starts: mu is the number of rounds of
    q //= gcd(q, b) from q = den // gcd(num, den), and r_mu = num * b^mu
    mod den."""
    mu, q = 0, den // gcd(num, den)
    while (g := gcd(q, base)) > 1:
        q //= g
        mu += 1
    return mu, num * pow(base, mu, den) % den


# remainders per block of a walk, and so points per text block of a record
_BLOCK = 4096


def _remainder_walk(
    base: int, num: int, den: int, good: Sequence[bool] | None = None
) -> Iterator[list[int]]:
    """The remainders num, b*num mod den, ... up to the first repeat, for
    0 <= num < den, in first-visit order and in lists of at most _BLOCK:
    the walk ends when r comes back to the cycle's start r_mu after passing
    it. Given a digit table good, it ends instead before the first
    remainder r whose digit b*r // den is not good."""
    mu, start = _cycle_start(base, num, den)
    r, done = num, 0
    while True:
        block: list[int] = []
        append = block.append
        for _ in range(_BLOCK):
            if good is not None and not good[base * r // den]:
                yield block
                return
            append(r)
            r = base * r % den
            if r == start and done + len(block) > mu:
                yield block
                return
        done += _BLOCK
        yield block


def _remainder_list(
    base: int, num: int, den: int, good: Sequence[bool] | None = None
) -> tuple[list[int], int | None]:
    """The remainders of _remainder_walk as one list, and the index where
    the cycle starts (the preperiod), or None if the digit table good ended
    the walk: it closed only if the step after its last remainder is r_mu."""
    mu, start = _cycle_start(base, num, den)
    rems = list(chain.from_iterable(_remainder_walk(base, num, den, good)))
    closed = len(rems) > mu and base * rems[-1] % den == start
    return rems, mu if closed else None


def _period(base: int, start: int, den: int) -> int:
    """The length of the cycle through the remainder start, counted by
    stepping r -> b*r mod den back round to it; nothing is stored."""
    n, r = 1, base * start % den
    while r != start:
        r = base * r % den
        n += 1
    return n


def _points_json(
    blocks: Iterable[list[int]], den: int, mu: int, count: int
) -> Iterator[str]:
    """The JSON list of frac_str(Fraction(r, den)) over the remainders in
    blocks, as json.dumps writes it with separators (",", ":"), a text block
    per block of remainders, for the points of an orbit of a reduced
    fraction over den with its cycle from index mu. Each transient point
    has a reduced denominator of its own; every cycle point has the same
    one, so one gcd and one %-format serve the whole cycle. Raises
    InvariantError once the blocks run out unless they held count
    remainders."""
    sep, seen, fmt = "[", 0, None
    for block in blocks:
        k = min(max(mu - seen, 0), len(block))
        seen += len(block)
        for r in block[:k]:
            yield f'{sep}"{frac_str(Fraction(r, den))}"'
            sep = ","
        run = block[k:] if k else block
        if not run:
            continue
        if fmt is None:  # the first cycle point: the cycle's gcd
            g = gcd(run[0], den)
            fmt = f'%d/{den // g}","' if g < den else '%d","'  # the cycle (0): "0"
        nums = run if g == 1 else [r // g for r in run]
        yield f'{sep}"' + (fmt * len(nums))[:-3] % tuple(nums) + '"'
        sep = ","
    if seen != count:
        raise InvariantError(f"walk over {den} wrote {seen} points, not {count}")
    yield "]"


@record
class OrbitInfo:
    """The forward orbit of start: preperiod points before its cycle and
    period points on it. The points r/den(start) themselves, in first-visit
    order, are walked again each time they are asked for."""

    base: int
    start: Fraction
    preperiod: int
    period: int

    def _blocks(self) -> Iterator[list[int]]:
        return _remainder_walk(self.base, self.start.numerator, self.start.denominator)

    @property
    def points(self) -> tuple[Fraction, ...]:
        den = self.start.denominator
        return tuple(Fraction(r, den) for r in chain.from_iterable(self._blocks()))

    def json_chunks(self) -> Iterator[str]:
        """base, period, points (as frac_str), preperiod and start as one
        line of compact JSON with sorted keys, newline included, in chunks
        of at most _BLOCK points. Raises InvariantError, after the points
        written so far, if the walk gives other than preperiod + period."""
        yield f'{{"base":{self.base},"period":{self.period},"points":'
        n = self.preperiod + self.period
        yield from _points_json(self._blocks(), self.start.denominator, self.preperiod, n)
        yield f',"preperiod":{self.preperiod},"start":"{frac_str(self.start)}"}}\n'


def orbit(base: int, x: Fraction) -> OrbitInfo:
    """Forward orbit of x until the first repeat: the preperiod by the gcd
    rule, the period by a counting walk round the cycle."""
    if base < 2:
        raise PreconditionError(f"base must be >= 2, got {base}")
    _require_unit_interval(x)
    mu, start = _cycle_start(base, x.numerator, x.denominator)
    return OrbitInfo(
        base=base, start=x, preperiod=mu, period=_period(base, start, x.denominator)
    )


def _coset_blocks(inner: tuple[int, ...], d0: int, d1: int) -> Iterator[list[int]]:
    """A2 = q + j*d1 over j < d0 and q in inner, ascending since inner is
    sorted and below d1, in lists of at most _BLOCK: a group of as many
    whole shifts of inner as fit in one block, built once and shifted on by
    the group's width, or slices of inner itself when it fills a block."""
    n = len(inner)
    step = max(1, _BLOCK // n)
    group = inner if step == 1 else [q + s for s in range(0, step * d1, d1) for q in inner]
    for j in range(0, d0, step):
        off, size = j * d1, min(step, d0 - j) * n
        for i in range(0, size, _BLOCK):
            yield [t + off for t in group[i : min(i + _BLOCK, size)]]


def _fills_cosets(
    walk: Iterable[list[int]], inner: tuple[int, ...], d0: int, d1: int
) -> bool:
    """Whether the walk's remainders are A2 = {q + j*d1 : q in inner, j < d0}
    in some order. Each remainder r = q + j*d1 marks its slot
    j*|inner| + (index of q in inner) in a bytearray of |A2| bytes; a q
    outside inner or a j >= d0 points past the end. The walk fills A2 when
    it gives |A2| remainders and leaves no slot unmarked, so that none was
    marked twice."""
    n = len(inner)
    size = d0 * n
    rank = {q: i for i, q in enumerate(inner)}.get
    taken = bytearray(size)
    seen = 0
    try:
        for block in walk:
            for r in block:
                taken[rank(r % d1, size) + r // d1 * n] = 1
            seen += len(block)
    except IndexError:
        return False
    return seen == size and 0 not in taken


@record
class OrbitDecomposition:
    """The two descriptions of a purely periodic orbit, verified equal.

    A1 is the orbit as iterated; A2 rebuilds it from the orbit mod d1, held
    as inner, its remainders sorted: each q/d1 gives the points
    q/d + j/d0 = (q + j*d1)/d for j < d0. decompose returns a record only
    once the points of A1 have taken every point of A2, one each, so its
    record writes A2, in ascending order from inner, as both a1 and a2.
    """

    base: int
    start: Fraction
    split: DenominatorSplit
    order: int
    inner: tuple[int, ...]

    def _blocks(self) -> Iterator[list[int]]:
        return _coset_blocks(self.inner, self.split.d0, self.split.d1)

    def json_chunks(self) -> Iterator[str]:
        """a1 and a2 (as frac_str; the same text, written twice from the
        coset construction), base, d0, d1, fraction and order as one line
        of compact JSON with sorted keys, newline included, in chunks of at
        most _BLOCK points."""
        den = self.start.denominator
        yield '{"a1":'
        yield from _points_json(self._blocks(), den, 0, self.order)
        yield ',"a1_equals_a2":true,"a2":'
        yield from _points_json(self._blocks(), den, 0, self.order)
        yield (
            f',"base":{self.base},"d0":{self.split.d0},"d1":{self.split.d1},'
            f'"fraction":"{frac_str(self.start)}","order":{self.order}}}\n'
        )


def decompose(profile: OrderProfile, x: Fraction) -> OrbitDecomposition:
    """Split the orbit of x through the d0/d1 factorization and verify it.

    Both descriptions are compared as numerators over d = den(x). A2 shifts
    each remainder q of the walk mod d1 by j/d0, i.e.
    q/d + j/d0 = (q + j*d1)/d for j < d0, and has d0 * |inner| points,
    which must be the closed-form order. A1, the walk of x itself, streams
    past once, each of its points taking its own point of A2 and all of
    them together every one. When d0 = 1, d1 = d and the walk mod d1 is A1
    itself, walked once.

    Requires den(x) composed of the profile's primes (hence coprime to the
    base). Raises InvariantError if the two constructions disagree; that
    would mean the profile's caps are wrong.
    """
    _require_unit_interval(x)
    base, a, d = profile.base, x.numerator, x.denominator
    if gcd(base, d) != 1:
        raise PreconditionError(f"denominator {d} shares a factor with base {base}")
    split = split_denominator(profile, d)
    order = _order_of_split(profile, split)
    if _cycle_start(base, a, d)[0] != 0:
        raise InvariantError(f"orbit of {frac_str(x)} not purely periodic")

    d0, d1 = split.d0, split.d1
    inner = tuple(sorted(chain.from_iterable(_remainder_walk(base, a % d1, d1))))
    if d0 * len(inner) != order:
        raise InvariantError(
            f"orbit length {d0} * {len(inner)} != closed-form order {order} "
            f"for {frac_str(x)}"
        )
    if d0 > 1 and not _fills_cosets(_remainder_walk(base, a, d), inner, d0, d1):
        raise InvariantError(f"A1 != A2 for base {base}, x = {frac_str(x)}")
    return OrbitDecomposition(base=base, start=x, split=split, order=order, inner=inner)


def density_bound(profile: OrderProfile, epsilon: Fraction) -> Fraction:
    """Denominator threshold D: any S-denominator beyond it forces an
    epsilon-dense orbit."""
    if epsilon <= 0:
        raise PreconditionError(f"epsilon must be positive, got {frac_str(epsilon)}")
    return Fraction(profile.cap_modulus(), 1) / (2 * epsilon)
