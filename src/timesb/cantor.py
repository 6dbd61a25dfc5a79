"""Digit-restricted Cantor sets and the rationals inside them.

C(base, digits) is the set of reals in [0,1] admitting SOME base-b expansion
whose digits all lie in the given subset. Terminating rationals have two
expansions (0.1(0) = 0.0(2) in base 3) and either one may certify membership,
which is why 1/3 belongs to the middle-thirds set.

The headline computations: the exact sup-distance from [0,1] to the set (its
non-density radius), enumeration of all members over given denominators, and
a finiteness certificate for members whose denominators factor over a fixed
prime set.

The certificate rests on the orbit lemma: for d over the prime set S, split
as d = d0 * d1 with d1 the part under the per-prime caps, the orbit of a
reduced a/d under x -> b*x mod 1 is a union of full 1/d0-cosets.  Once 1/d0
is shorter than the longest digit-free interval, some orbit point lies
strictly inside that interval, so a/d is no member.  Applied globally this
gives the bound D; applied to each S-smooth d <= D it leaves only the few
denominators whose coset lattice is coarse enough to miss the interval, and
only those are walked.  A lattice spacing exactly equal to the interval
length is walked too, so the boundary stays conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import InvariantError, PreconditionError
from .numtheory import Factorization, factorize
from .orbit import _remainder_walk, density_bound
from .orders import OrderProfile, split_denominator
from .rational import frac_str
from .sieve import _walk, members_up_to

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DigitSet:
    """A base together with the allowed digit subset."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise PreconditionError(f"base must be >= 2, got {self.base}")
        digs = tuple(sorted(set(int(d) for d in self.digits)))
        if not digs:
            raise PreconditionError("digit set must be non-empty")
        if digs[0] < 0 or digs[-1] >= self.base:
            raise PreconditionError(
                f"digits {digs} outside range 0..{self.base - 1}"
            )
        object.__setattr__(self, "digits", digs)

    @property
    def is_full(self) -> bool:
        return len(self.digits) == self.base

    @cached_property
    def _good(self) -> tuple[bool, ...]:
        table = [False] * self.base
        for d in self.digits:
            table[d] = True
        return tuple(table)

    @property
    def missing_run(self) -> int:
        """Length of the longest run of consecutive absent digits."""
        best = run = 0
        for d in range(self.base):
            run = run + 1 if not self._good[d] else 0
            best = max(best, run)
        return best

    @property
    def epsilon_claimed(self) -> Fraction:
        """The folklore non-density radius m/(2b); epsilon_exact can exceed it."""
        return Fraction(self.missing_run, 2 * self.base)

    @cached_property
    def epsilon_exact(self) -> Fraction:
        return sup_distance(self)

    @cached_property
    def _widest_gap(self) -> tuple[Fraction, Fraction]:
        """Left edge and length of the first longest gap between adjacent
        first-level digit cylinders; length 0 when no two cylinders are apart.

        farthest_point and longest_missing_interval both start from this one
        scan; deeper gaps are 1/base-scaled copies and never win.
        """
        b = self.base
        hi_digit = self.digits[-1]
        span = Fraction(hi_digit - self.digits[0], (b - 1) * b)
        best_edge, best_len = Fraction(0), Fraction(0)
        for c, c_next in zip(self.digits, self.digits[1:]):
            gap = Fraction(c_next - c, b) - span
            if gap > best_len:
                best_edge = Fraction(c, b) + Fraction(hi_digit, (b - 1) * b)
                best_len = gap
        return best_edge, best_len

    @property
    def min_value(self) -> Fraction:
        return Fraction(self.digits[0], self.base - 1)

    @property
    def max_value(self) -> Fraction:
        return Fraction(self.digits[-1], self.base - 1)

    def to_json_dict(self) -> dict:
        return {"base": self.base, "digits": list(self.digits)}


def farthest_point(ds: DigitSet) -> tuple[Fraction, Fraction]:
    """A point of [0,1] at maximal distance from the set, with that distance.

    Candidates: 0 (below the minimum element), 1 (above the maximum), and the
    midpoint of each first-level gap between consecutive allowed digits; gaps
    at deeper levels are scaled-down copies and never win.
    """
    best_point, best_dist = Fraction(0), ds.min_value
    right = 1 - ds.max_value
    if right > best_dist:
        best_point, best_dist = Fraction(1), right
    left_edge, gap = ds._widest_gap
    if gap / 2 > best_dist:
        best_point, best_dist = left_edge + gap / 2, gap / 2
    return best_point, best_dist


def sup_distance(ds: DigitSet) -> Fraction:
    """Exact sup over x in [0,1] of dist(x, C(base, digits)); 0 iff full set."""
    return farthest_point(ds)[1]


def longest_missing_interval(ds: DigitSet) -> tuple[Fraction, Fraction]:
    """Midpoint and half-length of the longest open interval disjoint from
    the set.

    Candidates are the end segments [0, min) and (max, 1] at full length and
    the first-level gaps between adjacent digit cylinders; deeper gaps are
    1/base-scaled copies and never win.  The half-length is the sound
    exclusion radius for finiteness certificates: an orbit whose lattice
    spacing is finer than the full length must place a point strictly inside
    the interval, while a member's orbit never leaves the set.  Note the end
    segments enter at full length here but at full length as *distances* in
    farthest_point, so this radius can be smaller than sup_distance.
    """
    best_len = ds.min_value
    best_mid = ds.min_value / 2
    top = 1 - ds.max_value
    if top > best_len:
        best_len, best_mid = top, (1 + ds.max_value) / 2
    left_edge, gap = ds._widest_gap
    if gap > best_len:
        best_len, best_mid = gap, left_edge + gap / 2
    return best_mid, best_len / 2


@dataclass(frozen=True)
class ExpansionInfo:
    """Canonical eventually periodic expansion: minimal preperiod, then the
    shortest period. Terminating values carry period (0,)."""

    base: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise PreconditionError("period must be non-empty")
        for d in self.preperiod + self.period:
            if not 0 <= d < self.base:
                raise PreconditionError(f"digit {d} outside base {self.base}")

    def value(self) -> Fraction:
        b = self.base
        head = 0
        for d in self.preperiod:
            head = head * b + d
        tail = 0
        for d in self.period:
            tail = tail * b + d
        m = len(self.period)
        return (head + Fraction(tail, b**m - 1)) / b ** len(self.preperiod)

    def all_digits(self) -> frozenset:
        return frozenset(self.preperiod) | frozenset(self.period)

    def to_json_dict(self) -> dict:
        return {"preperiod": list(self.preperiod), "period": list(self.period)}


def expand(base: int, x: Fraction) -> ExpansionInfo:
    """Greedy (long division) base-b expansion of x in [0,1).

    The digit at remainder r of the orbit's remainder walk over den(x) is
    b*r // den(x), so the expansion repeats exactly where the orbit does.
    """
    if base < 2:
        raise PreconditionError(f"base must be >= 2, got {base}")
    if x < 0 or x >= 1:
        raise PreconditionError(f"{frac_str(x)} outside [0,1)")
    den = x.denominator
    rems, cut = _remainder_walk(base, x.numerator, den)
    digits = [base * r // den for r in rems]
    return ExpansionInfo(
        base=base, preperiod=tuple(digits[:cut]), period=tuple(digits[cut:])
    )


def dual_expansion(info: ExpansionInfo) -> ExpansionInfo | None:
    """The other expansion of a terminating value, or None.

    0.d1..dk(0) equals 0.d1..(dk-1)(b-1); only terminating values (canonical
    period (0,)) with a non-empty preperiod have one.
    """
    if info.period != (0,) or not info.preperiod:
        return None
    head = info.preperiod
    return ExpansionInfo(
        base=info.base,
        preperiod=head[:-1] + (head[-1] - 1,),
        period=(info.base - 1,),
    )


def _witness_digits(ds: DigitSet, num: int, den: int) -> tuple[list, list] | None:
    """Preperiod and period of an all-good expansion of num/den in [0, 1]:
    the greedy one as in expand, else the dual of a terminating value."""
    b, good = ds.base, ds._good
    if num == den:
        return ([], [b - 1]) if good[b - 1] else None
    # a den with a prime outside the base's divides no power of b: then the
    # greedy expansion is the only one and the walk stops at its first bad digit
    stop = good if pow(b, den.bit_length(), den) else None
    rems, cut = _remainder_walk(b, num, den, stop)
    if cut is None:
        return None
    digits = [b * r // den for r in rems]
    if all(good[d] for d in digits):
        return digits[:cut], digits[cut:]
    if cut and rems[cut] == 0:  # terminating: the period is (0,)
        digits[cut - 1] -= 1
        if good[b - 1] and all(good[d] for d in digits[:cut]):
            return digits[:cut], [b - 1]
    return None


def member_witness(ds: DigitSet, x: Fraction) -> ExpansionInfo | None:
    """An expansion of x using only allowed digits, or None if no such exists."""
    if x < 0 or x > 1:
        raise PreconditionError(f"{frac_str(x)} outside [0,1]")
    w = _witness_digits(ds, x.numerator, x.denominator)
    if w is None:
        return None
    return ExpansionInfo(base=ds.base, preperiod=tuple(w[0]), period=tuple(w[1]))


def member(ds: DigitSet, x: Fraction) -> bool:
    """Whether SOME base-b expansion of x uses only allowed digits."""
    return member_witness(ds, x) is not None


_SLICE = 1 << 12  # rows per walk in enumerate_members


def _unit_slices(dens: list[int]) -> Iterator[np.ndarray]:
    """(num, den) int64 rows of every reduced a/d with 0 <= a <= d, the
    denominators in the given order and each one's numerators ascending.

    Numerators come in blocks of at most _SLICE, their units picked by one
    strided mask per prime of d; blocks of several denominators are joined
    until a slice holds at least _SLICE rows.
    """
    import numpy as np

    parts, size = [], 0
    for d in dens:
        primes = factorize(d).primes
        for lo in range(0, d + 1, _SLICE):
            keep = np.ones(min(_SLICE, d + 1 - lo), dtype=bool)
            for p in primes:
                keep[-lo % p :: p] = False
            num = lo + np.flatnonzero(keep)
            parts.append(np.stack([num, np.full_like(num, d)], axis=1))
            size += num.size
            if size >= _SLICE:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


def enumerate_members(
    ds: DigitSet, denominators: Iterable[int]
) -> Iterator[tuple[Fraction, ExpansionInfo]]:
    """All reduced members a/d over the given distinct denominators.

    Yields (fraction, certifying expansion) pairs, denominators in the given
    order, numerators ascending. Denominator 1 contributes the endpoints.
    Membership comes from the sieve's vectorized walk, one slice of rows at
    a time; the witness is computed for members only.
    """
    dens = list(denominators)
    for d in dens:
        if not 1 <= d <= 2**62 // ds.base:
            raise PreconditionError(f"denominator {d} outside 1..2^62/base")
    if len(set(dens)) != len(dens):
        raise PreconditionError("duplicate denominator")
    for rows in _unit_slices(dens):
        hit = _walk(ds.base, ds.digits, rows[:, 0], rows[:, 1])
        for a, d in rows[hit].tolist():
            x = Fraction(a, d)
            w = member_witness(ds, x)
            if w is None:
                raise InvariantError(f"walk member {a}/{d} has no expansion in {ds}")
            yield x, w


def _smooth_factorizations(primes: Iterable[int], limit: int) -> list[tuple[int, tuple]]:
    """(n, prime-exponent pairs) for every product n <= limit of powers of
    the given primes, sorted by n."""
    if limit < 1:
        return []
    vals: list[tuple[int, tuple]] = [(1, ())]
    for p in sorted(set(primes)):
        if p < 2:
            raise PreconditionError(f"invalid prime {p}")
        grown = []
        for v, factors in vals:
            x, e = v * p, 1
            while x <= limit:
                grown.append((x, factors + ((p, e),)))
                x *= p
                e += 1
        vals.extend(grown)
    return sorted(vals)


def smooth_denominators(primes: Iterable[int], limit: int) -> list[int]:
    """All products of powers of the given primes that are <= limit, sorted."""
    return [n for n, _ in _smooth_factorizations(primes, limit)]


@dataclass(frozen=True)
class SIntegerCertificate:
    """Exhaustive list of members with S-smooth denominator, plus the reason
    no larger denominator can occur."""

    digit_set: DigitSet
    profile: OrderProfile
    epsilon: Fraction
    bound: Fraction
    max_denominator: int
    denominator_count: int
    members: tuple[tuple[Fraction, ExpansionInfo], ...]
    witness: Fraction
    witness_distance: Fraction
    walked_denominators: tuple[int, ...]

    @property
    def denominators_excluded(self) -> int:
        """S-smooth d <= max_denominator skipped by the per-denominator
        lattice exclusion (not part of the JSON record)."""
        return self.denominator_count - len(self.walked_denominators)

    @property
    def count_with_endpoints(self) -> int:
        return len(self.members)

    @property
    def count_without_endpoints(self) -> int:
        return sum(1 for x, _ in self.members if 0 < x < 1)

    def to_json_dict(self) -> dict:
        ds = self.digit_set
        return {
            "base": ds.base,
            "digits": list(ds.digits),
            "primes": list(self.profile.primes),
            "epsilon": frac_str(self.epsilon),
            "epsilon_exact": frac_str(ds.epsilon_exact),
            "epsilon_claimed": frac_str(ds.epsilon_claimed),
            "epsilon_discrepancy": ds.epsilon_exact != ds.epsilon_claimed,
            "D": frac_str(self.bound),
            "max_denominator": self.max_denominator,
            "denominators_checked": self.denominator_count,
            "witness": frac_str(self.witness),
            "witness_distance": frac_str(self.witness_distance),
            "count_with_endpoints": self.count_with_endpoints,
            "count_without_endpoints": self.count_without_endpoints,
            "members": [
                {
                    "num": x.numerator,
                    "den": x.denominator,
                    "preperiod": list(w.preperiod),
                    "period": list(w.period),
                }
                for x, w in self.members
            ],
            "exclusion": (
                "a member's whole orbit stays inside the set, but any "
                "denominator over the listed primes exceeding D forces the "
                "orbit onto a lattice finer than the digit-free interval "
                "around the witness, placing an orbit point strictly inside "
                "it; so every member already appears in the list"
            ),
        }


def enumerate_s_integers(
    ds: DigitSet, profile: OrderProfile, epsilon: Fraction | None = None
) -> SIntegerCertificate:
    """Enumerate every member whose denominator factors over profile.primes.

    epsilon defaults to the exclusion radius (half the longest digit-free
    interval, end segments at full length); anything above the exact
    sup-distance is rejected outright.  A claimed epsilon between the two is
    accepted, but the enumeration bound is always computed from the sound
    radius so the member list stays complete: end segments only exclude
    denominators at their full length, not twice it.

    Of the S-smooth d <= D only those with 1/d0 >= 2 * radius are walked
    (see the module docstring); denominator_count still counts them all.
    """
    if profile.base != ds.base:
        raise PreconditionError(
            f"profile base {profile.base} differs from digit set base {ds.base}"
        )
    witness, radius = longest_missing_interval(ds)
    if radius <= 0:
        raise PreconditionError(
            "full digit set: the target set is dense, no finiteness certificate"
        )
    eps = radius if epsilon is None else epsilon
    if eps <= 0:
        raise PreconditionError(f"epsilon must be positive, got {frac_str(eps)}")
    if eps > ds.epsilon_exact:
        raise PreconditionError(
            f"epsilon {frac_str(eps)} exceeds the exact non-density radius "
            f"{frac_str(ds.epsilon_exact)}; the certificate would be unsound"
        )
    bound = density_bound(profile, min(eps, radius))
    max_den = int(bound)
    smooth = _smooth_factorizations(profile.primes, max_den)
    # walk d only while 1/d0 >= gap, i.e. d0 * gap <= 1 in integers
    gap = 2 * radius
    walked = [
        d
        for d, factors in smooth
        if split_denominator(profile, Factorization(d, factors)).d0 * gap.numerator
        <= gap.denominator
    ]
    members = sorted(enumerate_members(ds, walked), key=lambda pair: pair[0])
    return SIntegerCertificate(
        digit_set=ds,
        profile=profile,
        epsilon=eps,
        bound=bound,
        max_denominator=max_den,
        denominator_count=len(smooth),
        members=tuple(members),
        witness=witness,
        witness_distance=radius,
        walked_denominators=tuple(walked),
    )


def _count_coprime_upto(limit: np.ndarray, base: int) -> np.ndarray:
    """|{k : 1 <= k <= limit, gcd(k, base) = 1}| elementwise, by
    inclusion-exclusion over the primes of the base."""
    primes = factorize(base).primes
    total = 0  # bits = 0 comes first and makes it an array like limit
    for bits in range(1 << len(primes)):
        d = 1
        sign = 1
        for i, q in enumerate(primes):
            if bits >> i & 1:
                d *= q
                sign = -sign
        total += sign * (limit // d)
    return total


def _by_value(rows: np.ndarray) -> np.ndarray:
    """(num, den) int64 rows of distinct fractions in [0, 1], sorted by value.

    The sieve's guard T^2 < 2^62 keeps num <= den < 2^31, so both convert to
    float exactly and the correctly rounded key num/den never decreases as
    the value grows: only runs of equal keys can be out of order, and each is
    re-sorted by cross-multiplying.
    """
    import numpy as np

    num, den = rows[:, 0], rows[:, 1]
    key = num / den
    order = np.argsort(key, kind="stable")
    key = key[order]
    tied = np.concatenate(([False], key[1:] == key[:-1], [False]))
    edges = np.flatnonzero(tied[1:] != tied[:-1])
    for start, stop in zip(edges[::2], edges[1::2] + 1):
        run = [(int(num[i]), int(den[i]), i) for i in order[start:stop]]
        run.sort(key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1]))
        order[start:stop] = [i for _, _, i in run]
    return rows[order]


def reduced_members_up_to(ds: DigitSet, T: int, jobs: int = 1) -> list[Fraction]:
    """All members with reduced denominator <= T, ascending.

    Uses the interval sieve, so it stays output-sensitive at large T; the
    full digit set is rejected there (everything is a member, enumerating
    ~0.3*T^2 fractions is pointless).
    """
    rows = _by_value(members_up_to(ds.base, ds.digits, T, jobs))
    return [Fraction(n, d) for n, d in rows.tolist()]


@dataclass(frozen=True)
class CountReport:
    """Member counts below a denominator bound, both endpoint conventions.

    count_reduced counts reduced fractions a/d with d <= T; count_all counts
    every pair (a, d) with 0 <= a <= d <= T whose value is a member, so each
    member x contributes floor(T / den(x)) pairs. Rows with
    includes_endpoints = false drop the values 0 and 1.
    """

    digit_set: DigitSet
    max_denominator: int
    coprime_to_b_only: bool
    reduced_with: int
    reduced_without: int
    all_with: int
    all_without: int

    def csv_rows(self) -> list[tuple]:
        T = self.max_denominator
        return [
            (T, self.reduced_with, self.all_with, "true"),
            (T, self.reduced_without, self.all_without, "false"),
        ]

    def to_csv(self) -> str:
        lines = ["T,count_reduced,count_all,includes_endpoints"]
        for row in self.csv_rows():
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "base": self.digit_set.base,
            "digits": list(self.digit_set.digits),
            "T": self.max_denominator,
            "coprime_to_b_only": self.coprime_to_b_only,
            "count_reduced_with_endpoints": self.reduced_with,
            "count_reduced_without_endpoints": self.reduced_without,
            "count_all_with_endpoints": self.all_with,
            "count_all_without_endpoints": self.all_without,
        }


def _full_set_count(ds: DigitSet, T: int, coprime_to_b_only: bool) -> CountReport:
    import numpy as np

    # every fraction in [0,1] is a member; count with a totient sieve
    phi = np.arange(T + 1, dtype=np.int64)
    for p in range(2, T + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    dens = np.arange(T + 1, dtype=np.int64)
    if coprime_to_b_only:
        keep = np.gcd(dens, ds.base) == 1
    else:
        keep = np.ones(T + 1, dtype=bool)
    keep[0] = False
    n_dens = int(keep.sum())
    reduced_with = int(phi[keep][1:].sum()) + 2 if T >= 1 else 0
    all_with = int((dens[keep] + 1).sum())
    return CountReport(
        digit_set=ds,
        max_denominator=T,
        coprime_to_b_only=coprime_to_b_only,
        reduced_with=reduced_with,
        reduced_without=reduced_with - 2,
        all_with=all_with,
        all_without=all_with - 2 * n_dens,
    )


def count_report(
    ds: DigitSet, T: int, coprime_to_b_only: bool = False, jobs: int = 1
) -> CountReport:
    """Count members with denominator <= T under every reporting convention.

    Deterministic for any jobs value: the sieve canonicalizes its output
    before anything is counted.
    """
    import numpy as np

    if T < 1:
        raise PreconditionError(f"max denominator must be >= 1, got {T}")
    if ds.is_full:
        return _full_set_count(ds, T, coprime_to_b_only)
    den = members_up_to(ds.base, ds.digits, T, jobs)[:, 1]
    if coprime_to_b_only:
        den = den[np.gcd(den, ds.base) == 1]
        reps = _count_coprime_upto(T // den, ds.base)
    else:
        reps = T // den
    endpoint = den == 1
    reduced_with = int(den.size)
    all_with = int(reps.sum())
    return CountReport(
        digit_set=ds,
        max_denominator=T,
        coprime_to_b_only=coprime_to_b_only,
        reduced_with=reduced_with,
        reduced_without=reduced_with - int(endpoint.sum()),
        all_with=all_with,
        all_without=all_with - int(reps[endpoint].sum()),
    )


def count_members_up_to(
    ds: DigitSet,
    T: int,
    reduced_only: bool = True,
    coprime_to_b_only: bool = False,
    include_endpoints: bool = True,
    jobs: int = 1,
) -> int:
    """Single count drawn out of a CountReport; see CountReport for meaning."""
    rep = count_report(ds, T, coprime_to_b_only=coprime_to_b_only, jobs=jobs)
    if reduced_only:
        return rep.reduced_with if include_endpoints else rep.reduced_without
    return rep.all_with if include_endpoints else rep.all_without
