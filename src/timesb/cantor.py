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

The members over given denominators come from their cores: rounds of
d //= gcd(d, b) leave the core d' of d, prime to b, and a member over d has
a member over d' as its tail.  For d' > 1 those are whole cycles of
x -> b*x mod 1, so each distinct core descends the good-digit tree once.
Prefix P at depth l (S = b^l) holds the a with P*d' <= a*S <= (P+1)*d',
q + [e > 0] .. q + (e + d') // S for P*d' = q*S + e, 0 <= e < S; a node with
none is dropped.  Digit c adds the quotient of b*e + c*d' by b*S onto q and
leaves the remainder as e, below (2b-1)*d' < 2^63; a level wider than
_BUDGET is descended in halves.  Once S > d' a node holds at most one a, and
one with 0 < a < d' (0 and 1 are seeds) has the tail r = a*S - P*d' =
S*[e > 0] - e in (0, d') past P.  The sieve's leaf walk starts there, past
the good prefix, and keeps the least point of each all-good cycle; those
with gcd(a, d') = 1 go to the sieve's orbit build, which adds their cycles,
the seeds (core 1) and the preperiodic levels over each core up to its
largest requested d: a list prime to b builds no level, and no level is
built for a core no d asks for.  The rows of a requested den are kept, each
value built once, and the value sort orders them.

A member's witness is an expansion in allowed digits.  For a/d reduced the
preperiod mu is fixed by the part of d shared with b, and the digits come
from the walk c, r = divmod(b*r, d) over r in [0, d], d standing for the
value 1 = 0.(b-1)(b-1)..: a step to r = 0 whose greedy tail c(0) has a bad
digit takes the dual tail instead, digit c-1 and r = d.  _witness_chunks
walks chunks of (num, den) int rows by this rule in lock-step into one flat
digit array with row offsets; enumerate writes its JSON lines from each
chunk's arrays, and enumerate_members reads certify's records off them.
_witness_digits walks one fraction by it in plain integers (member, verify).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from typing import TYPE_CHECKING, Iterable, Iterator

from ._record import record
from .errors import InvariantError, PreconditionError
from .numtheory import factorize
from .orbit import _cycle_start, _remainder_walk, density_bound
from .orders import OrderProfile
from .rational import frac_str
from .sieve import _BUDGET, _by_value, _leaf_members, _orbits, members_up_to

if TYPE_CHECKING:
    import numpy as np


@record
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
        table = [False] * (self.base + 1)  # c = base, the value 1's greedy step, is bad
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


@record
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
    num, den = x.numerator, x.denominator
    rems = chain.from_iterable(_remainder_walk(base, num, den))
    digits = tuple(base * r // den for r in rems)
    mu = _cycle_start(base, num, den)[0]
    return ExpansionInfo(base=base, preperiod=digits[:mu], period=digits[mu:])


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
    """Preperiod and period of an all-good expansion of num/den in [0, 1],
    or None at the first bad digit: _witness_chunks' walk in plain
    integers."""
    b, good = ds.base, ds._good
    mu = _cycle_start(b, num, den)[0]
    digits, r, back = [], num, num
    while True:
        c, r = divmod(b * r, den)
        if r == 0 < c and not (good[c] and good[0]):
            c, r = c - 1, den  # the dual tail (c-1)(b-1)(b-1)..; den stands for 1
        if not good[c]:
            return None
        digits.append(c)
        if len(digits) == mu:
            back = r
        elif r == back and len(digits) > mu:
            return digits[:mu], digits[mu:]


def _witness_chunks(ds: DigitSet, rows: np.ndarray) -> Iterator[tuple]:
    """The witnesses of every reduced member row (num, den) of int64 rows,
    in row order, a chunk (num, den, digits, off, cut) of rows at a time:
    row i's preperiod is digits[off[i]:cut[i]] and its period
    digits[cut[i]:off[i + 1]].

    The preperiod mu counts the rounds of d //= gcd(d, b) until the gcd is
    1.  All rows walk c, r = divmod(b*r, den) in lock-step from r = num over
    remainders in [0, den], den standing for the value 1 = 0.(b-1)(b-1)..;
    a step to r = 0 whose greedy tail c(0) has a bad digit takes the dual
    tail instead, digit c-1 and r = den, and the value 1's own step c = b
    is lowered so too.  A row ends when r comes back to r_mu, taken at step
    mu, after more than mu steps (num, in the preperiod when mu >= 1, never
    comes back).  The digits go to one flat array, each row's preperiod
    then period; a bad digit there means its row has no good expansion, and
    the first such row raises InvariantError.  Every caller keeps
    den <= 2^62/b, so b*r <= b*den <= 2^62 stays inside int64.
    """
    import numpy as np

    b = ds.base
    good = np.array(ds._good)
    keep = good & good[0]  # a step to r = 0 keeps its greedy tail c(0)
    keep[0] = True  # the value 0 itself
    size = max(1, _BUDGET // 4)
    for start in range(0, len(rows), size):
        num, den = rows[start : start + size].T
        mu, d = np.zeros_like(den), den
        while ((g := np.gcd(d, b)) > 1).any():
            mu += g > 1
            d = d // g
        length = np.zeros_like(den)
        rounds = []
        row = np.arange(den.size)
        r, q, back, m = num, den, num.copy(), mu
        while row.size:
            c, r = np.divmod(b * r, q)
            z = np.flatnonzero(r == 0)
            if z.size:
                z = z[~keep[c[z]]]
                c[z] -= 1
                r[z] = q[z]
            rounds.append((row, c))
            end = r == back
            length[row[end]] = len(rounds)
            hit = m == len(rounds)
            back[hit] = r[hit]  # r_mu, once step mu is reached
            live = np.flatnonzero(~end)
            row, r, q, back, m = row[live], r[live], q[live], back[live], m[live]
        off = np.zeros(den.size + 1, dtype=np.int64)
        np.cumsum(length, out=off[1:])
        flat = np.empty(off[-1], dtype=np.int64)
        for i, (row, c) in enumerate(rounds):
            flat[off[row] + i] = c
        del rounds  # its digits are all in flat now
        ok = good[flat]
        if not ok.all():
            i = np.searchsorted(off, np.argmin(ok), "right") - 1
            raise InvariantError(
                f"member {num[i]}/{den[i]} has no expansion "
                f"in digits {ds.digits}"
            )
        yield num, den, flat, off, off[:-1] + mu


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


def _core_leaves(ds: DigitSet, cores: Iterable[int]) -> Iterator[np.ndarray]:
    """Blocks of leaf rows (a, d, r) for sieve._leaf_members: every a with
    0 < a < d on a leaf of d's good-digit tree, and r its tail past the
    leaf's prefix, over each core d > 1 (module docstring)."""
    import numpy as np

    zero = np.zeros(1, dtype=np.int64)
    for d in cores:
        cd = np.array(ds.digits, dtype=np.int64)[:, None] * d
        stack = [(1, zero, zero)]  # (S, q, e) of nodes with P*d = q*S + e
        while stack:
            S, q, e = stack.pop()
            if q.size > _BUDGET:  # a wide level is descended in halves
                h = q.size // 2
                stack += [(S, q[h:], e[h:]), (S, q[:h], e[:h])]
            elif S <= d:
                S *= ds.base
                carry, e = np.divmod(ds.base * e + cd, S)  # below (2b-1)*d < 2^63
                q = q + carry
                keep = (e > 0) <= (e + d) // S  # the node holds a numerator
                stack.append((S, q[keep], e[keep]))
            else:  # S > d: one numerator each, and r/d is its tail past P
                a = q + (e > 0)
                rows = np.stack([a, np.full_like(a, d), S * (e > 0) - e])
                yield rows[:, (0 < a) & (a < d)]


def enumerate_members(
    ds: DigitSet, denominators: Iterable[int]
) -> Iterator[tuple[int, int, list, list]]:
    """The member record (num, den, preperiod, period) of every reduced
    member num/den over the given distinct denominators, value-ascending."""
    rows = _member_rows(ds, denominators)
    for num, den, digits, off, cut in _witness_chunks(ds, rows):
        digits, cols = digits.tolist(), (num, den, off[:-1], cut, off[1:])
        for a, n, o, k, e in zip(*(col.tolist() for col in cols)):
            yield a, n, digits[o:k], digits[k:e]


def _member_rows(ds: DigitSet, denominators: Iterable[int]) -> np.ndarray:
    """Int64 rows (num, den) of every reduced member over the given distinct
    denominators, value-ascending: the leaves of each d's core go through
    the sieve's leaf walk and orbit build (module docstring)."""
    import numpy as np

    b = ds.base
    dens, top = list(denominators), {}  # core -> its largest requested d
    for d in dens:
        if not 1 <= d <= 2**62 // b:
            raise PreconditionError(f"denominator {d} outside 1..2^62/base")
        core = d
        while (g := gcd(core, b)) > 1:
            core //= g
        top[core] = max(top.get(core, 1), d)
    if len(set(dens)) != len(dens):
        raise PreconditionError("duplicate denominator")
    reps = _leaf_members(b, ds.digits, _core_leaves(ds, sorted(top.keys() - {1})))
    reps = reps[np.gcd(reps[:, 0], reps[:, 1]) == 1]
    bound = np.array([top[d] for d in reps[:, 1].tolist()], dtype=np.int64)
    rows = _orbits(b, ds.digits, top.get(1, 1), np.column_stack([reps, bound]))
    # np.isin would sort through np.unique, which imports numpy.ma
    want = np.sort(np.array([0, *dens], dtype=np.int64))  # 0 is below every den
    rows = rows[want[np.searchsorted(want, rows[:, 1], "right") - 1] == rows[:, 1]]
    return _by_value(rows)


def smooth_denominators(primes: Iterable[int], limit: int) -> list[int]:
    """All products of powers of the given primes that are <= limit, sorted."""
    if limit < 1:
        return []
    vals = [1]
    for p in sorted(set(primes)):
        if p < 2:
            raise PreconditionError(f"invalid prime {p}")
        grown = []
        for v in vals:
            x = v * p
            while x <= limit:
                grown.append(x)
                x *= p
        vals.extend(grown)
    return sorted(vals)


@record
class SIntegerCertificate:
    """Exhaustive list of members with S-smooth denominator, plus the reason
    no larger denominator can occur."""

    digit_set: DigitSet
    profile: OrderProfile
    epsilon: Fraction
    bound: Fraction
    max_denominator: int
    denominator_count: int
    members: tuple[tuple[int, int, list, list], ...]  # enumerate_members' records
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
        return sum(1 for num, den, _, _ in self.members if 0 < num < den)

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
                {"num": num, "den": den, "preperiod": pre, "period": period}
                for num, den, pre, period in self.members
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
    smooth = smooth_denominators(profile.primes, max_den)
    # walk d only while 1/d0 >= gap, i.e. d0 * gap <= 1 in integers; the
    # capped part d1 of an S-smooth d is gcd(d, prod of p^N_p)
    gap = 2 * radius
    cap = profile.cap_modulus()
    walked = [
        d for d in smooth if d // gcd(d, cap) * gap.numerator <= gap.denominator
    ]
    members = enumerate_members(ds, walked)
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
    primes = list(factorize(base))
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


@record
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

