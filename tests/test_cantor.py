import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timesb import cantor, sieve
from timesb.cantor import (
    DigitSet,
    ExpansionInfo,
    dual_expansion,
    enumerate_members,
    enumerate_s_integers,
    expand,
    farthest_point,
    longest_missing_interval,
    member,
    member_witness,
    smooth_denominators,
    sup_distance,
)
from timesb.errors import InvariantError, PreconditionError
from timesb.numtheory import mult_order_bruteforce, vp
from timesb.orders import build_profile, split_denominator
from timesb.sieve import members_up_to

from oracles import (
    coprime_part,
    orbit_oracle,
    unit_walk_mask,
    whole_tree_members,
    witness_oracle,
)

F = Fraction

C_MIDDLE = DigitSet(base=3, digits=(0, 2))


def test_digitset_validation():
    assert DigitSet(3, (2, 0, 2)).digits == (0, 2)
    with pytest.raises(PreconditionError):
        DigitSet(3, ())
    with pytest.raises(PreconditionError):
        DigitSet(3, (0, 3))
    with pytest.raises(PreconditionError):
        DigitSet(1, (0,))


def test_missing_run():
    assert C_MIDDLE.missing_run == 1
    assert DigitSet(4, (0, 3)).missing_run == 2
    assert DigitSet(3, (0, 1, 2)).missing_run == 0
    assert DigitSet(5, (2,)).missing_run == 2
    assert DigitSet(6, (5,)).missing_run == 5


def test_epsilon_claimed_and_exact():
    assert C_MIDDLE.epsilon_claimed == F(1, 6)
    assert C_MIDDLE.epsilon_exact == F(1, 6)
    ds = DigitSet(4, (0, 3))
    assert ds.epsilon_claimed == F(1, 4)
    assert ds.epsilon_exact == F(1, 4)
    # extreme-run digit sets: the claimed radius undershoots the exact one
    ds = DigitSet(3, (0, 1))
    assert ds.epsilon_claimed == F(1, 6)
    assert ds.epsilon_exact == F(1, 2)


def test_sup_distance_examples():
    assert sup_distance(C_MIDDLE) == F(1, 6)
    assert sup_distance(DigitSet(4, (0, 3))) == F(1, 4)
    assert sup_distance(DigitSet(3, (0, 1))) == F(1, 2)
    assert sup_distance(DigitSet(2, (0, 1))) == 0


def test_farthest_point():
    assert farthest_point(C_MIDDLE) == (F(1, 2), F(1, 6))
    assert farthest_point(DigitSet(3, (0, 1))) == (F(1), F(1, 2))
    assert farthest_point(DigitSet(3, (1, 2))) == (F(0), F(1, 2))


def test_expand_examples():
    e = expand(3, F(1, 4))
    assert (e.preperiod, e.period) == ((), (0, 2))
    e = expand(3, F(1, 3))
    assert (e.preperiod, e.period) == ((1,), (0,))
    e = expand(2, F(1, 12))
    assert (e.preperiod, e.period) == ((0, 0), (0, 1))
    e = expand(10, F(1, 7))
    assert (e.preperiod, e.period) == ((), (1, 4, 2, 8, 5, 7))
    e = expand(3, F(0))
    assert (e.preperiod, e.period) == ((), (0,))


def test_expand_domain():
    with pytest.raises(PreconditionError):
        expand(3, F(1))
    with pytest.raises(PreconditionError):
        expand(3, F(-1, 4))


@given(
    st.sampled_from([2, 3, 10]),
    st.integers(min_value=0, max_value=1999),
    st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=300)
def test_expand_reconstructs(b, a, d):
    if a >= d:
        return
    x = F(a, d)
    info = expand(b, x)
    assert info.value() == x


@given(
    st.sampled_from([2, 3, 10]),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=2, max_value=500),
)
@settings(max_examples=200)
def test_expansion_structure(b, a, d):
    if a >= d:
        return
    x = F(a, d)
    info = expand(b, x)
    dd = x.denominator
    core = coprime_part(dd, b)
    if core > 1:
        assert mult_order_bruteforce(b, core) % len(info.period) == 0
    expected_pre = 0
    for p in {q for q in range(2, b + 1) if b % q == 0 and _is_prime(q)}:
        if dd % p == 0:
            expected_pre = max(expected_pre, -(-vp(dd, p) // vp(b, p)))
    assert len(info.preperiod) == expected_pre


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=600),
    st.integers(min_value=1, max_value=600),
)
@settings(max_examples=200)
def test_expand_digits_follow_orbit(b, a, d):
    # digit k is floor(b * p) at the k-th orbit point, and the expansion
    # repeats where the orbit does
    x = F(a % d, d)
    info = expand(b, x)
    points, preperiod = orbit_oracle(b, x)
    assert info.preperiod + info.period == tuple(math.floor(b * p) for p in points)
    assert len(info.preperiod) == preperiod
    assert len(info.period) == len(points) - preperiod


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))


def test_dual_expansion():
    e = expand(3, F(1, 3))
    dual = dual_expansion(e)
    assert dual is not None
    assert (dual.preperiod, dual.period) == ((0,), (2,))
    assert dual.value() == F(1, 3)
    assert dual_expansion(expand(3, F(1, 4))) is None
    assert dual_expansion(expand(3, F(0))) is None


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=2, max_value=200),
)
@settings(max_examples=150)
def test_dual_value_matches(b, a, d):
    if a >= d:
        return
    info = expand(b, F(a, d))
    dual = dual_expansion(info)
    if dual is not None:
        assert dual.value() == F(a, d)


def test_member_examples():
    assert member(C_MIDDLE, F(1, 4))
    assert not member(C_MIDDLE, F(1, 2))
    assert member(C_MIDDLE, F(1, 3))  # via the dual representation
    assert member(C_MIDDLE, F(0))
    assert member(C_MIDDLE, F(1))
    assert member(C_MIDDLE, F(2, 3))
    assert not member(C_MIDDLE, F(5, 9))

    ds = DigitSet(3, (1, 2))
    assert not member(ds, F(0))
    assert member(ds, F(1))
    assert not member(ds, F(1, 3))  # both representations need digit 0
    assert member(ds, F(1, 2))  # 0.(1)

    full = DigitSet(2, (0, 1))
    assert member(full, F(17, 23)) and member(full, F(0)) and member(full, F(1))


def test_member_domain():
    with pytest.raises(PreconditionError):
        member(C_MIDDLE, F(3, 2))


@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1, max_value=300),
)
@settings(max_examples=200)
def test_witness_certifies(a, d):
    if a > d:
        return
    x = F(a, d)
    w = member_witness(C_MIDDLE, x)
    if w is not None:
        assert w.value() == x
        assert set(w.preperiod) | set(w.period) <= {0, 2}


def _expansion(base, pre, period):
    return ExpansionInfo(base=base, preperiod=tuple(pre), period=tuple(period))


def test_enumerate_members_dyadic():
    dens = [2**k for k in range(1, 21)]
    found = [F(a, d) for a, d, _, _ in enumerate_members(C_MIDDLE, dens)]
    assert found == [F(1, 4), F(3, 4)]


def test_enumerate_members_small_dens():
    found = list(enumerate_members(C_MIDDLE, [1, 3, 9]))
    assert [F(a, d) for a, d, _, _ in found] == [
        F(0), F(1, 9), F(2, 9), F(1, 3), F(2, 3), F(7, 9), F(8, 9), F(1),
    ]
    # each reported expansion certifies its fraction
    for a, d, pre, period in found:
        w = _expansion(3, pre, period)
        assert w.value() == F(a, d) and set(w.preperiod) | set(w.period) <= {0, 2}


def test_enumerate_members_matches_naive_scan():
    dens = list(range(1, 61))
    fast = {F(a, d) for a, d, _, _ in enumerate_members(C_MIDDLE, dens)}
    naive = set()
    for d in dens:
        for a in range(0, d + 1):
            if math.gcd(a, d) == 1 and member(C_MIDDLE, F(a, d)):
                naive.add(F(a, d))
    assert fast == naive


def _walk_and_oracle(ds, dens):
    got = [
        (F(a, d), tuple(pre), tuple(period))
        for a, d, pre, period in enumerate_members(ds, dens)
    ]
    want = []
    for d in dens:
        for a in range(d + 1):
            w = witness_oracle(ds.base, ds.digits, F(a, d)) if math.gcd(a, d) == 1 else None
            if w is not None:
                want.append((F(a, d), *w))
    return got, sorted(want)


@pytest.mark.parametrize("base", range(2, 11))
def test_enumerate_members_walk_matches_oracle(base):
    # d = 1, powers of b, multiples of b and d coprime to b, in one walk;
    # b-1 allowed and 0 not (2/3 in base 3 {1,2} is a member through its
    # dual 0.1222..., 0 is no member), 0 allowed and b-1 not (1 is none),
    # and a random proper digit set
    rng = random.Random(base)
    coprime = [d for d in range(2, 120) if math.gcd(d, base) == 1]
    dens = [1, base, base**2, base**3]
    dens += [base * m for m in rng.sample(range(2, 40), 6) if base * m not in dens]
    dens += rng.sample(coprime, 6)
    rng.shuffle(dens)
    cases = [
        (tuple(range(1, base)), dens),
        (tuple(range(base - 1)), dens),
        (tuple(sorted(rng.sample(range(base), rng.randrange(1, base)))), dens),
    ]
    if base == 6:
        # a mixed list on a composite base: the cores are 1 and 35
        # (210 = 6*35), and the level bound 216 lets the levels over 35
        # reach 210
        cases.append(((0, 1, 5), [12, 35, 72, 210, 216]))
    for digits, dens in cases:
        got, want = _walk_and_oracle(DigitSet(base, digits), dens)
        assert got == want, digits


def test_enumerate_members_many_units_match_oracle():
    # 27027 = 3^3*7*11*13 divides 10^6 - 1, so each a/27027 repeats the six
    # digits of 37*a; it has thousands of units and some are members. 3, 30
    # and 300 share the core 3, built into levels up to 300
    got, want = _walk_and_oracle(DigitSet(10, (1, 3, 5, 7, 9)), [3, 30, 300, 27027])
    assert got == want and len(got) > 0


def test_enumerate_members_empty_list():
    assert list(enumerate_members(C_MIDDLE, [])) == []


@pytest.mark.parametrize(
    "dens, want",
    [
        # every d prime to the base is its own core
        ([1, 2, 4, 5, 7, 10], [(0, 1), (1, 10), (1, 4), (3, 10), (7, 10), (3, 4), (9, 10), (1, 1)]),
        # 2*3^12 has the core 2, over which there is no member, and no d
        # asks for the core 1 of the seeds
        ([4, 2 * 3**12], [(1, 4), (3, 4)]),
    ],
)
def test_enumerate_members_builds_no_level_unasked(monkeypatch, dens, want):
    # each cycle's levels are bounded by its core's largest requested d, and
    # the seeds' by the core 1's, so here no preperiodic row is built
    real = cantor._orbits
    bounds = []

    def spy(base, digits, T, reps):
        bounds.append(T)
        assert (reps[:, 2] == reps[:, 1]).all()
        return real(base, digits, T, reps)

    monkeypatch.setattr(cantor, "_orbits", spy)
    got = [(a, d) for a, d, _, _ in enumerate_members(C_MIDDLE, dens)]
    assert bounds == [1] and got == want


def _unit_walk(ds, dens):
    """Every reduced member a/d over dens, ascending: each unit a of d settled
    by the oracle's walk from r = a, with no digit tree."""
    out = []
    for d in dens:
        a = np.arange(d + 1, dtype=np.int64)
        a = a[np.gcd(a, d) == 1]
        hit = unit_walk_mask(ds.base, ds.digits, a, np.full_like(a, d))
        out += [F(int(n), d) for n in a[hit]]
    return sorted(out)


def _seeded_digit_set(base):
    # a proper subset of at least two digits, but for base 2
    rng = random.Random(1000 + base)
    size = rng.randrange(min(2, base - 1), base)
    return DigitSet(base, tuple(rng.sample(range(base), size)))


@pytest.mark.parametrize("base", range(2, 13))
def test_enumerate_members_descent_matches_unit_walk(base):
    # every d <= 2000: d = 1, powers and multiples of b, d coprime to b
    ds = _seeded_digit_set(base)
    dens = range(1, 2001)
    got = [F(a, d) for a, d, _, _ in enumerate_members(ds, dens)]
    assert got == _unit_walk(ds, dens)


@pytest.mark.parametrize("budget", [1, 16])
def test_enumerate_members_descent_in_halves(monkeypatch, budget):
    # a budget below the levels' widths: wide levels are descended in halves
    monkeypatch.setattr(sieve, "_BUDGET", budget)
    monkeypatch.setattr(cantor, "_BUDGET", budget)
    rng = random.Random(budget)
    for base in range(2, 13):
        ds = _seeded_digit_set(base)
        dens = [1, base, base**3] + rng.sample(range(2, 2001), 30)
        got = [F(a, d) for a, d, _, _ in enumerate_members(ds, dens)]
        assert got == _unit_walk(ds, dens), base


@pytest.mark.parametrize(
    "digits, want",
    [((0, 1, 3), [F(1, 4), F(3, 4)]), ((0, 3), [F(1, 4), F(3, 4)]), ((0, 1), [F(1, 4)])],
)
def test_enumerate_members_edge_of_two_nodes(digits, want):
    # 1/4 = 0.1 = 0.0333... in base 4 lies on the edge of the nodes 10 and
    # 03: {0,1,3} keeps it through both, {0,1} and {0,3} through one each
    got = list(enumerate_members(DigitSet(4, digits), [4]))
    assert [F(a, d) for a, d, _, _ in got] == want
    assert all(_expansion(4, pre, period).value() == F(a, d) for a, d, pre, period in got)


def test_enumerate_members_rejects_duplicates():
    with pytest.raises(PreconditionError):
        list(enumerate_members(C_MIDDLE, [4, 4]))


def test_smooth_denominators():
    vals = smooth_denominators([2, 5], 240)
    brute = sorted(
        n
        for n in range(1, 241)
        if all(p in (2, 5) for p in _prime_factors(n))
    )
    assert vals == brute
    assert smooth_denominators([3], 1) == [1]
    assert smooth_denominators([2], 0) == []


def _prime_factors(n):
    out = set()
    k = 2
    while k * k <= n:
        while n % k == 0:
            out.add(k)
            n //= k
        k += 1
    if n > 1:
        out.add(n)
    return out


WALL_MEMBERS = sorted(
    [F(0), F(1)]
    + [F(1, 4), F(3, 4)]
    + [F(a, 10) for a in (1, 3, 7, 9)]
    + [F(a, 40) for a in (1, 3, 9, 13, 27, 31, 37, 39)]
)


def test_s_integer_certificate_wall():
    prof = build_profile(3, [2, 5])
    cert = enumerate_s_integers(C_MIDDLE, prof)
    assert cert.epsilon == F(1, 6)
    assert cert.bound == 240
    assert cert.max_denominator == 240
    assert [F(a, d) for a, d, _, _ in cert.members] == WALL_MEMBERS
    assert cert.count_with_endpoints == 16
    assert cert.count_without_endpoints == 14
    assert cert.witness == F(1, 2) and cert.witness_distance == F(1, 6)
    j = cert.to_json_dict()
    assert j["D"] == "240"
    assert j["count_without_endpoints"] == 14
    assert j["epsilon_discrepancy"] is False


def test_longest_missing_interval_examples():
    assert longest_missing_interval(C_MIDDLE) == (F(1, 2), F(1, 6))
    # high end segment dominates: the set lives in [0, 1/9]
    assert longest_missing_interval(DigitSet(10, (0, 1))) == (F(5, 9), F(4, 9))
    # single digit: the set is the point 1/2, both end segments tie
    assert longest_missing_interval(DigitSet(3, (1,))) == (F(1, 4), F(1, 4))


def test_certificate_complete_when_end_segment_dominates():
    # the sup-distance here is 8/9 (distance from 1), which would give
    # D = 81/16 and miss the member 1/9; end segments only exclude at full
    # length, so the sound radius is 4/9 and the bound must reach den 9
    ds = DigitSet(10, (0, 1))
    prof = build_profile(10, (3,))
    cert = enumerate_s_integers(ds, prof)
    assert cert.epsilon == F(4, 9)
    assert cert.bound == F(81, 8)
    assert cert.witness == F(5, 9) and cert.witness_distance == F(4, 9)
    got = sorted(F(a, d) for a, d, _, _ in cert.members)
    brute = sorted(
        F(a, d)
        for d in smooth_denominators((3,), 3**6)
        for a in range(d + 1)
        if math.gcd(a, d) == 1 and member(ds, F(a, d))
    )
    assert got == brute == [F(0), F(1, 9)]


def test_certificate_claimed_epsilon_keeps_sound_bound():
    # a claimed epsilon above the sound radius is allowed up to the exact
    # sup-distance, but the enumeration bound must not shrink below the
    # sound one
    ds = DigitSet(10, (0, 1))
    prof = build_profile(10, (3,))
    cert = enumerate_s_integers(ds, prof, epsilon=F(8, 9))
    assert cert.epsilon == F(8, 9)
    assert cert.bound == F(81, 8)
    assert any((a, d) == (1, 9) for a, d, _, _ in cert.members)


def test_lattice_exclusion_matches_full_walk():
    # seeded grid: base 2-10, a digit subset that is not full, S of 1-3 primes
    # not dividing the base; the certificate walks only the kept denominators
    rng = random.Random(0x1A77)
    pool = (2, 3, 5, 7, 11, 13)
    for _ in range(40):
        b = rng.randrange(2, 11)
        ds = DigitSet(b, tuple(rng.sample(range(b), rng.randrange(1, b))))
        usable = [p for p in pool if b % p]
        S = sorted(rng.sample(usable, rng.randrange(1, min(3, len(usable)) + 1)))
        cert = enumerate_s_integers(ds, build_profile(b, S))
        dens = smooth_denominators(S, cert.max_denominator)
        full = list(enumerate_members(ds, dens))
        assert list(cert.members) == full, (b, ds.digits, S)
        assert cert.denominator_count == len(dens)
        excluded = set(dens) - set(cert.walked_denominators)
        assert len(excluded) == cert.denominators_excluded
        assert not any(d in excluded for _, d, _, _ in full)


def test_certificate_matches_whole_tree():
    # a second route to the certify list that shares neither the leaf walk
    # nor the orbit build: the oracle's whole-tree sieve up to the largest
    # member denominator, kept to S-smooth d
    S = (2, 5, 7, 11, 13, 17)
    cert = enumerate_s_integers(C_MIDDLE, build_profile(3, S))
    assert len(cert.members) == 130
    top = max(d for _, d, _, _ in cert.members)
    assert top == 3640
    smooth = set(smooth_denominators(S, top))
    want = [[a, d] for a, d in whole_tree_members(3, (0, 2), top) if d in smooth]
    assert [[a, d] for a, d, _, _ in cert.members] == want


@pytest.mark.parametrize(
    "base, digits, primes, total, walked",
    [
        (3, (0, 2), (2, 7, 11, 13), 343, 60),
        (5, (0, 2, 4), (2, 3, 11, 17), 464, 100),
        (10, (1, 3, 5, 7, 9), (3, 7, 11, 13), 223, 64),
    ],
)
def test_lattice_exclusion_counts(base, digits, primes, total, walked):
    cert = enumerate_s_integers(DigitSet(base, digits), build_profile(base, primes))
    assert cert.denominator_count == total
    assert len(cert.walked_denominators) == walked
    assert cert.denominators_excluded == total - walked
    assert "denominators_excluded" not in cert.to_json_dict()


def test_lattice_exclusion_keeps_boundary():
    # gap 1/9: denominators with 1/d0 equal to the gap are still walked
    prof = build_profile(10, (3, 7, 11, 13))
    cert = enumerate_s_integers(DigitSet(10, (1, 3, 5, 7, 9)), prof)
    assert 2 * cert.witness_distance == F(1, 9)
    boundary = [
        d
        for d in smooth_denominators(prof.primes, cert.max_denominator)
        if split_denominator(prof, d).d0 == 9
    ]
    assert boundary == [243, 1701, 2673, 3159, 18711, 22113, 34749, 243243]
    assert set(boundary) <= set(cert.walked_denominators)


def test_s_integer_certificate_rejects():
    prof = build_profile(3, [2, 5])
    with pytest.raises(PreconditionError):
        enumerate_s_integers(C_MIDDLE, prof, epsilon=F(1, 5))
    with pytest.raises(PreconditionError):
        enumerate_s_integers(C_MIDDLE, prof, epsilon=F(0))
    with pytest.raises(PreconditionError):
        enumerate_s_integers(DigitSet(3, (0, 1, 2)), prof)
    with pytest.raises(PreconditionError):
        enumerate_s_integers(C_MIDDLE, build_profile(2, [3]))


def test_s_integer_certificate_single_prime():
    # base 3 digit set over S={7}: finite, exhaustively below D
    prof = build_profile(3, [7])
    cert = enumerate_s_integers(C_MIDDLE, prof)
    assert cert.bound == 3 * 7 ** prof.stats(7).cap_exp
    for a, d, pre, period in cert.members:
        assert member(C_MIDDLE, F(a, d))
        assert _expansion(3, pre, period).value() == F(a, d)


def test_triadic_counts_small():
    # denominators dividing 3^n: member count is 2^(n+1), endpoints included
    for n in range(0, 6):
        dens = [3**j for j in range(0, n + 1)]
        count = sum(1 for _ in enumerate_members(C_MIDDLE, dens))
        assert count == 2 ** (n + 1)


@pytest.mark.parametrize(
    "base, digits",
    [
        (3, (0, 2)),
        (6, (1, 2, 3, 4, 5)),
        (10, (0, 1, 2, 3, 4, 5, 6, 7, 8)),
        (4, (0, 3)),
        (5, (1, 3)),
    ],
)
def test_member_witness_matches_oracle(base, digits):
    # every a/d with d <= 80, members and non-members, including the
    # terminating values whose dual expansion uses a bad digit; base 5
    # {1,3} allows neither 0 nor b-1, so no terminating value is a member
    ds = DigitSet(base, digits)
    for d in range(1, 81):
        for a in range(d + 1):
            if math.gcd(a, d) != 1:
                continue
            w = member_witness(ds, F(a, d))
            got = None if w is None else (w.preperiod, w.period)
            assert got == witness_oracle(base, digits, F(a, d)), (a, d)


def _row_witnesses(ds, rows):
    rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
    got = []
    for num, den, digits, off, cut in cantor._witness_chunks(ds, rows):
        for i in range(num.size):
            pre, period = digits[off[i] : cut[i]], digits[cut[i] : off[i + 1]]
            got.append((int(num[i]), int(den[i]), pre.tolist(), period.tolist()))
    return got


def _scalar_witnesses(ds, rows):
    return [(a, d, *cantor._witness_digits(ds, a, d)) for a, d in rows]


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize(
    "base, digits, T",
    [
        # no 0: the a/256 that are members only by their dual, and 1
        (6, (1, 2, 3, 4, 5), 300),
        (7, (1, 3, 5), 200),
        # 1/4 on the edge of two nodes, 1/2 = 0.1333.. by its dual
        (4, (0, 1, 3), 200),
        # multi-character digits; 12 is missing, so 1 is no member
        (13, (0, 10, 11), 150),
    ],
)
def test_witness_rows_in_small_chunks(monkeypatch, base, digits, T, chunk):
    # the vectorised witnesses equal the scalar walk's, chunk by chunk
    ds = DigitSet(base, digits)
    rows = members_up_to(base, digits, T).tolist()
    want = _scalar_witnesses(ds, rows)
    monkeypatch.setattr(cantor, "_BUDGET", 4 * chunk)
    assert _row_witnesses(ds, rows) == want


def test_witness_rows_multi_character_digits():
    # base 12 digits 10 and 11 are two characters each in the JSON line
    ds = DigitSet(12, (0, 10, 11))
    rows = members_up_to(12, ds.digits, 200).tolist()
    got = _row_witnesses(ds, rows)
    assert got == _scalar_witnesses(ds, rows)
    # 10/11 = 0.(10)(10).. and 1 = 0.(11)(11)..
    assert (10, 11, [], [10]) in got and got[-1] == (1, 1, [], [11])


def test_witness_rows_dual_of_one_quarter():
    # 1/4 = 0.1 = 0.0333.. in base 4: without the digit 1 only the dual is
    # good; with {0,1,3} both are and the greedy one wins, while 1/2 = 0.2
    # takes its dual 0.1333..
    rows = [(1, 4), (1, 2)]
    assert _row_witnesses(DigitSet(4, (0, 3)), rows[:1]) == [(1, 4, [0], [3])]
    ds = DigitSet(4, (0, 1, 3))
    got = _row_witnesses(ds, rows)
    assert got == [(1, 4, [1], [0]), (1, 2, [1], [3])]
    assert got == _scalar_witnesses(ds, rows)


def test_witness_rows_value_one():
    # 1 = 0.(b-1)(b-1).. is a member iff b-1 is allowed
    assert _row_witnesses(DigitSet(5, (0, 4)), [[0, 1], [1, 1]]) == [
        (0, 1, [], [0]),
        (1, 1, [], [4]),
    ]
    ds = DigitSet(5, (0, 2))
    assert cantor._witness_digits(ds, 1, 1) is None
    with pytest.raises(InvariantError, match="1/1"):
        _row_witnesses(ds, [[0, 1], [1, 1]])


def test_witness_rows_reject_a_forged_non_member():
    # 1/2 = 0.111.. in base 3 has one expansion, and it uses the digit 1
    ds = DigitSet(3, (0, 2))
    assert cantor._witness_digits(ds, 1, 2) is None
    with pytest.raises(InvariantError, match="1/2"):
        _row_witnesses(ds, [[0, 1], [1, 3], [1, 2], [2, 3]])
