import importlib
import json
import os
import random
import tracemalloc
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timesb.errors import InvariantError, PreconditionError
from timesb.numtheory import mult_order_bruteforce
from timesb.orbit import (
    _points_json,
    _remainder_list,
    _remainder_walk,
    decompose,
    density_bound,
    orbit,
)
from timesb.orders import build_profile

from oracles import (
    coprime_part,
    cover_radius_oracle,
    decompose_record_json,
    orbit_oracle,
    orbit_record_json,
    remainder_walk_oracle,
    split_oracle,
)

F = Fraction
# the submodule: timesb.orbit, the package attribute, is the function
orbit_module = importlib.import_module("timesb.orbit")


@pytest.mark.parametrize("base", range(2, 13))
def test_remainder_walk_matches_dict_walk(base):
    # every 0 <= a < d <= 120, a = 0 and non-reduced a included, with no
    # digit table and with two seeded ones
    rng = random.Random(0xCAFE + base)
    tables = [None] + [[rng.random() < 0.7 for _ in range(base)] for _ in range(2)]
    for d in range(1, 121):
        for a in range(d):
            for good in tables:
                want = remainder_walk_oracle(base, a, d, good)
                assert _remainder_list(base, a, d, good) == want, (a, d, good)


def test_orbit_examples():
    o = orbit(2, F(1, 9))
    assert o.points == (F(1, 9), F(2, 9), F(4, 9), F(8, 9), F(7, 9), F(5, 9))
    assert (o.preperiod, o.period) == (0, 6)

    o = orbit(2, F(1, 12))
    assert o.points == (F(1, 12), F(1, 6), F(1, 3), F(2, 3))
    assert (o.preperiod, o.period) == (2, 2)
    assert o.points[o.preperiod :] == (F(1, 3), F(2, 3))

    o = orbit(7, F(0))
    assert o.points == (F(0),)
    assert (o.preperiod, o.period) == (0, 1)

    for base, x in ((3, F(1)), (3, F(-1, 2)), (1, F(1, 2))):
        with pytest.raises(PreconditionError):
            orbit(base, x)


def test_orbit_json_round():
    d = json.loads("".join(orbit(2, F(1, 12)).json_chunks()))
    assert d["points"] == ["1/12", "1/6", "1/3", "2/3"]
    assert d["preperiod"] == 2 and d["period"] == 2


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=499),
    st.integers(min_value=1, max_value=500),
)
@settings(max_examples=200)
def test_orbit_structure(b, a, d):
    if a >= d:
        return
    x = F(a, d)
    o = orbit(b, x)
    points, preperiod = orbit_oracle(b, x)
    assert o.points == tuple(points)
    assert (o.preperiod, o.period) == (preperiod, len(points) - preperiod)
    # denominators divide along the orbit and settle at the coprime part
    for p, q in zip(o.points, o.points[1:]):
        assert p.denominator % q.denominator == 0
    tail_den = coprime_part(x.denominator, b)
    assert o.points[-1].denominator == tail_den or o.period == 1
    for pt in o.points[o.preperiod :]:
        assert pt.denominator == tail_den or pt == 0


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=150)
def test_pure_periodicity_when_coprime(b, d):
    if gcd(b, d) != 1:
        return
    a = next(a for a in range(1, d + 1) if gcd(a, d) == 1)
    if a >= d:
        return
    o = orbit(b, F(a, d))
    assert o.preperiod == 0
    assert o.period == mult_order_bruteforce(b, d)


def test_decompose_examples():
    prof = build_profile(2, [3])
    # (x, d0, d1, order, a1), a1 the orbit's points in ascending order
    cases = [
        (F(1, 9), 3, 3, 6, [F(k, 9) for k in (1, 2, 4, 5, 7, 8)]),
        (F(1, 3), 1, 3, 2, [F(1, 3), F(2, 3)]),
        (F(0), 1, 1, 1, [F(0)]),
    ]
    for x, d0, d1, order, a1 in cases:
        dec = decompose(prof, x)
        assert (dec.split.d0, dec.split.d1, dec.order) == (d0, d1, order)
        want = decompose_record_json(2, x, d0, d1, order, a1, a1) + "\n"
        assert "".join(dec.json_chunks()) == want

    prof35 = build_profile(3, [2, 5])
    dec = decompose(prof35, F(1, 160))
    assert dec.split.d0 == 2
    assert dec.order == mult_order_bruteforce(3, 160)
    assert json.loads("".join(dec.json_chunks()))["a1_equals_a2"] is True


@pytest.mark.parametrize(
    "base, x",
    # 13122 points over four blocks; transient points with their own gcds
    # (1/12 -> 5/6 -> 1/3 in base 10); the cycle (0)
    [(2, F(1, 3**9)), (2, F(5, 24)), (10, F(1, 12)), (2, F(0))],
)
def test_orbit_json_chunks_match_json_dumps(base, x):
    points, cut = orbit_oracle(base, x)
    want = orbit_record_json(base, x, points, cut) + "\n"
    assert "".join(orbit(base, x).json_chunks()) == want


@pytest.mark.parametrize(
    "primes, x",
    # d0 = 6561 shifts of an inner walk of 2 points; the cycle (0); d0 = 3
    # shifts of an inner walk of 4098 points mod 9 * 4099, longer than a block
    [([3], F(1, 3**9)), ([3], F(0)), ([3, 4099], F(5, 27 * 4099))],
)
def test_decompose_json_chunks_match_json_dumps(primes, x):
    # a2 by the coset construction over Fractions: each point y of the
    # orbit of (a mod d1)/d1 gives the points (y + j)/d0 for j < d0
    prof = build_profile(2, primes)
    d0, d1 = split_oracle(x.denominator, {p: prof.stats(p).cap_exp for p in primes})
    a1 = sorted(orbit_oracle(2, x)[0])
    inner = orbit_oracle(2, F(x.numerator % d1, d1))[0]
    a2 = sorted((y + j) / d0 for j in range(d0) for y in inner)
    want = decompose_record_json(2, x, d0, d1, len(a1), a1, a2) + "\n"
    assert "".join(decompose(prof, x).json_chunks()) == want


def test_points_json_blocks():
    # 13122 cycle points in blocks of at most _BLOCK, "[" on the first and
    # "]" alone at the end; a walk that gives other than the count raises
    blocks = list(_points_json(_remainder_walk(2, 1, 3**9), 3**9, 0, 13122))
    assert [b.count("/") for b in blocks] == [4096, 4096, 4096, 834, 0]
    assert orbit_module._BLOCK == 4096
    assert blocks[0].startswith('["1/') and blocks[-1] == "]"
    for count in (13121, 13123):
        with pytest.raises(InvariantError, match=f"wrote 13122 points, not {count}"):
            list(_points_json(_remainder_walk(2, 1, 3**9), 3**9, 0, count))


def _inner_walk_shifted(real):
    # the walk mod d1 = 3 (not the walk of x over 3^9) with every remainder
    # moved on by one
    def walk(base, num, den, good=None):
        for block in real(base, num, den, good):
            yield block if den == 3**9 else [(r + 1) % den for r in block]

    return walk


def _largest_remainder_raised(real):
    # the walk over 3^9 with its largest remainder moved on by one: the same
    # length, and one point outside A2
    def walk(base, num, den, good=None):
        rems = list(chain.from_iterable(real(base, num, den, good)))
        if den == 3**9:
            rems[rems.index(max(rems))] += 1
        yield rems

    return walk


def _point_repeated(real):
    # the walk over 3^9 with its last remainder replaced by its first: the
    # same length, one point of A2 taken twice and another not at all
    def walk(base, num, den, good=None):
        rems = list(chain.from_iterable(real(base, num, den, good)))
        if den == 3**9:
            rems[-1] = rems[0]
        yield rems

    return walk


@pytest.mark.parametrize(
    "name, broken, message",
    [
        ("_cycle_start", lambda real: lambda *a: (1, real(*a)[1]), "not purely"),
        ("_order_of_split", lambda real: lambda *a: real(*a) + 1, "closed-form order"),
        ("_remainder_walk", _inner_walk_shifted, "A1 != A2"),
        ("_remainder_walk", _largest_remainder_raised, "A1 != A2"),
        ("_remainder_walk", _point_repeated, "A1 != A2"),
    ],
)
def test_decompose_checks_raise(monkeypatch, name, broken, message):
    # each of the three checks (the walk of x starts on its cycle,
    # d0 * |inner| = order, each point of A1 takes its own point of A2)
    # turns a broken input into an InvariantError; 1/3^9 has 13122 points,
    # d0 = 6561 and d1 = 3, and A1 is streamed past all of A2's slots
    monkeypatch.setattr(orbit_module, name, broken(getattr(orbit_module, name)))
    with pytest.raises(InvariantError, match=message):
        decompose(build_profile(2, [3]), F(1, 3**9))


def test_decompose_walks_once_when_d0_is_1(monkeypatch):
    # d0 = 1 makes d1 = d, so the walk mod d1 is A1 itself: one walk of
    # 100002 points, not that walk and then the same one again
    real = orbit_module._remainder_walk
    walks = []

    def counted(*args):
        walks.append(0)
        for block in real(*args):
            walks[-1] += len(block)
            yield block

    monkeypatch.setattr(orbit_module, "_remainder_walk", counted)
    dec = decompose(build_profile(2, [100003]), F(1, 100003))
    assert (dec.split.d0, dec.order) == (1, 100002)
    assert walks == [100002]


def test_equal_records_hash_equal():
    # both are frozen records whose fields are ints, Fractions, a split and
    # a tuple, so two built alike are equal, hash equal and share a set slot
    prof = build_profile(2, [3])
    for make in (lambda: orbit(2, F(1, 9)), lambda: decompose(prof, F(1, 9))):
        one, two = make(), make()
        assert one is not two and one == two and hash(one) == hash(two)
        assert len({one, two}) == 1
    assert decompose(prof, F(1, 9)).inner == (1, 2)


def test_decompose_rejects_shared_factor():
    prof = build_profile(2, [3])
    with pytest.raises(PreconditionError):
        decompose(prof, F(1, 6))
    with pytest.raises(PreconditionError):
        decompose(prof, F(1, 5))  # 5 outside the profile primes


def test_decompose_randomized_equality():
    rng = random.Random(99)
    pool = (2, 3, 5, 7, 11, 13)
    for _ in range(60):
        b = rng.randint(2, 10)
        avail = [p for p in pool if b % p != 0]
        S = rng.sample(avail, rng.randint(1, 2))
        prof = build_profile(b, S)
        d = 1
        for p in S:
            d *= p ** rng.randint(0, 4)
        if d > 10**4 or d == 1:
            continue
        a = rng.choice([a for a in range(1, d) if gcd(a, d) == 1])
        x = F(a, d)
        dec = decompose(prof, x)
        d0, d1 = dec.split.d0, dec.split.d1
        a1 = sorted(orbit_oracle(b, x)[0])
        assert len(a1) == d0 * mult_order_bruteforce(b, d1)
        want = decompose_record_json(b, x, d0, d1, len(a1), a1, a1) + "\n"
        assert "".join(dec.json_chunks()) == want


def test_density_bound_examples():
    assert density_bound(build_profile(2, [3]), F(1, 6)) == 9
    assert density_bound(build_profile(3, [2, 5]), F(1, 6)) == 240
    prof = build_profile(2, [3])
    assert density_bound(prof, F(prof.cap_modulus(), 2)) == 1
    with pytest.raises(PreconditionError):
        density_bound(prof, F(-1, 6))


def test_effective_density_small_case():
    # beyond D = 9 every 3-power denominator orbit is 1/6-dense; d = 3 is not
    prof = build_profile(2, [3])
    for k in (3, 4):
        d = 3**k
        for a in range(1, d):
            if a % 3 == 0:
                continue
            assert cover_radius_oracle(orbit(2, F(a, d)).points) <= F(1, 6)
    assert cover_radius_oracle(orbit(2, F(1, 3)).points) > F(1, 6)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_records_hold_bounded_memory():
    # building and writing either record holds no orbit-sized list or text:
    # at 1/3^11 (118098 points) and at 1/3^13 (1062882) alike, the traced
    # peak stays under 1 MB, plus decompose's slot marks of order bytes
    MB = 1 << 20
    prof = build_profile(2, [3])
    with open(os.devnull, "w") as sink:
        for k in (11, 13):
            x = F(1, 3**k)
            orbit_peak = _traced_peak(lambda: sink.writelines(orbit(2, x).json_chunks()))
            decompose_peak = _traced_peak(
                lambda: sink.writelines(decompose(prof, x).json_chunks())
            )
            order = 2 * 3 ** (k - 1)
            assert orbit_peak < MB, (k, orbit_peak)
            assert decompose_peak < MB + order, (k, decompose_peak)
