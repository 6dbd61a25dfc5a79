import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timesb.errors import PreconditionError
from timesb.numtheory import mult_order_bruteforce
from timesb.orbit import (
    cover_radius,
    decompose,
    density_bound,
    density_report,
    orbit,
)
from timesb.orders import build_profile

from oracles import coprime_part, cover_radius_oracle, orbit_oracle

F = Fraction


def test_orbit_examples():
    o = orbit(2, F(1, 9))
    assert o.points == (F(1, 9), F(2, 9), F(4, 9), F(8, 9), F(7, 9), F(5, 9))
    assert (o.preperiod, o.period) == (0, 6)

    o = orbit(2, F(1, 12))
    assert o.points == (F(1, 12), F(1, 6), F(1, 3), F(2, 3))
    assert (o.preperiod, o.period) == (2, 2)
    assert o.cycle == (F(1, 3), F(2, 3))

    o = orbit(7, F(0))
    assert o.points == (F(0),)
    assert (o.preperiod, o.period) == (0, 1)

    for base, x in ((3, F(1)), (3, F(-1, 2)), (1, F(1, 2))):
        with pytest.raises(PreconditionError):
            orbit(base, x)


def test_orbit_json_round():
    d = orbit(2, F(1, 12)).to_json_dict()
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
    for pt in o.cycle:
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
    dec = decompose(prof, F(1, 9))
    assert (dec.split.d0, dec.split.d1) == (3, 3)
    assert dec.a1 == tuple(F(k, 9) for k in (1, 2, 4, 5, 7, 8))
    assert dec.a1 == dec.a2
    assert dec.order == 6

    dec = decompose(prof, F(1, 3))
    assert dec.split.d0 == 1
    assert dec.a1 == (F(1, 3), F(2, 3))

    dec = decompose(prof, F(0))
    assert (dec.split.d0, dec.split.d1, dec.order) == (1, 1, 1)
    assert dec.a1 == dec.a2 == (F(0),)

    prof35 = build_profile(3, [2, 5])
    dec = decompose(prof35, F(1, 160))
    assert dec.split.d0 == 2
    assert dec.order == mult_order_bruteforce(3, 160)
    assert dec.to_json_dict()["a1_equals_a2"] is True


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
        dec = decompose(prof, F(a, d))
        assert dec.a1 == dec.a2
        assert len(dec.a1) == dec.split.d0 * mult_order_bruteforce(b, dec.split.d1)


def test_cover_radius_examples():
    pts = orbit(2, F(1, 9)).points
    assert cover_radius(pts) == F(1, 9)
    assert cover_radius([F(0)]) == F(1)
    assert cover_radius([F(0), F(1, 2)]) == F(1, 2)
    with pytest.raises(PreconditionError):
        cover_radius([])


_unit_points = st.integers(min_value=1, max_value=60).flatmap(
    lambda d: st.integers(min_value=0, max_value=d).map(lambda a: F(a, d))
)


@given(
    st.lists(_unit_points, min_size=1, max_size=12),
    st.sampled_from([(), (F(0),), (F(1),), (F(0), F(1))]),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200)
def test_cover_radius_matches_oracle(pts, ends, dups):
    pts = pts + list(ends) + pts[:dups]
    want = cover_radius_oracle(pts)
    assert cover_radius(pts) == want
    assert cover_radius(iter(pts)) == want


@given(
    st.lists(_unit_points, max_size=6),
    st.sampled_from([F(-1, 7), F(8, 7), F(-1), F(2), F(61, 60)]),
)
@settings(max_examples=50)
def test_cover_radius_rejects_out_of_range(pts, bad):
    with pytest.raises(PreconditionError, match="outside"):
        cover_radius(pts + [bad])
    with pytest.raises(PreconditionError, match="outside"):
        cover_radius([bad] + pts)


def test_density_report():
    rep = density_report(orbit(2, F(1, 9)).points, F(1, 9))
    assert rep.is_dense and rep.cover_radius == F(1, 9)
    rep = density_report([F(0), F(1, 2)], F(1, 5))
    assert not rep.is_dense and rep.cover_radius == F(1, 2)
    assert rep.to_json_dict()["cover_radius"] == "1/2"
    with pytest.raises(PreconditionError):
        density_report([F(0)], F(0))


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
            rep = density_report(orbit(2, F(a, d)).points, F(1, 6))
            assert rep.is_dense
    assert not density_report(orbit(2, F(1, 3)).points, F(1, 6)).is_dense
