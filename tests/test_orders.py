import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timesb import numtheory
from timesb.errors import PreconditionError
from timesb.numtheory import mult_order_bruteforce
from timesb.orbit import decompose
from timesb.orders import (
    DenominatorSplit,
    OrderProfile,
    PrimeOrderStats,
    build_profile,
    cap_exponent,
    order_from_profile,
    split_denominator,
    stabilization_exponent,
)

from oracles import split_oracle


def test_stabilization_exponent_examples():
    assert stabilization_exponent(3, 2) == 3
    assert stabilization_exponent(2, 3) == 1
    assert stabilization_exponent(2, 7) == 1
    assert stabilization_exponent(10, 3) == 2  # v3(99) = 2
    assert stabilization_exponent(2, 1093) == 2  # Wieferich prime


def test_stabilization_exponent_two_hard_cases():
    # b = 7 mod 8 is the trap: ord(7,8) = ord(7,16) = 2, growth starts at 16.
    assert stabilization_exponent(7, 2) == 4
    assert stabilization_exponent(15, 2) == 5  # v2(16)+1
    assert stabilization_exponent(17, 2) == 4  # v2(16) dominates


def test_stabilization_exponent_rejects():
    with pytest.raises(PreconditionError):
        stabilization_exponent(6, 3)
    with pytest.raises(PreconditionError):
        stabilization_exponent(2, 4)
    with pytest.raises(PreconditionError):
        stabilization_exponent(1, 3)


@given(
    st.integers(min_value=2, max_value=60),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
@settings(max_examples=150)
def test_stabilization_growth_law(b, p):
    if b % p == 0:
        return
    n = stabilization_exponent(b, p)
    base_ord = mult_order_bruteforce(b, p**n)
    for k in range(n, n + 3):
        assert mult_order_bruteforce(b, p**k) == p ** (k - n) * base_ord


def test_cap_exponent_examples():
    # base 3 over {2, 5}: n2=3 with ord(3,8)=2, n5=1 with ord(3,5)=4
    stable = {2: (3, 2), 5: (1, 4)}
    assert cap_exponent(2, stable) == 4  # max(3-1+1, 3-1+2)
    assert cap_exponent(5, stable) == 1
    assert cap_exponent(3, {3: (1, 2)}) == 1  # singleton: q=p term only
    with pytest.raises(PreconditionError):
        cap_exponent(7, stable)


def test_build_profile_examples():
    prof = build_profile(3, [2, 5])
    assert prof.primes == (2, 5)
    s2, s5 = prof.stats(2), prof.stats(5)
    assert (s2.stable_exp, s2.cap_exp, s2.order_at_stable) == (3, 4, 2)
    assert (s5.stable_exp, s5.cap_exp, s5.order_at_stable) == (1, 1, 4)
    assert prof.cap_modulus() == 80

    prof = build_profile(2, [3])
    s3 = prof.stats(3)
    assert (s3.stable_exp, s3.cap_exp, s3.order_at_stable) == (1, 1, 2)

    prof = build_profile(10, [3])
    s3 = prof.stats(3)
    assert (s3.stable_exp, s3.cap_exp, s3.order_at_stable) == (2, 2, 1)


def test_build_profile_orders_match_bruteforce():
    # the profile's orders come from the factored group exponent; the
    # brute-force order is the oracle
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    for b in range(2, 21):
        prof = build_profile(b, [p for p in primes if b % p != 0])
        for p, stats in prof.records:
            assert stats.order_at_stable == mult_order_bruteforce(b, p**stats.stable_exp)


def test_build_profile_rejects():
    with pytest.raises(PreconditionError):
        build_profile(3, [])
    with pytest.raises(PreconditionError, match="base must be >= 2"):
        build_profile(0, [7])
    with pytest.raises(PreconditionError, match="3"):
        build_profile(6, [3, 5])
    with pytest.raises(PreconditionError):
        build_profile(3, [4])


def test_profile_invariants_enforced():
    with pytest.raises(PreconditionError):
        PrimeOrderStats(stable_exp=2, cap_exp=1, order_at_stable=1)
    with pytest.raises(PreconditionError):
        OrderProfile(base=3, records=((2, PrimeOrderStats(3, 3, 5)),))
    with pytest.raises(PreconditionError):
        OrderProfile(base=6, records=((3, PrimeOrderStats(1, 1, 2)),))


def test_profile_json_shape():
    prof = build_profile(3, [5, 2])  # order does not matter, output sorted
    assert prof.to_json_dict() == {
        "base": 3,
        "primes": [2, 5],
        "per_prime": {
            "2": {"n": 3, "N": 4, "ord": 2},
            "5": {"n": 1, "N": 1, "ord": 4},
        },
    }


def test_split_denominator_examples():
    prof = build_profile(2, [3])
    assert split_denominator(prof, 9) == DenominatorSplit(9, 3, 3)
    assert split_denominator(prof, 3) == DenominatorSplit(3, 1, 3)
    prof35 = build_profile(3, [2, 5])
    assert split_denominator(prof35, 2**6 * 5) == DenominatorSplit(320, 4, 80)
    assert split_denominator(prof35, 1) == DenominatorSplit(1, 1, 1)
    with pytest.raises(PreconditionError, match="7"):
        split_denominator(prof35, 7)


@pytest.mark.parametrize(
    "base, primes",
    [(2, [3]), (3, [2, 5]), (10, [3, 7, 11, 13]), (3, [2, 5, 7, 11, 13, 17, 19])],
)
def test_split_denominator_matches_exponentwise_oracle(base, primes):
    prof = build_profile(base, primes)
    caps = {p: prof.stats(p).cap_exp for p in primes}
    rng = random.Random(base * 1000 + len(primes))
    for _ in range(80):
        d = math.prod(p ** rng.randint(0, caps[p] + 3) for p in primes)
        want = DenominatorSplit(d, *split_oracle(d, caps))
        assert split_denominator(prof, d) == want
    assert split_denominator(prof, 1) == DenominatorSplit(1, 1, 1)
    q = next(q for q in (2, 3, 5, 7) if q not in primes)
    for d in (q, q * math.prod(primes), 0, -math.prod(primes)):
        with pytest.raises(PreconditionError) as exc:
            split_denominator(prof, d)
        assert f"denominator {d} " in str(exc.value)
        assert str(sorted(primes)) in str(exc.value)


def test_order_from_profile_examples():
    prof = build_profile(2, [3])
    assert order_from_profile(prof, {3: 5}) == 162
    prof35 = build_profile(3, [2, 5])
    assert order_from_profile(prof35, {2: 2, 5: 0}) == 2
    assert order_from_profile(prof35, {2: 0, 5: 0}) == 1
    with pytest.raises(PreconditionError):
        order_from_profile(prof35, {7: 1})
    with pytest.raises(PreconditionError):
        order_from_profile(prof35, {2: -1})


def test_orders_over_a_profile_factor_nothing(monkeypatch):
    # build_profile keeps each prime's factored p - 1, so neither an order
    # over the profile nor decompose factors anything again
    prof = build_profile(2, [1000000007, 3])
    prof3 = build_profile(2, [3])
    calls = []

    def counted(n):
        calls.append(n)
        return real(n)

    real = numtheory.factorize
    for name, module in list(sys.modules.items()):
        if name.startswith("timesb") and getattr(module, "factorize", None) is real:
            monkeypatch.setattr(module, "factorize", counted)
    assert order_from_profile(prof, {1000000007: 1, 3: 2}) == 3000000018
    assert decompose(prof3, Fraction(1, 177147)).order == 118098
    assert calls == []
    # a profile built from the positional stats alone factors p - 1 on use
    bare = OrderProfile(
        base=2,
        records=tuple(
            (p, PrimeOrderStats(st.stable_exp, st.cap_exp, st.order_at_stable))
            for p, st in prof.records
        ),
    )
    assert bare == prof
    assert order_from_profile(bare, {1000000007: 1, 3: 2}) == 3000000018
    assert sorted(calls) == [2, 1000000006]


def test_order_formula_matches_bruteforce_seeded():
    rng = random.Random(20260814)
    prime_pool = [2, 3, 5, 7, 11, 13]
    for _ in range(300):
        b = rng.randint(2, 12)
        avail = [p for p in prime_pool if b % p != 0]
        S = rng.sample(avail, rng.randint(1, min(3, len(avail))))
        prof = build_profile(b, S)
        exps = {p: rng.randint(0, 6 if p == 2 else 4) for p in S}
        d = math.prod(p**e for p, e in exps.items())
        if d > 10**5:
            continue
        assert order_from_profile(prof, exps) == mult_order_bruteforce(b, d), (
            b,
            S,
            exps,
        )


def test_order_identity_d0_times_order_d1():
    rng = random.Random(7)
    for _ in range(150):
        b = rng.randint(2, 10)
        avail = [p for p in (2, 3, 5, 7) if b % p != 0]
        S = rng.sample(avail, rng.randint(1, 2))
        prof = build_profile(b, S)
        exps = {p: rng.randint(0, 7) for p in S}
        d = math.prod(p**e for p, e in exps.items())
        if d > 10**6:
            continue
        split = split_denominator(prof, d) if d > 1 else None
        order = order_from_profile(prof, exps)
        if split is not None:
            assert order == split.d0 * mult_order_bruteforce(b, split.d1)


@given(st.integers(min_value=2, max_value=40), st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=120)
def test_caps_dominate_stabilization(b, p):
    if b % p == 0:
        return
    others = [q for q in (2, 3, 5, 7, 11) if b % q != 0]
    prof = build_profile(b, others)
    st_p = prof.stats(p)
    assert st_p.cap_exp >= st_p.stable_exp >= 1
    if p == 2:
        assert st_p.stable_exp >= 3
