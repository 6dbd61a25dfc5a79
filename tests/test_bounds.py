"""Empirical constant reports and the growth threshold checks."""

from fractions import Fraction
from math import gcd, log, prod, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timesb.bounds import (
    BOUNDS_CSV_HEADER,
    aggregate_constants,
    bound_report,
    member_bound_reports,
    stabilization_growth_check,
)
from timesb.cantor import DigitSet
from timesb.errors import PreconditionError
from timesb.orders import build_profile
from timesb.sieve import members_up_to

import oracles


def test_skip_below_threshold():
    # epsilon * d = 2/3, far below the double-log safety threshold of 3
    assert bound_report(3, Fraction(1, 6), Fraction(1, 4)) is None
    # boundary: epsilon * d = 3 exactly produces a report
    assert bound_report(3, Fraction(3, 20), Fraction(1, 20)) is not None
    assert bound_report(3, Fraction(3, 20) - Fraction(1, 1000), Fraction(1, 20)) is None


def test_large_prime_branch_frozen():
    r = bound_report(3, Fraction(1, 6), Fraction(1, 320))
    assert r.branch == "P>b"
    assert (r.largest_prime, r.radical) == (5, 10)
    assert r.lhs == 5.0
    assert r.K_emp == pytest.approx(1.953585355050054, rel=1e-12)
    assert r.c_emp_rad == pytest.approx(1.733606712818504, rel=1e-12)
    assert r.c_emp_P == pytest.approx(1.5726461653126442, rel=1e-12)
    assert r.K_emp * r.rhs == pytest.approx(r.lhs, rel=1e-9)


def test_small_prime_branch_frozen():
    # base 10 with d = 27: P = 3 < 10, single-log branch
    r = bound_report(10, Fraction(1, 9), Fraction(1, 27))
    assert r.branch == "P<b"
    assert r.K_emp == 3 / sqrt(log(6.0) / log(10))
    assert r.K_emp == pytest.approx(3.4008638432677984, rel=1e-12)


def test_rejections():
    with pytest.raises(PreconditionError):
        bound_report(3, Fraction(1, 6), Fraction(1, 6))  # gcd(a*b, d) = 3
    with pytest.raises(PreconditionError):
        bound_report(3, Fraction(1, 6), Fraction(2, 9))
    with pytest.raises(PreconditionError):
        bound_report(3, Fraction(0, 1), Fraction(1, 320))
    with pytest.raises(PreconditionError):
        bound_report(3, Fraction(7, 2), Fraction(1, 1))  # passes filter, d = 1


def test_csv_row_shape():
    # the cells from d on: the CLI writes b, digits and a in front of them
    r = bound_report(3, Fraction(1, 6), Fraction(1, 320))
    row = f"3,0;2,1,{r.den_cells}"
    assert row.startswith("3,0;2,1,320,5,10,P>b,")
    assert len(row.split(",")) == len(BOUNDS_CSV_HEADER.split(","))


def test_aggregate_single_and_idempotent():
    r = bound_report(3, Fraction(1, 6), Fraction(1, 320))
    one = aggregate_constants([r])
    assert one == {
        "K_emp_min": r.K_emp,
        "c_emp_rad_min": r.c_emp_rad,
        "c_emp_P_min": r.c_emp_P,
        "count": 1,
    }
    two = aggregate_constants([r, r])
    assert two["K_emp_min"] == one["K_emp_min"]
    assert two["count"] == 2
    with pytest.raises(PreconditionError):
        aggregate_constants([])


def test_package_stream_matches_oracle_small():
    # same minima, exactly, from two independently written pipelines
    eps = Fraction(1, 6)
    golden = oracles.build_bounds_golden(max_den=2000)
    reports = []
    for a, d in members_up_to(3, (0, 2), 2000).tolist():
        if d == 1 or gcd(3 * a, d) != 1:
            continue
        r = bound_report(3, eps, Fraction(a, d))
        if r is not None:
            reports.append(r)
    agg = aggregate_constants(reports)
    assert agg["count"] == golden["count"]
    assert agg["K_emp_min"] == golden["K_emp_min"]
    assert agg["c_emp_rad_min"] == golden["c_emp_rad_min"]
    assert agg["c_emp_P_min"] == golden["c_emp_P_min"]


def test_growth_check_examples():
    ok, rows = stabilization_growth_check(build_profile(3, [2, 5]))
    assert ok
    by_prime = {r.prime: r for r in rows}
    assert by_prime[2].stable_exp == 3
    assert by_prime[2].stable_cap == pytest.approx(6.339850002884625, rel=1e-12)
    assert by_prime[2].cap_exp == 4
    assert by_prime[2].cap_cap == pytest.approx(6.0, rel=1e-12)
    assert by_prime[2].cap_cap - by_prime[2].cap_exp == pytest.approx(2.0, rel=1e-9)
    ok2, _ = stabilization_growth_check(build_profile(2, [3]))
    assert ok2
    # Wieferich prime: the valuation jumps to 2 before any power is taken
    ok3, rows3 = stabilization_growth_check(build_profile(2, [1093]))
    assert ok3
    assert rows3[0].stable_exp == 2


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_growth_check_property(data):
    primes_pool = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    base = data.draw(st.integers(min_value=2, max_value=50))
    usable = [p for p in primes_pool if base % p != 0]
    subset = data.draw(st.sets(st.sampled_from(usable), min_size=1, max_size=4))
    ok, rows = stabilization_growth_check(build_profile(base, sorted(subset)))
    assert ok, rows


def test_member_bound_reports_prime_data_matches_bruteforce():
    # the prime base 20011 is coprime to every d <= 2*10^4, and epsilon = 1
    # keeps every d >= 3 (log log d needs d > e), so the stream reports P(d)
    # and rad(d) for all of them
    assert oracles.factor_bruteforce(20011) == ((20011, 1),)
    rows = np.array([(1, d) for d in range(1, 20_001)], dtype=np.int64)
    kept, reports = member_bound_reports(20011, Fraction(1), rows)
    assert kept[:, 1].tolist() == list(range(3, 20_001))
    assert [(d, r.den) for d, r in reports.items()] == [(d, d) for d in range(3, 20_001)]
    for r in reports.values():
        factors = oracles.factor_bruteforce(r.den)
        assert (r.largest_prime, r.radical) == (
            factors[-1][0],
            prod(p for p, _ in factors),
        ), r.den


@pytest.mark.parametrize(
    "base, digits, T, eps",
    [
        (3, (0, 2), 3000, Fraction(1, 6)),
        (3, (0, 2), 300, Fraction(7, 3)),
        (6, (1, 2, 3, 4, 5), 300, None),
        (10, tuple(range(9)), 600, None),
        (5, (0, 2, 4), 2000, Fraction(1, 10)),
    ],
)
def test_member_bound_reports_match_bound_report(base, digits, T, eps):
    # the stream over the sieve's rows against bound_report on each Fraction
    ds = DigitSet(base, digits)
    eps = ds.epsilon_exact if eps is None else eps
    rows = members_up_to(base, digits, T)
    want = [
        bound_report(base, eps, Fraction(a, d))
        for a, d in rows.tolist()
        if d > 1 and gcd(base, d) == 1
    ]
    want = [r for r in want if r is not None]
    kept, reports = member_bound_reports(base, eps, rows)
    # each kept row's den report, rebuilt field by field with the row's own num
    rebuilt = [
        type(r)(**{f: a if f == "num" else getattr(r, f) for f in r.__match_args__})
        for a, r in ((a, reports[d]) for a, d in kept.tolist())
    ]
    assert rebuilt == want
    # one report per kept den, made with the den's first num
    first = {}
    for a, d in kept.tolist():
        first.setdefault(d, a)
    assert {d: (r.den, r.num) for d, r in reports.items()} == {
        d: (d, a) for d, a in first.items()
    }
    assert want


def test_member_bound_reports_rejects_like_bound_report():
    rows = members_up_to(3, (0, 2), 50)
    with pytest.raises(PreconditionError, match="epsilon must be positive"):
        member_bound_reports(3, Fraction(-1, 6), rows)
    # no row coprime to the base and above 1: nothing to evaluate, no error
    kept, reports = member_bound_reports(3, Fraction(-1, 6), rows[rows[:, 1] % 3 == 0])
    assert kept.shape == (0, 2) and reports == {}
