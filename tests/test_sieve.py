"""Interval sieve vs naive scans, plus the counting conventions."""

import concurrent.futures.process
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timesb import sieve
from timesb.cantor import (
    DigitSet,
    _by_value,
    count_members_up_to,
    count_report,
    enumerate_members,
    member,
    reduced_members_up_to,
)
from timesb.errors import PreconditionError
from timesb.sieve import _children, _descend, _root, limit_depth, members_up_to

from oracles import reduced_members_oracle, simplest_fraction


def naive_members(ds: DigitSet, T: int) -> list[Fraction]:
    return sorted(
        Fraction(a, d)
        for d in range(1, T + 1)
        for a in range(d + 1)
        if gcd(a, d) == 1 and member(ds, Fraction(a, d))
    )


def resumed_simplest(P: int, depth: int, base: int) -> tuple[int, int]:
    """Simplest fraction of [P/base^depth, (P+1)/base^depth], reached the way
    the sieve reaches it: one resumed descent per digit of P from the root."""
    state = _root()
    scale = 1
    for c in reversed([P // base**i % base for i in range(depth)]):
        scale *= base
        num, den, state = _descend(_children(state, (c,), base), scale)
    return int(num[0]), int(den[0])


def column_prefixes(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, S) of each column: the convergent matrix times its left endpoint.

    Every term is nonnegative and at most P or S, so nothing overflows."""
    u1, u2, _, _, h1, h0, k1, k0 = state
    return h1 * u1 + h0 * u2, k1 * u1 + k0 * u2


def test_simplest_fraction_batch():
    # closed intervals [P/b^L, (P+1)/b^L] and their simplest fractions
    assert resumed_simplest(30, 2, 10) == (3, 10)  # [0.30, 0.31]
    assert resumed_simplest(2, 2, 3) == (1, 3)  # [2/9, 3/9]
    assert resumed_simplest(0, 3, 2) == (0, 1)  # [0, 1/8]
    assert resumed_simplest(99, 2, 10) == (1, 1)  # [0.99, 1.00]


def _int64_depth(base: int) -> int:
    """Deepest level the sieve's int64 guard admits: base^L < 2^62."""
    L = 0
    while base ** (L + 1) < 2**62:
        L += 1
    return L


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_resumed_descent_matches_oracle_to_int64_guard(data):
    # one random digit path down to base^L just below 2^62; at each level all
    # children are descended from the parent's final state, unpruned and
    # pruned at a random T, and every column is checked against the oracle
    base = data.draw(st.integers(min_value=2, max_value=10))
    L = _int64_depth(base)
    path = data.draw(st.lists(st.integers(0, base - 1), min_size=L, max_size=L))
    T = data.draw(st.integers(min_value=1, max_value=2**31))
    state = _root()
    P = 0
    for depth, c in enumerate(path, start=1):
        scale = base**depth
        kids = _children(state, range(base), base)
        want = {
            P * base + j: simplest_fraction(P * base + j, scale, P * base + j + 1, scale)
            for j in range(base)
        }
        num, den, final = _descend(kids, scale)
        pref, sc = column_prefixes(final)
        assert len(pref) == base and (sc == scale).all()
        got = {int(q): (int(n), int(d)) for q, n, d in zip(pref, num, den)}
        assert got == want
        num, den, final = _descend(kids, T)
        pref, _ = column_prefixes(final)
        got = {int(q): (int(n), int(d)) for q, n, d in zip(pref, num, den)}
        assert got == {q: nd for q, nd in want.items() if nd[1] <= T}
        P = P * base + c
        state = _descend(_children(state, (c,), base), scale)[2]
        assert int(column_prefixes(state)[0][0]) == P


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_sieve_levels_match_oracle(data):
    # the whole pruned tree, level by level: the survivors and their simplest
    # fractions equal those of a Python-int walk that descends from scratch
    base = data.draw(st.integers(min_value=2, max_value=10))
    digits = tuple(
        sorted(data.draw(st.sets(st.integers(0, base - 1), min_size=1, max_size=base - 1)))
    )
    T = data.draw(st.integers(min_value=1, max_value=60))
    want_level = [0]
    state = _root()
    for depth in range(1, limit_depth(base, T) + 1):
        scale = base**depth
        want = {}
        for P in (q * base + c for q in want_level for c in digits):
            nd = simplest_fraction(P, scale, P + 1, scale)
            if nd[1] <= T:
                want[P] = nd
        num, den, state = _descend(_children(state, digits, base), T)
        pref, _ = column_prefixes(state)
        got = {int(q): (int(n), int(d)) for q, n, d in zip(pref, num, den)}
        assert len(got) == len(pref)
        assert got == want
        want_level = sorted(want)


def test_limit_depth():
    assert limit_depth(3, 1) == 1
    assert limit_depth(3, 9) == 5  # 3^4 = 81 = T^2, need strict
    assert limit_depth(2, 10) == 7
    assert limit_depth(10, 1000) == 7


@pytest.mark.parametrize(
    "base,digits,T",
    [
        (3, (0, 2), 200),
        (3, (0, 2), 81),
        (4, (0, 2, 3), 150),
        (2, (1,), 100),
        (5, (1, 3), 120),
        (10, (0, 3, 7, 9), 60),
        (6, (0, 5), 100),
        (4, (1, 2), 100),
        # L = 7 and 2^8 does not divide 6^7: a/256 such as 53/256 is a
        # member only through its dual expansion, so boundary rows must be
        # told apart by their primes, not by dividing base^L
        (6, (1, 2, 3, 4, 5), 300),
        # a/96 = a/(2^5 * 3) has 5 preperiod digits, one more than L = 4,
        # then repeats 3 or 6: the cycle walk's checkpoint set after step 1
        # comes back on step 2, whose digit 3 must still drop the row
        (10, (0, 1, 2, 4, 5, 6, 7, 8, 9), 99),
    ],
)
def test_sieve_matches_naive_scan(base, digits, T):
    ds = DigitSet(base, digits)
    assert reduced_members_up_to(ds, T) == naive_members(ds, T)


@pytest.mark.parametrize(
    "base,digits,T",
    [
        (7, (0, 1, 2, 3, 4, 5), 1500),
        (3, (0, 2), 3000),
        (10, (0, 1, 2, 3, 4, 5, 6, 7, 8), 600),
    ],
)
def test_sieve_long_cycles_match_mask_oracle(base, digits, T):
    # dense digit sets keep members whose remainder cycles are long, so the
    # leaf cycle walk runs for many rounds; the oracle walks every residue
    rows = members_up_to(base, digits, T)
    by_den: dict[int, list[int]] = {}
    for num, den in rows.tolist():
        by_den.setdefault(den, []).append(num)
    for den in range(2, T + 1):
        if gcd(den, base) == 1:
            assert by_den.get(den, []) == reduced_members_oracle(base, digits, den), den


def test_known_counts_middle_thirds():
    ds = DigitSet(3, (0, 2))
    assert len(reduced_members_up_to(ds, 100)) == 116
    assert len(reduced_members_up_to(ds, 600)) == 498


def test_sieve_matches_coset_enumeration():
    ds = DigitSet(3, (0, 2))
    got = set(reduced_members_up_to(ds, 400))
    via_cosets = {x for x, _ in enumerate_members(ds, range(1, 401))}
    assert got == via_cosets


def test_jobs_do_not_change_output():
    ds = DigitSet(3, (0, 2))
    assert reduced_members_up_to(ds, 500, jobs=1) == reduced_members_up_to(
        ds, 500, jobs=2
    )
    # T = 5000 grows a frontier of hundreds of columns, cut into 8 and 12
    # prefix slices that run in worker processes
    rows = members_up_to(3, (0, 2), 5000, jobs=1)
    for jobs in (2, 3):
        assert np.array_equal(members_up_to(3, (0, 2), 5000, jobs=jobs), rows)


def _fractions(rows: np.ndarray) -> list[Fraction]:
    return sorted(Fraction(n, d) for n, d in rows.tolist())


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_small_budgets_match_default_and_naive_scan(monkeypatch, budget):
    # budgets at or below the digit count and a small odd one: the block
    # split, the remainder copy and the leaf flush all run many times
    rng = random.Random(budget)
    cases = [(b, tuple(sorted(rng.sample(range(b), rng.randrange(1, b)))))
             for b in range(2, 8) for _ in range(2)]
    for base, digits in cases:
        T = rng.randrange(20, 61)
        default = members_up_to(base, digits, T)
        with monkeypatch.context() as m:
            m.setattr(sieve, "_BUDGET", budget)
            small = members_up_to(base, digits, T)
        assert np.array_equal(small, default), (base, digits, T)
        assert _fractions(small) == naive_members(DigitSet(base, digits), T)


@pytest.mark.parametrize("budget", [1, 16, sieve._BUDGET])
def test_children_calls_stay_within_budget(monkeypatch, budget):
    # the memory invariant: no call expands more than the budget's columns
    # (or one column's children, when the budget is below the digit count)
    digits, T = (0, 2), 2000
    want = members_up_to(3, digits, T)
    sizes = []

    def spy(state, digits, base):
        out = _children(state, digits, base)
        sizes.append(out.shape[1])
        return out

    monkeypatch.setattr(sieve, "_BUDGET", budget)
    monkeypatch.setattr(sieve, "_children", spy)
    assert np.array_equal(members_up_to(3, digits, T), want)
    cap = max(budget, len(digits))
    assert max(sizes) <= cap
    if budget < 1000:  # far below the tree's width: some block is split
        assert max(sizes) == cap - cap % len(digits)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in
    this process, so no worker is ever started."""

    made: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = 0
        _SerialPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        self.tasks = len(items)
        return map(fn, items)


@pytest.mark.parametrize("cpus", [3, 10**4])
def test_pool_size_capped_by_tasks_and_cpus(monkeypatch, cpus):
    rows = members_up_to(3, (0, 2), 2000)
    # the sieve imports the pool class from here when jobs > 1
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(sieve.os, "cpu_count", lambda: cpus)
    _SerialPool.made = []
    assert np.array_equal(members_up_to(3, (0, 2), 2000, jobs=10**6), rows)
    (pool,) = _SerialPool.made
    assert 3 < pool.tasks <= sieve._FRONTIER
    assert pool.max_workers == min(cpus, pool.tasks)


def test_dual_expansion_members_found():
    # 3/4 = 0.30(0) = 0.2(3) in base 4: only the second expansion stays in
    # the digit set, and 3/4 sits on an interval boundary of the tree
    ds = DigitSet(4, (0, 2, 3))
    assert Fraction(3, 4) in reduced_members_up_to(ds, 10)
    ds2 = DigitSet(4, (0, 3))
    assert Fraction(1, 4) in reduced_members_up_to(ds2, 10)
    assert Fraction(1, 3) in reduced_members_up_to(DigitSet(3, (0, 2)), 5)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_sieve_matches_naive_randomized(data):
    base = data.draw(st.integers(min_value=2, max_value=7))
    digits = data.draw(
        st.sets(st.integers(0, base - 1), min_size=1, max_size=base - 1)
    )
    T = data.draw(st.integers(min_value=1, max_value=60))
    ds = DigitSet(base, tuple(digits))
    assert reduced_members_up_to(ds, T) == naive_members(ds, T)


def test_count_report_rows():
    ds = DigitSet(3, (0, 2))
    assert count_report(ds, 4).csv_rows() == [
        (4, 6, 12, "true"),
        (4, 4, 4, "false"),
    ]
    assert count_report(ds, 1).csv_rows() == [
        (1, 2, 2, "true"),
        (1, 0, 0, "false"),
    ]
    csv = count_report(ds, 4).to_csv()
    assert csv.splitlines()[0] == "T,count_reduced,count_all,includes_endpoints"
    assert csv.splitlines()[1] == "4,6,12,true"


def test_count_members_up_to_flags():
    ds = DigitSet(3, (0, 2))
    assert count_members_up_to(ds, 1) == 2
    # members at T = 4: 0, 1, 1/4, 3/4 and the dual-expansion pair 1/3, 2/3
    assert count_members_up_to(ds, 4) == 6
    assert count_members_up_to(ds, 4, include_endpoints=False) == 4
    assert count_members_up_to(ds, 4, reduced_only=False) == 12
    assert count_members_up_to(ds, 100) == 116
    # denominators coprime to 3 only: drops 1/3, 2/3 at T = 4
    assert count_members_up_to(ds, 4, coprime_to_b_only=True) == 4


def test_count_all_convention_by_hand():
    # every pair (a, d), 0 <= a <= d <= T, counted when a/d is a member
    ds = DigitSet(3, (0, 2))
    T = 12
    pairs = sum(
        1
        for d in range(1, T + 1)
        for a in range(d + 1)
        if member(ds, Fraction(a, d))
    )
    assert count_members_up_to(ds, T, reduced_only=False) == pairs
    coprime_pairs = sum(
        1
        for d in range(1, T + 1)
        if gcd(d, 3) == 1
        for a in range(d + 1)
        if member(ds, Fraction(a, d))
    )
    assert (
        count_members_up_to(ds, T, reduced_only=False, coprime_to_b_only=True)
        == coprime_pairs
    )


def test_full_digit_set_closed_form():
    full = DigitSet(3, (0, 1, 2))
    for T in (1, 7, 50):
        for cop in (False, True):
            rep = count_report(full, T, coprime_to_b_only=cop)
            dens = [d for d in range(1, T + 1) if not cop or gcd(d, 3) == 1]
            reduced = sum(
                1 for d in dens for a in range(d + 1) if gcd(a, d) == 1
            )
            assert rep.reduced_with == reduced
            assert rep.reduced_without == reduced - 2
            assert rep.all_with == sum(d + 1 for d in dens)
            assert rep.all_without == sum(d - 1 for d in dens)


def test_rejections():
    ds = DigitSet(3, (0, 2))
    with pytest.raises(PreconditionError):
        count_report(ds, 0)
    with pytest.raises(PreconditionError):
        members_up_to(3, (0, 1, 2), 10)
    with pytest.raises(PreconditionError):
        members_up_to(3, (0, 3), 10)
    with pytest.raises(PreconditionError):
        members_up_to(3, (0, 2), 10, jobs=0)


def test_by_value_repairs_float_ties():
    # n/(2n+1) and (n+1)/(2n+1) for n near 2^30 lie within 2^-62 of their
    # neighbours, far below the float spacing at 1/2, so their keys collide
    rng = random.Random(5)
    n0 = 2**30 - 64
    fracs = [Fraction(n, 2 * n + 1) for n in range(n0, n0 + 40)]
    fracs += [Fraction(n + 1, 2 * n + 1) for n in range(n0, n0 + 40)]
    fracs += [Fraction(1, 2), Fraction(0), Fraction(1), Fraction(1, 3)]
    fracs += [Fraction(a, 2**31 - 1) for a in rng.sample(range(1, 2**31 - 1), 40)]
    rng.shuffle(fracs)
    rows = np.array([(x.numerator, x.denominator) for x in fracs], dtype=np.int64)
    keys = rows[:, 0] / rows[:, 1]
    assert len(set(keys.tolist())) < len(fracs) - 60
    got = [Fraction(int(n), int(d)) for n, d in _by_value(rows)]
    assert got == sorted(fracs)
    assert _by_value(rows[:0]).shape == (0, 2)
