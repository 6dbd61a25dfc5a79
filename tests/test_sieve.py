"""Interval sieve vs naive scans, plus the counting conventions."""

import os
import random
import signal
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timesb import cantor, sieve
from timesb.cantor import (
    DigitSet,
    count_report,
    enumerate_members,
    enumerate_s_integers,
    member,
    smooth_denominators,
)
from timesb.errors import InvariantError, PreconditionError
from timesb.orders import build_profile
from timesb.sieve import (
    _by_value,
    _children,
    _descend,
    _root,
    limit_depth,
    members_up_to,
)

from oracles import (
    is_prenecklace,
    reduced_members_oracle,
    simplest_fraction,
    whole_tree_members,
)


def naive_members(ds: DigitSet, T: int) -> list[Fraction]:
    return sorted(
        Fraction(a, d)
        for d in range(1, T + 1)
        for a in range(d + 1)
        if gcd(a, d) == 1 and member(ds, Fraction(a, d))
    )


def naive_rows(ds: DigitSet, T: int) -> list[list[int]]:
    """naive_members as the sieve's rows [num, den], in value order."""
    return [[x.numerator, x.denominator] for x in naive_members(ds, T)]


def every_child(state: np.ndarray, digits, base: int) -> np.ndarray:
    """_children with the prenecklace rule off: each column's prefix reads
    as 0 with period 1, so every digit passes. Rows 8 and 9 of the result
    are then meaningless; the descent only carries them."""
    state = state.copy()
    state[8], state[9] = 0, 1
    return _children(state, digits, base, 0)


def resumed_simplest(P: int, depth: int, base: int) -> tuple[int, int]:
    """Simplest fraction of [P/base^depth, (P+1)/base^depth], reached the way
    the sieve reaches it: one resumed descent per digit of P from the root."""
    state = _root()
    scale = 1
    for c in reversed([P // base**i % base for i in range(depth)]):
        scale *= base
        num, den, state = _descend(every_child(state, (c,), base), scale)
    return int(num[0]), int(den[0])


def column_prefixes(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, S) of each column: the convergent matrix times its left endpoint.

    Every term is nonnegative and at most P or S, so nothing overflows."""
    u1, u2, _, _, h1, h0, k1, k0 = state[:8]
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
        kids = every_child(state, range(base), base)
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
        state = _descend(every_child(state, (c,), base), scale)[2]
        assert int(column_prefixes(state)[0][0]) == P


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_sieve_levels_match_oracle(data):
    # the whole pruned tree, level by level: the survivors, their simplest
    # fractions and their prefixes equal those of a Python-int walk that
    # descends from scratch and keeps the prenecklace prefixes
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
            if nd[1] <= T and is_prenecklace([P // base**i % base for i in range(depth)][::-1]):
                want[P] = nd
        num, den, state = _descend(_children(state, digits, base, depth - 1), T)
        pref, _ = column_prefixes(state)
        got = {int(q): (int(n), int(d)) for q, n, d in zip(pref, num, den)}
        assert len(got) == len(pref)
        assert got == want
        assert np.array_equal(state[8], pref)
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
    assert members_up_to(base, ds.digits, T).tolist() == naive_rows(ds, T)


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
    assert len(members_up_to(3, (0, 2), 100)) == 116
    assert len(members_up_to(3, (0, 2), 600)) == 498


def test_sieve_matches_coset_enumeration():
    ds = DigitSet(3, (0, 2))
    got = members_up_to(3, (0, 2), 400).tolist()
    via_cosets = [[a, d] for a, d, _, _ in enumerate_members(ds, range(1, 401))]
    assert got == via_cosets


@pytest.mark.parametrize(
    "base, digits, primes", [(3, (0, 2), (2, 5, 7)), (5, (0, 1, 3), (2, 3, 7))]
)
def test_sieve_matches_certificate(base, digits, primes):
    # two independent routes to the members with S-smooth d <= T: the
    # sieve's digit tree over all d, and the certificate's per-d descent
    # over the d its lattice exclusion keeps (D = 1680 and 2016 here)
    T = 2000
    cert = enumerate_s_integers(DigitSet(base, digits), build_profile(base, primes))
    smooth = set(smooth_denominators(primes, T))
    sieved = [(n, d) for n, d in members_up_to(base, digits, T).tolist() if d in smooth]
    certified = [(a, d) for a, d, _, _ in cert.members if d <= T]
    # both in value order
    assert sieved == certified and len(sieved) > 10


def test_jobs_do_not_change_output(monkeypatch):
    assert (
        members_up_to(3, (0, 2), 500, jobs=1).tolist()
        == members_up_to(3, (0, 2), 500, jobs=2).tolist()
    )
    # past the cut, T = 5000 grows a frontier of hundreds of columns, shared
    # out among this process and forked children
    monkeypatch.setattr(sieve, "_FORK_WORK", 0)
    rows = members_up_to(3, (0, 2), 5000, jobs=1)
    for jobs in (2, 3):
        assert np.array_equal(members_up_to(3, (0, 2), 5000, jobs=jobs), rows)
    # a middle digit, whose all-2 path holds 1/2
    rows = members_up_to(5, (0, 2, 4), 3000, jobs=1)
    for jobs in (2, 3):
        assert np.array_equal(members_up_to(5, (0, 2, 4), 3000, jobs=jobs), rows)


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
    # (or one column's children, when the budget is below the digit count);
    # a call expands all k digits of each column, then drops the children
    # that leave the prenecklaces
    digits, T = (0, 2), 2000
    want = members_up_to(3, digits, T)
    sizes = []

    def spy(state, digits, base, depth):
        sizes.append(state.shape[1] * len(digits))
        return _children(state, digits, base, depth)

    monkeypatch.setattr(sieve, "_BUDGET", budget)
    monkeypatch.setattr(sieve, "_children", spy)
    assert np.array_equal(members_up_to(3, digits, T), want)
    cap = max(budget, len(digits))
    assert max(sizes) <= cap
    if budget < 1000:  # far below the tree's width: some block is split
        assert max(sizes) == cap - cap % len(digits)


def _in_process_split(made: list):
    """Stands in for sieve._fork_split: records the shares and runs them all
    in this process, so no child is ever forked."""

    def split(run, shares):
        made.append(shares)
        return np.concatenate([run(share) for share in shares])

    return split


@pytest.mark.parametrize("cpus", [3, 10**4])
def test_pool_size_capped_by_tasks_and_cpus(monkeypatch, cpus):
    rows = members_up_to(3, (0, 2), 2000)
    made = []
    monkeypatch.setattr(sieve, "_fork_split", _in_process_split(made))
    monkeypatch.setattr(sieve.os, "cpu_count", lambda: cpus)
    # below the cut the whole tree is one share: nothing to fork
    assert np.array_equal(members_up_to(3, (0, 2), 2000, jobs=10**6), rows)
    (shares,) = made
    assert len(shares) == 1 and shares[0].shape[1] == 1
    # past it, one share per process: min(jobs, frontier columns, CPUs)
    monkeypatch.setattr(sieve, "_FORK_WORK", 0)
    assert np.array_equal(members_up_to(3, (0, 2), 2000, jobs=10**6), rows)
    shares = made[1]
    columns = sum(share.shape[1] for share in shares)
    assert 3 < columns <= sieve._FRONTIER
    assert len(shares) == min(cpus, columns)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_in_children(monkeypatch, fail):
    """Forces the split past the cut with two processes, each child running
    fail() where it would descend its share."""
    parent, real = os.getpid(), sieve._descend_task

    def task(*args):
        if os.getpid() != parent:
            fail()
        return real(*args)

    monkeypatch.setattr(sieve, "_descend_task", task)
    monkeypatch.setattr(sieve, "_FORK_WORK", 0)
    monkeypatch.setattr(sieve.os, "cpu_count", lambda: 2)


def _raise():
    raise RuntimeError("worker fails")


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fail, want", [(_raise, "exit status 1"), (_kill, "signal 9")])
def test_failed_worker_raises_and_leaves_no_child(monkeypatch, fail, want):
    _fail_in_children(monkeypatch, fail)
    with pytest.raises(InvariantError, match=f"worker process failed .*{want}"):
        members_up_to(3, (0, 2), 2000, jobs=2)
    _no_child_left()


def test_interrupt_in_parent_reaps_worker(monkeypatch):
    # the child would sleep for a minute; the parent's interrupt kills it
    _fail_in_children(monkeypatch, lambda: time.sleep(60))
    real = sieve._descend_task

    def interrupted(*args):
        real(*args)
        raise KeyboardInterrupt

    monkeypatch.setattr(sieve, "_descend_task", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        members_up_to(3, (0, 2), 2000, jobs=2)
    assert time.monotonic() - start < 30
    _no_child_left()


def test_dual_expansion_members_found():
    # 3/4 = 0.30(0) = 0.2(3) in base 4: only the second expansion stays in
    # the digit set, and 3/4 sits on an interval boundary of the tree
    assert [3, 4] in members_up_to(4, (0, 2, 3), 10).tolist()
    assert [1, 4] in members_up_to(4, (0, 3), 10).tolist()
    assert [1, 3] in members_up_to(3, (0, 2), 5).tolist()


def _leaf_cases():
    rng = random.Random(10)
    cases = [(6, tuple(d for d in range(6) if mask >> d & 1), 64)
             for mask in range(1, 2**6 - 1)]
    cases.append((10, (0, 2, 5, 6), 300))
    for base, T in ((10, 300), (12, 150)):
        cases += [(base, tuple(sorted(rng.sample(range(base), rng.randrange(2, base)))), T)
                  for _ in range(4)]
    return cases


def test_leaf_start_rule_matches_walk_from_num():
    # the whole-tree oracle walks every candidate past its leaf's digits
    # (the leaf start rule); the sieve walks only cycle representatives,
    # from r = num, and builds the terminating rows from the seeds 0/1 and
    # 1/1, among them rows strictly inside their leaf (den does not divide
    # base^L) whose two expansions part only past depth L, and rows whose
    # den's base part is not a power of the base (composite bases 6, 10, 12)
    inside, skew = set(), set()
    for base, digits, T in _leaf_cases():
        L = limit_depth(base, T)
        got = members_up_to(base, digits, T).tolist()
        assert got == whole_tree_members(base, digits, T), (base, digits, T)
        # 64 exceeds every prime exponent of a den <= 300
        smooth = [d for _, d in got if not pow(base, 64, d)]
        inside |= {base for d in smooth if pow(base, L, d)}
        skew |= {base for d in smooth if d not in {base**m for m in range(L)}}
    assert inside == {6, 10} and skew == {6, 10, 12}


@pytest.mark.parametrize(
    "base, digits, T, num, den, r",
    [
        # 0.444043 in base 6, L = 5: 64 does not divide 6^5, so the oracle
        # walks from depth 5, from the remainder of 0.3 (r/64 = 1/2)
        (6, (0, 3, 4), 64, 51, 64, 32),
        # 0.22265625 in base 10, L = 5: from 0.625 (r/256)
        (10, (0, 2, 5, 6), 300, 57, 256, 160),
    ],
)
def test_smooth_interior_rows_walk_from_depth_L(base, digits, T, num, den, r):
    # base-smooth denominators that do not divide base^L and are no power
    # of the base: the whole-tree oracle finds the row by its tail past
    # depth L; the sieve builds it from the seed 0/1, since its greedy
    # expansion ends in 0s, reducing its den by a gcd at each level
    L = limit_depth(base, T)
    assert L == 5 and pow(base, L, den) != 0 and den not in {base**m for m in range(9)}
    assert num * base**L % den == r and 0 in digits and pow(base, 8, den) == 0
    assert [num, den] in members_up_to(base, digits, T).tolist()
    assert [num, den] in whole_tree_members(base, digits, T)
    assert member(DigitSet(base, digits), Fraction(num, den))


@pytest.mark.parametrize(
    "base, digits, T",
    [
        (4, (0, 1, 3), 300),
        (6, (0, 1, 5), 300),
        (10, (0, 5, 9), 300),
        (12, (0, 3, 8, 11), 200),
        (5, (1, 3), 400),
        (7, (6,), 50),
        (3, (1,), 50),
    ],
)
def test_orbit_build_edge_cases(base, digits, T):
    # composite bases, where a den's base part need not be a power of the
    # base, and sets without 0 or without base-1, which lack one seed or both
    rows = members_up_to(base, digits, T).tolist()
    assert rows == whole_tree_members(base, digits, T)
    assert _fractions(np.array(rows)) == naive_members(DigitSet(base, digits), T)
    assert ([0, 1] in rows) == (0 in digits)
    assert ([1, 1] in rows) == (base - 1 in digits)


def test_terminating_value_from_both_seeds_kept_once(monkeypatch):
    # 1/4 = 0.1000... = 0.0333... in base 4 {0,1,3}: both seeds reach it, but
    # only the seed 0/1 builds it, and it is printed once
    real = sieve._orbits
    built = []

    def spy(*args):
        out = real(*args)
        built.extend(out.tolist())
        return out

    monkeypatch.setattr(sieve, "_orbits", spy)
    rows = members_up_to(4, (0, 1, 3), 20).tolist()
    assert built.count([1, 4]) == 1 and rows.count([1, 4]) == 1
    # one seed and nothing built from it: 0.666... = 1 in base 7 {6}; no
    # seed: 0.111... = 1/2 in base 3 {1}
    assert members_up_to(7, (6,), 50).tolist() == [[1, 1]]
    assert members_up_to(3, (1,), 50).tolist() == [[1, 2]]


@pytest.mark.parametrize("base, digits, T", [(4, (0, 1, 3), 80), (7, (0, 3, 4, 6), 60)])
def test_orbit_build_rows_distinct(monkeypatch, base, digits, T):
    # sets with 0, base-1 and a consecutive pair, where a terminating value
    # has two good expansions: neither producer's orbit build hands the
    # value sort a row twice, and its rows are the scalar scan's
    ds = DigitSet(base, digits)
    built = []

    def spy(real):
        def run(*args):
            out = real(*args)
            built.append(out.tolist())
            return out

        return run

    monkeypatch.setattr(sieve, "_orbits", spy(sieve._orbits))
    monkeypatch.setattr(cantor, "_orbits", spy(cantor._orbits))
    want = naive_members(ds, T)
    members_up_to(base, digits, T)
    rng = random.Random(base)
    dens = sorted({base, base**2, base**3, *rng.sample(range(2, 4 * T), 20)})
    got = [Fraction(a, d) for a, d, _, _ in enumerate_members(ds, dens)]
    sieve_rows, cantor_rows = built
    for rows in built:
        assert len(set(map(tuple, rows))) == len(rows)
    assert sorted(Fraction(*r) for r in sieve_rows) == want
    assert all(member(ds, Fraction(*r)) for r in cantor_rows)
    assert got == sorted(
        Fraction(a, d) for d in dens for a in range(d + 1)
        if gcd(a, d) == 1 and member(ds, Fraction(a, d))
    )


def test_descent_work_pinned(monkeypatch):
    # the tree the sieve visits at T = 20000; a change that widens it fails
    # here rather than only running slower. Both sets descend only their
    # prenecklace prefixes, and the leaves keep one row per cycle
    real, real_leaf = sieve._descend, sieve._leaf_members
    for digits, n_rows, most, n_reps in (
        ((0, 2), 11700, (30, 74877, 46577), 334),
        ((0, 1), 8195, (30, 74908, 46412), 254),
    ):
        calls = [0, 0, 0]
        reps = []

        def spy(state, T):
            num, den, final = real(state, T)
            calls[0] += 1
            calls[1] += state.shape[1]
            calls[2] += final.shape[1]
            return num, den, final

        def leaf_spy(*args):
            out = real_leaf(*args)
            reps.extend(out.tolist())
            return out

        monkeypatch.setattr(sieve, "_descend", spy)
        monkeypatch.setattr(sieve, "_leaf_members", leaf_spy)
        rows = members_up_to(3, digits, 20000)
        assert len(rows) == n_rows
        # calls, columns in and columns kept
        assert all(got <= bound for got, bound in zip(calls, most)), (digits, calls)
        assert len(reps) == n_reps


def _reflection_cases():
    rng = random.Random(12)
    cases = [(3, (1,), 40), (5, (0, 2, 4), 300), (7, (3,), 40), (7, (1, 3, 5), 200)]
    for base in range(2, 31):
        for _ in range(2):
            low = {c for c in range(base) if c < base - 1 - c and rng.random() < 0.5}
            if base % 2 and rng.random() < 0.5:
                low.add((base - 1) // 2)
            digits = tuple(sorted(low | {base - 1 - c for c in low}))
            if 0 < len(digits) < base:
                cases.append((base, digits, rng.randrange(1, 70)))
            digits = tuple(sorted(rng.sample(range(base), rng.randrange(1, base))))
            cases.append((base, digits, rng.randrange(1, 70)))
    return cases


@pytest.mark.parametrize("budget", [1, 16, sieve._BUDGET])
def test_sieve_matches_whole_tree_members(monkeypatch, budget):
    # oracle for the prenecklace rule and the orbit build: the whole tree,
    # every candidate walked, gives the same rows, for symmetric and
    # non-symmetric sets alike, at jobs 1 and 2 (past the cut, with a
    # forked child)
    monkeypatch.setattr(sieve, "_BUDGET", budget)
    monkeypatch.setattr(sieve, "_FORK_WORK", 0)
    monkeypatch.setattr(sieve.os, "cpu_count", lambda: 2)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(sieve.os, "fork", counted_fork)
    cases = _reflection_cases()
    assert sum(all(b - 1 - c in d for c in d) for b, d, _ in cases) > 40
    for base, digits, T in cases:
        want = whole_tree_members(base, digits, T)
        for jobs in (1, 2):
            got = members_up_to(base, digits, T, jobs=jobs).tolist()
            assert got == want, (base, digits, T, jobs)
    assert len(forks) > len(cases) / 2
    # the only member of base 3 {1} and base 7 {3} is 1/2, a cycle of one
    # point
    assert members_up_to(3, (1,), 40).tolist() == [[1, 2]]
    assert members_up_to(7, (3,), 40).tolist() == [[1, 2]]


@pytest.mark.parametrize("jobs", [1, 2])
def test_members_up_to_distinct_in_value_order(monkeypatch, jobs):
    # every row once, strictly rising in value, and the whole tree's rows
    # sorted by Fraction; base 5 {0,2,4} finds 1/2 twice, and 1/2 is the
    # only member of base 3 {1}. At jobs 2 the shares run in this process
    monkeypatch.setattr(sieve, "_fork_split", _in_process_split([]))
    monkeypatch.setattr(sieve, "_FORK_WORK", 0)
    monkeypatch.setattr(sieve.os, "cpu_count", lambda: 2)
    cases = _reflection_cases()
    assert (5, (0, 2, 4), 300) in cases and (3, (1,), 40) in cases
    for base, digits, T in cases:
        got = members_up_to(base, digits, T, jobs=jobs).tolist()
        values = [Fraction(*r) for r in got]
        assert all(x < y for x, y in zip(values, values[1:])), (base, digits, T)
        assert got == whole_tree_members(base, digits, T), (base, digits, T)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_sieve_matches_naive_randomized(data):
    base = data.draw(st.integers(min_value=2, max_value=7))
    digits = data.draw(
        st.sets(st.integers(0, base - 1), min_size=1, max_size=base - 1)
    )
    T = data.draw(st.integers(min_value=1, max_value=60))
    ds = DigitSet(base, tuple(digits))
    assert members_up_to(base, ds.digits, T).tolist() == naive_rows(ds, T)


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
    assert count_report(ds, 1).reduced_with == 2
    # members at T = 4: 0, 1, 1/4, 3/4 and the dual-expansion pair 1/3, 2/3
    rep = count_report(ds, 4)
    assert (rep.reduced_with, rep.reduced_without, rep.all_with) == (6, 4, 12)
    assert count_report(ds, 100).reduced_with == 116
    # denominators coprime to 3 only: drops 1/3, 2/3 at T = 4
    assert count_report(ds, 4, coprime_to_b_only=True).reduced_with == 4


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
    assert count_report(ds, T).all_with == pairs
    coprime_pairs = sum(
        1
        for d in range(1, T + 1)
        if gcd(d, 3) == 1
        for a in range(d + 1)
        if member(ds, Fraction(a, d))
    )
    assert count_report(ds, T, coprime_to_b_only=True).all_with == coprime_pairs


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


def test_by_value_exact_above_float_precision():
    # den in (2^60, 2^61), beyond the 2^53 that float64 holds exactly: the
    # members a/d next to 1/3 differ by about 2^-61, while num, den and
    # num/den each round by up to 2^-53 of themselves, so the keys misorder
    # distinct values without making them equal
    rng = random.Random(61)
    pairs = set()
    while len(pairs) < 300:
        d = rng.randrange(2**60, 2**61)
        for a in (d // 3 - 1, d // 3, d // 3 + 1):
            if gcd(a, d) == 1:
                pairs.add((a, d))
    pairs = list(pairs)
    rng.shuffle(pairs)
    rows = np.array(pairs, dtype=np.int64)
    got = [Fraction(a, d) for a, d in _by_value(rows).tolist()]
    assert got == sorted(Fraction(a, d) for a, d in pairs)
