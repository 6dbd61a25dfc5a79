"""Independent brute-force oracles used to freeze golden values.

Nothing here imports the package under test. Membership is decided by a
mask-doubling walk over residues, prime data comes from a smallest-prime-
factor sieve, and the constants are evaluated with the same expression
shapes the package documents (float64, natural log), so agreement is exact.

Run  python3 tests/oracles.py  to regenerate tests/data/bounds_golden.json.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, log, sqrt
from pathlib import Path

import numpy as np

DATA = Path(__file__).parent / "data"


def member_mask(base: int, digits: tuple[int, ...], den: int) -> np.ndarray:
    """Boolean mask over residues r: is r/den in C(base, digits)?

    Requires gcd(den, base) = 1, so every r/den has a unique, purely
    periodic expansion and a doubling AND-walk over the digit stream decides
    membership once the window covers a full period (2^rounds >= den).
    """
    if gcd(den, base) != 1:
        raise ValueError("mask oracle needs gcd(den, base) = 1")
    good = np.zeros(base, dtype=bool)
    good[list(digits)] = True
    r = np.arange(den, dtype=np.int64)
    mask = good[(base * r) // den]
    perm = (base * r) % den
    span = 1
    while span < den and mask.any():
        mask = mask & mask[perm]
        perm = perm[perm]
        span *= 2
    return mask


def reduced_members_oracle(base: int, digits: tuple[int, ...], den: int) -> list[int]:
    """Numerators a with gcd(a, den) = 1 and a/den a member (den >= 2)."""
    mask = member_mask(base, digits, den)
    return [
        a for a in range(1, den) if mask[a] and gcd(a, den) == 1
    ]


def simplest_fraction(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> tuple[int, int]:
    """(num, den) of the fraction with the smallest denominator in the closed
    interval [lo_num/lo_den, hi_num/hi_den], 0 <= lo <= hi; among integers
    the smallest.

    Textbook recursion on the integer part, Python ints throughout: when
    both endpoints lie strictly inside (a, a+1), the answer is a + 1/y for
    the simplest y in [1/(hi - a), 1/(lo - a)].
    """
    a, rem = divmod(lo_num, lo_den)
    if rem == 0:
        return a, 1
    if (a + 1) * hi_den <= hi_num:
        return a + 1, 1
    n, d = simplest_fraction(hi_den, hi_num - a * hi_den, lo_den, rem)
    return a * n + d, n


def factor_bruteforce(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1 by trial division by every k >= 2."""
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            e = 0
            while n % k == 0:
                n //= k
                e += 1
            out.append((k, e))
        k += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def orbit_oracle(base: int, x: Fraction) -> tuple[list[Fraction], int]:
    """Points of the orbit of x under y -> (b*y) % 1 up to the first repeat,
    by plain Fraction iteration, and the index where the cycle starts."""
    seen: dict[Fraction, int] = {}
    points: list[Fraction] = []
    while x not in seen:
        seen[x] = len(points)
        points.append(x)
        x = (base * x) % 1
    return points, seen[x]


def remainder_walk_oracle(base: int, num: int, den: int, good=None):
    """Remainders num, b*num mod den, ... up to the first repeat, kept in a
    dict that finds the repeat, and the index where the cycle starts; with a
    digit table good, (remainders so far, None) at the first remainder r
    whose digit b*r // den is not good."""
    seen: dict[int, int] = {}
    rems: list[int] = []
    r = num
    while r not in seen:
        if good is not None and not good[base * r // den]:
            return rems, None
        seen[r] = len(rems)
        rems.append(r)
        r = base * r % den
    return rems, seen[r]


def witness_oracle(base: int, digits, x: Fraction):
    """(preperiod, period) digit tuples of an expansion of x in [0, 1] using
    only the given digits, or None: the greedy digits floor(b*y) along the
    Fraction orbit, else the other expansion of a terminating x."""
    good = set(digits)
    if x == 1:
        return ((), (base - 1,)) if base - 1 in good else None
    points, cut = orbit_oracle(base, x)
    greedy = [int(base * y) for y in points]
    if good.issuperset(greedy):
        return tuple(greedy[:cut]), tuple(greedy[cut:])
    if points[cut] == 0 and cut:
        head = greedy[:cut - 1] + [greedy[cut - 1] - 1]
        if good.issuperset(head + [base - 1]):
            return tuple(head), (base - 1,)
    return None


def coprime_part(d: int, base: int) -> int:
    """Largest divisor of d >= 1 coprime to base >= 2."""
    g = gcd(d, base)
    while g > 1:
        d //= g
        g = gcd(d, base)
    return d


def cover_radius_oracle(points) -> Fraction:
    """sup over x in [0,1] of the distance from x to a non-empty point set in
    [0,1], from the sorted Fractions: end gaps count in full, interior gaps
    at half."""
    pts = sorted(set(points))
    worst = max(pts[0], 1 - pts[-1])
    for a, b in zip(pts, pts[1:]):
        worst = max(worst, (b - a) / 2)
    return worst


def spf_sieve(limit: int) -> np.ndarray:
    """smallest prime factor for every n <= limit (spf[0] = spf[1] = 0)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p] = np.where(spf[p::p] == 0, p, spf[p::p])
    return spf


def prime_data(n: int, spf: np.ndarray) -> tuple[int, int]:
    """(largest prime factor, radical) via repeated spf division."""
    P = 0
    rad = 1
    while n > 1:
        p = int(spf[n])
        P = max(P, p)
        rad *= p
        while n % p == 0:
            n //= p
    return P, rad


def constants_row(base: int, epsilon: Fraction, a: int, d: int, P: int, rad: int):
    two_eps_d = float(2 * epsilon * d)
    la = log(two_eps_d)
    lb = log(base)
    if P > base:
        branch = "P>b"
        expr = la * log(la) / lb
    else:
        branch = "P<b"
        expr = la / lb
    rhs = sqrt(expr)
    ld = log(d)
    return {
        "a": a,
        "d": d,
        "P": P,
        "rad": rad,
        "branch": branch,
        "K_emp": P / rhs,
        "c_emp_rad": rad / ld,
        "c_emp_P": P / sqrt(ld * log(ld)),
    }


def build_bounds_golden(
    base: int = 3,
    digits: tuple[int, ...] = (0, 2),
    epsilon: Fraction = Fraction(1, 6),
    max_den: int = 100_000,
) -> dict:
    spf = spf_sieve(max_den)
    rows = []
    for d in range(2, max_den + 1):
        if gcd(d, base) != 1 or epsilon * d < 3:
            continue
        numerators = reduced_members_oracle(base, digits, d)
        if not numerators:
            continue
        P, rad = prime_data(d, spf)
        for a in numerators:
            rows.append(constants_row(base, epsilon, a, d, P, rad))
    if not rows:
        raise RuntimeError("empty golden: nothing enumerated")

    def argmin(key):
        best = min(rows, key=lambda r: r[key])
        return [best["a"], best["d"]]

    branches = {}
    for r in rows:
        branches[r["branch"]] = branches.get(r["branch"], 0) + 1
    return {
        "base": base,
        "digits": list(digits),
        "epsilon": f"{epsilon.numerator}/{epsilon.denominator}",
        "max_den": max_den,
        "count": len(rows),
        "K_emp_min": min(r["K_emp"] for r in rows),
        "c_emp_rad_min": min(r["c_emp_rad"] for r in rows),
        "c_emp_P_min": min(r["c_emp_P"] for r in rows),
        "argmin_K": argmin("K_emp"),
        "argmin_rad": argmin("c_emp_rad"),
        "argmin_P": argmin("c_emp_P"),
        "branch_counts": branches,
    }


def main():
    DATA.mkdir(exist_ok=True)
    golden = build_bounds_golden()
    out = DATA / "bounds_golden.json"
    with open(out, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}: count={golden['count']} K_emp_min={golden['K_emp_min']}")


if __name__ == "__main__":
    main()


# ---------------------------------------------------------------------------
# grid lower bound for the sup-distance: exact distance to the depth-L
# interval approximant, computed in scaled integers (no floats anywhere)


def digits_of(value: int, base: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(value % base)
        value //= base
    return out[::-1]


def largest_allowed_leq(digits, base: int, length: int, W: int):
    """Largest `length`-digit base-`base` integer over `digits` that is <= W."""
    if W < 0:
        return None
    maxd = digits[-1]
    maxval = maxd * (base**length - 1) // (base - 1)
    if W >= maxval:
        return maxval
    allowed = set(digits)
    w = digits_of(W, base, length)
    fail = length
    for j, d in enumerate(w):
        if d not in allowed:
            fail = j
            break
    if fail == length:
        return W
    for jp in range(fail, -1, -1):
        lows = [d for d in digits if d < w[jp]]
        if lows:
            val = 0
            for d in w[:jp]:
                val = val * base + d
            val = val * base + max(lows)
            for _ in range(length - jp - 1):
                val = val * base + maxd
            return val
    return None


def smallest_allowed_geq(digits, base: int, length: int, W: int):
    """Smallest `length`-digit base-`base` integer over `digits` that is >= W."""
    mind = digits[0]
    minval = mind * (base**length - 1) // (base - 1)
    if W <= minval:
        return minval
    maxval = digits[-1] * (base**length - 1) // (base - 1)
    if W > maxval:
        return None
    allowed = set(digits)
    w = digits_of(W, base, length)
    fail = length
    for j, d in enumerate(w):
        if d not in allowed:
            fail = j
            break
    if fail == length:
        return W
    for jp in range(fail, -1, -1):
        highs = [d for d in digits if d > w[jp]]
        if highs:
            val = 0
            for d in w[:jp]:
                val = val * base + d
            val = val * base + min(highs)
            for _ in range(length - jp - 1):
                val = val * base + mind
            return val
    return None


def approx_dist_scaled(base: int, digits, depth: int, grid_den: int, i: int) -> int:
    """dist(i/grid_den, union of closed intervals [v/b^depth, (v+1)/b^depth])
    over allowed digit strings v, scaled by b^depth * grid_den. Exact."""
    BL = base**depth
    xs = i * BL
    W1 = xs // grid_den
    W0 = -((-(xs - grid_den)) // grid_den)
    vb = largest_allowed_leq(digits, base, depth, min(W1, BL - 1))
    if vb is not None and vb >= W0:
        return 0
    best = None
    if vb is not None:
        best = xs - (vb + 1) * grid_den
    va = smallest_allowed_geq(digits, base, depth, max(W0, 0))
    if va is not None:
        d2 = va * grid_den - xs
        if best is None or d2 < best:
            best = d2
    if best is None:
        raise RuntimeError("non-empty digit set must give a nearest interval")
    return best
