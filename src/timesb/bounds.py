"""Empirical constants for the size inequalities on member denominators.

A fraction a/d can only belong to a digit-restricted set that misses an
epsilon-ball if d is arithmetically special: its largest prime factor P(d)
and its radical rad(d) must both be large relative to d. Each report here
records, for one member, the constant that would turn the relevant
inequality into an equality; aggregating minima over an enumeration gives
the largest constants consistent with the data.

Nothing here certifies a constant. Logarithms are natural, evaluated in
double precision, and comparisons allow 1e-9 relative tolerance; all the
exact work (membership, enumeration) happens elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log, sqrt
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import InvariantError, PreconditionError
from .numtheory import largest_prime, radical
from .orders import OrderProfile
from .rational import frac_str

if TYPE_CHECKING:
    import numpy as np

BRANCH_LARGE = "P>b"
BRANCH_SMALL = "P<b"
REL_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One member's empirical constants.

    lhs is P(d); rhs is the branch-dependent sqrt factor that the unknown
    constant multiplies, so K_emp = lhs/rhs makes the inequality exact.
    """

    base: int
    num: int
    den: int
    epsilon: Fraction
    largest_prime: int
    radical: int
    branch: str
    lhs: float
    rhs: float
    K_emp: float
    c_emp_rad: float
    c_emp_P: float

    def csv_row(self, digits: tuple[int, ...]) -> str:
        cells = (
            self.base,
            ";".join(str(d) for d in digits),
            self.num,
            self.den,
            self.largest_prime,
            self.radical,
            self.branch,
            repr(self.K_emp),
            repr(self.c_emp_rad),
            repr(self.c_emp_P),
        )
        return ",".join(str(c) for c in cells)


BOUNDS_CSV_HEADER = "b,digits,a,d,P,rad,branch,K_emp,c_emp_rad,c_emp_P"


def bound_report(base: int, epsilon: Fraction, x: Fraction) -> BoundReport | None:
    """Evaluate the constants for one member, or None when epsilon*d < 3.

    The small-denominator skip keeps the double logarithm positive; the
    coprimality precondition gcd(a*base, d) = 1 is what rules out P(d) =
    base and makes the two branches exhaustive.
    """
    if base < 2:
        raise PreconditionError(f"base must be >= 2, got {base}")
    if epsilon <= 0:
        raise PreconditionError(f"epsilon must be positive, got {frac_str(epsilon)}")
    a, d = x.numerator, x.denominator
    if gcd(a * base, d) != 1:
        raise PreconditionError(
            f"{frac_str(x)} violates gcd(a*b, d) = 1 for base {base}"
        )
    if epsilon * d < 3:
        return None
    if d == 1:
        raise PreconditionError("denominator 1 has no largest prime factor")
    return _report(base, epsilon, a, d, largest_prime(d), radical(d))


def _report(base: int, epsilon: Fraction, a: int, d: int, P: int, rad: int) -> BoundReport:
    """The constants of member a/d with P = P(d) and rad = rad(d)."""
    if P == base:
        raise InvariantError(
            f"largest prime {P} equals the base despite gcd(a*b, d) = 1"
        )
    # 2*epsilon*d as an int/int true division rounds as float() of it does
    la = log(2 * epsilon.numerator * d / epsilon.denominator)
    lb = log(base)
    if P > base:
        branch = BRANCH_LARGE
        expr = la * log(la) / lb
    else:
        branch = BRANCH_SMALL
        expr = la / lb
    rhs = sqrt(expr)
    ld = log(d)
    return BoundReport(
        base=base,
        num=a,
        den=d,
        epsilon=epsilon,
        largest_prime=P,
        radical=rad,
        branch=branch,
        lhs=float(P),
        rhs=rhs,
        K_emp=P / rhs,
        c_emp_rad=rad / ld,
        c_emp_P=P / sqrt(ld * log(ld)),
    )


def member_bound_reports(base: int, epsilon: Fraction, rows: np.ndarray) -> list[BoundReport]:
    """bound_report of each member row (num, den), in row order, over the
    rows with den > 1 coprime to the base; P(den) and rad(den) come from one
    int32 smallest-prime-factor table up to the largest den."""
    import numpy as np

    rows = rows[(rows[:, 1] > 1) & (np.gcd(rows[:, 1], base) == 1)]
    if rows.size and epsilon <= 0:
        raise PreconditionError(f"epsilon must be positive, got {frac_str(epsilon)}")
    n = int(rows[:, 1].max(initial=1))
    spf = np.arange(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:  # unmarked multiples still hold themselves, all > p
            block = spf[p * p :: p]
            np.minimum(block, p, out=block)
    reports = []
    for a, d in rows.tolist():
        if epsilon.numerator * d < 3 * epsilon.denominator:
            continue
        P, rad, m = 1, 1, d
        while m > 1:  # smallest prime factors come out ascending
            P = int(spf[m])
            rad *= P
            while m % P == 0:
                m //= P
        reports.append(_report(base, epsilon, a, d, P, rad))
    return reports


def aggregate_constants(reports: Iterable[BoundReport]) -> dict:
    """Minima over a report stream: the largest constants the data allows."""
    reports = list(reports)
    if not reports:
        raise PreconditionError("no reports to aggregate")
    return {
        "K_emp_min": min(r.K_emp for r in reports),
        "c_emp_rad_min": min(r.c_emp_rad for r in reports),
        "c_emp_P_min": min(r.c_emp_P for r in reports),
        "count": len(reports),
    }


@dataclass(frozen=True)
class GrowthRow:
    """Slack of one prime's stabilization data against its a-priori caps."""

    prime: int
    stable_exp: int
    stable_cap: float
    cap_exp: int
    cap_cap: float

    @property
    def stable_slack(self) -> float:
        return self.stable_cap - self.stable_exp

    @property
    def cap_slack(self) -> float:
        return self.cap_cap - self.cap_exp

    @property
    def ok(self) -> bool:
        tol = 1 + REL_TOL
        return (
            self.stable_exp <= self.stable_cap * tol
            and self.cap_exp <= self.cap_cap * tol
        )


def stabilization_growth_check(profile: OrderProfile) -> tuple[bool, list[GrowthRow]]:
    """Check every profile prime against the provable growth thresholds.

    The stabilization exponent n_p is bounded by max(3, 2p*log(b)/log(p))
    because a p-adic valuation of x never exceeds log(x)/log(p); the cap
    exponent N_p adds at most the valuation that any other profile prime's
    stabilized order can carry, max_q(n_q*log(q)/log(p)).
    """
    lb = log(profile.base)
    rows = []
    caps: Mapping[int, float] = {
        p: profile.stats(p).stable_exp * log(p) for p in profile.primes
    }
    for p in profile.primes:
        st = profile.stats(p)
        lp = log(p)
        stable_cap = max(3.0, 2 * p * lb / lp)
        cap_cap = st.stable_exp + max(caps[q] / lp for q in profile.primes)
        rows.append(
            GrowthRow(
                prime=p,
                stable_exp=st.stable_exp,
                stable_cap=stable_cap,
                cap_exp=st.cap_exp,
                cap_cap=cap_cap,
            )
        )
    return all(r.ok for r in rows), rows
