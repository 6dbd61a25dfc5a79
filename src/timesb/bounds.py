"""Empirical constants for the size inequalities on member denominators.

A fraction a/d can only belong to a digit-restricted set that misses an
epsilon-ball if d is arithmetically special: its largest prime factor P(d)
and its radical rad(d) must both be large relative to d. Each report here
records, for one member, the constants that would turn the relevant
inequalities into equalities; they depend on d alone, so a stream of members
computes them once per distinct d.  Aggregating minima over an enumeration
gives the largest constants consistent with the data.

Nothing here certifies a constant. Logarithms are natural, evaluated in
double precision, and comparisons allow 1e-9 relative tolerance; all the
exact work (membership, enumeration) happens elsewhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import gcd, log, prod, sqrt
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ._record import record
from .errors import InvariantError, PreconditionError
from .numtheory import factorize
from .orders import OrderProfile
from .rational import frac_str

if TYPE_CHECKING:
    import numpy as np

BRANCH_LARGE = "P>b"
BRANCH_SMALL = "P<b"
REL_TOL = 1e-9


@record
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

    @cached_property
    def den_cells(self) -> str:
        """The CSV row's cells from den on, which depend on den alone."""
        floats = ",".join(map(repr, (self.K_emp, self.c_emp_rad, self.c_emp_P)))
        return f"{self.den},{self.largest_prime},{self.radical},{self.branch},{floats}"

    @cached_property
    def json_row(self) -> str:
        """The compact sorted-key JSON row, with %d where the num "a" goes."""
        return (
            f'{{"K_emp":{self.K_emp!r},"P":{self.largest_prime},"a":%d,'
            f'"branch":"{self.branch}","c_emp_P":{self.c_emp_P!r},'
            f'"c_emp_rad":{self.c_emp_rad!r},"d":{self.den},"rad":{self.radical}}}'
        )


BOUNDS_CSV_HEADER = "b,digits,a,d,P,rad,branch,K_emp,c_emp_rad,c_emp_P"
_SLICE = 1 << 8  # rows that bounds_chunks formats at a time


def _least_reported(epsilon: Fraction) -> int:
    """The least d whose member gets a report, for epsilon > 0: d >= 3 and
    epsilon*d >= 3 keep the double logarithms log log d and
    log log(2*epsilon*d) positive."""
    return max(3, -(-3 * epsilon.denominator // epsilon.numerator))


def bound_report(base: int, epsilon: Fraction, x: Fraction) -> BoundReport | None:
    """Evaluate the constants for one member, or None when d < 3 or
    epsilon*d < 3 (see _least_reported).

    The coprimality precondition gcd(a*base, d) = 1 is what rules out P(d) =
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
    if d == 1:
        raise PreconditionError("denominator 1 has no largest prime factor")
    if d < _least_reported(epsilon):
        return None
    return _report(base, epsilon, a, d)


def _report(base: int, epsilon: Fraction, a: int, d: int) -> BoundReport:
    """The constants of member a/d, with P(d) and rad(d) from one
    factorization of d."""
    primes = factorize(d)
    P, rad = max(primes), prod(primes)
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


def member_bound_reports(
    base: int, epsilon: Fraction, rows: np.ndarray
) -> tuple[np.ndarray, dict[int, BoundReport]]:
    """The member rows (num, den) that get a report, in row order: den
    coprime to the base and kept by _least_reported; and the report of each
    of their dens, made as bound_report makes it, with the den's first num."""
    import numpy as np

    rows = rows[(rows[:, 1] > 1) & (np.gcd(rows[:, 1], base) == 1)]
    if rows.size:
        if epsilon <= 0:
            raise PreconditionError(f"epsilon must be positive, got {frac_str(epsilon)}")
        # every den is below 2^62, and so is the bound compared in int64
        rows = rows[rows[:, 1] >= min(_least_reported(epsilon), 2**62)]
    # each den's first row, from a stable sort (np.unique imports numpy.ma)
    order = np.argsort(rows[:, 1], kind="stable")
    first = order[np.diff(rows[order, 1], prepend=0) != 0]
    reports = {d: _report(base, epsilon, a, d) for a, d in rows[first].tolist()}
    return rows, reports


def bounds_chunks(
    base: int,
    digits: tuple[int, ...],
    epsilon: Fraction,
    max_den: int,
    jobs: int,
    fmt: str,
) -> Iterator[str]:
    """The bounds command's stdout in CSV or JSON (fmt), a slice of
    member rows at a time, over sieve.members_up_to(base, digits, max_den,
    jobs): every report is made, and every precondition checked, before the
    first text. A den's rows share its report, so the summary's minima are
    taken over the distinct reports and its count is the number of rows."""
    # imported here: profile uses this module and never the sieve
    from .sieve import members_up_to

    rows, reports = member_bound_reports(
        base, epsilon, members_up_to(base, digits, max_den, jobs)
    )
    summary = aggregate_constants(reports.values()) if reports else {}
    summary.update(
        {
            "count": len(rows),
            "base": base,
            "digits": list(digits),
            "epsilon": frac_str(epsilon),
            "max_den": max_den,
            "log": "natural",
        }
    )
    summary = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    slices = (rows[i : i + _SLICE].tolist() for i in range(0, len(rows), _SLICE))
    if fmt == "json":
        yield '{"rows":['
        for i, part in enumerate(slices):
            yield ("," if i else "") + ",".join([reports[d].json_row % a for a, d in part])
        yield f'],"summary":{summary}}}\n'
        return
    head = f"{base},{';'.join(map(str, digits))},"
    yield f"{BOUNDS_CSV_HEADER}\n"
    for part in slices:
        yield "".join([f"{head}{a},{reports[d].den_cells}\n" for a, d in part])
    yield f"\n{summary}\n"


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


@record
class GrowthRow:
    """Slack of one prime's stabilization data against its a-priori caps."""

    prime: int
    stable_exp: int
    stable_cap: float
    cap_exp: int
    cap_cap: float

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
