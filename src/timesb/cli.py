"""Command line surface for the whole pipeline.

Every subcommand prints machine-readable data to stdout (JSON, JSON-lines,
or CSV), keeps progress chatter on stderr, and is deterministic for a fixed
argument vector: parallelism degree never changes output bytes. Exact
quantities travel as "a/d" strings; floating point appears only in the
empirical-constant reports.

Exit codes: 0 success, 2 precondition violation (including argument
errors), out of memory, a closed stdout or an interrupt, 3 internal
invariant failure or a dead worker process.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import sys
from fractions import Fraction
from math import gcd, prod
from types import ModuleType

from .errors import InvariantError, PreconditionError
from .numtheory import factorize, mult_order_bruteforce
from .orbit import decompose, density_bound, orbit
from .orders import build_profile, order_from_profile
from .rational import frac_str, parse_fraction


def _on_first_use(child: str) -> ModuleType:
    """The submodule `child`, entered in sys.modules now and run on its first
    attribute access: a command that never uses it never compiles it, while
    code that looks for every timesb layer in sys.modules once this module
    is imported (perfbench's tracer) still finds it there."""
    name = f"{__package__}.{child}"
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        setattr(sys.modules[__package__], child, module)
        spec.loader.exec_module(module)
    return sys.modules[name]


bounds = _on_first_use("bounds")
cantor = _on_first_use("cantor")
sieve = _on_first_use("sieve")

BRUTE_VERIFY_LIMIT = 10**6


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except PreconditionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _default_jobs() -> int:
    env = os.environ.get("TIMESB_JOBS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_order(args) -> int:
    if args.modulus is None:
        if not args.primes or not args.exponents:
            raise PreconditionError(
                "order needs --modulus, or --primes with --exponents"
            )
        if len(args.primes) != len(args.exponents):
            raise PreconditionError("--primes and --exponents differ in length")
        if len(set(args.primes)) != len(args.primes):
            raise PreconditionError(f"--primes repeats a prime: {args.primes}")
        modulus = prod(p**e for p, e in zip(args.primes, args.exponents))
        primes = sorted(args.primes)
        exponents = dict(zip(args.primes, args.exponents))
    else:
        modulus = args.modulus
        if modulus < 1:
            raise PreconditionError(f"modulus must be >= 1, got {modulus}")
        fact = factorize(modulus)
        primes = list(fact.primes)
        exponents = dict(fact)
    if modulus == 1:
        _emit({"base": args.base, "modulus": 1, "order": 1, "verified": True})
        return 0
    profile = build_profile(args.base, primes)
    order = order_from_profile(profile, exponents)
    verified = None
    if modulus <= BRUTE_VERIFY_LIMIT:
        verified = mult_order_bruteforce(args.base, modulus) == order
        if not verified:
            raise InvariantError(
                f"formula order {order} disagrees with brute force for "
                f"base {args.base} modulus {modulus}"
            )
    _emit(
        {
            "base": args.base,
            "modulus": modulus,
            "order": order,
            "verified": verified,
        }
    )
    return 0


def cmd_profile(args) -> int:
    profile = build_profile(args.base, args.primes)
    ok, rows = bounds.stabilization_growth_check(profile)
    out = profile.to_json_dict()
    out["growth_ok"] = ok
    out["growth"] = [
        {
            "prime": r.prime,
            "n": r.stable_exp,
            "n_cap": r.stable_cap,
            "N": r.cap_exp,
            "N_cap": r.cap_cap,
        }
        for r in rows
    ]
    _emit(out)
    return 0


def cmd_orbit(args) -> int:
    x = args.frac
    if args.decompose:
        if not args.primes:
            raise PreconditionError("--decompose needs --primes")
        profile = build_profile(args.base, args.primes)
        print(decompose(profile, x).to_json())
    else:
        print(orbit(args.base, x).to_json())
    return 0


def cmd_density(args) -> int:
    profile = build_profile(args.base, args.primes)
    bound = density_bound(profile, args.epsilon)
    _emit(
        {
            "base": args.base,
            "primes": list(profile.primes),
            "epsilon": frac_str(args.epsilon),
            "cap_modulus": profile.cap_modulus(),
            "D": frac_str(bound),
            "max_denominator": int(bound),
        }
    )
    return 0


def cmd_certify(args) -> int:
    ds = cantor.DigitSet(args.base, tuple(args.digits))
    profile = build_profile(args.base, args.primes)
    cert = cantor.enumerate_s_integers(ds, profile, args.epsilon)
    _emit(cert.to_json_dict())
    return 0


def cmd_member(args) -> int:
    ds = cantor.DigitSet(args.base, tuple(args.digits))
    w = cantor.member_witness(ds, args.frac)
    _emit(
        {
            "base": args.base,
            "digits": list(ds.digits),
            "fraction": frac_str(args.frac),
            "member": w is not None,
            "witness": None
            if w is None
            else {"preperiod": list(w.preperiod), "period": list(w.period)},
        }
    )
    return 0


def cmd_expand(args) -> int:
    info = cantor.expand(args.base, args.frac)
    dual = cantor.dual_expansion(info)
    out = info.to_json_dict()
    out["base"] = args.base
    out["fraction"] = frac_str(args.frac)
    out["dual"] = (
        None
        if dual is None
        else {"preperiod": list(dual.preperiod), "period": list(dual.period)}
    )
    _emit(out)
    return 0


_DEN_FORM_HELP = "denominator family like 2^k (with --max-exp bounding k)"


def _json_line(num: int, den: int, pre, period) -> str:
    # the bytes of _emit's sorted-key JSON, written directly for int fields
    return (
        f'{{"den":{den},"num":{num},"period":[{",".join(map(str, period))}],'
        f'"preperiod":[{",".join(map(str, pre))}]}}\n'
    )


def _enumerate_lines(args, ds: cantor.DigitSet) -> list[str]:
    """The JSON line of every member, value-ascending."""
    sources = sum(
        1 for flag in (args.den_form, args.max_den, args.denominators) if flag
    )
    if sources != 1:
        raise PreconditionError(
            "enumerate needs exactly one of --den-form, --max-den, --denominators"
        )
    if args.max_den:
        if args.max_den >= 10**5:
            _progress(f"enumerating members with denominators up to {args.max_den}")
        rows = sieve.members_up_to(ds.base, ds.digits, args.max_den, args.jobs)
        rows = cantor._by_value(rows)
        return [_json_line(*w) for w in cantor._witness_rows(ds, rows)]
    if args.den_form:
        head, sep, tail = args.den_form.partition("^")
        if sep != "^" or tail != "k" or not head.isdigit() or int(head) < 2:
            raise PreconditionError(f"bad --den-form {args.den_form!r}, want e.g. 2^k")
        if args.max_exp is None:
            raise PreconditionError("--den-form needs --max-exp")
        base = int(head)
        dens = [base**k for k in range(args.max_exp + 1)]
    else:
        dens = args.denominators
    pairs = sorted(cantor.enumerate_members(ds, dens), key=lambda pair: pair[0])
    return [
        _json_line(x.numerator, x.denominator, w.preperiod, w.period)
        for x, w in pairs
    ]


def cmd_enumerate(args) -> int:
    ds = cantor.DigitSet(args.base, tuple(args.digits))
    # every line is built before the first is written, so that a row with
    # no good expansion leaves stdout empty
    sys.stdout.writelines(_enumerate_lines(args, ds))
    return 0


def cmd_count(args) -> int:
    ds = cantor.DigitSet(args.base, tuple(args.digits))
    if args.max_den >= 10**5:
        _progress(f"counting members with denominators up to {args.max_den}")
    rep = cantor.count_report(
        ds, args.max_den, coprime_to_b_only=args.coprime, jobs=args.jobs
    )
    if args.format == "json":
        _emit(rep.to_json_dict())
        return 0
    rows = rep.csv_rows()
    if args.reduced and not args.all:
        print("T,count_reduced,includes_endpoints")
        for T, red, _, flag in rows:
            print(f"{T},{red},{flag}")
    elif args.all and not args.reduced:
        print("T,count_all,includes_endpoints")
        for T, _, full, flag in rows:
            print(f"{T},{full},{flag}")
    else:
        print(rep.to_csv(), end="")
    return 0


def cmd_bounds(args) -> int:
    ds = cantor.DigitSet(args.base, tuple(args.digits))
    eps = args.epsilon if args.epsilon is not None else ds.epsilon_exact
    if args.max_den >= 10**5:
        _progress(f"enumerating members up to {args.max_den} for bound reports")
    rows = sieve.members_up_to(ds.base, ds.digits, args.max_den, args.jobs)
    rows = cantor._by_value(rows)
    reports = bounds.member_bound_reports(ds.base, eps, rows)
    summary = bounds.aggregate_constants(reports) if reports else {"count": 0}
    summary.update(
        {
            "base": ds.base,
            "digits": list(ds.digits),
            "epsilon": frac_str(eps),
            "max_den": args.max_den,
            "log": "natural",
        }
    )
    if args.format == "json":
        _emit(
            {
                "rows": [
                    {
                        "a": r.num,
                        "d": r.den,
                        "P": r.largest_prime,
                        "rad": r.radical,
                        "branch": r.branch,
                        "K_emp": r.K_emp,
                        "c_emp_rad": r.c_emp_rad,
                        "c_emp_P": r.c_emp_P,
                    }
                    for r in reports
                ],
                "summary": summary,
            }
        )
        return 0
    print(bounds.BOUNDS_CSV_HEADER)
    for r in reports:
        print(r.csv_row(ds.digits))
    print()
    _emit(summary)
    return 0


def _verify_orders(rng: random.Random, trials: int) -> None:
    pool = (2, 3, 5, 7, 11, 13)
    for _ in range(trials):
        b = rng.randrange(2, 13)
        usable = [p for p in pool if b % p != 0]
        S = sorted(rng.sample(usable, rng.randrange(1, len(usable) + 1)))
        profile = build_profile(b, S)
        dens = cantor.smooth_denominators(S, 10**4)
        d = rng.choice(dens)
        got = order_from_profile(profile, dict(factorize(d))) if d > 1 else 1
        want = mult_order_bruteforce(b, d)
        if got != want:
            raise InvariantError(f"order mismatch: base {b} modulus {d} {got} != {want}")


def _verify_decompose(rng: random.Random, trials: int) -> None:
    for _ in range(trials):
        b = rng.randrange(2, 11)
        d = rng.randrange(2, 10**4)
        while gcd(d, b) != 1:
            d = rng.randrange(2, 10**4)
        a = rng.randrange(1, d)
        primes = sorted(factorize(d).primes)
        profile = build_profile(b, primes)
        decompose(profile, Fraction(a, d))  # raises InvariantError on mismatch


def _verify_reconstruction(rng: random.Random, trials: int) -> None:
    for _ in range(trials):
        b = rng.randrange(2, 11)
        d = rng.randrange(1, 2001)
        a = rng.randrange(0, d)
        x = Fraction(a, d)
        info = cantor.expand(b, x)
        if info.value() != x:
            raise InvariantError(f"expansion of {x} in base {b} does not reconstruct")


def _scan_members(ds: cantor.DigitSet, dens) -> list[Fraction]:
    """Every reduced member a/d over dens, ascending, one scalar membership
    test each: the route that does not use the vectorized walk."""
    return sorted(
        Fraction(a, d)
        for d in dens
        for a in range(d + 1)
        if gcd(a, d) == 1 and cantor._witness_digits(ds, a, d) is not None
    )


def _verify_cosets(rng: random.Random, trials: int) -> None:
    for _ in range(trials):
        b = rng.randrange(2, 7)
        size = rng.randrange(1, b)
        digits = tuple(sorted(rng.sample(range(b), size)))
        ds = cantor.DigitSet(b, digits)
        d = rng.randrange(2, 400)
        got = [x for x, _ in cantor.enumerate_members(ds, [d])]
        if got != _scan_members(ds, [d]):
            raise InvariantError(f"coset enumeration mismatch at base {b} d {d}")


def _seeded_certificate(rng: random.Random):
    # base 2-10, a digit subset that is not full, S of 1-3 primes not
    # dividing the base; returns S and the certificate
    pool = (2, 3, 5, 7, 11, 13)
    b = rng.randrange(2, 11)
    digits = tuple(sorted(rng.sample(range(b), rng.randrange(1, b))))
    usable = [p for p in pool if b % p != 0]
    S = sorted(rng.sample(usable, rng.randrange(1, min(3, len(usable)) + 1)))
    ds = cantor.DigitSet(b, digits)
    return S, cantor.enumerate_s_integers(ds, build_profile(b, S))


def _verify_lattice_exclusion(rng: random.Random, trials: int) -> None:
    # the certificate walks only denominators whose 1/d0 lattice can miss the
    # digit-free gap; the oracle walks every S-smooth d up to a small cap
    cap = 5000
    for _ in range(trials):
        S, cert = _seeded_certificate(rng)
        ds = cert.digit_set
        dens = cantor.smooth_denominators(S, min(cert.max_denominator, cap))
        want = sorted(cantor.enumerate_members(ds, dens), key=lambda pair: pair[0])
        got = [pair for pair in cert.members if pair[0].denominator <= cap]
        if got != want:
            raise InvariantError(
                f"lattice exclusion lost members: base {ds.base} "
                f"digits {ds.digits} primes {S}"
            )


def _verify_sieve_certificate(rng: random.Random, trials: int) -> None:
    # two routes to the members with S-smooth d <= T: the sieve's digit tree
    # over every d, and the certificate's per-denominator descent over the d
    # its lattice exclusion keeps
    for _ in range(trials):
        S, cert = _seeded_certificate(rng)
        ds = cert.digit_set
        T = min(cert.max_denominator, 1000)
        smooth = set(cantor.smooth_denominators(S, T))
        sieved = [
            (n, d)
            for n, d in sieve.members_up_to(ds.base, ds.digits, T).tolist()
            if d in smooth
        ]
        certified = sorted(
            (x.denominator, x.numerator) for x, _ in cert.members if x.denominator <= T
        )
        if sieved != [(n, d) for d, n in certified]:
            raise InvariantError(
                f"sieve differs from the certificate: base {ds.base} "
                f"digits {ds.digits} primes {S} T {T}"
            )


def _verify_sieve(rng: random.Random, trials: int) -> None:
    # the sieve's resumed descents, pruning and leaf walks against the
    # scalar membership test of every a/d with d <= T
    for _ in range(trials):
        b = rng.randrange(2, 11)
        digits = tuple(sorted(rng.sample(range(b), rng.randrange(1, b))))
        ds = cantor.DigitSet(b, digits)
        T = rng.randrange(1, 301)
        got = cantor.reduced_members_up_to(ds, T)
        if got != _scan_members(ds, range(1, T + 1)):
            raise InvariantError(
                f"sieve differs from the scalar scan: base {b} digits {digits} T {T}"
            )


def _verify_count_invariance(rng: random.Random, trials: int) -> None:
    for _ in range(trials):
        b = rng.randrange(2, 6)
        size = rng.randrange(1, b)
        digits = tuple(sorted(rng.sample(range(b), size)))
        ds = cantor.DigitSet(b, digits)
        T = rng.randrange(1, 300)
        serial = cantor.count_report(ds, T, jobs=1)
        parallel = cantor.count_report(ds, T, jobs=2)
        if serial != parallel:
            raise InvariantError(f"count changed under parallelism: {ds} T {T}")


def _verify_growth(rng: random.Random, trials: int) -> None:
    primes_pool = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    for _ in range(trials):
        b = rng.randrange(2, 51)
        usable = [p for p in primes_pool if b % p != 0]
        S = sorted(rng.sample(usable, rng.randrange(1, 5)))
        ok, rows = bounds.stabilization_growth_check(build_profile(b, S))
        if not ok:
            raise InvariantError(f"growth threshold exceeded for base {b} primes {S}")


_VERIFY_CHECKS = (
    ("order_formula_vs_bruteforce", _verify_orders),
    ("orbit_decomposition_identity", _verify_decompose),
    ("expansion_reconstruction", _verify_reconstruction),
    ("coset_enumeration_vs_scan", _verify_cosets),
    ("lattice_exclusion_vs_walk", _verify_lattice_exclusion),
    ("sieve_vs_coset_walk", _verify_sieve),
    ("count_parallel_invariance", _verify_count_invariance),
    ("stabilization_growth_thresholds", _verify_growth),
    ("sieve_vs_certificate", _verify_sieve_certificate),
)


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    for name, check in _VERIFY_CHECKS:
        trials = args.trials
        if name == "count_parallel_invariance":
            trials = max(1, args.trials // 10)  # spawns worker pools, keep light
        check(random.Random(rng.randrange(2**63)), trials)
        print(f"ok {name} ({trials} trials)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="timesb",
        description="multiply-by-b dynamics, digit-restricted sets, and their rational points",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--base", type=int, required=True, help="expansion base b >= 2")
        return p

    p = add("order", cmd_order, help="multiplicative order of b modulo d")
    p.add_argument("--modulus", type=int)
    p.add_argument("--primes", type=_int_list)
    p.add_argument("--exponents", type=_int_list)

    p = add("profile", cmd_profile, help="stabilization/cap exponents for a prime set")
    p.add_argument("--primes", type=_int_list, required=True)

    p = add("orbit", cmd_orbit, help="forward orbit of a fraction under x -> b*x mod 1")
    p.add_argument("--frac", type=_fraction_arg, required=True)
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--primes", type=_int_list)

    p = add("density", cmd_density, help="denominator bound D for epsilon-density")
    p.add_argument("--primes", type=_int_list, required=True)
    p.add_argument("--epsilon", type=_fraction_arg, required=True)

    p = add("certify", cmd_certify, help="finite list of smooth-denominator members")
    p.add_argument("--digits", type=_int_list, required=True)
    p.add_argument("--primes", type=_int_list, required=True)
    p.add_argument("--epsilon", type=_fraction_arg)

    p = add("member", cmd_member, help="decide membership of a fraction")
    p.add_argument("--digits", type=_int_list, required=True)
    p.add_argument("--frac", type=_fraction_arg, required=True)

    p = add("expand", cmd_expand, help="canonical base-b expansion of a fraction")
    p.add_argument("--frac", type=_fraction_arg, required=True)

    p = add("enumerate", cmd_enumerate, help="stream members as JSON lines")
    p.add_argument("--digits", type=_int_list, required=True)
    p.add_argument("--den-form", help=_DEN_FORM_HELP)
    p.add_argument("--max-exp", type=int)
    p.add_argument("--max-den", type=int)
    p.add_argument("--denominators", type=_int_list)
    p.add_argument("--jobs", "-j", type=int, default=_default_jobs())

    p = add("count", cmd_count, help="count members below a denominator bound")
    p.add_argument("--digits", type=_int_list, required=True)
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--reduced", action="store_true", help="report reduced-fraction counts")
    p.add_argument("--all", action="store_true", help="report all-pairs counts")
    p.add_argument("--coprime", action="store_true", help="denominators coprime to b only")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", "-j", type=int, default=_default_jobs())

    p = add("bounds", cmd_bounds, help="empirical constants over enumerated members")
    p.add_argument("--digits", type=_int_list, required=True)
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--epsilon", type=_fraction_arg)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", "-j", type=int, default=_default_jobs())

    p = sub.add_parser("verify", help="seeded randomized self-checks")
    p.set_defaults(func=cmd_verify)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return ap


def main(argv=None) -> int:
    # nothing here calls BLAS, but numpy's bundled OpenBLAS starts a pool of
    # threads when numpy is imported unless this says otherwise
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # fd 1 goes to devnull, or the interpreter's last flush raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("stdout closed before all output was written", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("out of memory: ask for less work", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
