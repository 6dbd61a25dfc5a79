"""Command line surface for the whole pipeline.

Every subcommand prints machine-readable data to stdout (JSON, JSON-lines,
or CSV), keeps progress chatter on stderr, and is deterministic for a fixed
argument vector: parallelism degree never changes output bytes. Exact
quantities travel as "a/d" strings; floating point appears only in the
empirical-constant reports.

Exit codes: 0 success, 2 precondition violation (including argument
errors), out of memory, a closed or full stdout, a fork the system refused
or an interrupt, 3 internal invariant failure or a dead worker process.
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
from typing import Iterator

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


def _jobs_arg(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _default_jobs() -> int:
    env = os.environ.get("TIMESB_JOBS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj) -> None:
    print(_dumps(obj))


def _progress(msg: str) -> None:
    """Print msg on stderr. A closed or full stderr loses the message, not
    the run: fd 2 goes to devnull, so no later write or final flush raises."""
    try:
        print(msg, file=sys.stderr, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


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
        exponents = dict(zip(args.primes, args.exponents))
    else:
        modulus = args.modulus
        if modulus < 1:
            raise PreconditionError(f"modulus must be >= 1, got {modulus}")
        exponents = factorize(modulus)
    if modulus == 1:
        _emit({"base": args.base, "modulus": 1, "order": 1, "verified": True})
        return 0
    profile = build_profile(args.base, exponents)
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
        record = decompose(profile, x)
    else:
        record = orbit(args.base, x)
    sys.stdout.writelines(record.json_chunks())
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
            "witness": None if w is None else w.to_json_dict(),
        }
    )
    return 0


def cmd_expand(args) -> int:
    info = cantor.expand(args.base, args.frac)
    dual = cantor.dual_expansion(info)
    out = info.to_json_dict()
    out["base"] = args.base
    out["fraction"] = frac_str(args.frac)
    out["dual"] = None if dual is None else dual.to_json_dict()
    _emit(out)
    return 0


_DEN_FORM_HELP = "denominator family like 2^k (with --max-exp bounding k)"
_JOBS_HELP = (
    "walk the digit tree in at most N processes (default: $TIMESB_JOBS, else 1); "
    "a tree too small to gain from more is walked in one"
)
# rows whose lines are built at once: a whole chunk's lines and their ints
# would need fresh memory for small objects once the sieve is done
_LINES = 256


def _json_lines(ds: cantor.DigitSet, chunk: tuple) -> Iterator[str]:
    """_emit's sorted-key JSON line of every row of a cantor._witness_chunks
    chunk, _LINES rows' lines to a string: the digits' text ",c,c,.." is
    written once, and each row's lists are slices of it (past their first
    comma, so an empty list is "")."""
    import numpy as np

    num, den, digits, off, cut = chunk
    glyphs = [f",{c}".encode() for c in ds.digits]
    at = np.searchsorted(np.array(ds.digits), digits)
    raw = np.array(glyphs)[at].view(np.uint8)  # NUL-padded to the widest
    text = raw[raw != 0].tobytes().decode()
    char = np.zeros(at.size + 1, dtype=np.int64)
    np.cumsum(np.array([len(g) for g in glyphs])[at], out=char[1:])
    cols = (num, den, char[off[:-1]] + 1, char[cut], char[off[1:]])
    del at, raw, char  # per-digit, not held while the lines are built
    for i in range(0, num.size, _LINES):
        yield "".join([
            f'{{"den":{n},"num":{a},"period":[{text[k + 1 : e]}],"preperiod":[{text[o:k]}]}}\n'
            for a, n, o, k, e in zip(*(col[i : i + _LINES].tolist() for col in cols))
        ])


def _enumerate_lines(args, ds: cantor.DigitSet) -> Iterator[str]:
    """The JSON lines of every member, value-ascending, a string of up to
    _LINES lines at a time, each built as its chunk is walked."""
    sources = (args.den_form, args.max_den, args.denominators)
    if sum(source is not None for source in sources) != 1:
        raise PreconditionError(
            "enumerate needs exactly one of --den-form, --max-den, --denominators"
        )
    if (args.max_exp is None) != (args.den_form is None):
        raise PreconditionError("--den-form and --max-exp go together")
    if args.max_den is not None:
        if args.max_den >= 10**5:
            _progress(f"enumerating members with denominators up to {args.max_den}")
        rows = sieve.members_up_to(ds.base, ds.digits, args.max_den, args.jobs)
    elif args.den_form is not None:
        head, sep, tail = args.den_form.partition("^")
        # not str.isdigit alone: int() refuses '²' and heads past 4300 digits
        plain = head.isascii() and head.isdigit() and len(head) < 20
        if sep != "^" or tail != "k" or not plain or int(head) < 2:
            raise PreconditionError(f"bad --den-form {args.den_form!r}, want e.g. 2^k")
        if args.max_exp < 0:
            raise PreconditionError(f"--max-exp must be >= 0, got {args.max_exp}")
        # head^62 >= 2^62 exceeds _member_rows' 2^62/b: a larger k adds nothing
        dens = [int(head) ** k for k in range(min(args.max_exp, 62) + 1)]
        rows = cantor._member_rows(ds, dens)
    elif not args.denominators:
        raise PreconditionError("--denominators lists no denominator")
    else:
        rows = cantor._member_rows(ds, args.denominators)
    for chunk in cantor._witness_chunks(ds, rows):
        yield from _json_lines(ds, chunk)


def cmd_enumerate(args) -> int:
    ds = cantor.DigitSet(args.base, tuple(args.digits))
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
    sys.stdout.writelines(
        bounds.bounds_chunks(ds.base, ds.digits, eps, args.max_den, args.jobs, args.format)
    )
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
        got = order_from_profile(profile, factorize(d)) if d > 1 else 1
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
        profile = build_profile(b, factorize(d))
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


def _scan_members(ds: cantor.DigitSet, dens) -> list[tuple[int, int]]:
    """Every reduced member (a, d) over dens, d in the given order and a
    ascending, one scalar membership test each: the route that does not use
    the vectorized walk."""
    return [
        (a, d)
        for d in dens
        for a in range(d + 1)
        if gcd(a, d) == 1 and cantor._witness_digits(ds, a, d) is not None
    ]


def _verify_cosets(rng: random.Random, trials: int) -> None:
    for _ in range(trials):
        b = rng.randrange(2, 7)
        size = rng.randrange(1, b)
        digits = tuple(sorted(rng.sample(range(b), size)))
        ds = cantor.DigitSet(b, digits)
        d = rng.randrange(2, 400)
        got = [(a, n) for a, n, _, _ in cantor.enumerate_members(ds, [d])]
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
        want = list(cantor.enumerate_members(ds, dens))
        got = [m for m in cert.members if m[1] <= cap]
        if got != want:
            raise InvariantError(
                f"lattice exclusion lost members: base {ds.base} "
                f"digits {ds.digits} primes {S}"
            )


def _verify_sieve_certificate(rng: random.Random, trials: int) -> None:
    # two routes to the members with S-smooth d <= T that differ only in
    # their descent, the sieve's digit tree over every d and the certificate's
    # per-denominator tree over the d its lattice exclusion keeps: both end
    # in the sieve's leaf walk and orbit build
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
        if sieved != [(n, d) for n, d, _, _ in cert.members if d <= T]:
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
        got = sieve.members_up_to(b, digits, T).tolist()
        want = sorted(_scan_members(ds, range(1, T + 1)), key=lambda m: Fraction(*m))
        if got != [list(m) for m in want]:
            raise InvariantError(
                f"sieve differs from the scalar scan: base {b} digits {digits} T {T}"
            )


def _verify_count_invariance(rng: random.Random, trials: int) -> None:
    for _ in range(trials):
        b = rng.randrange(2, 6)
        size = rng.randrange(1, b)
        digits = tuple(sorted(rng.sample(range(b), size)))
        T = rng.randrange(1, 300)
        # members_up_to descends trees this small in one process at any jobs
        # value, so the split is asked for directly
        serial = sieve.members_up_to(b, digits, T, 1).tolist()
        if sieve._split_members(b, digits, T, 2).tolist() != serial:
            raise InvariantError(
                f"sieve rows changed under a two-process split: base {b} digits {digits} T {T}"
            )


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
    if args.trials < 0:
        raise PreconditionError(f"--trials must be >= 0, got {args.trials}")
    rng = random.Random(args.seed)
    for name, check in _VERIFY_CHECKS:
        trials = args.trials
        if name == "count_parallel_invariance":
            trials = max(1, args.trials // 10)  # forks a worker per trial, keep light
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
    p.add_argument("--jobs", "-j", type=_jobs_arg, default=_default_jobs(), metavar="N", help=_JOBS_HELP)

    p = add("count", cmd_count, help="count members below a denominator bound")
    p.add_argument("--digits", type=_int_list, required=True)
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--reduced", action="store_true", help="report reduced-fraction counts")
    p.add_argument("--all", action="store_true", help="report all-pairs counts")
    p.add_argument("--coprime", action="store_true", help="denominators coprime to b only")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", "-j", type=_jobs_arg, default=_default_jobs(), metavar="N", help=_JOBS_HELP)

    p = add("bounds", cmd_bounds, help="empirical constants over enumerated members")
    p.add_argument("--digits", type=_int_list, required=True)
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--epsilon", type=_fraction_arg)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", "-j", type=_jobs_arg, default=_default_jobs(), metavar="N", help=_JOBS_HELP)

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
    except OSError as exc:
        # a closed or full stdout, or a fork the system refused: if stdout
        # cannot take what it holds, fd 1 goes to devnull, or the
        # interpreter's last flush raises again
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            _progress("stdout closed before all output was written")
        else:
            _progress(f"system error: {exc}")
        return 2
    except KeyboardInterrupt:
        _progress("interrupted")
        return 2
    except PreconditionError as exc:
        _progress(f"precondition violated: {exc}")
        return 2
    except InvariantError as exc:
        _progress(f"internal invariant failure: {exc}")
        return 3
    except MemoryError:
        _progress("out of memory: ask for less work")
        return 2

if __name__ == "__main__":
    sys.exit(main())
