"""CLI surface: output shapes, exit codes, determinism."""

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from timesb import cantor, cli, numtheory, sieve
from timesb.bounds import BOUNDS_CSV_HEADER, aggregate_constants, bound_report
from timesb.cantor import DigitSet
from timesb.numtheory import factorize
from timesb.orders import build_profile, split_denominator
from timesb.rational import frac_str
from timesb.sieve import members_up_to

from oracles import coprime_part, orbit_oracle, witness_oracle

# the submodule: timesb.orbit, the package attribute, is the function
orbit_module = importlib.import_module("timesb.orbit")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_order_examples(capsys):
    rec = run_json(capsys, "order", "--base", "2", "--modulus", "243")
    assert rec == {"base": 2, "modulus": 243, "order": 162, "verified": True}
    rec = run_json(capsys, "order", "--base", "3", "--modulus", "8")
    assert rec["order"] == 2 and rec["verified"] is True
    rec = run_json(capsys, "order", "--base", "5", "--modulus", "1")
    assert rec["order"] == 1
    rec = run_json(
        capsys, "order", "--base", "3", "--primes", "2,5", "--exponents", "6,1"
    )
    assert rec == {"base": 3, "modulus": 320, "order": 16, "verified": True}


def test_order_rejects_shared_factor(capsys):
    code, _, err = run_cli(capsys, "order", "--base", "2", "--modulus", "6")
    assert code == 2
    assert "precondition" in err


def test_order_rejects_base_below_two(capsys):
    code, out, err = run_cli(capsys, "order", "--base", "0", "--modulus", "7")
    assert code == 2 and out == ""
    assert "base must be >= 2, got 0" in err


def test_order_prime_near_1e9_returns():
    # ord(2, 1e9+7) once took O(p) brute-force steps and never returned
    proc = subprocess.run(
        [sys.executable, "-m", "timesb", "order", "--base", "2",
         "--modulus", "1000000007"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "base": 2, "modulus": 1000000007, "order": 500000003, "verified": None,
    }


def test_order_rejects_repeated_primes(capsys):
    # a repeated prime once merged into one exponent while the modulus kept
    # both factors: the first exited 3, the second printed a wrong order
    for primes, exponents in (("3,3", "1,2"), ("1000003,1000003", "1,1")):
        code, out, err = run_cli(
            capsys, "order", "--base", "2", "--primes", primes,
            "--exponents", exponents,
        )
        assert code == 2 and out == ""
        assert "precondition" in err and "repeats" in err


def test_density_examples(capsys):
    rec = run_json(
        capsys, "density", "--base", "3", "--primes", "2,5", "--epsilon", "1/6"
    )
    assert rec["D"] == "240" and rec["max_denominator"] == 240
    assert rec["cap_modulus"] == 80
    rec = run_json(
        capsys, "density", "--base", "2", "--primes", "3", "--epsilon", "1/2"
    )
    assert rec["D"] == "3"


def test_epsilon_must_be_rational():
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["density", "--base", "3", "--primes", "2,5", "--epsilon", "0.5"]
        )
    assert exc.value.code == 2


def test_orbit_and_decompose(capsys):
    rec = run_json(capsys, "orbit", "--base", "2", "--frac", "1/9")
    assert rec["points"] == ["1/9", "2/9", "4/9", "8/9", "7/9", "5/9"]
    assert rec["preperiod"] == 0 and rec["period"] == 6
    rec = run_json(
        capsys, "orbit", "--base", "2", "--frac", "1/9", "--decompose",
        "--primes", "3",
    )
    assert rec["d0"] == 3 and rec["d1"] == 3 and rec["a1_equals_a2"] is True
    rec = run_json(capsys, "orbit", "--base", "3", "--frac", "0")
    assert rec["points"] == ["0"] and rec["period"] == 1
    code, out, _ = run_cli(
        capsys, "orbit", "--base", "2", "--frac", "0", "--decompose",
        "--primes", "3",
    )
    assert code == 0 and '"a1":["0"]' in out and '"a1_equals_a2":true' in out


def _seeded_orbit_cases():
    # (base, --frac, --primes or None) at bases 2-12: plain orbits of a/d
    # given unreduced, of a preperiodic b^3 * 7 denominator and of 0, and
    # decompositions of a/d with d coprime to b, 0 among them
    rng = random.Random(0x0E17)
    cases = []
    for b in range(2, 13):
        for _ in range(6):
            d = rng.randrange(1, 3000)
            k = rng.randrange(1, 4)
            cases.append((b, f"{rng.randrange(d) * k}/{d * k}", None))
        cases += [(b, f"5/{b**3 * 7}", None), (b, "0", None)]
        for _ in range(4):
            d = rng.randrange(2, 3000)
            while gcd(d, b) != 1:
                d = rng.randrange(2, 3000)
            cases.append((b, f"{rng.randrange(d)}/{d}", sorted(factorize(d).primes)))
        cases.append((b, "0", [next(p for p in (2, 3, 5, 7) if b % p)]))
    return cases


_ORBIT_CASES = _seeded_orbit_cases()


def _orbit_stdout_reference(b, x, primes):
    # the record of every point as frac_str(Fraction(r, d)), from the
    # Fraction orbit oracle, printed as _emit prints any record
    points, cut = orbit_oracle(b, x)
    if primes is None:
        rec = {
            "base": b,
            "start": frac_str(x),
            "points": [frac_str(p) for p in points],
            "preperiod": cut,
            "period": len(points) - cut,
        }
    else:
        split = split_denominator(build_profile(b, primes), factorize(x.denominator))
        a1 = [frac_str(p) for p in sorted(points)]
        rec = {
            "base": b,
            "fraction": frac_str(x),
            "d0": split.d0,
            "d1": split.d1,
            "order": len(points),
            "a1": a1,
            "a2": a1,
            "a1_equals_a2": True,
        }
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def _orbit_stdout_mismatches(capsys, cases):
    bad = []
    for b, frac, primes in cases:
        argv = ["orbit", "--base", str(b), "--frac", frac]
        if primes is not None:
            argv += ["--decompose", "--primes", ",".join(map(str, primes))]
        _, out, _ = run_cli(capsys, *argv)
        if out != _orbit_stdout_reference(b, Fraction(frac), primes):
            bad.append(" ".join(argv))
    return bad


def test_orbit_stdout_matches_per_point_route(capsys):
    assert _orbit_stdout_mismatches(capsys, _ORBIT_CASES) == []


def test_orbit_stdout_check_catches_a_walk_one_step_short(capsys, monkeypatch):
    # the mutation the check above must see; orbits with a one-point cycle
    # would lose it whole, so they are left out
    real = orbit_module._remainder_walk

    def short(*args):
        rems, cut = real(*args)
        return rems[:-1], cut

    def period(case):
        points, cut = orbit_oracle(case[0], Fraction(case[1]))
        return len(points) - cut

    cases = [c for c in _ORBIT_CASES if period(c) > 1]
    monkeypatch.setattr(orbit_module, "_remainder_walk", short)
    assert len(cases) > 100
    assert len(_orbit_stdout_mismatches(capsys, cases)) == len(cases)


def test_orbit_layer_stdout_matches_benchmark_digests(capsys):
    # every orbit, profile and order request of the benchmark menus, against
    # the stdout sha256 the benchmark recorded
    expected = json.loads(
        (Path(__file__).parent.parent / "perfbench" / "expected.json").read_text()
    )
    keys = [k for k in expected if k.split()[0] in ("orbit", "profile", "order")]
    assert len(keys) == 20
    for key in keys:
        code, out, _ = run_cli(capsys, *key.split())
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == expected[key], key


def test_certify_wall(capsys):
    rec = run_json(
        capsys, "certify", "--base", "3", "--digits", "0,2", "--primes", "2,5"
    )
    assert rec["D"] == "240"
    assert rec["count_with_endpoints"] == 16
    assert rec["count_without_endpoints"] == 14
    assert len(rec["members"]) == 16
    assert rec["epsilon_discrepancy"] is False


def test_member_and_expand(capsys):
    rec = run_json(capsys, "member", "--base", "3", "--digits", "0,2", "--frac", "1/3")
    assert rec["member"] is True
    assert rec["witness"] == {"preperiod": [0], "period": [2]}
    # 1/2 = 0.(1) in base 3, its only expansion, so it is not a member
    rec = run_json(capsys, "member", "--base", "3", "--digits", "0,2", "--frac", "1/2")
    assert rec["member"] is False
    rec = run_json(capsys, "member", "--base", "3", "--digits", "0,2", "--frac", "1/5")
    assert rec["member"] is False and rec["witness"] is None
    rec = run_json(capsys, "expand", "--base", "2", "--frac", "1/12")
    assert rec["preperiod"] == [0, 0] and rec["period"] == [0, 1]
    assert rec["base"] == 2 and rec["dual"] is None
    rec = run_json(capsys, "expand", "--base", "3", "--frac", "1/3")
    assert rec["preperiod"] == [1] and rec["period"] == [0]
    assert rec["dual"] == {"preperiod": [0], "period": [2]}


def test_enumerate_den_form(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--base", "3", "--digits", "0,2",
        "--den-form", "2^k", "--max-exp", "20",
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [(r["num"], r["den"]) for r in recs] == [(0, 1), (1, 4), (3, 4), (1, 1)]


def test_enumerate_sources_are_exclusive(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--base", "3", "--digits", "0,2",
        "--den-form", "2^k", "--max-exp", "3", "--max-den", "10",
    )
    assert code == 2 and "exactly one" in err


def test_enumerate_max_den_matches_denominator_list(capsys):
    code, out_a, _ = run_cli(
        capsys, "enumerate", "--base", "3", "--digits", "0,2", "--max-den", "9"
    )
    assert code == 0
    code, out_b, _ = run_cli(
        capsys, "enumerate", "--base", "3", "--digits", "0,2",
        "--denominators", "1,2,3,4,5,6,7,8,9",
    )
    assert code == 0
    assert out_a == out_b


def test_count_formats(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--base", "3", "--digits", "0,2", "--max-den", "4"
    )
    assert code == 0
    assert out.splitlines() == [
        "T,count_reduced,count_all,includes_endpoints",
        "4,6,12,true",
        "4,4,4,false",
    ]
    code, out, _ = run_cli(
        capsys, "count", "--base", "3", "--digits", "0,2", "--max-den", "4",
        "--reduced",
    )
    assert out.splitlines() == [
        "T,count_reduced,includes_endpoints",
        "4,6,true",
        "4,4,false",
    ]
    rec = run_json(
        capsys, "count", "--base", "3", "--digits", "0,2", "--max-den", "4",
        "--format", "json",
    )
    assert rec["count_reduced_without_endpoints"] == 4


def test_count_parallelism_identical_output(capsys):
    args = ("count", "--base", "3", "--digits", "0,2", "--max-den", "300",
            "--reduced", "--coprime")
    _, out1, _ = run_cli(capsys, *args, "--jobs", "1")
    _, out2, _ = run_cli(capsys, *args, "--jobs", "2")
    assert out1 == out2


def test_bounds_csv_and_summary(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--base", "3", "--digits", "0,2", "--max-den", "400"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,digits,a,d,P,rad,branch,K_emp,c_emp_rad,c_emp_P"
    assert lines[-2] == ""
    summary = json.loads(lines[-1])
    assert summary["count"] == len(lines) - 3
    assert summary["K_emp_min"] == 3.337766816831737
    rec = run_json(
        capsys, "bounds", "--base", "3", "--digits", "0,2", "--max-den", "400",
        "--format", "json",
    )
    assert rec["summary"]["K_emp_min"] == summary["K_emp_min"]
    assert len(rec["rows"]) == summary["count"]


def test_verify_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "verify", "--trials", "5", "--seed", "3")
    assert code == 0
    assert len(out1.splitlines()) == 9
    assert out1.splitlines()[-1] == "ok sieve_vs_certificate (5 trials)"
    assert all(line.startswith("ok ") for line in out1.splitlines())
    code, out2, _ = run_cli(capsys, "verify", "--trials", "5", "--seed", "3")
    assert out1 == out2


def test_invariant_failures_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "mult_order_bruteforce", lambda b, m: -1)
    code, _, err = run_cli(capsys, "order", "--base", "2", "--modulus", "9")
    assert code == 3
    assert "invariant" in err


def test_rho_failure_exits_3_without_traceback(capsys, monkeypatch):
    # 1000003 * 1000033, both factors above the trial-division limit; with
    # every cofactor taken for composite, rho is handed a prime and fails
    monkeypatch.setattr(numtheory, "is_prime", lambda n: False)
    code, out, err = run_cli(
        capsys, "order", "--base", "2", "--modulus", "1000036000099"
    )
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def _die(*args):
    # stands in for sieve._descend_task: the pool worker running it dies
    os._exit(1)


@pytest.mark.parametrize("error, want", [(MemoryError(), 2), (BrokenProcessPool(), 3)])
def test_resource_failures_exit_without_traceback(capsys, monkeypatch, error, want):
    if isinstance(error, BrokenProcessPool):
        # a real one: a pool worker dies. Two workers even on one CPU, so
        # that _die never runs in this process
        monkeypatch.setattr(sieve, "_descend_task", _die)
        monkeypatch.setattr(sieve.os, "cpu_count", lambda: 2)
    else:

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cantor, "count_report", fail)
    code, out, err = run_cli(
        capsys, "count", "--base", "3", "--digits", "0,2", "--max-den", "50",
        "--jobs", "2",
    )
    assert code == want and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_keyboard_interrupt_exits_2_without_traceback(capsys, monkeypatch):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_count", interrupt)
    code, out, err = run_cli(
        capsys, "count", "--base", "3", "--digits", "0,2", "--max-den", "50"
    )
    assert code == 2 and out == ""
    assert err.splitlines() == ["interrupted"]


_MEMBER = ("member", "--base", "3", "--digits", "0,2", "--frac", "1/4")


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        # one short line, written by main's final flush
        (_MEMBER, False),
        # the same line, written by print itself
        (_MEMBER, True),
        # about 160 KB, so the buffer is written inside the command
        (("enumerate", "--base", "3", "--digits", "0,2", "--max-den", "3000"), False),
    ],
)
def test_closed_stdout_exits_2_without_traceback(argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # closed before the child writes anything
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "timesb", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_jobs_env_default(monkeypatch):
    monkeypatch.setenv("TIMESB_JOBS", "4")
    assert cli._default_jobs() == 4
    monkeypatch.setenv("TIMESB_JOBS", "bogus")
    assert cli._default_jobs() == 1
    monkeypatch.delenv("TIMESB_JOBS")
    assert cli._default_jobs() == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "timesb", "order", "--base", "10", "--modulus", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 6


def _fraction_route_members(ds, T, jobs):
    # the sieve's members whose denominator has a prime outside the base's,
    # and, deciding the boundary rows without the sieve's walk, every a/d
    # with d <= T over the base's primes that the oracle accepts; sorted as
    # Fractions
    def smooth(d):
        return coprime_part(d, ds.base) == 1

    rows = members_up_to(ds.base, ds.digits, T, jobs=jobs).tolist()
    members = [Fraction(n, d) for n, d in rows if not smooth(d)]
    members += [
        Fraction(a, d)
        for d in range(1, T + 1)
        if smooth(d)
        for a in range(d + 1)
        if gcd(a, d) == 1 and witness_oracle(ds.base, ds.digits, Fraction(a, d))
    ]
    return sorted(members)


def _old_enumerate_stdout(ds, members):
    # the Fraction route: take each witness from a second membership pass
    out = []
    for x in members:
        pre, period = witness_oracle(ds.base, ds.digits, x)
        rec = {
            "num": x.numerator,
            "den": x.denominator,
            "preperiod": list(pre),
            "period": list(period),
        }
        out.append(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(out)


def _old_bounds_stdout(ds, members, T, fmt):
    # bound_report on each Fraction, factoring every d
    eps = ds.epsilon_exact
    reports = []
    for x in members:
        if x.denominator == 1 or gcd(ds.base, x.denominator) != 1:
            continue
        r = bound_report(ds.base, eps, x)
        if r is not None:
            reports.append(r)
    summary = aggregate_constants(reports)
    summary.update(
        {"base": ds.base, "digits": list(ds.digits), "epsilon": frac_str(eps),
         "max_den": T, "log": "natural"}
    )
    dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if fmt == "json":
        rows_json = [
            {"a": r.num, "d": r.den, "P": r.largest_prime, "rad": r.radical,
             "branch": r.branch, "K_emp": r.K_emp, "c_emp_rad": r.c_emp_rad,
             "c_emp_P": r.c_emp_P}
            for r in reports
        ]
        return dump({"rows": rows_json, "summary": summary}) + "\n"
    lines = [BOUNDS_CSV_HEADER] + [r.csv_row(ds.digits) for r in reports]
    return "\n".join(lines) + "\n\n" + dump(summary) + "\n"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "base, digits, T",
    [
        # 53/256 and other a/256 are members only through their dual expansion
        (6, (1, 2, 3, 4, 5), 300),
        (10, (0, 1, 2, 3, 4, 5, 6, 7, 8), 600),
        (3, (0, 2), 3000),
        # 7/32 = 0.11513 in base 6 ends a good leaf, but its greedy expansion
        # goes on with 0s and its dual 0.11512(5) has a 2: a non-member
        (6, (1, 3, 5), 60),
    ],
)
def test_integer_stream_matches_fraction_route(capsys, base, digits, T, jobs):
    ds = DigitSet(base, digits)
    common = ("--base", str(base), "--digits", ",".join(map(str, digits)),
              "--max-den", str(T), "--jobs", str(jobs))
    members = _fraction_route_members(ds, T, jobs)
    code, out, _ = run_cli(capsys, "enumerate", *common)
    assert code == 0
    assert out == _old_enumerate_stdout(ds, members)
    if T == 300:
        assert '"den":256,"num":53,"period":[5],' in out
    for fmt in ("csv", "json"):
        code, out, _ = run_cli(capsys, "bounds", *common, "--format", fmt)
        assert code == 0
        assert out == _old_bounds_stdout(ds, members, T, fmt)


def test_enumerate_rejects_row_without_good_expansion(capsys, monkeypatch):
    # 1/36 = 0.01 in base 6 and its dual 0.00555... both use the digit 0, so a
    # sieve that let it through must end in an invariant failure, not a line
    real = sieve.members_up_to

    def with_intruder(base, digits, T, jobs):
        return np.concatenate([real(base, digits, T, jobs), [[1, 36]]])

    monkeypatch.setattr(sieve, "members_up_to", with_intruder)
    code, out, err = run_cli(
        capsys, "enumerate", "--base", "6", "--digits", "1,2,3,4,5", "--max-den", "40"
    )
    assert code == 3 and out == ""
    assert "1/36" in err


def _scalar_enumerate_stdout(ds, T):
    # the sieve's rows in value order, each witness from its own scalar walk
    rows = cantor._by_value(members_up_to(ds.base, ds.digits, T)).tolist()
    out = []
    for a, d in rows:
        pre, period = cantor._witness_digits(ds, a, d)
        rec = {"num": a, "den": d, "preperiod": pre, "period": period}
        out.append(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(out)


@pytest.mark.parametrize("base", range(2, 31))
def test_enumerate_max_den_bytes_match_scalar_witnesses(capsys, base):
    # a seeded digit set per base; bases 11 and up print two-character digits
    rng = random.Random(0x51DE + base)
    ds = DigitSet(base, tuple(rng.sample(range(base), rng.randrange(1, base))))
    T = 200 if base <= 10 else 90
    code, out, err = run_cli(
        capsys, "enumerate", "--base", str(base),
        "--digits", ",".join(map(str, ds.digits)), "--max-den", str(T),
    )
    assert code == 0 and err == ""
    assert out == _scalar_enumerate_stdout(ds, T)


def test_enumerate_max_den_progress_on_stderr(capsys, monkeypatch):
    # T >= 1e5 prints one progress line on stderr and leaves stdout alone;
    # the sieve is cut to T = 300 so that the test stays small
    real = sieve.members_up_to
    monkeypatch.setattr(
        sieve, "members_up_to", lambda base, digits, T, jobs: real(base, digits, 300, jobs)
    )
    argv = ("enumerate", "--base", "3", "--digits", "0,2", "--max-den")
    code, small, err = run_cli(capsys, *argv, "300")
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "100000")
    assert code == 0 and out == small
    assert err == "enumerating members with denominators up to 100000\n"


def _benchmark_digests():
    # the stdout sha256 of each benchmark request, as the benchmark recorded it
    path = Path(__file__).parent.parent / "perfbench" / "expected.json"
    return json.loads(path.read_text())


def _assert_stdout_digests(capsys, expected, keys):
    assert keys
    for key in keys:
        code, out, _ = run_cli(capsys, *key.split())
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == expected[key], key


def test_enumerate_and_bounds_stdout_match_benchmark_digests(capsys):
    # the head entry of each enumerate and bounds slot of the benchmark
    keys = (
        "enumerate --base 3 --digits 0,2 --max-den 99700 --jobs 2",
        "bounds --base 3 --digits 0,2 --epsilon 1/6 --max-den 100000 --jobs 2",
        "enumerate --base 5 --digits 0,2,4 --max-den 29850 --jobs 2",
    )
    _assert_stdout_digests(capsys, _benchmark_digests(), keys)


def test_certify_and_member_stdout_match_benchmark_digests(capsys):
    # every certify entry of the benchmark and its no-work member request
    expected = _benchmark_digests()
    keys = [k for k in expected if k.startswith(("certify ", "member "))]
    _assert_stdout_digests(capsys, expected, keys)
