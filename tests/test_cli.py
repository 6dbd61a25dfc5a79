"""CLI surface: output shapes, exit codes, determinism."""

import hashlib
import importlib
import json
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from timesb import bounds, cantor, cli, numtheory, sieve
from timesb.bounds import BOUNDS_CSV_HEADER, aggregate_constants, bound_report
from timesb.cantor import DigitSet
from timesb.numtheory import factorize
from timesb.orders import build_profile, split_denominator
from timesb.rational import frac_str
from timesb.sieve import members_up_to

from oracles import (
    coprime_part,
    decompose_record_json,
    orbit_oracle,
    orbit_record_json,
    witness_oracle,
)

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
            cases.append((b, f"{rng.randrange(d)}/{d}", list(factorize(d))))
        cases.append((b, "0", [next(p for p in (2, 3, 5, 7) if b % p)]))
    return cases


_ORBIT_CASES = _seeded_orbit_cases()


def _orbit_stdout_reference(b, x, primes):
    # the record of every point from the Fraction orbit oracle, written by
    # json.dumps
    points, cut = orbit_oracle(b, x)
    if primes is None:
        return orbit_record_json(b, x, points, cut) + "\n"
    split = split_denominator(build_profile(b, primes), x.denominator)
    a1 = sorted(points)
    return decompose_record_json(b, x, split.d0, split.d1, len(points), a1, a1) + "\n"


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
    # the mutation the check above must see: every walk, from its first
    # block to its last, loses its last remainder. One-point cycles lose
    # theirs whole and are caught too, since the output pass counts the
    # points it writes
    real = orbit_module._remainder_walk

    def short(*args):
        blocks = list(real(*args))
        blocks[-1] = blocks[-1][:-1]
        yield from blocks

    monkeypatch.setattr(orbit_module, "_remainder_walk", short)
    assert len(_orbit_stdout_mismatches(capsys, _ORBIT_CASES)) == len(_ORBIT_CASES)


# walks that end on a block edge or one point either side of it: a cycle
# of 16 blocks of 4096, cycles of 4097 and 4095 points, the second also
# behind a two-point transient (4097 points in all), 70 transient points
# over 3 * 2^70 (past int64), decompositions with d0 = 1 (d1 = d: the walk
# mod d1 is A1 itself), and 0
_BLOCK_EDGE_CASES = [
    (3, "1/65537", None),
    (3, "1/65537", [65537]),
    (2, f"1/{131071 * 22000409}", None),
    (11, "1/8191", None),
    (11, f"1/{11**2 * 8191}", None),
    (2, "1/3541774862152233910272", None),
    (2, "1/100003", [100003]),
    (11, "1/8191", [8191]),
    (2, "0", None),
    (2, "0", [3]),
]


def test_orbit_stdout_at_block_edges(capsys):
    assert _orbit_stdout_mismatches(capsys, _BLOCK_EDGE_CASES) == []


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


@pytest.mark.parametrize(
    "argv, message",
    [
        # a zero or empty source is still given: it is no missing one
        (("--max-den", "0", "--denominators", "3"), "exactly one"),
        (("--max-den", "0"), "max denominator must be >= 1, got 0"),
        (("--denominators", ","), "--denominators lists no denominator"),
        (("--max-exp", "3", "--max-den", "10"), "--den-form and --max-exp"),
        (("--max-exp", "3", "--denominators", "4"), "--den-form and --max-exp"),
        (("--den-form", "2^k"), "--den-form and --max-exp"),
        (("--den-form", "2^k", "--max-exp", "-1"), "--max-exp must be >= 0, got -1"),
        # 2^61 is past 2^62/3: rejected without building 2^k up to k = 10^12
        (
            ("--den-form", "2^k", "--max-exp", "1000000000000"),
            "denominator 2305843009213693952 outside",
        ),
        # str.isdigit passes a superscript two and int() refuses it; int()
        # also refuses a head past its 4300-digit limit
        (("--den-form", "²^k", "--max-exp", "3"), "bad --den-form"),
        (("--den-form", "9" * 5000 + "^k", "--max-exp", "3"), "bad --den-form"),
    ],
)
def test_enumerate_rejects_bad_sources(capsys, argv, message):
    code, out, err = run_cli(capsys, "enumerate", "--base", "3", "--digits", "0,2", *argv)
    assert code == 2 and out == ""
    assert message in err


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


def test_verify_rejects_negative_trials(capsys):
    # no check runs a negative number of trials, so none may claim it
    code, out, err = run_cli(capsys, "verify", "--trials", "-1")
    assert code == 2 and out == ""
    assert "--trials must be >= 0, got -1" in err


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


@pytest.mark.parametrize(
    "error, want",
    [
        (MemoryError(), 2),
        (RuntimeError("worker fails"), 3),
        pytest.param(signal.SIGKILL, 3, id="worker-killed-3"),
    ],
)
def test_resource_failures_exit_without_traceback(capsys, monkeypatch, error, want):
    if want == 3:
        # a real worker process raises error, or is killed by it, where it
        # would descend its share: the split is forced past the cut, with
        # two processes even on one CPU
        parent, real = os.getpid(), sieve._descend_task

        def task(*args):
            if os.getpid() != parent:
                if error is signal.SIGKILL:
                    os.kill(os.getpid(), error)
                raise error
            return real(*args)

        monkeypatch.setattr(sieve, "_descend_task", task)
        monkeypatch.setattr(sieve, "_FORK_WORK", 0)
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
    with pytest.raises(ChildProcessError):  # no worker left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


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
        # orbit records of 1.8 and 3.6 MB, written in blocks of 4096 points
        (("orbit", "--base", "2", "--frac", "1/177147"), False),
        (
            ("orbit", "--base", "2", "--frac", "1/177147", "--decompose", "--primes", "3"),
            False,
        ),
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        # one short line, written by main's final flush
        ("order", "--base", "2", "--modulus", "7"),
        # about 160 KB, written inside the command
        ("enumerate", "--base", "3", "--digits", "0,2", "--max-den", "3000"),
        ("orbit", "--base", "2", "--frac", "1/177147"),
    ],
)
def test_full_stdout_exits_2_without_traceback(argv):
    # every write to /dev/full fails with ENOSPC, the interpreter's last
    # flush included
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "timesb", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "No space left" in proc.stderr and "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_stderr_loses_progress_not_the_run(capsys):
    # T >= 1e5 writes a progress line; its ENOSPC leaves stdout whole
    argv = ("count", "--base", "3", "--digits", "0,2", "--max-den", "100000")
    code, out, _ = run_cli(capsys, *argv)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "timesb", *argv],
            stdout=subprocess.PIPE, stderr=full, text=True, timeout=60,
        )
    assert (code, proc.returncode, proc.stdout) == (0, 0, out)


def test_refused_fork_exits_2_and_reaps_the_forked(capsys, monkeypatch):
    # three shares, two forks: the first child is forked, the second fork is
    # refused, and that child is killed and reaped before main returns
    real, forked = os.fork, []

    def fork():
        if forked:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forked.append(real())
        return forked[-1]

    monkeypatch.setattr(sieve, "_FORK_WORK", 0)
    monkeypatch.setattr(sieve.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(sieve.os, "fork", fork)
    code, out, err = run_cli(
        capsys, "count", "--base", "3", "--digits", "0,2", "--max-den", "50",
        "--jobs", "3",
    )
    assert code == 2 and out == "" and len(forked) == 1
    assert err.splitlines() == ["system error: [Errno 11] Resource temporarily unavailable"]
    with pytest.raises(ChildProcessError):  # no worker left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def _run_with_closed_stderr(argv, stdout_too):
    # stderr, and stdout too when asked, on a pipe closed before any write
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "timesb", *argv],
            stdout=write if stdout_too else subprocess.PIPE, stderr=write,
            text=True, timeout=60,
        )
    finally:
        os.close(write)


def test_closed_stderr_loses_progress_not_the_run(capsys):
    # T >= 1e5 writes a progress line; its broken pipe leaves stdout whole
    argv = ("count", "--base", "3", "--digits", "0,2", "--max-den", "100000")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err.startswith("counting members")
    proc = _run_with_closed_stderr(argv, stdout_too=False)
    assert (proc.returncode, proc.stdout) == (0, out)


def test_closed_stderr_keeps_precondition_exit_2():
    proc = _run_with_closed_stderr(("order", "--base", "1", "--modulus", "7"), False)
    assert (proc.returncode, proc.stdout) == (2, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--base", "3", "--digits", "0,2", "--primes", "2,7,11,13"),
        ("orbit", "--base", "2", "--frac", "1/177147"),
    ],
)
def test_stdout_and_stderr_on_one_closed_pipe_exit_2(argv):
    assert _run_with_closed_stderr(argv, stdout_too=True).returncode == 2


def test_count_non_symmetric_bytes_match_across_jobs():
    # base 3 {0,1} is no mirror of itself: the same bytes at jobs 1 and 2,
    # and the totals the whole-tree sieve printed
    cmd = [sys.executable, "-m", "timesb", "count", "--base", "3", "--digits",
           "0,1", "--max-den", "200000", "--coprime"]
    outs = [
        subprocess.run(cmd + ["--jobs", j], capture_output=True, text=True, timeout=120)
        for j in ("1", "2")
    ]
    assert [p.returncode for p in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout
    assert outs[0].stdout.splitlines() == [
        "T,count_reduced,count_all,includes_endpoints",
        "200000,11078,506229,true",
        "200000,11077,372895,false",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        "count --base 3 --digits 0,2 --max-den 10",
        "count --base 2 --digits 0,1 --max-den 10",  # the full set: no sieve
        "enumerate --base 3 --digits 0,2 --max-den 10",
        "enumerate --base 3 --digits 0,2 --denominators 9",  # no sieve
        "bounds --base 3 --digits 0,2 --max-den 10",
    ],
)
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_rejected(capsys, argv, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv.split(), "--jobs", jobs])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"--jobs/-j: must be >= 1, got {jobs}" in err
    assert "Traceback" not in err


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


def _old_bounds_stdout(ds, members, T, fmt, eps=None):
    # bound_report on each Fraction, factoring every d
    eps = ds.epsilon_exact if eps is None else eps
    reports = []
    for x in members:
        if x.denominator == 1 or gcd(ds.base, x.denominator) != 1:
            continue
        r = bound_report(ds.base, eps, x)
        if r is not None:
            reports.append(r)
    summary = aggregate_constants(reports) if reports else {"count": 0}
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
    digits = ";".join(map(str, ds.digits))
    lines = [BOUNDS_CSV_HEADER] + [
        f"{r.base},{digits},{r.num},{r.den},{r.largest_prime},{r.radical},{r.branch},"
        f"{r.K_emp!r},{r.c_emp_rad!r},{r.c_emp_P!r}"
        for r in reports
    ]
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


@pytest.mark.parametrize(
    "source",
    [("--denominators", "35,36,1"), ("--den-form", "6^k", "--max-exp", "2")],
)
def test_member_records_reject_row_without_good_expansion(capsys, monkeypatch, source):
    # the same forged 1/36, let through the orbit build's rows
    real = cantor._by_value

    def with_intruder(rows):
        return real(np.concatenate([rows, [[1, 36]]]))

    monkeypatch.setattr(cantor, "_by_value", with_intruder)
    code, out, err = run_cli(
        capsys, "enumerate", "--base", "6", "--digits", "1,2,3,4,5", *source
    )
    assert code == 3 and out == ""
    assert "1/36" in err


@pytest.mark.parametrize("source", ["--max-den", "--denominators"])
def test_enumerate_writes_earlier_chunks_before_exit_3(capsys, monkeypatch, source):
    # chunks of one row and the same forged 1/36 after five good rows: the
    # lines of the five earlier chunks are written whole, then exit 3
    monkeypatch.setattr(cantor, "_BUDGET", 4)
    ds, k = DigitSet(6, (1, 2, 3, 4, 5)), 5
    if source == "--max-den":
        real, arg = sieve.members_up_to, "40"
        want = _scalar_enumerate_stdout(ds, 40)
        monkeypatch.setattr(
            sieve, "members_up_to",
            lambda base, digits, T, jobs: np.insert(real(base, digits, T, jobs), k, [1, 36], axis=0),
        )
    else:
        real, arg = cantor._by_value, "35,7,5,1"
        want = "".join(map(_dumps, _scalar_records(ds, [1, 5, 7, 35])))
        monkeypatch.setattr(
            cantor, "_by_value", lambda rows: np.insert(real(rows), k, [1, 36], axis=0)
        )
    lines = want.splitlines(keepends=True)
    assert len(lines) > k
    code, out, err = run_cli(
        capsys, "enumerate", "--base", "6", "--digits", "1,2,3,4,5", source, arg
    )
    assert code == 3 and out == "".join(lines[:k])
    assert "1/36" in err


def _scalar_enumerate_stdout(ds, T):
    # the sieve's rows in value order, each witness from the Fraction oracle
    rows = members_up_to(ds.base, ds.digits, T).tolist()
    rows.sort(key=lambda r: Fraction(*r))
    out = []
    for a, d in rows:
        pre, period = witness_oracle(ds.base, ds.digits, Fraction(a, d))
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


def _scalar_records(ds, dens):
    # every reduced a/d over dens tested by the Fraction oracle, the members
    # sorted through Fraction
    found = []
    for d in dens:
        for a in range(d + 1):
            x = Fraction(a, d)
            w = witness_oracle(ds.base, ds.digits, x) if gcd(a, d) == 1 else None
            if w is not None:
                found.append((x, w))
    found.sort(key=lambda pair: pair[0])
    return [
        {"num": x.numerator, "den": x.denominator, "preperiod": w[0], "period": w[1]}
        for x, w in found
    ]


def _dumps(rec):
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def _seeded_member_case(base):
    # a digit set that is not full, a few denominators, a power form with
    # q^max_exp <= 3000, and S of one or two primes not dividing the base
    rng = random.Random(0xCE27 + base)
    ds = DigitSet(base, tuple(rng.sample(range(base), rng.randrange(1, base))))
    dens = rng.sample(range(1, 400), 12) + [base, base**2]
    q = rng.randrange(2, 8)
    max_exp = int(np.log(3000) / np.log(q))
    usable = [p for p in (2, 3, 5, 7, 11, 13) if base % p]
    S = sorted(rng.sample(usable, rng.randrange(1, min(2, len(usable)) + 1)))
    return ds, sorted(set(dens)), q, max_exp, S


@pytest.mark.parametrize("base", range(2, 31))
def test_member_records_bytes_match_scalar_route(capsys, base):
    # enumerate --denominators, --den-form and certify print the same bytes
    # as a scalar witness per member, a Fraction sort and json.dumps
    ds, dens, q, max_exp, S = _seeded_member_case(base)
    digits = ("--base", str(base), "--digits", ",".join(map(str, ds.digits)))
    code, out, _ = run_cli(
        capsys, "enumerate", *digits, "--denominators", ",".join(map(str, dens[::-1]))
    )
    assert code == 0
    assert out == "".join(map(_dumps, _scalar_records(ds, dens)))
    code, out, _ = run_cli(
        capsys, "enumerate", *digits, "--den-form", f"{q}^k", "--max-exp", str(max_exp)
    )
    assert code == 0
    want = _scalar_records(ds, [q**k for k in range(max_exp + 1)])
    assert out == "".join(map(_dumps, want))
    code, out, _ = run_cli(capsys, "certify", *digits, "--primes", ",".join(map(str, S)))
    assert code == 0
    cert = cantor.enumerate_s_integers(ds, build_profile(base, S))
    want = cert.to_json_dict()
    want["members"] = _scalar_records(ds, cert.walked_denominators)
    want["count_with_endpoints"] = len(want["members"])
    want["count_without_endpoints"] = sum(
        0 < m["num"] < m["den"] for m in want["members"]
    )
    assert out == _dumps(want)


def test_member_records_take_no_scalar_walk(capsys, monkeypatch):
    # certify and enumerate --denominators read every witness off the
    # vectorised walk
    def scalar_walk(*args):
        raise AssertionError("scalar witness walk")

    monkeypatch.setattr(cantor, "_witness_digits", scalar_walk)
    rec = run_json(capsys, "certify", "--base", "3", "--digits", "0,2", "--primes", "2,5")
    assert rec["count_without_endpoints"] == 14
    code, out, _ = run_cli(
        capsys, "enumerate", "--base", "3", "--digits", "0,2", "--denominators", "4,10,1"
    )
    assert code == 0 and out.count("\n") == 8


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize(
    "base, digits, T, dens, q, max_exp",
    [
        # 53/256 is a member by its dual alone, 5 allowed makes 1 a member,
        # and 1/5 = 0.(1) has an empty preperiod
        (6, (1, 2, 3, 4, 5), 300, [1, 5, 7, 35, 36, 256], 2, 8),
        # the digits 10 and 11 are two characters each; 1 = 0.(11)
        (12, (0, 10, 11), 150, [1, 11, 12, 13, 143, 144], 12, 2),
    ],
)
def test_enumerate_lines_across_chunk_boundaries(
    capsys, monkeypatch, chunk, base, digits, T, dens, q, max_exp
):
    # chunks of one and three rows: every row starts or ends a chunk, so
    # each chunk's digit text and slices are cut at every kind of row; the
    # lines are joined two rows at a time, which splits the three-row chunks
    monkeypatch.setattr(cantor, "_BUDGET", 4 * chunk)
    monkeypatch.setattr(cli, "_LINES", 2)
    ds = DigitSet(base, digits)
    common = ("enumerate", "--base", str(base), "--digits", ",".join(map(str, digits)))
    code, out, _ = run_cli(capsys, *common, "--max-den", str(T))
    assert code == 0 and out == _scalar_enumerate_stdout(ds, T)
    if base == 6:
        assert '"den":256,"num":53,"period":[5],' in out
    assert out.endswith(f'{{"den":1,"num":1,"period":[{base - 1}],"preperiod":[]}}\n')
    code, out, _ = run_cli(capsys, *common, "--denominators", ",".join(map(str, dens)))
    assert code == 0 and out == "".join(map(_dumps, _scalar_records(ds, dens)))
    code, out, _ = run_cli(capsys, *common, "--den-form", f"{q}^k", "--max-exp", str(max_exp))
    want = _scalar_records(ds, [q**k for k in range(max_exp + 1)])
    assert code == 0 and out == "".join(map(_dumps, want))


@pytest.mark.parametrize("jobs", [1, 2])
def test_bounds_constants_once_per_den(capsys, monkeypatch, jobs):
    # the constants depend on d alone: one _report per distinct d that is
    # reported, and the same bytes as bound_report on every member
    ds = DigitSet(3, (0, 2))
    T, eps = 3000, ds.epsilon_exact
    calls = []
    real = bounds._report

    def spy(base, epsilon, a, d):
        calls.append(d)
        return real(base, epsilon, a, d)

    monkeypatch.setattr(bounds, "_report", spy)
    members = _fraction_route_members(ds, T, jobs)
    rows = [
        x for x in members
        if x.denominator > 1 and gcd(3, x.denominator) == 1 and eps * x.denominator >= 3
    ]
    dens = {x.denominator for x in rows}
    assert len(dens) < len(rows)
    argv = ("bounds", "--base", "3", "--digits", "0,2", "--max-den", str(T),
            "--jobs", str(jobs))
    for fmt in ("csv", "json"):
        calls.clear()
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        assert sorted(calls) == sorted(dens)
        assert out == _old_bounds_stdout(ds, members, T, fmt)


@pytest.mark.parametrize("size", [1, 3])
def test_bounds_bytes_across_slice_boundaries(capsys, monkeypatch, size):
    # rows written a slice of one or three at a time: every row starts or
    # ends a slice, and T = 10 keeps members but no row (epsilon*d < 3)
    monkeypatch.setattr(bounds, "_SLICE", size)
    ds = DigitSet(3, (0, 2))
    argv = ("bounds", "--base", "3", "--digits", "0,2", "--max-den")
    for T in (3000, 10):
        members = _fraction_route_members(ds, T, 1)
        assert members
        for fmt in ("csv", "json"):
            code, out, _ = run_cli(capsys, *argv, str(T), "--format", fmt)
            assert code == 0
            assert out == _old_bounds_stdout(ds, members, T, fmt)
    # 1/3 and 2/3 are the rows, den 3 shares the base: no den to report on,
    # so a negative epsilon is never used and not refused
    eps = Fraction(-1, 6)
    members = _fraction_route_members(ds, 3, 1)
    assert [x.denominator for x in members] == [1, 3, 3, 1]
    for fmt in ("csv", "json"):
        code, out, _ = run_cli(capsys, *argv, "3", "--epsilon=-1/6", "--format", fmt)
        assert code == 0
        assert out == _old_bounds_stdout(ds, members, 3, fmt, eps)


def test_bounds_every_row_skipped(capsys):
    # epsilon*d < 3 for every d <= 2000: no row, and a summary of count 0
    argv = ("bounds", "--base", "3", "--digits", "0,2", "--max-den", "2000",
            "--epsilon", "1/1000")
    summary = (
        '{"base":3,"count":0,"digits":[0,2],"epsilon":"1/1000","log":"natural",'
        '"max_den":2000}'
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == f"{BOUNDS_CSV_HEADER}\n\n{summary}\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == f'{{"rows":[],"summary":{summary}}}\n'


def test_bounds_skips_denominator_two(capsys):
    # 1/2 is a member of base 3 {0,1} and epsilon*2 >= 3, but log log 2 < 0
    # leaves c_emp_P undefined: its row is skipped like the epsilon*d < 3 ones
    argv = ("bounds", "--base", "3", "--digits", "0,1", "--max-den", "1000",
            "--epsilon", "7/3")
    proc = subprocess.run(
        [sys.executable, "-m", "timesb", *argv], capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    rows = proc.stdout.split("\n\n")[0].splitlines()[1:]
    assert rows and min(int(row.split(",")[3]) for row in rows) >= 3
    assert bound_report(3, Fraction(7, 3), Fraction(1, 2)) is None


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
