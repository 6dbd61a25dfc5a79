"""Self-tests of the benchmark's own failure accounting.

    python3 perfbench/selftest.py

1. A corrupted stdout is caught by the output check and counted in the
   workload's error rate (one ``orbits`` pass with every ``order`` reply
   altered by one byte).
2. A request that outlives a tiny timeout is killed with its whole process
   group, counts as a failure, and the pass goes on with the next request.
   The slow request runs at ``--jobs 2``, so it starts at most two workers.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits nonzero without printing a result.

Exits 0 when all pass. Writes only under perfbench/out/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import run
from client import Launcher, run_request
from workloads import HERE, ROOT, check_output, load_expected

SLOW = ("count", "--base", "3", "--digits", "0,2", "--max-den", "200000", "--coprime", "--jobs", "2")
CHEAP = ("order", "--base", "2", "--modulus", "999983")


def corrupted_stdout_is_counted() -> None:
    real = run.check_output

    def corrupting(argv, stdout, expected):
        if argv[0] == "order":
            stdout = bytes([stdout[0] ^ 1]) + stdout[1:]
        return real(argv, stdout, expected)

    run.check_output = corrupting
    try:
        result = run.measure_cli("orbits", seed=0, seconds=1)
    finally:
        run.check_output = real
    order_requests = sum(
        1 for slot in result["outcomes"] for o in slot if o["argv"][0] == "order"
    )
    assert order_requests >= 1, result["requests"]
    assert result["failed"] == order_requests, result["errors"]
    assert result["error_rate"] == order_requests / result["attempted"] > 0
    assert all("digest" in e for e in result["errors"]), result["errors"]
    print(f"ok corrupted stdout counted: error_rate {result['error_rate']:.4f}")


def timeout_kills_group_and_pass_goes_on() -> None:
    expected = load_expected()

    def check(argv, stdout):
        return check_output(argv, stdout, expected)

    with Launcher() as launcher:
        t0 = perf_counter()
        done = launcher.run([sys.executable, "-m", "timesb", *SLOW], timeout_s=2.0)
        assert done.exit_code is None, "the slow request finished inside 2 s"
        assert perf_counter() - t0 < 7.0, "killing the group took too long"
        try:
            os.killpg(done.pid, 0)
        except ProcessLookupError:
            pass
        else:
            raise AssertionError(f"process group {done.pid} survived the timeout")
        outcomes = [
            run_request(launcher, SLOW, check, timeout_s=2.0),
            run_request(launcher, CHEAP, check),
        ]
    assert outcomes[0].exit_code is None and outcomes[0].error.startswith("timed out")
    assert outcomes[1].error is None, outcomes[1].error
    failed = sum(1 for o in outcomes if o.error)
    assert failed == 1
    print(f"ok timeout: group killed, pass went on, error_rate {failed / len(outcomes):.2f}")


def bare_directory_fails() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0, "benchmark succeeded without the program"
    for line in done.stdout.splitlines():
        try:
            parsed = json.loads(line)
        except ValueError:
            continue
        assert not (isinstance(parsed, dict) and "correct" in parsed), "printed a result"
    print(f"ok bare directory: exit code {done.returncode}")


def main() -> int:
    corrupted_stdout_is_counted()
    timeout_kills_group_and_pass_goes_on()
    bare_directory_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
