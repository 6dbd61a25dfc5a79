"""Start-up cost: the commands that never reach the sieve, the walk or the
smallest-prime-factor table run without importing numpy or the process
pool, and a pool forked right after numpy's first import gives the same
bytes as no pool."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": SRC}
HEAVY = ("numpy", "concurrent.futures", "multiprocessing")

# runs cli.main on argv in this fresh interpreter, then prints the exit code
# and the HEAVY modules it loaded as the last stderr line
_PROBE = (
    "import sys\n"
    "from timesb import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    f"print(code, *(m for m in {HEAVY!r} if m in sys.modules), file=sys.stderr)\n"
)


def loaded_modules(*argv: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return loaded


@pytest.mark.parametrize(
    "argv",
    [
        "member --base 3 --digits 0,2 --frac 1/4",
        "expand --base 3 --frac 1/4",
        "orbit --base 2 --frac 5/27",
        "orbit --base 2 --frac 5/27 --decompose --primes 3",
        "profile --base 2 --primes 3,5",
        "order --base 2 --modulus 243",
        "density --base 2 --primes 3 --epsilon 1/10",
    ],
)
def test_exact_commands_import_no_numpy_and_no_pool(argv):
    assert loaded_modules(*argv.split()) == []


def test_count_at_one_job_imports_no_pool():
    argv = "count --base 3 --digits 0,2 --max-den 500 --jobs 1".split()
    assert loaded_modules(*argv) == ["numpy"]


def test_pool_forked_after_first_numpy_import_keeps_bytes():
    cmd = [sys.executable, "-m", "timesb", "count", "--base", "3",
           "--digits", "0,2", "--max-den", "5000"]
    out = [
        subprocess.run(
            cmd + ["--jobs", jobs], capture_output=True, env=ENV,
            check=True, timeout=60,
        ).stdout
        for jobs in ("1", "2")
    ]
    assert out[0] == out[1] and out[0].startswith(b"T,count_reduced")
