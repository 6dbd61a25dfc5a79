"""Start-up cost: the commands that never reach the sieve, the walk or the
bounds stream run without importing numpy, `dataclasses` or `inspect`, no
command imports a process pool, the orbit layer's commands run no code of
the Cantor-set, sieve or bounds layers and hold no orbit-sized memory, the
member outputs hold no output-sized memory past their sieve,
numpy starts no OpenBLAS threads, a worker forked right after numpy's
first import gives the same bytes as no worker, and every name the package
exports on first access is there to load."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import timesb
from timesb import sieve

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": SRC}
HEAVY = ("numpy", "concurrent.futures", "multiprocessing")
# dataclasses imports inspect, and with it ast, dis and tokenize
INTROSPECTION = ("dataclasses", "inspect")
LAYERS = ("timesb.cantor", "timesb.sieve", "timesb.bounds")

# runs cli.main on argv in this fresh interpreter, then prints the exit code
# and the watched modules it loaded as the last stderr line; a layer that cli
# enters in sys.modules for first use is no plain module until its code runs
_PROBE = (
    "import sys\n"
    "from types import ModuleType\n"
    "from timesb import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "loaded = [m for m in {!r} if type(sys.modules.get(m)) is ModuleType]\n"
    "print(code, *loaded, file=sys.stderr)\n"
)


def loaded_modules(*argv: str, watch=HEAVY) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(watch), *argv],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return loaded


def test_every_exported_name_resolves():
    # __all__ comes from the package's lazy export table, not from the
    # submodules it names: a name deleted from its module but left in the
    # table is listed and fails only on first access
    assert [name for name in timesb.__all__ if not hasattr(timesb, name)] == []


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
    assert loaded_modules(*argv.split(), watch=HEAVY + INTROSPECTION) == []


@pytest.mark.parametrize(
    "argv",
    [
        "orbit --base 2 --frac 5/27",
        "orbit --base 2 --frac 5/27 --decompose --primes 3",
        "order --base 2 --modulus 243",
        "density --base 2 --primes 3 --epsilon 1/10",
    ],
)
def test_orbit_layer_commands_run_no_cantor_sieve_or_bounds(argv):
    assert loaded_modules(*argv.split(), watch=LAYERS) == []


# starts `python -m timesb argv` from this small process and prints its exit
# code and peak RSS in KiB: a process that calls exec passes its own peak
# into the new program's ru_maxrss, so a request started straight from the
# test runner would report at least the runner's peak
_RSS_PROBE = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen([sys.executable, '-m', 'timesb', *sys.argv[1:]],\n"
    "                         stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


@functools.cache
def peak_rss_kib(argv: str) -> int:
    """The least ru_maxrss of fresh runs of argv, each with an environment
    of another size: where the interpreter's objects land in the heap moves
    with the size of the environment and of the paths, and with it a
    request's peak by up to about 1 MB, so the least peak over a few
    layouts is steadier than one layout run twice."""
    peaks = []
    for pad in range(0, 2048, 512):
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_PROBE, *argv.split()],
            capture_output=True, text=True, env={**ENV, "LAYOUT_PAD": "x" * pad},
            timeout=60,
        )
        code, kib = proc.stdout.split()
        assert code == "0", proc.stderr
        peaks.append(int(kib))
    return min(peaks)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize(
    "argv",
    [
        "orbit --base 2 --frac 1/177147",
        "orbit --base 2 --frac 1/177147 --decompose --primes 3",
    ],
)
def test_orbit_peaks_within_1mb_of_a_request_without_work(argv):
    # 118098 points, 1.8 and 3.6 MB of JSON, written with no orbit-sized
    # list or text held
    idle = peak_rss_kib("order --base 2 --modulus 243")
    assert peak_rss_kib(argv) - idle < 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize(
    "argv",
    [
        "enumerate --base 3 --digits 0,2 --max-den 100000 --jobs 1",
        "bounds --base 3 --digits 0,2 --max-den 100000 --jobs 1 --epsilon 1/6",
        "bounds --base 3 --digits 0,2 --max-den 100000 --jobs 1 --epsilon 1/6 --format json",
    ],
)
def test_member_output_peaks_within_1mb_of_count(argv):
    # 41472 member rows, 3.2 MB of enumerate lines and 1.5 MB of bounds JSON,
    # written a chunk or slice of rows at a time: past count's own sieve, only
    # the int64 rows and one report per den are held
    count = peak_rss_kib("count --base 3 --digits 0,2 --max-den 100000 --jobs 1")
    assert peak_rss_kib(argv) - count < 1024


def test_profile_runs_neither_cantor_nor_sieve():
    argv = "profile --base 2 --primes 3,5".split()
    assert loaded_modules(*argv, watch=LAYERS) == ["timesb.bounds"]


# runs cli.main on argv, then prints the exit code, the process's thread
# count and the OPENBLAS_NUM_THREADS it ended with
_THREADS_PROBE = (
    "import os, sys\n"
    "from timesb import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    threads = next(ln.split()[1] for ln in fh if ln.startswith('Threads:'))\n"
    "print(code, threads, os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr)\n"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize("setting", [None, "2"])
def test_count_starts_no_openblas_threads_unless_asked(setting):
    env = {k: v for k, v in ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    argv = "count --base 3 --digits 0,2 --max-den 500 --jobs 1".split()
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, threads, kept = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    if setting is None:
        assert (threads, kept) == ("1", "1")
    else:
        assert kept == setting


# base 3 {0,2} at T = 2e5: a tree past the cut, so --jobs 2 forks a worker
_FORKED = "count --base 3 --digits 0,2 --max-den 200000 --jobs 2"


def test_forked_request_is_past_the_cut():
    assert sieve._tree_work(3, 2, 200000) >= sieve._FORK_WORK
    assert sieve._tree_work(3, 2, 500) < sieve._FORK_WORK


def test_count_at_one_job_imports_no_pool():
    argv = "count --base 3 --digits 0,2 --max-den 500 --jobs 1".split()
    assert loaded_modules(*argv) == ["numpy"]


@pytest.mark.parametrize(
    "argv", ["enumerate --base 3 --digits 0,2 --max-den 500 --jobs 2", _FORKED]
)
def test_two_jobs_import_no_pool_below_or_past_the_cut(argv):
    assert loaded_modules(*argv.split()) == ["numpy"]


@pytest.mark.parametrize(
    "argv",
    [
        "count --base 3 --digits 0,2 --max-den 500 --jobs 1",
        "enumerate --base 3 --digits 0,2 --max-den 500 --jobs 1",
        "certify --base 3 --digits 0,2 --primes 2,7,11,13",
        "enumerate --base 3 --digits 0,2 --denominators 4,10,1",
        "enumerate --base 3 --digits 0,2 --den-form 2^k --max-exp 8",
        "bounds --base 3 --digits 0,2 --max-den 500 --jobs 1",
        "bounds --base 3 --digits 0,2 --max-den 500 --jobs 1 --format json",
    ],
)
def test_sieve_commands_load_no_numpy_ma(argv):
    # the sieve's final dedup, the enumerate witnesses and lines, certify's
    # requested-den filter and the bounds per-den grouping stay clear of
    # np.unique, which imports numpy.ma on its first call
    assert loaded_modules(*argv.split(), watch=("numpy", "numpy.ma")) == ["numpy"]


def test_pool_forked_after_first_numpy_import_keeps_bytes():
    cmd = [sys.executable, "-m", "timesb", *_FORKED.split()[:-2]]
    out = [
        subprocess.run(
            cmd + ["--jobs", jobs], capture_output=True, env=ENV,
            check=True, timeout=60,
        ).stdout
        for jobs in ("1", "2")
    ]
    assert out[0] == out[1] and out[0].startswith(b"T,count_reduced")
