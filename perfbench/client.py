"""Closed-loop, single-client driver of the ``timesb`` command line.

Each request is a fresh process in its own process group. The client sends
the next request only after the previous one has exited. Its stdout and
stderr go to files under ``perfbench/out/``; user+sys CPU and peak RSS come
from ``os.wait4``, which includes the request's reaped pool workers. A
request that outlives its timeout has its whole process group killed and
counts as a failure; the pass then goes on with the next request.

Requests are started by a small launcher process (this file run as a
script), not by the benchmark itself. Linux copies the peak RSS of the
process that calls exec into the new program's ``ru_maxrss``, so a request
started straight from the benchmark, whose memory grows as it checks large
outputs, would report at least the benchmark's own peak.
"""

from __future__ import annotations

import ctypes
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REQUEST_TIMEOUT_S = 40.0
_PR_SET_CHILD_SUBREAPER = 36


# -- launcher side ------------------------------------------------------------


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so killed pool workers are reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("TIMESB_JOBS", None)  # every request states --jobs itself
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the group is left, reaping adopted orphans."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise RuntimeError(f"process group {pgid} still alive after SIGKILL")


def _spawn_and_wait(cmd: list[str], timeout_s: float, stdout: str, stderr: str) -> dict:
    t0 = time.perf_counter()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited = bool(select.select([pidfd], [], [], timeout_s)[0])
    finally:
        os.close(pidfd)
    if not exited:
        _kill_group(proc.pid)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not exited:
        _reap_group(proc.pid)
    return {
        "pid": proc.pid,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode if exited else None,
    }


def serve() -> None:
    """Launcher loop: one JSON job per stdin line, one JSON result per line."""
    _become_subreaper()
    for line in sys.stdin:
        job = json.loads(line)
        print(json.dumps(_spawn_and_wait(**job)), flush=True)


# -- benchmark side -----------------------------------------------------------


@dataclass
class Finished:
    pid: int  # also the process group id
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None: killed at the timeout


@dataclass
class Outcome:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None: killed at the timeout
    error: str | None  # None: exit 0 and every output check passed


class Launcher:
    """The launcher process; use as a context manager."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self._stdout = OUT_DIR / "request.stdout"
        self._stderr = OUT_DIR / "request.stderr"
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def run(self, cmd: list[str], timeout_s: float) -> Finished:
        """Run cmd from the repository root to its exit or its timeout."""
        job = {
            "cmd": cmd,
            "timeout_s": timeout_s,
            "stdout": str(self._stdout),
            "stderr": str(self._stderr),
        }
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process died")
        result = json.loads(line)
        return Finished(
            stdout=self._stdout.read_bytes(), stderr=self._stderr.read_bytes(), **result
        )


def run_request(
    launcher: Launcher,
    argv: tuple[str, ...],
    check: Callable[[tuple[str, ...], bytes], str | None],
    timeout_s: float = REQUEST_TIMEOUT_S,
) -> Outcome:
    """Run one CLI request to completion (or to its timeout) and check it."""
    done = launcher.run([sys.executable, "-m", "timesb", *argv], timeout_s)
    if done.exit_code is None:
        error = f"timed out after {timeout_s:g} s"
    elif done.exit_code != 0:
        tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        error = f"exit code {done.exit_code}: {' '.join(tail)}"
    else:
        error = check(argv, done.stdout)
    return Outcome(
        argv=argv,
        wall_s=done.wall_s,
        cpu_s=done.cpu_s,
        peak_rss_mb=done.peak_rss_mb,
        exit_code=done.exit_code,
        error=error,
    )


if __name__ == "__main__":
    serve()
