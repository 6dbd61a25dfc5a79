"""One in-process pass: call ``timesb.cli.main(argv)`` for each request.

Run as a child of ``run.py`` so that every pass starts from a fresh
interpreter (no warm caches carried over from an earlier pass). Reads a JSON
job file: ``{"requests": [argv, ...], "traced": bool, "spans": path or
null}``. Prints one JSON object with the pass wall time and the errors of
failed requests and, when traced, whether every binding held the wrapper and
the tracer's summary (calls, self times and boundary counts by name).

Usage: python3 perfbench/inproc.py JOB.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

from workloads import ROOT, check_output, load_expected

sys.path.insert(0, str(ROOT / "src"))

import timesb.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def _call(main, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = tracer.run_root(main, list(argv)) if tracer else main(list(argv))
        except SystemExit as exc:
            code = exc.code
        wall = perf_counter() - t0
    return wall, code, out.getvalue().encode(), err.getvalue()


def run_pass(requests, traced: bool):
    """Wall time, per-request errors and the tracer (or None) of one pass."""
    expected = load_expected()
    tracer = Tracer() if traced else None
    binding_errors = []
    if tracer:
        tracer.install()
        binding_errors = tracer.binding_errors()
    wall = 0.0
    errors = []
    try:
        for argv in requests:
            argv = tuple(argv)
            dt, code, stdout, stderr = _call(timesb.cli.main, argv, tracer)
            wall += dt
            if code != 0:
                errors.append(f"{' '.join(argv)}: exit code {code}: {stderr.strip()[-200:]}")
                continue
            error = check_output(argv, stdout, expected)
            if error:
                errors.append(f"{' '.join(argv)}: {error}")
    finally:
        if tracer:
            binding_errors += tracer.binding_errors()
            tracer.uninstall()
    return wall, errors, binding_errors, tracer


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    wall, errors, binding_errors, tracer = run_pass(job["requests"], job["traced"])
    result = {"wall_s": wall, "errors": errors}
    if tracer is not None:
        result["binding_errors"] = binding_errors
        result["summary"] = tracer.summary()
        if job.get("spans"):
            tracer.write_spans(Path(job["spans"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
