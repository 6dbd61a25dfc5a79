"""Shared pytest wiring for the suite.

Adds this directory to sys.path so the oracle module imports the same way
under any invocation, and the checkout's `src` to sys.path and to
PYTHONPATH (for the commands the tests start) where it is not there
already, so `python -m pytest` runs from a clean checkout; a run that sets
PYTHONPATH=src keeps its environment as it is. Prints one PASS/FAIL line
per acceptance criterion after the run so the gate can be read without
scrolling.
"""

import os
import sys
from pathlib import Path

_TESTS = Path(__file__).resolve().parent
_SRC = _TESTS.parent / "src"

sys.path.insert(0, str(_TESTS))
if _SRC not in [Path(p).resolve() for p in sys.path]:
    sys.path.insert(0, str(_SRC))
_PYTHONPATH = os.environ.get("PYTHONPATH", "")
if _SRC not in [Path(p).resolve() for p in _PYTHONPATH.split(os.pathsep) if p]:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), _PYTHONPATH]))

_MARKER = "test_acceptance.py::test_criterion_"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for outcome, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if _MARKER not in nodeid:
                continue
            num = int(nodeid.split(_MARKER, 1)[1].split("_", 1)[0])
            # a test that both set up and failed should stay FAIL
            if verdicts.get(num) != "FAIL":
                verdicts[num] = word
    if not verdicts:
        return
    try:
        from test_acceptance import CRITERIA
    except Exception:
        CRITERIA = {}
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(verdicts):
        label = CRITERIA.get(num, "")
        terminalreporter.write_line(f"{verdicts[num]} criterion {num}: {label}")
