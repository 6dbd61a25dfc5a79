"""Record the stdout digest of every menu entry into perfbench/expected.json.

    python3 perfbench/record_expected.py

Each entry is run once through the same client as the benchmark, and must
exit 0 and pass its independent invariants before its digest is kept. The
digests in the committed file were recorded from the program at the commit
that introduced this benchmark; re-record only when an output format change
is intended, and say so where the change is described.
"""

from __future__ import annotations

import hashlib
import json
import sys

from client import Launcher
from workloads import EXPECTED_PATH, all_menu_entries, invariant_error, key_of


def main() -> int:
    digests = {}
    with Launcher() as launcher:
        for argv in all_menu_entries():
            done = launcher.run([sys.executable, "-m", "timesb", *argv], timeout_s=120.0)
            error = (
                f"exit code {done.exit_code}"
                if done.exit_code != 0
                else invariant_error(argv, done.stdout)
            )
            print(f"{done.wall_s:7.2f} s  {' '.join(argv)}  {error or 'ok'}", flush=True)
            if error:
                return 1
            digests[key_of(argv)] = hashlib.sha256(done.stdout).hexdigest()
    EXPECTED_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
