"""Benchmark of the ``timesb`` command line; see perfbench/README.md.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # the four workloads
    python3 perfbench/run.py --workload orbits --trace 1   # traced run alone

With ``--trace 0`` one closed-loop client sends each workload's requests one
after another, each a fresh ``python -m timesb`` process, and keeps cycling
through them while the next one still fits in ``--seconds``. A pass's
metrics are built from each request's median over its repeats. With
``--trace 1`` it runs pairs of
in-process passes, one plain and one with every layer wrapped, and reports
per-layer metrics. Every request's output is checked. The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the full
record, with provenance, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict
from time import perf_counter

from client import OUT_DIR, REQUEST_TIMEOUT_S, Launcher, run_request
from tracing import LAYERS, layer_metrics
from workloads import (
    EXPECTED_PATH,
    GOLDEN_BOUNDS,
    HERE,
    ROOT,
    SETUP_ARGV,
    WORKLOADS,
    check_output,
    load_expected,
    requests_for,
)

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_SAMPLES = 3  # at the start; one more follows every request
# Every process's timeout is cut so that a run ends within this many seconds
# of its start even when requests hang.
HARD_LIMIT_S = 150.0
# Layer self times plus cli.self_s must add up to the traced wall time within
# this share of it, plus this much per request (the wrapper's own bookkeeping
# outside the root span).
SELF_SUM_TOLERANCE = 0.01
SELF_SUM_SLACK_PER_REQUEST_S = 0.002


def _median(values):
    return statistics.median(values) if values else 0.0


def _timeout(hard_deadline: float, limit: float = REQUEST_TIMEOUT_S) -> float:
    return max(1.0, min(limit, hard_deadline - perf_counter()))


# -- untraced: fresh processes, end-to-end metrics --------------------------


def measure_cli(name: str, seed: int, seconds: float) -> dict:
    expected = load_expected()

    def check(argv, stdout):
        return check_output(argv, stdout, expected)

    requests = requests_for(name, seed)
    start = perf_counter()
    deadline, hard_deadline = start + seconds, start + HARD_LIMIT_S
    with Launcher() as launcher:

        def send(argv):
            return run_request(launcher, argv, check, _timeout(hard_deadline))

        # the first process compiles bytecode and warms the file cache
        warmup = send(SETUP_ARGV)
        setup = [send(SETUP_ARGV) for _ in range(SETUP_SAMPLES)]
        # Cycle through the requests in order: at least one full pass, then
        # on while the next request is expected to end before the deadline.
        # A setup sample follows each request, so setup_s spans the run.
        samples = [[] for _ in requests]
        sent = 0
        while True:
            slot = sent % len(requests)
            if sent >= len(requests) and perf_counter() + samples[slot][-1].wall_s > deadline:
                break
            samples[slot].append(send(requests[slot]))
            setup.append(send(SETUP_ARGV))
            sent += 1
    outcomes = [warmup, *setup, *(o for slot in samples for o in slot)]
    failed = [o for o in outcomes if o.error]
    # one pass = one request of each slot, each at its median over repeats
    metrics = {
        "wall_s": sum(_median([o.wall_s for o in slot]) for slot in samples),
        "cpu_s": sum(_median([o.cpu_s for o in slot]) for slot in samples),
        "peak_rss_mb": max(_median([o.peak_rss_mb for o in slot]) for slot in samples),
        "setup_s": _median([o.wall_s for o in setup]),
    }
    return {
        "workload": name,
        "trace": 0,
        "requests": [list(a) for a in requests],
        "passes": sent / len(requests),
        "attempted": len(outcomes),
        "failed": len(failed),
        "error_rate": len(failed) / len(outcomes),
        "errors": [f"{' '.join(o.argv)}: {o.error}" for o in failed],
        "checks": {},
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in END_TO_END},
        "outcomes": [[asdict(o) for o in slot] for slot in samples],
        "setup_outcomes": [asdict(o) for o in [warmup, *setup]],
    }


# -- traced: in-process passes, per-layer metrics ---------------------------


def _inproc_pass(launcher, requests, traced: bool, timeout_s: float, spans_path=None) -> dict:
    job_path = OUT_DIR / "inproc-job.json"
    job_path.write_text(json.dumps({"requests": requests, "traced": traced, "spans": spans_path}))
    done = launcher.run([sys.executable, str(HERE / "inproc.py"), str(job_path)], timeout_s)
    if done.exit_code != 0:
        tail = done.stderr.decode(errors="replace").strip()[-500:]
        return {"wall_s": done.wall_s, "errors": [f"in-process pass failed: {tail}"]}
    return json.loads(done.stdout.decode().splitlines()[-1])


def trace_checks(name: str, result: dict, metrics: dict) -> dict:
    """Consistency of one traced pass: {check name: (gating, ok, detail)}."""
    summary = result["summary"]
    wall = result["wall_s"]
    total_self = sum(summary["self_s"])
    tolerance = SELF_SUM_TOLERANCE * wall + SELF_SUM_SLACK_PER_REQUEST_S * len(WORKLOADS[name])
    value = {m: v["value"] for m, v in metrics.items()}
    checks = {
        "self_times_add_up": (
            True,
            abs(total_self - wall) <= tolerance and min(summary["self_s"]) > -1e-6,
            f"sum of self times {total_self:.6f} s, traced wall {wall:.6f} s, "
            f"tolerance {tolerance:.6f} s",
        ),
        "every_binding_wrapped": (
            True,
            not result["binding_errors"],
            "; ".join(result["binding_errors"][:5]) or "all bindings hold the wrapper",
        ),
    }
    if name in ("certify", "orbits"):
        calls = value["sieve.members_up_to.calls"]
        checks["sieve_not_called"] = (True, calls == 0, f"sieve calls {calls}")
    if name == "count":
        walk = value["cantor.enumerate_members.self_s"]
        checks["no_coset_walks"] = (True, walk < 1e-3, f"enumerate_members {walk:.6f} s")
        selfs = {layer: value[f"{layer}.self_s"] for layer in LAYERS}
        selfs["cli"] = value["cli.self_s"]
        top = max(selfs, key=selfs.get)
        # Reported, not gating: a faster sieve, which ROADMAP asks for, is
        # expected to end the sieve's lead without anything being wrong.
        checks["sieve_dominates"] = (False, top == "sieve", f"largest self time: {top}")
    return checks


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    requests = [list(a) for a in requests_for(name, seed)]
    spans_path = str(OUT_DIR / f"spans-{name}.tsv")
    start = perf_counter()
    deadline, hard_deadline = start + seconds, start + HARD_LIMIT_S
    pairs = []
    with Launcher() as launcher:
        while True:
            t0 = perf_counter()
            plain = _inproc_pass(
                launcher, requests, False, _timeout(hard_deadline, HARD_LIMIT_S)
            )
            traced = _inproc_pass(
                launcher, requests, True, _timeout(hard_deadline, HARD_LIMIT_S), spans_path
            )
            pairs.append((plain, traced))
            if perf_counter() + (perf_counter() - t0) > deadline:
                break
    errors = [e for pair in pairs for r in pair for e in r["errors"]]
    per_pair = []
    checks = {}
    for plain, traced in pairs:
        if "summary" not in traced:
            continue
        m = layer_metrics(traced["summary"], traced["wall_s"], plain["wall_s"])
        per_pair.append(m)
        for check, (gating, ok, detail) in trace_checks(name, traced, m).items():
            if check not in checks or not ok:
                checks[check] = {"gating": gating, "ok": ok, "detail": detail}
    errors += [
        f"trace check {c}: {v['detail']}"
        for c, v in checks.items()
        if v["gating"] and not v["ok"]
    ]
    if not per_pair:
        errors.append("no traced pass completed")
    metrics = {}
    for metric, entry in (per_pair[0] if per_pair else {}).items():
        metrics[metric] = {
            "value": _median([m[metric]["value"] for m in per_pair]),
            "unit": entry["unit"],
        }
    attempted = 2 * len(pairs) * len(requests)
    return {
        "workload": name,
        "trace": 1,
        "requests": requests,
        "passes": len(pairs),
        "attempted": attempted,
        "failed": min(len(errors), attempted),
        "error_rate": min(len(errors), attempted) / attempted,
        "errors": errors,
        "checks": checks,
        "metrics": metrics,
        "spans": [p[1].get("summary", {}).get("spans") for p in pairs],
    }


# -- provenance and output ---------------------------------------------------


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, results: list[dict]) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_revision": revision.strip() if revision else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "src_sha256": _src_digest(),
        "seed": seed,
        "argv": {r["workload"]: r["requests"] for r in results},
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    name = result["workload"]
    print(
        f"[{name}] trace={result['trace']} passes={result['passes']:.3g} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"error_rate={result['error_rate']:.6g} fraction"
    )
    for metric, entry in result["metrics"].items():
        print(f"[{name}]   {metric} = {_fmt(entry['value'])} {entry['unit']}")
    for check, v in result["checks"].items():
        state = "ok" if v["ok"] else ("FAIL" if v["gating"] else "note")
        print(f"[{name}]   check {check}: {state} ({v['detail']})")
    for error in result["errors"][:20]:
        print(f"[{name}]   error: {error}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    missing = [
        str(p.relative_to(ROOT))
        for p in (ROOT / "src" / "timesb" / "cli.py", GOLDEN_BOUNDS, EXPECTED_PATH)
        if not p.is_file()
    ]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = measure_traced if args.trace else measure_cli
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds)
        report(result)
        results.append(result)
    prov = provenance(args.seed, results)
    print("provenance " + json.dumps(prov, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    record.write_text(json.dumps({"provenance": prov, "results": results}, indent=1))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
