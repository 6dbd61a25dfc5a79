"""The four workloads: their request menus, how a seed picks inputs, and the
output checks every request must pass.

Each workload is a fixed list of request slots. A slot is a menu of argument
vectors whose stdout digests were recorded from the program at the commit
that introduced this benchmark (``expected.json``). The seed picks one menu
entry per slot, shuffles the order of the comma lists given to ``--digits``
and ``--primes`` (the program sorts them, so output and work are unchanged),
and shuffles the order of the slots. Menu entries of one slot do the same
work to within a fraction of a percent, so the seed changes the inputs but
not the amount of work measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from client import HERE, ROOT

EXPECTED_PATH = HERE / "expected.json"
GOLDEN_BOUNDS = ROOT / "tests" / "data" / "bounds_golden.json"

# A no-work request: interpreter start, numpy and timesb import, one tiny
# membership test. Its wall time is the benchmark's setup_s.
SETUP_ARGV = ("member", "--base", "3", "--digits", "0,2", "--frac", "1/4")

_PERMUTABLE = ("--digits", "--primes")


def _menu(template: str, values) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(template.format(v).split()) for v in values)


# workload name -> slots; one request per slot per pass
WORKLOADS: dict[str, tuple[tuple[tuple[str, ...], ...], ...]] = {
    # count --coprime at jobs 1: the numpy sieve does most of the work, the
    # Fraction value sort the rest
    "count": (
        _menu(
            "count --base 3 --digits 0,2 --max-den {} --coprime --jobs 1",
            (199700, 199800, 199900, 200000),
        ),
        _menu(
            "count --base 4 --digits 0,3 --max-den {} --coprime --jobs 1",
            (999700, 999800, 999900, 1000000),
        ),
        _menu(
            "count --base 5 --digits 1,3 --max-den {} --coprime --jobs 1",
            (999700, 999800, 999900, 1000000),
        ),
    ),
    # enumerate and bounds at jobs 2: a smaller sieve through the process
    # pool, and half the time in the per-member output path
    "enumerate": (
        _menu(
            "enumerate --base 3 --digits 0,2 --max-den {} --jobs 2",
            (99700, 99800, 99900, 100000),
        ),
        _menu(
            "bounds --base 3 --digits 0,2 --epsilon 1/6 --max-den {} --jobs 2",
            (100000,),
        ),
        _menu(
            "enumerate --base 5 --digits 0,2,4 --max-den {} --jobs 2",
            (29850, 29900, 29950, 30000),
        ),
    ),
    # finiteness certificates: pure-Python coset walks, no sieve and only
    # small primes in build_profile
    "certify": (
        _menu("certify --base 3 --digits 0,2 --primes 2,7,11,13{}", ("",)),
        _menu("certify --base 5 --digits 0,2,4 --primes 2,3,11,17{}", ("",)),
        # a claimed epsilon up to the exact radius 1/9 changes the reported
        # epsilon, never the enumeration bound
        _menu(
            "certify --base 10 --digits 1,3,5,7,9 --primes 3,7,11,13{}",
            ("", " --epsilon 1/12", " --epsilon 1/9"),
        ),
    ),
    # orbit, decompose, profile and order: Fraction orbit lists and
    # brute-force orders, no sieve and no Cantor set
    "orbits": (
        # 2 is a primitive root mod 3^11: every numerator coprime to 3 has an
        # orbit of 2*3^10 points
        _menu(
            "orbit --base 2 --frac {}/177147 --decompose --primes 3",
            (1, 2, 88574, 177146),
        ),
        # ord(3, 2^17) = 2^15 for every odd numerator
        _menu(
            "orbit --base 3 --frac {}/131072 --decompose --primes 2",
            (1, 3, 5, 131071),
        ),
        _menu("orbit --base 2 --frac {}/177147", (1, 2, 88574, 177146)),
        # primes near 1e7 with ord(2, p) = p - 1
        _menu("profile --base 2 --primes {}", (9999971, 10000139, 10000189, 10000229)),
        # primes near 1e6 with ord(2, p) = (p - 1) / 2
        _menu("order --base 2 --modulus {}", (999809, 999863, 999959, 999983)),
    ),
}


def key_of(argv) -> str:
    """Digest key of a request: its argv with comma lists sorted."""
    out = list(argv)
    for i, tok in enumerate(out[:-1]):
        if tok in _PERMUTABLE:
            out[i + 1] = ",".join(sorted(out[i + 1].split(","), key=int))
    return " ".join(out)


def requests_for(name: str, seed: int) -> list[tuple[str, ...]]:
    """The seed's argv list for one pass of a workload, in the order it is sent."""
    rng = random.Random(f"{name}:{seed}")
    chosen = []
    for menu in WORKLOADS[name]:
        argv = list(rng.choice(menu))
        for i, tok in enumerate(argv[:-1]):
            if tok in _PERMUTABLE:
                parts = argv[i + 1].split(",")
                rng.shuffle(parts)
                argv[i + 1] = ",".join(parts)
        chosen.append(tuple(argv))
    rng.shuffle(chosen)
    return chosen


def all_menu_entries() -> list[tuple[str, ...]]:
    entries = [SETUP_ARGV]
    for slots in WORKLOADS.values():
        for menu in slots:
            entries.extend(menu)
    return entries


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def _opt(argv, name):
    i = argv.index(name)
    return argv[i + 1]


def _check_count(argv, text: str) -> str | None:
    lines = text.splitlines()
    if lines[0] != "T,count_reduced,count_all,includes_endpoints" or len(lines) != 3:
        return "count: unexpected CSV shape"
    rows = [line.split(",") for line in lines[1:]]
    T = _opt(argv, "--max-den")
    if [r[0] for r in rows] != [T, T] or [r[3] for r in rows] != ["true", "false"]:
        return "count: rows do not match T or endpoint flags"
    (red_w, all_w), (red_wo, all_wo) = ((int(r[1]), int(r[2])) for r in rows)
    if not (0 <= red_wo <= red_w <= all_w and red_wo <= all_wo <= all_w):
        return "count: counts out of order"
    return None


def _check_enumerate(argv, text: str) -> str | None:
    T = int(_opt(argv, "--max-den"))
    prev = None
    for line in text.splitlines():
        row = json.loads(line)
        if not 1 <= row["den"] <= T or not row["period"]:
            return f"enumerate: bad row {line}"
        x = Fraction(row["num"], row["den"])
        if prev is not None and x <= prev:
            return "enumerate: members not strictly ascending"
        prev = x
    if prev is None:
        return "enumerate: no members"
    return None


def _check_bounds(argv, text: str) -> str | None:
    lines = text.splitlines()
    summary = json.loads(lines[-1])
    golden = json.loads(GOLDEN_BOUNDS.read_text())
    shared = ("count", "K_emp_min", "c_emp_rad_min", "c_emp_P_min", "base", "digits")
    shared += ("epsilon", "max_den")
    if any(summary[k] != golden[k] for k in shared):
        return "bounds: summary differs from tests/data/bounds_golden.json"
    rows = lines[1:-2]
    if lines[-2] != "" or len(rows) != summary["count"]:
        return "bounds: row count differs from the summary count"
    branches = Counter(row.split(",")[6] for row in rows)
    if branches != golden["branch_counts"]:
        return "bounds: branch counts differ from tests/data/bounds_golden.json"
    return None


def _check_certify(argv, text: str) -> str | None:
    cert = json.loads(text)
    members = cert["members"]
    values = [Fraction(m["num"], m["den"]) for m in members]
    if cert["count_with_endpoints"] != len(members):
        return "certify: count_with_endpoints differs from the member list"
    if cert["count_without_endpoints"] != sum(1 for x in values if 0 < x < 1):
        return "certify: count_without_endpoints differs from the member list"
    if any(m["den"] > cert["max_denominator"] for m in members):
        return "certify: member denominator above max_denominator"
    if values != sorted(set(values)):
        return "certify: members not strictly ascending"
    return None


def _check_orbit(argv, text: str) -> str | None:
    out = json.loads(text)
    start = Fraction(_opt(argv, "--frac"))
    if "--decompose" in argv:
        if out["a1_equals_a2"] is not True or out["order"] != len(out["a1"]):
            return "orbit --decompose: a1 != a2 or order != len(a1)"
        if Fraction(out["fraction"]) != start:
            return "orbit --decompose: wrong fraction"
        return None
    if out["preperiod"] + out["period"] != len(out["points"]):
        return "orbit: preperiod + period != number of points"
    if Fraction(out["start"]) != start or Fraction(out["points"][0]) != start:
        return "orbit: wrong start point"
    return None


def _check_profile(argv, text: str) -> str | None:
    out = json.loads(text)
    if out["growth_ok"] is not True or out["primes"] != [int(_opt(argv, "--primes"))]:
        return "profile: growth check failed or wrong primes"
    return None


def _check_order(argv, text: str) -> str | None:
    out = json.loads(text)
    if out["verified"] is not True or out["modulus"] != int(_opt(argv, "--modulus")):
        return "order: not verified against brute force"
    return None


def _check_member(argv, text: str) -> str | None:
    if json.loads(text)["member"] is not True:
        return "member: 1/4 should be in the middle-thirds set"
    return None


_INVARIANTS = {
    "count": _check_count,
    "enumerate": _check_enumerate,
    "bounds": _check_bounds,
    "certify": _check_certify,
    "orbit": _check_orbit,
    "profile": _check_profile,
    "order": _check_order,
    "member": _check_member,
}


def invariant_error(argv, stdout: bytes) -> str | None:
    """The first independent invariant the output breaks, or None."""
    try:
        return _INVARIANTS[argv[0]](argv, stdout.decode())
    except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        return f"{argv[0]}: unparsable output ({type(exc).__name__}: {exc})"


def check_output(argv, stdout: bytes, expected: dict[str, str]) -> str | None:
    """Why this request's stdout is wrong, or None if it is right."""
    want = expected.get(key_of(argv))
    if want is None:
        return f"no recorded digest for {key_of(argv)!r}"
    if hashlib.sha256(stdout).hexdigest() != want:
        return "stdout digest differs from the recorded one"
    return invariant_error(argv, stdout)
