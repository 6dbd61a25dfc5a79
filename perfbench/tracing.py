"""Span tracing of ``timesb`` layers from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper under every name, in every ``timesb`` module, that bound
the original (``cli``, ``cantor``, ``orbit`` and ``orders`` import by name,
so patching the defining module alone would miss most calls). Each call is a
span (name, start, end, parent) kept in flat in-memory arrays; self time is
computed as the span closes, as its duration minus the time of its child
spans. A generator function gets one span per resumption, so its self time is
the work done inside it and not the consumer's.

A few wrappers also count work at the layer boundary (members out of the
sieve, boundary checks, orbit points, bound rows); see ``_HOOKS``.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("rational", "sieve", "cantor", "orders", "numtheory", "orbit", "bounds")
ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.active: list[int] = []
        self.counts: Counter = Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple[object, str, object, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.active.append(0)
        return nid

    def is_active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self.active[nid] > 0

    def _enter(self, nid: int) -> None:
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        self.active[nid] += 1
        stack.append([len(self.span_start), 0.0])
        self.span_start.append(perf_counter())

    def _exit(self) -> None:
        end = perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.self_s[nid] += dur - covered
        self.active[nid] -= 1
        if self._stack:
            self._stack[-1][1] += dur

    def run_root(self, fn, *args):
        """Call fn as a root span (one CLI request)."""
        nid = self.name_id(ROOT_SPAN)
        self.calls[nid] += 1
        self._enter(nid)
        try:
            return fn(*args)
        finally:
            self._exit()

    def _spanned(self, nid: int, fn):
        enter, leave = self._enter, self._exit
        calls = self.calls
        if inspect.isgeneratorfunction(fn):

            def resumed(*args, **kwargs):
                calls[nid] += 1
                inner = fn(*args, **kwargs)
                while True:
                    enter(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave()
                    yield item

            return resumed

        def call(*args, **kwargs):
            calls[nid] += 1
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return call

    def _wrap(self, name: str, fn):
        spanned = self._spanned(self.name_id(name), fn)
        hook = _HOOKS.get(name)
        if hook is None:
            wrapper = spanned
        else:

            def wrapper(*args, **kwargs):
                return hook(self, spanned, args, kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap each layer's public functions wherever they are bound."""
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"timesb.{layer}"]
            for attr, val in vars(mod).items():
                if (
                    inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    originals[id(val)] = (f"{layer}.{attr}", val)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for mod in _timesb_modules():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None and originals[id(val)][1] is val:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, val, wrapper))

    def binding_errors(self) -> list[str]:
        """Names that should hold a wrapper but do not, in any timesb module."""
        errors = [
            f"{mod.__name__}.{attr} is not the wrapper"
            for mod, attr, _, wrapper in self._patched
            if getattr(mod, attr) is not wrapper
        ]
        originals = {id(orig) for _, _, orig, _ in self._patched}
        for mod in _timesb_modules():
            for attr, val in vars(mod).items():
                if id(val) in originals:
                    errors.append(f"{mod.__name__}.{attr} still binds the original")
        if not self._patched:
            errors.append("nothing was wrapped")
        return errors

    def uninstall(self) -> None:
        for mod, attr, orig, _ in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def summary(self) -> dict:
        """Calls, self times and boundary counts, by name; JSON-serialisable."""
        return {
            "names": list(self.names),
            "calls": list(self.calls),
            "self_s": list(self.self_s),
            "counts": dict(self.counts),
            "spans": len(self.span_name),
        }

    def write_spans(self, path: Path) -> None:
        """Write every span as a tab-separated line, times relative to the first."""
        t0 = self.span_start[0] if self.span_start else 0.0
        names = self.names
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for i, (nid, start, end, parent) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                fh.write(f"{i}\t{names[nid]}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")


def _timesb_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "timesb" or name.startswith("timesb."))
    ]


# -- counters taken at layer boundaries ------------------------------------


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _hook_members_up_to(tracer, call, args, kwargs):
    before, t0 = _children_cpu(), perf_counter()
    result = call(*args, **kwargs)
    tracer.counts["sieve.span_s"] += perf_counter() - t0
    tracer.counts["sieve.worker_cpu_s"] += _children_cpu() - before
    tracer.counts["sieve.members_out"] += len(result)
    return result


def _hook_member(tracer, call, args, kwargs):
    result = call(*args, **kwargs)
    if tracer.is_active("sieve.members_up_to"):
        tracer.counts["sieve.boundary_checks"] += 1
        tracer.counts["sieve.boundary_accepts"] += bool(result)
    return result


def _hook_enumerate_members(tracer, call, args, kwargs):
    ds, dens = args
    dens = list(dens)
    tracer.counts["cantor.denominators_checked"] += len(dens)
    # computed from the list, not counted in the walk: each denominator d > 1
    # has its d - 1 residues scanned once, by coset walk or by direct test
    tracer.counts["cantor.coset_residues"] += sum(d - 1 for d in dens if d > 1)
    for item in call(ds, dens, **kwargs):
        tracer.counts["cantor.members_yielded"] += 1
        yield item


def _hook_orbit(tracer, call, args, kwargs):
    result = call(*args, **kwargs)
    tracer.counts["orbit.orbit.points"] += len(result.points)
    return result


def _hook_bound_report(tracer, call, args, kwargs):
    result = call(*args, **kwargs)
    tracer.counts["bounds.rows"] += result is not None
    return result


_HOOKS = {
    "sieve.members_up_to": _hook_members_up_to,
    "cantor.member": _hook_member,
    "cantor.enumerate_members": _hook_enumerate_members,
    "orbit.orbit": _hook_orbit,
    "bounds.bound_report": _hook_bound_report,
}


# -- per-layer metrics -----------------------------------------------------

# (metric name, unit); the value is computed in layer_metrics
PER_LAYER = (
    ("cli.self_s", "s"),
    ("rational.frac_str.calls", "count"),
    ("rational.self_s", "s"),
    ("sieve.members_up_to.calls", "count"),
    ("sieve.members_up_to.self_s", "s"),
    ("sieve.worker_cpu_s", "s"),
    ("sieve.members_out", "count"),
    ("sieve.members_per_s", "1/s"),
    ("sieve.boundary_checks", "count"),
    ("sieve.boundary_accept_ratio", "ratio"),
    ("sieve.self_s", "s"),
    ("cantor.reduced_members_up_to.self_s", "s"),
    ("cantor.count_report.self_s", "s"),
    ("cantor.member_witness.calls", "count"),
    ("cantor.member_witness.self_s", "s"),
    ("cantor.enumerate_members.self_s", "s"),
    ("cantor.enumerate_s_integers.self_s", "s"),
    ("cantor.denominators_checked", "count"),
    ("cantor.coset_residues", "count"),
    ("cantor.member_yield", "ratio"),
    ("cantor.self_s", "s"),
    ("orders.build_profile.calls", "count"),
    ("orders.build_profile.self_s", "s"),
    ("orders.order_from_profile.self_s", "s"),
    ("orders.self_s", "s"),
    ("numtheory.mult_order_bruteforce.calls", "count"),
    ("numtheory.mult_order_bruteforce.self_s", "s"),
    ("numtheory.factorize.calls", "count"),
    ("numtheory.factorize.self_s", "s"),
    ("numtheory.self_s", "s"),
    ("orbit.orbit.calls", "count"),
    ("orbit.orbit.points", "count"),
    ("orbit.orbit.self_s", "s"),
    ("orbit.decompose.self_s", "s"),
    ("orbit.self_s", "s"),
    ("bounds.bound_report.calls", "count"),
    ("bounds.bound_report.self_s", "s"),
    ("bounds.rows", "count"),
    ("bounds.row_yield", "ratio"),
    ("bounds.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Every PER_LAYER metric from the summary of one traced pass."""
    self_s = dict(zip(summary["names"], summary["self_s"]))
    calls = dict(zip(summary["names"], summary["calls"]))
    counts = Counter(summary["counts"])
    values = {
        "cli.self_s": self_s.get(ROOT_SPAN, 0.0),
        "sieve.members_per_s": _ratio(counts["sieve.members_out"], counts["sieve.span_s"]),
        "sieve.boundary_accept_ratio": _ratio(
            counts["sieve.boundary_accepts"], counts["sieve.boundary_checks"]
        ),
        "cantor.member_yield": _ratio(
            counts["cantor.members_yielded"], counts["cantor.denominators_checked"]
        ),
        "bounds.row_yield": _ratio(counts["bounds.rows"], calls.get("bounds.bound_report", 0)),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s for name, s in self_s.items() if name.startswith(layer + ".")
        )
    out = {}
    for metric, unit in PER_LAYER:
        if metric in values:
            value = values[metric]
        elif metric in counts:
            value = counts[metric]
        elif metric.endswith(".calls"):
            value = calls.get(metric[: -len(".calls")], 0)
        elif metric.endswith(".self_s"):
            value = self_s.get(metric[: -len(".self_s")], 0.0)
        else:
            value = 0
        out[metric] = {"value": value, "unit": unit}
    return out
