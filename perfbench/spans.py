"""Span tracer for the benchmark's traced run.

Spans are recorded around calls into qseal's layers from the benchmark's own
files: ``install`` swaps each listed function for a timing wrapper in every
qseal module namespace that holds it, and ``uninstall`` puts the originals
back. Nothing under ``src/`` changes, and untraced passes run the plain
functions because wrappers exist only between ``install`` and ``uninstall``.

Each span is (id, parent id, name, start ns, end ns). Spans nest strictly
(one thread), so a span's self time is its duration minus the durations of
its direct children. Sizes are computed from call arguments or results, after
the span has closed, and attached to the span name as counters.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _joint_dim(args, kwargs, result):
    psi = _arg(args, kwargs, 0, "psi")
    sigma = _arg(args, kwargs, 1, "sigma")
    keys = set(psi.amps)
    for _, member in sigma.members:
        keys.update(member.amps)
    return {"dim": len(keys)}


def _overlap_amps(args, kwargs, result):
    a = len(_arg(args, kwargs, 0, "a").amps)
    b = len(_arg(args, kwargs, 1, "b").amps)
    # squared_overlap makes three inner products: <a|b>, <a|a> and <b|b>;
    # the first walks the smaller support.
    return {"amps_touched": min(a, b) + a + b}


# (module, attribute, span name, sizer). A sizer maps (args, kwargs, result)
# to counters added under the span name; sizes are computed, not measured.
TARGETS = (
    ("qseal.states", "trace_distance_pure_vs_ensemble", "states.trace_distance_pure_vs_ensemble", _joint_dim),
    ("qseal.states", "trace_distance_pure", "states.trace_distance_pure", None),
    ("qseal.states", "apply_unitary_c", "states.apply_unitary_c",
     lambda a, k, r: {"amps_in": len(_arg(a, k, 0, "s").amps)}),
    ("qseal.states", "random_unitary", "states.random_unitary",
     lambda a, k, r: {"dim": len(r.basis)}),
    ("qseal.states", "collapse_branches", "states.collapse_branches",
     lambda a, k, r: {"branches": len(r)}),
    ("qseal.states", "squared_overlap", "states.squared_overlap", _overlap_amps),
    ("qseal.states", "project_accept_probability", "states.project_accept_probability", None),
    ("qseal.protocols", "seal_naive", "protocols.seal", None),
    ("qseal.protocols", "seal_garbage", "protocols.seal", None),
    ("qseal.protocols", "seal_multipicture", "protocols.seal", None),
    ("qseal.adversary", "strategy_report", "adversary.strategy_report", None),
    ("qseal.adversary", "proof_chain", "adversary.proof_chain", None),
    ("qseal.adversary", "random_strategy_sweep", "adversary.random_strategy_sweep", None),
    ("qseal.oaep", "seal_oaep", "oaep.seal_oaep",
     lambda a, k, r: {"branches": len(r.reference.amps)}),
    ("qseal.oaep", "encode", "oaep.encode", None),
    ("qseal.oaep", "tu_overlap", "oaep.tu_overlap", None),
    ("qseal.harness", "run_bound_sweep", "harness.run_bound_sweep",
     lambda a, k, r: {"rows": len(r)}),
    ("qseal.harness", "rows_to_csv", "harness.rows_to_csv",
     lambda a, k, r: {"bytes": len(r)}),
    ("qseal.cli", "main", "cli.main", None),
)


class _CountingHashlib:
    """Stands in for ``qseal.oaep``'s ``hashlib`` reference and counts sha256 calls."""

    def __init__(self):
        self.sha256_calls = 0

    def sha256(self, data=b""):
        self.sha256_calls += 1
        return hashlib.sha256(data)

    def __getattr__(self, name):
        return getattr(hashlib, name)


class Tracer:
    """In-memory span recorder with counters keyed by span name."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._next_id = itertools.count().__next__
        self.hashlib = _CountingHashlib()
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, sizer=None):
        """Return ``fn`` wrapped so each call records one span."""
        stack, spans, next_id, clock = self._stack, self.spans, self._next_id, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = next_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if sizer is not None:
                counters = self.counters[name]
                for key, value in sizer(args, kwargs, result).items():
                    counters[key] += value
                    counters[key + ".max"] = max(counters[key + ".max"], value)
            return result

        return wrapper

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` under a root span; returns (result, span seconds)."""
        result = self.span(name, fn)(*args)
        _, _, _, start, end = self.spans[-1]
        return result, (end - start) / 1e9

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every loaded qseal module that references it."""
        modules = [m for n, m in sys.modules.items() if n == "qseal" or n.startswith("qseal.")]
        for module_name, attr, name, sizer in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.span(name, original, sizer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        oaep = sys.modules["qseal.oaep"]
        create = oaep.OaepContext.__dict__["create"].__func__
        self._patch(oaep.OaepContext, "create",
                    classmethod(self.span("oaep.OaepContext.create", create)))
        self._patch(oaep, "hashlib", self.hashlib)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[int, int]:
        """Self time in ns of every span: duration minus its children's durations."""
        own = {sid: end - start for sid, _, _, start, end in self.spans}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


def _quantile_ms(durations_ns: list[int], q: int) -> float:
    """q-th percentile in ms; with fewer than two samples, the sample itself."""
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[q - 1] / 1e6


def layer_metrics(tracer: Tracer, pass_root: str, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit), from one traced run.

    Sums cover every recorded span: one traced set-up and one traced pass.
    """
    own = tracer.self_times()
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    traced_wall_ns = 0
    pass_self_ns = 0
    for sid, _, name, start, end in tracer.spans:
        self_ns[name] += own[sid]
        calls[name] += 1
        durations[name].append(end - start)
        if name == pass_root:
            traced_wall_ns += end - start
            pass_self_ns += own[sid]

    def self_s(name):
        return (f"{name}.self_s", (self_ns[name] / 1e9, "s"))

    def count(name, key="calls", unit="count"):
        if key == "calls":
            return (f"{name}.calls", (calls[name], unit))
        return (f"{name}.{key}", (tracer.counters[name][key], unit))

    def mean(name, key, label):
        n = calls[name]
        return (f"{name}.{label}", (tracer.counters[name][key] / n if n else 0.0, "count"))

    def pct(name, q):
        return (f"{name}.ms.p{q}", (_quantile_ms(durations[name], q), "ms"))

    td = "states.trace_distance_pure_vs_ensemble"
    metrics = dict([
        self_s(td), count(td), mean(td, "dim", "dim_mean"),
        (f"{td}.dim_max", (tracer.counters[td]["dim.max"], "count")),
        self_s("states.trace_distance_pure"), count("states.trace_distance_pure"),
        self_s("states.apply_unitary_c"), count("states.apply_unitary_c"),
        count("states.apply_unitary_c", "amps_in"),
        self_s("states.random_unitary"), count("states.random_unitary"),
        mean("states.random_unitary", "dim", "dim_mean"),
        self_s("states.collapse_branches"), count("states.collapse_branches"),
        count("states.collapse_branches", "branches"),
        self_s("states.squared_overlap"), count("states.squared_overlap"),
        count("states.squared_overlap", "amps_touched"),
        self_s("states.project_accept_probability"), count("states.project_accept_probability"),
        self_s("protocols.seal"), count("protocols.seal"),
        self_s("adversary.strategy_report"), count("adversary.strategy_report"),
        pct("adversary.strategy_report", 50), pct("adversary.strategy_report", 99),
        self_s("adversary.proof_chain"), count("adversary.proof_chain"),
        pct("adversary.proof_chain", 50), pct("adversary.proof_chain", 99),
        self_s("adversary.random_strategy_sweep"),
        self_s("oaep.OaepContext.create"),
        self_s("oaep.seal_oaep"), count("oaep.seal_oaep"), count("oaep.seal_oaep", "branches"),
        self_s("oaep.encode"), count("oaep.encode"),
        self_s("oaep.tu_overlap"), count("oaep.tu_overlap"),
        ("oaep.sha256.calls", (tracer.hashlib.sha256_calls, "count")),
        self_s("harness.run_bound_sweep"),
        ("harness.rows", (tracer.counters["harness.run_bound_sweep"]["rows"], "count")),
        self_s("harness.rows_to_csv"), count("harness.rows_to_csv", "bytes", "bytes"),
        self_s("cli.main"),
        ("trace.overhead", (traced_wall_ns / 1e9 / untraced_wall_s - 1.0, "ratio")),
        ("trace.spans", (len(tracer.spans), "count")),
        ("trace.unattributed_share", (pass_self_ns / traced_wall_ns, "ratio")),
    ])
    return metrics
