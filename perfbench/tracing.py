"""Per-layer tracing from outside the library.

A Tracer replaces every public function of each trelliskit layer module
with a timing wrapper, in every module namespace (and module-level list)
that holds a reference to it, so calls are caught where the calling
module looks the function up: ``trelliskit.cli.enumerate_tnorms``,
``trelliskit.enumeration.check``, ``trelliskit.reproduction.CRITERIA``
and so on.  Nothing under ``src/`` is edited; ``uninstall`` puts the
originals back.

Each wrapped call becomes a span (id, parent id, name, start ns, end ns,
run id) kept in memory.  The functions in UNSPANNED are leaves called
in hot loops: once per pair of t-norms in the pointwise order
(pointwise_leq, over 600,000 times per enumerate-shipped pass), once per
table in the search and its final check (make_op), once per pair of
elements when meet and join tables are built (infimum, supremum).  They
are timed and counted like the rest, so they have calls and self time,
but keep no span each, which keeps the trace small.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

from trelliskit import bruteforce

LAYERS = (
    "cli",
    "fileformat",
    "relation",
    "trellis",
    "elements",
    "interior",
    "tnorms",
    "enumeration",
    "bruteforce",
    "generators",
    "reproduction",
)

UNSPANNED = frozenset(
    {"tnorms.pointwise_leq", "tnorms.make_op", "trellis.infimum", "trellis.supremum"}
)


class Tracer:
    """Spans and per-function call/time totals for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        # name -> [calls, total ns, ns spent in wrapped callees]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counters: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self.classified: set[bytes] = set()  # distinct trellises seen
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 0
        self._patched: list[tuple[object, object, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"trelliskit.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "trelliskit" and not name.startswith("trelliskit."):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if isinstance(value, list):
                    for k, item in enumerate(value):
                        if callable(item) and item in wrappers:
                            self._patched.append((value, k, item))
                            value[k] = wrappers[item]
                elif callable(value) and value in wrappers:
                    self._patched.append((space, attr, value))
                    space[attr] = wrappers[value]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            holder[key] = original
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        totals = self.totals[name]
        stack = self._stack
        observe = _OBSERVERS.get(name)
        keep_span = name not in UNSPANNED

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [-1, name, 0]
            if keep_span:
                frame[0] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                totals[0] += 1
                totals[1] += end - start
                totals[2] += frame[2]
                if parent is not None:
                    parent[2] += end - start
                if keep_span:
                    self.spans.append(
                        (frame[0], -1 if parent is None else parent[0], name,
                         start, end, self.run_id)
                    )
            if observe is not None:
                observe(self, parent, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount


# Observers turn a finished call's arguments and result into counters.
# They run after the span has closed, so their cost is not charged to
# the observed function (it lands in the caller's self time, which is
# why they stay this small).


def _observe_enumerate(tracer, parent, args, res):
    stats = res.search_stats
    tracer.count("enumeration.nodes", stats["nodes"])
    tracer.count("enumeration.associativity_prunes", stats["associativity_prunes"])
    tracer.count("enumeration.monotone_prunes", stats["monotone_prunes"])
    tracer.count("enumeration.final_check_rejects", stats["final_check_rejects"])
    tracer.count("enumeration.order_pairs", res.count * res.count)
    tracer.count("enumeration.tnorms", res.count)


def _observe_check(tracer, parent, args, report):
    if not report.is_tnorm:
        tracer.count("tnorms.check.fails")


def _observe_classify(tracer, parent, args, cls):
    t = args[0]
    key = repr(t.names).encode() + t.rel.tobytes() + t.meet.tobytes() + t.join.tobytes()
    tracer.classified.add(key)


def _observe_random_psoset(tracer, parent, args, p):
    if parent is not None and parent[1] == "generators.random_trellis":
        tracer.count("generators.random_trellis.attempts")


def _observe_bruteforce(tracer, parent, args, ops):
    candidates = inspect.unwrap(bruteforce.bruteforce_candidate_count)(args[0])
    tracer.count("bruteforce.candidates", candidates)
    tracer.count("bruteforce.tnorms", len(ops))


def _observe_export_dot(tracer, parent, args, text):
    tracer.count("fileformat.export_dot.bytes", len(text.encode()))


_OBSERVERS = {
    "enumeration.enumerate_tnorms": _observe_enumerate,
    "tnorms.check": _observe_check,
    "elements.classify": _observe_classify,
    "generators.random_bounded_psoset": _observe_random_psoset,
    "bruteforce.bruteforce_tnorms": _observe_bruteforce,
    "fileformat.export_dot": _observe_export_dot,
}


# Functions reported by name, beyond the per-layer totals.
CALLS_AND_SELF = (
    "relation.validate_psoset",
    "relation.hasse",
    "relation.transitive_closure",
    "trellis.build_trellis",
    "enumeration.enumerate_tnorms",
    "enumeration.order_diagram",
    "tnorms.pointwise_leq",
    "tnorms.check",
    "tnorms.make_op",
    "elements.classify",
    "interior.validate_interior",
    "generators.random_trellis",
    "bruteforce.bruteforce_tnorms",
)
SELF_ONLY = (
    "cli.main",
    "fileformat.parse",
    "fileformat.document_trellis",
    "fileformat.export_dot",
)
COUNTS = (
    "cli.stdout_bytes",
    "fileformat.export_dot.bytes",
    "enumeration.nodes",
    "enumeration.associativity_prunes",
    "enumeration.monotone_prunes",
    "enumeration.final_check_rejects",
    "enumeration.order_pairs",
)
CRITERIA = tuple(f"reproduction.criterion_{k}" for k in range(1, 11))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures, each per pass of the workload (totals / passes).

    self_s is a function's span time minus the time of the wrapped
    functions it called.  A layer the workload never enters reads 0.
    """
    per = 1.0 / passes
    totals, counters = tracer.totals, tracer.counters

    def calls(name):
        return totals[name][0] if name in totals else 0

    def self_ns(name):
        c = totals.get(name)
        return c[1] - c[2] if c else 0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        names = [k for k in totals if k.startswith(layer + ".")]
        out[f"{layer}.calls"] = (sum(calls(k) for k in names) * per, "count")
        out[f"{layer}.self_s"] = (sum(self_ns(k) for k in names) * 1e-9 * per, "s")
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (calls(name) * per, "count")
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_s"] = (self_ns(name) * 1e-9 * per, "s")
    for name in COUNTS:
        unit = "bytes" if name.endswith("bytes") else "count"
        out[name] = (counters[name] * per, unit)
    out["enumeration.yield"] = (
        _ratio(counters["enumeration.tnorms"], counters["enumeration.nodes"]), "ratio")
    out["tnorms.check.fail_ratio"] = (
        _ratio(counters["tnorms.check.fails"], calls("tnorms.check")), "ratio")
    # Every pass classifies the same trellises, so the distinct set is one pass's.
    out["elements.classify.repeat_ratio"] = (
        _ratio(calls("elements.classify") * per, len(tracer.classified)), "ratio")
    out["generators.accept_ratio"] = (
        _ratio(calls("generators.random_trellis"),
               counters["generators.random_trellis.attempts"]), "ratio")
    out["bruteforce.yield"] = (
        _ratio(counters["bruteforce.tnorms"], counters["bruteforce.candidates"]), "ratio")
    for name in CRITERIA:
        total = totals[name][1] if name in totals else 0
        out[f"{name}.s"] = (total * 1e-9 * per, "s")
    out["trace.spans"] = (len(tracer.spans) * per, "count")
    return out
