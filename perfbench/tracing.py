"""Per-layer tracing for the borderings benchmark, done from outside the library.

The tracer rebinds public entry points where their callers look them up:
module globals (``borderings.ordering.ord_b``,
``borderings.factorials.exponent_sequence``, ...) and the methods of the
``IntegerSet`` subclasses, ``FactoredNumber``, ``BaseSet`` and
``TruncatedSeries``.  Nothing under ``src/`` is edited; ``uninstall`` puts
every original back.

Layer boundaries get spans.  A span's self time is its duration minus the
time covered by its child spans, and a layer's self time is the sum over
its spans.  Hot leaves (``ord_b``, ``is_prime``, ``TruncatedSeries.__mul__``)
get call counters only, so their cost stays with the calling layer.  The
first SPAN_CAP spans are kept in memory and written out by ``write_spans``
after the run; later ones are only counted.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from array import array

LAYERS = (
    "numerics",
    "intsets",
    "ordering",
    "series",
    "factored",
    "factorials",
    "closedforms",
    "tables",
    "cli",
)
QUERY_SPAN = "bench"  # the span of one benchmark query, the root of its tree
SPAN_CAP = 50_000  # spans kept in full; enough for a file one can read
COUNTED = {"ord_b", "is_prime"}  # the numerics leaves that get counters
UNWRAPPED = {"canonical_key"}  # sort key: too hot for a span, stays with its caller
SET_METHODS = ("contains", "elements_up_to", "residue_status", "pick_in_class")
FACTORED_METHODS = (
    "value",
    "refine_to_primes",
    "format_factored",
    "exponentwise_divides",
    "integer_divides",
    "__mul__",
    "parse",
)


class Tracer:
    """Spans and counters for the calls made while it is installed."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = dict.fromkeys((QUERY_SPAN,) + LAYERS, 0.0)
        self.alpha_requests: set = set()  # distinct (S, b, k) asked of exponent_sequence by factorials
        self.alpha_distinct = 0  # distinct requests summed over finished passes
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans_dropped = 0
        self._id = array("q")
        self._parent = array("q")
        self._query = array("q")
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._next_id = [0]
        self._query_id = [0]
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, key: str) -> int:
        if key not in self._name_ids:
            self._name_ids[key] = len(self.span_names)
            self.span_names.append(key)
        self.calls.setdefault(key, 0)
        return self._name_ids[key]

    def _span(self, fn, key: str, layer: str):
        name_id = self._name_id(key)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        next_id, query_id, clock = self._next_id, self._query_id, time.perf_counter
        ids, parents, queries, names = self._id, self._parent, self._query, self._name
        starts, ends = self._start, self._end

        def wrapper(*args, **kwargs):
            calls[key] += 1
            sid = next_id[0]
            next_id[0] = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                parent = stack[-1]
                self_s[layer] += dur - frame[0]
                parent[0] += dur
                if len(ids) < SPAN_CAP:
                    ids.append(sid)
                    parents.append(parent[1])
                    queries.append(query_id[0])
                    names.append(name_id)
                    starts.append(t0)
                    ends.append(t1)
                else:
                    self.spans_dropped += 1

        return functools.wraps(fn)(wrapper)

    def _counter(self, fn, key: str):
        self._name_id(key)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _alpha_site(self, inner):
        """factorials' view of exponent_sequence: counts calls and distinct requests."""
        calls, requests = self.calls, self.alpha_requests
        calls.setdefault("factorials.exponent_sequence", 0)

        def wrapper(S, b, k, *args, **kwargs):
            calls["factorials.exponent_sequence"] += 1
            requests.add((S.spec, b, k))
            return inner(S, b, k, *args, **kwargs)

        return wrapper

    def query(self, fn):
        """Run one benchmark query as a root span and return its result."""
        self._query_id[0] += 1
        sid = self._next_id[0]
        self._next_id[0] = sid + 1
        frame = [0.0, sid]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.self_s[QUERY_SPAN] += (t1 - t0) - frame[0]
            if len(self._id) < SPAN_CAP:
                self._id.append(sid)
                self._parent.append(-1)
                self._query.append(self._query_id[0])
                self._name.append(self._name_id(QUERY_SPAN))
                self._start.append(t0)
                self._end.append(t1)
            else:
                self.spans_dropped += 1

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the entry points of every layer module of the given borderings package."""
        modules = {"borderings": package}
        modules.update({name: getattr(package, name) for name in LAYERS})
        wrapped: dict[int, object] = {}
        for modname, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or name.startswith("_"):
                    continue
                origin = obj.__module__ or ""
                if not origin.startswith("borderings.") or name in UNWRAPPED:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                layer = origin.rsplit(".", 1)[1]
                if layer == "numerics" and obj.__name__ not in COUNTED:
                    continue
                if id(obj) not in wrapped:
                    key = f"{layer}.{obj.__name__}"
                    if layer == "numerics":
                        wrapped[id(obj)] = self._counter(obj, key)
                    else:
                        wrapped[id(obj)] = self._span(obj, key, layer)
                new = wrapped[id(obj)]
                if modname == "factorials" and name == "exponent_sequence":
                    new = self._alpha_site(new)
                self._patch(mod, name, new)

        intsets = package.intsets
        for cls in vars(intsets).values():
            if isinstance(cls, type) and issubclass(cls, intsets.IntegerSet):
                for m in SET_METHODS:
                    if m in vars(cls):
                        self._patch(cls, m, self._span(vars(cls)[m], f"intsets.{m}", "intsets"))

        FN = package.factored.FactoredNumber
        for m in FACTORED_METHODS:
            raw = vars(FN)[m]
            if isinstance(raw, classmethod):
                new = classmethod(self._span(raw.__func__, f"factored.{m}", "factored"))
            else:
                new = self._span(raw, f"factored.{m}", "factored")
            self._patch(FN, m, new)
        BS = package.factored.BaseSet
        self._patch(BS, "resolve", self._span(vars(BS)["resolve"], "factored.resolve", "factored"))

        TS = package.series.TruncatedSeries
        self._patch(TS, "__mul__", self._counter(vars(TS)["__mul__"], "series.mul"))

    def uninstall(self) -> None:
        """Put every original back; a pass over one round ends here."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.alpha_distinct += len(self.alpha_requests)
        self.alpha_requests.clear()

    # -- output ----------------------------------------------------------

    def count(self, *keys: str) -> int:
        return sum(self.calls.get(k, 0) for k in keys)

    def write_spans(self, path) -> int:
        """Write the recorded spans as tab-separated rows; returns the row count."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tquery\tname\tstart_us\tend_us\n")
            t_origin = min(self._start, default=0.0)
            for i in range(len(self._id)):
                fh.write(
                    f"{self._id[i]}\t{self._parent[i]}\t{self._query[i]}\t"
                    f"{self.span_names[self._name[i]]}\t"
                    f"{(self._start[i] - t_origin) * 1e6:.1f}\t{(self._end[i] - t_origin) * 1e6:.1f}\n"
                )
        return len(self._id)
