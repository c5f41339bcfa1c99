"""Span tracing of wfsat's layers, installed from outside the program.

``instrument`` replaces the module attributes through which each layer is
called (for example ``wfsat.decisions.count_sequences`` and
``wfsat.solver.decompose_constraint``) with wrappers that record one span
per call; the program's source is not edited.  Three very hot functions
are only counted.  Spans keep name, start, end, parent and thread in
per-thread arrays that stay in memory until the run ends, when
``layer_metrics`` turns them into figures named
``<module>.<function>.<stat>``.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Children running in other threads (the tasks of
``analyze``'s thread pool) may overlap each other, so the covered part
is the union of the children's intervals.  Durations are wall time, so
a span in a pool thread also counts the time it waited for the
interpreter lock: summed over threads, self times can exceed the run.
"""

from __future__ import annotations

import contextvars
import importlib
import pkgutil
import threading
import time
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

SPANNED = (
    # (module, attribute); spans are named "<module>.<attribute>".
    ("cli", "main"),
    ("io", "load_schema"),
    ("io", "canonical_json"),
    ("model", "compile_poset"),
    ("arrangements", "eliminate_xor"),
    ("arrangements", "enumerate_arrangements"),
    ("arrangements", "count_sequences"),
    ("sequences", "count_linear_extensions"),
    ("decisions", "analyze"),
    ("solver", "min_cost_arrangement"),
    ("solver", "decompose_constraint"),
    ("solver", "solve_vwsp"),
    ("solver", "min_auth_weight"),
    ("reports", "arrangement_records"),
)
COUNTED = (
    # Called millions of times: a span each would distort the run.
    ("model", "Poset.less"),
    ("solver", "pattern_constraint_weight"),
    ("solver", "linear_sum_assignment"),
)
LENGTHS = {
    # span name -> stat that sums the length of the call's result
    "io.canonical_json": "bytes",
    "arrangements.eliminate_xor": "instances",
    "arrangements.enumerate_arrangements": "arrangements",
    "solver.decompose_constraint": "classical",
    "reports.arrangement_records": "records",
}

_SLOT_BITS = 20
_SLOT_MASK = (1 << _SLOT_BITS) - 1


def span_id(index: int, slot: int) -> int:
    """Id of the ``index``-th span recorded by thread ``slot``."""
    return index << _SLOT_BITS | slot


class _Buffer:
    """The spans and counters recorded by one thread, in start order."""

    __slots__ = ("slot", "name", "parent", "start", "end", "counts")

    def __init__(self, slot: int):
        self.slot = slot
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()


class Tracer:
    """Collects spans and counters from every thread of the process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar("span", default=-1)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def new_buffer(self) -> _Buffer:
        """A buffer for a thread that has none yet."""
        with self._lock:
            buf = _Buffer(len(self.buffers))
            self.buffers.append(buf)
        return buf

    def buffer(self) -> _Buffer:
        """The calling thread's buffer."""
        try:
            return self._local.buffer
        except AttributeError:
            self._local.buffer = self.new_buffer()
            return self._local.buffer

    def add(self, buf: _Buffer, name: str, parent: int, start: float, end: float) -> int:
        """Append a finished span to ``buf``; returns its id."""
        buf.name.append(self._name_id(name))
        buf.parent.append(parent)
        buf.start.append(start)
        buf.end.append(end)
        return span_id(len(buf.start) - 1, buf.slot)

    def count(self, key: str, n: int = 1) -> None:
        self.buffer().counts[key] += n

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        nid = self._name_id(name)
        clock = time.perf_counter
        current = self.current

        def traced(*args, **kwargs):
            buf = self.buffer()
            index = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(current.get())
            buf.end.append(0.0)
            token = current.set(span_id(index, buf.slot))
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                current.reset(token)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def counted(self, key: str, fn):
        def counting(*args, **kwargs):
            self.buffer().counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def counters(self) -> Counter:
        total: Counter = Counter()
        for buf in self.buffers:
            total.update(buf.counts)
        return total

    def span_stats(self) -> dict[str, dict]:
        """Per span name: calls, summed self time, children's summed time
        and the most threads other than its own that ran its children."""
        covered_same = [array("d", bytes(8 * len(b.start))) for b in self.buffers]
        child_sum = [array("d", bytes(8 * len(b.start))) for b in self.buffers]
        mixed: dict[int, list] = {}
        for buf in self.buffers:
            for i, parent in enumerate(buf.parent):
                if parent < 0:
                    continue
                slot, index = parent & _SLOT_MASK, parent >> _SLOT_BITS
                length = buf.end[i] - buf.start[i]
                child_sum[slot][index] += length
                if slot == buf.slot:
                    covered_same[slot][index] += length
                else:
                    mixed[parent] = []
        if mixed:
            for buf in self.buffers:
                for i, parent in enumerate(buf.parent):
                    if parent in mixed:
                        mixed[parent].append((buf.start[i], buf.end[i], buf.slot))

        stats: dict[str, dict] = {}
        for buf in self.buffers:
            for i, nid in enumerate(buf.name):
                start, end = buf.start[i], buf.end[i]
                kids = mixed.get(span_id(i, buf.slot))
                if kids is None:
                    cover, workers = covered_same[buf.slot][i], 1
                else:
                    cover = covered((max(s, start), min(e, end)) for s, e, _ in kids)
                    workers = len({t for _, _, t in kids if t != buf.slot})
                s = stats.setdefault(
                    self.names[nid], {"calls": 0, "self_s": 0.0, "child_sum_s": 0.0, "workers": 0}
                )
                s["calls"] += 1
                s["self_s"] += (end - start) - cover
                s["child_sum_s"] += child_sum[buf.slot][i]
                s["workers"] = max(s["workers"], workers)
        return stats


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals; empty ones are ignored."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= start or end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context,
    so that spans recorded by a task name the submitting span as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Patches:
    """Attribute replacements that ``undo`` restores in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, modules, original, replacement) -> None:
        """Replace ``original`` wherever a module holds it as an attribute."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def spy_pools(patches: Patches, base=ThreadPoolExecutor) -> list[int]:
    """Record the size of every thread pool ``wfsat.decisions`` creates.

    Returns the list the sizes are appended to.  The pool behaves as
    ``base``; when the module has no thread pool nothing is patched.
    """
    import wfsat.decisions as decisions

    sizes: list[int] = []

    class Pool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    if hasattr(decisions, "ThreadPoolExecutor"):
        patches.set(decisions, "ThreadPoolExecutor", Pool)
    return sizes


def spy_components(patches: Patches) -> list[int]:
    """Count the distinct components each analysis solves.

    A component is distinct by its steps and classical constraints, the
    key of the solver's cache.  Cache misses are not used: two threads
    that miss the same key at once both count one.
    """
    modules = _wfsat_modules()
    analyze, solve_vwsp = modules["decisions"].analyze, modules["solver"].solve_vwsp
    counts: list[int] = []
    keys: set = set()

    def solve(steps, constraints, schema, stats=None):
        keys.add((tuple(steps), tuple(sorted(c.key() for c in constraints))))
        return solve_vwsp(steps, constraints, schema, stats)

    def analyze_counted(*args, **kwargs):
        keys.clear()
        analysis = analyze(*args, **kwargs)
        counts.append(len(keys))
        return analysis

    patches.rebind(modules.values(), solve_vwsp, solve)
    patches.rebind(modules.values(), analyze, analyze_counted)
    return counts


def _wfsat_modules() -> dict:
    import wfsat

    modules = {"wfsat": wfsat}
    for info in pkgutil.iter_modules(wfsat.__path__):
        if info.name.startswith("_"):
            continue
        modules[info.name] = importlib.import_module(f"wfsat.{info.name}")
    return modules


def _count_length(key: str):
    def observe(tracer: Tracer, result) -> None:
        tracer.count(key, len(result))

    return observe


def _observe_analysis(tracer: Tracer, analysis) -> None:
    tracer.count("solver.SolveCache.hits", analysis.cache_hits)
    tracer.count("solver.SolveCache.misses", analysis.cache_misses)


def _solve_with_stats(tracer: Tracer, solve_vwsp):
    """Pass ``solve_vwsp`` a ``stats`` dict and count the partitions it visits."""

    def solve(steps, constraints, schema, stats=None):
        mine = {} if stats is None else stats
        try:
            return solve_vwsp(steps, constraints, schema, mine)
        finally:
            tracer.count("solver.solve_vwsp.partitions", mine.get("partitions_visited", 0))

    return solve


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer in SPANNED and COUNTED."""
    modules = _wfsat_modules()
    for module_name, attr in SPANNED:
        original = getattr(modules[module_name], attr)
        name = f"{module_name}.{attr}"
        if name == "solver.solve_vwsp":
            fn, observe = _solve_with_stats(tracer, original), None
        elif name == "decisions.analyze":
            fn, observe = original, _observe_analysis
        else:
            fn = original
            observe = _count_length(f"{name}.{LENGTHS[name]}") if name in LENGTHS else None
        patches.rebind(modules.values(), original, tracer.span(name, fn, observe))
    for module_name, attr in COUNTED:
        key = f"{module_name}.{attr}.calls"
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(modules[module_name], cls_name)
            patches.set(owner, method, tracer.counted(key, getattr(owner, method)))
        else:
            original = getattr(modules[module_name], attr)
            patches.rebind(modules.values(), original, tracer.counted(key, original))


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures, averaged over ``passes`` identical passes."""
    stats = tracer.span_stats()
    out: dict[str, float] = {}
    for module_name, attr in SPANNED:
        name = f"{module_name}.{attr}"
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "child_sum_s": 0.0, "workers": 0})
        out[f"{name}.calls"] = s["calls"] / passes
        out[f"{name}.self_s"] = s["self_s"] / passes
        if name == "decisions.analyze":
            out[f"{name}.child_sum_s"] = s["child_sum_s"] / passes
            out[f"{name}.workers"] = s["workers"]
    keys = [f"{name}.{stat}" for name, stat in LENGTHS.items()]
    keys += [f"{m}.{a}.calls" for m, a in COUNTED]
    keys += ["solver.SolveCache.hits", "solver.SolveCache.misses", "solver.solve_vwsp.partitions"]
    counts = tracer.counters()
    for key in keys:
        out[key] = counts[key] / passes
    looked_up = out["solver.SolveCache.hits"] + out["solver.SolveCache.misses"]
    out["solver.SolveCache.hit_ratio"] = out["solver.SolveCache.hits"] / looked_up if looked_up else 0.0
    return out
