"""Opt-in layer tracing for the benchmark's traced run.

The program is not changed.  ``Tracer.install`` wraps, in place, every
call that crosses a module boundary of descmat: the public functions of
each traced module and the methods of ``QSeries`` and ``LinearMatroid``.
Wherever a module holds a reference to a wrapped function (its own
namespace, or one that imported the name), that reference is rebound to
the wrapper.  ``shifted_power_sum`` is called hundreds of thousands of
times per degree and is memoized; it is counted from ``cache_info()``
instead of being wrapped, so its time shows in its caller's self time.

Each call records a span: a name, a start, an end and the index of the
parent span.  Spans stay in memory (compact arrays) and are written out
once at the end.  A layer's self time is its spans' time minus the time
of their direct child spans.
"""

import gzip
import inspect
import sys
from array import array
from time import perf_counter

# descmat modules whose calls are wrapped; each is one layer.  ``characters``
# is the tests' oracle and has no workload; ``shifted`` is counted from its
# memo only.
TRACED_MODULES = (
    "partitions",
    "descendents",
    "qseries",
    "quasimodular",
    "linalg",
    "matroid",
    "decomposition",
    "cli",
)
TRACED_CLASSES = {"qseries": "QSeries", "matroid": "LinearMatroid"}
MEMO_LAYERS = ("partitions", "shifted", "descendents")
SKIPPED_METHODS = {"__init__", "__repr__"}

PER_LAYER_METRICS = {
    "matroid.candidates": "count",
    "matroid.bases_per_candidate": "ratio",
    "matroid.self_s": "s",
    "linalg.rank_calls": "count",
    "linalg.rank_s": "s",
    "partitions.self_s": "s",
    "partitions.memo_entries": "count",
    "shifted.calls": "count",
    "shifted.memo_misses": "count",
    "shifted.memo_entries": "count",
    "descendents.self_s": "s",
    "descendents.memo_hits": "count",
    "descendents.memo_misses": "count",
    "descendents.memo_entries": "count",
    "decomposition.self_s": "s",
    "qseries.mul_calls": "count",
    "qseries.self_s": "s",
    "quasimodular.self_s": "s",
    "linalg.solve_calls": "count",
    "linalg.solve_s": "s",
    "cli.self_s": "s",
    "cli.cache_writes": "count",
    "cli.cache_reads": "count",
    "cli.cache_bytes": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.bases_found = 0
        self.memo_functions: dict[str, list] = {layer: [] for layer in MEMO_LAYERS}
        self.cache_reads = 0
        self.cache_read_bytes = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        open_, close = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            counts_bases = name == "matroid:LinearMatroid.bases"

            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    if counts_bases:
                        self.bases_found += 1
                    yield item

            generator_wrapper.__wrapped__ = fn
            return generator_wrapper

        counts_bases = name == "matroid:LinearMatroid.bases_count"

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counts_bases:
                self.bases_found += result
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, cache_dir: str | None = None) -> None:
        """Wrap every already-imported descmat module in place."""
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("descmat.") and mod is not None
        }
        package_modules = [sys.modules["descmat"], *modules.values()]
        replacements: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = modules.get(short)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                replacements[id(obj)] = self.wrap(f"{short}:{attr}", obj)
            cls_name = TRACED_CLASSES.get(short)
            if cls_name is not None:
                self._wrap_class(short, getattr(mod, cls_name))
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                wrapped = replacements.get(id(obj))
                if wrapped is not None and getattr(wrapped, "__wrapped__", None) is obj:
                    setattr(mod, attr, wrapped)
        for layer in MEMO_LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            for obj in vars(mod).values():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                    self.memo_functions[layer].append(obj)
        cli = modules.get("cli")
        if cli is not None and cache_dir is not None:
            self._count_cache_reads(cli, cache_dir)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr in SKIPPED_METHODS or (attr.startswith("_") and not attr.startswith("__")):
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    def _count_cache_reads(self, cli, cache_dir: str) -> None:
        """Shadow ``open`` in the cli namespace to count cache-entry reads."""
        import builtins
        import os

        real_open = builtins.open
        prefix = os.path.abspath(cache_dir) + os.sep
        tracer = self

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode and isinstance(file, str) and os.path.abspath(file).startswith(prefix):
                tracer.cache_reads += 1
                tracer.cache_read_bytes += os.path.getsize(file)
            return real_open(file, mode, *args, **kwargs)

        cli.open = counting_open

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer totals for this process (no derived ratios)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        layer_of = [name.split(":", 1)[0] for name in self.names]
        rank_id = self._name_ids.get("linalg:int_row_rank")
        solve_id = self._name_ids.get("linalg:solve_exact")
        mul_ids = {self._name_ids.get("qseries:QSeries.__mul__"), self._name_ids.get("qseries:QSeries.__rmul__")}
        for i in range(n):
            nid = self.name_id[i]
            duration = self.end[i] - self.start[i]
            add(f"{layer_of[nid]}.self_s", duration - child[i])
            if nid == rank_id:
                add("linalg.rank_calls", 1)
                add("linalg.rank_s", duration)
                p = self.parent[i]
                if p >= 0 and layer_of[self.name_id[p]] == "matroid":
                    add("matroid.candidates", 1)
            elif nid == solve_id:
                add("linalg.solve_calls", 1)
                add("linalg.solve_s", duration)
            elif nid in mul_ids:
                add("qseries.mul_calls", 1)
        add("matroid.bases_found", self.bases_found)
        for layer, functions in self.memo_functions.items():
            infos = [fn.cache_info() for fn in functions]
            hits = sum(i.hits for i in infos)
            misses = sum(i.misses for i in infos)
            add(f"{layer}.memo_entries", sum(i.currsize for i in infos))
            add(f"{layer}.memo_hits", hits)
            add(f"{layer}.memo_misses", misses)
            add(f"{layer}.calls", hits + misses)
        add("cli.cache_reads", self.cache_reads)
        add("cli.cache_read_bytes", self.cache_read_bytes)
        return out

    def write_spans(self, path) -> None:
        """All spans as gzip TSV: index, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart\tend\n")
            names, name_id, start, end, parent = self.names, self.name_id, self.start, self.end, self.parent
            for i in range(len(start)):
                out.write(f"{i}\t{parent[i]}\t{names[name_id[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\n")


def merge(totals: dict[str, float], more: dict[str, float]) -> dict[str, float]:
    for key, value in more.items():
        totals[key] = totals.get(key, 0) + value
    return totals


def per_layer_metrics(per_round: dict[str, float], overhead_s: float) -> dict[str, dict]:
    """The per-layer metrics of one traced round, named as in BENCHMARK.json."""
    values = dict(per_round)
    candidates = values.get("matroid.candidates", 0)
    values["matroid.bases_per_candidate"] = (
        values.get("matroid.bases_found", 0) / candidates if candidates else 0.0
    )
    values["cli.cache_bytes"] = values.get("cli.cache_read_bytes", 0) + values.get(
        "cli.cache_write_bytes", 0
    )
    values["trace.overhead_s"] = overhead_s
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in PER_LAYER_METRICS.items()
    }
