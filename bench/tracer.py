"""Spans and counts around each kwise module's public functions.

The modules import each other's functions by name (`from .setcore import
build_cover_table`), so a wrapper installed only on the defining module
would miss every call. `Tracer.install` therefore patches each function at
every module attribute bound to it, patches `CoverSearcher.find` on the
class so recursive calls count as search nodes, and `uninstall` restores
the originals.

Spans are aggregated in memory as they close; nothing is written until the
run ends. Per span key it keeps inclusive time of the outermost occurrence
(recursion and nested aliases are not counted twice); per layer it keeps
self time, the span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "familyio", "construction", "verifier", "search", "setcore")

# (module, function, span key). Both cover-table entry points share a key:
# build_cover_table calls cover_table_from_indicator, and greedy calls the
# latter directly.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("familyio", "read_family", "familyio.read_family"),
    ("familyio", "write_family", "familyio.write_family"),
    ("construction", "build_family", "construction.build_family"),
    ("verifier", "is_maximal_kwise", "verifier.is_maximal_kwise"),
    ("verifier", "check_kwise", "verifier.check_kwise"),
    ("verifier", "check_saturated", "verifier.check_saturated"),
    ("search", "greedy_saturate", "search.greedy_saturate"),
    ("search", "oracle_min_size", "search.oracle_min_size"),
    ("search", "size_table", "search.size_table"),
    ("setcore", "build_cover_table", "setcore.build_cover_table"),
    ("setcore", "cover_table_from_indicator", "setcore.build_cover_table"),
    ("setcore", "maximal_elements", "setcore.maximal_elements"),
    ("setcore", "is_downset", "setcore.is_downset"),
    ("setcore", "complement_family", "setcore.complement_family"),
)

# Per-layer metrics of the traced run, in output order, with units.
METRICS = (
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("familyio.read_family_s", "s"),
    ("familyio.write_family_s", "s"),
    ("construction.build_family_s", "s"),
    ("verifier.is_maximal_kwise_s", "s"),
    ("verifier.calls", "count"),
    ("verifier.check_kwise_s", "s"),
    ("verifier.check_saturated_s", "s"),
    ("verifier.self_s", "s"),
    ("search.greedy_saturate_s", "s"),
    ("search.greedy_inserts", "count"),
    ("search.tables_per_insert", "tables/insert"),
    ("search.enumerate_downsets_s", "s"),
    ("search.downsets", "count"),
    ("search.self_s", "s"),
    ("setcore.build_cover_table_s", "s"),
    ("setcore.cover_tables", "count"),
    ("setcore.cover_table_masks", "masks"),
    ("setcore.cover_sup_s", "s"),
    ("setcore.search_s", "s"),
    ("setcore.search_nodes", "count"),
    ("setcore.searchers", "count"),
    ("setcore.maximal_elements_s", "s"),
    ("setcore.is_downset_s", "s"),
    ("setcore.complement_family_s", "s"),
    ("setcore.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._active: Counter[str] = Counter()
        self._stack: list[list[int]] = []  # child nanoseconds per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, key: str) -> int:
        self._stack.append([0])
        self._active[key] += 1
        return perf_counter_ns()

    def _exit(self, key: str, start: int) -> None:
        dur = perf_counter_ns() - start
        children = self._stack.pop()[0]
        self._active[key] -= 1
        if not self._active[key]:
            self.total_ns[key] += dur
        self.self_ns[key.split(".", 1)[0]] += dur - children
        if self._stack:
            self._stack[-1][0] += dur

    def wrap(self, fn, key: str, after=None):
        def traced(*args, **kwargs):
            start = self._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(key, start)
            if after is not None:
                after(args, result)
            return result
        return traced

    def wrap_generator(self, fn, key: str, item_count: str):
        """Time each resumption of a generator as a span; the consumer's work
        between items stays with the consumer."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                start = self._enter(key)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(key, start)
                self.counts[item_count] += 1
                yield item
        return traced

    def wrap_find(self, find):
        """Count every CoverSearcher.find call as a node; time only the
        outermost call of each query. This wrapper runs once per search
        node, so it keeps its per-call work to a counter and a flag."""
        counts = self.counts
        inside = [False]

        def traced(searcher, target, budget):
            counts["setcore.search_nodes"] += 1
            if inside[0]:
                return find(searcher, target, budget)
            inside[0] = True
            start = self._enter("setcore.search")
            try:
                return find(searcher, target, budget)
            finally:
                inside[0] = False
                self._exit("setcore.search", start)
        return traced

    # -- hooks -------------------------------------------------------------

    def _count(self, name: str):
        def after(args, result):
            self.counts[name] += 1
        return after

    def _after_cover_table(self, args, result):
        self.counts["setcore.cover_tables"] += 1
        self.counts["setcore.cover_table_masks"] += result.universe.num_masks
        if self._active["search.greedy_saturate"]:
            self.counts["search.greedy_tables"] += 1

    def _after_greedy(self, args, result):
        self.counts["search.greedy_inserts"] += len(result) - len(args[0])

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module("kwise")] + [
            importlib.import_module(f"kwise.{layer}") for layer in LAYERS
        ]
        hooks = {
            "is_maximal_kwise": self._count("verifier.calls"),
            "greedy_saturate": self._after_greedy,
            "cover_table_from_indicator": self._after_cover_table,
        }
        wrapped = {}  # id(original) -> wrapper
        for mod, name, key in FUNCTIONS:
            fn = getattr(importlib.import_module(f"kwise.{mod}"), name)
            wrapped[id(fn)] = self.wrap(fn, key, hooks.get(name))
        downsets = importlib.import_module("kwise.search").enumerate_downsets
        wrapped[id(downsets)] = self.wrap_generator(
            downsets, "search.enumerate_downsets", "search.downsets")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])

        setcore = importlib.import_module("kwise.setcore")
        searcher, table = setcore.CoverSearcher, setcore.CoverTable
        self._patch(searcher, "find", self.wrap_find(searcher.find))
        self._patch(searcher, "__init__", self.wrap(
            searcher.__init__, "setcore.searcher_init", self._count("setcore.searchers")))
        self._patch(table, "sup", property(self.wrap(table.sup.fget, "setcore.cover_sup")))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every entry of METRICS except trace.overhead_s, which needs an
        untraced run to compare against."""
        out: dict[str, float] = {}
        for name, unit in METRICS:
            if name.endswith(".self_s"):
                out[name] = self.self_ns[name[: -len(".self_s")]] / 1e9
            elif unit == "s":
                out[name] = self.total_ns[name[: -len("_s")]] / 1e9
            else:
                out[name] = self.counts[name]
        inserts = self.counts["search.greedy_inserts"]
        out["search.tables_per_insert"] = (
            self.counts["search.greedy_tables"] / inserts if inserts else 0.0)
        del out["trace.overhead_s"]
        return out
