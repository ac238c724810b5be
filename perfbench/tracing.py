"""Per-layer tracing by wrapping the solver's public functions from outside.

Every public function defined in a layer module is replaced, in every
``dynalloc`` module that binds it (including names taken with ``from ...
import``), by a wrapper that records calls, inclusive time, the slowest call
and self time. A function's self time excludes time spent in other layers;
a layer's self time is the part of its outermost spans not spent in other
layers. Nothing under ``src/`` changes: the original bindings are restored
when the tracer is removed, and the wrappers pass straight through outside
the timed operations.

The tracer also reconciles its own counts with the solver's counters
(``SearchStats`` and ``PlanCache``) over every instance alive during an
operation, so a binding the wrapping missed shows up as a mismatch.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("motion", "scheduler", "search", "repair", "analysis")
STATS_FIELDS = ("expansions", "scheduler_calls", "nodes_touched")
CACHE_FIELDS = ("planner_calls", "hits")


class Tracer:
    def __init__(self):
        import dynalloc.motion
        import dynalloc.search

        self._motion = dynalloc.motion
        self._search = dynalloc.search
        self.active = False
        self.group = None
        self.calls = defaultdict(int)  # (function, binding module) -> calls
        self.incl = defaultdict(float)  # function -> inclusive seconds
        self.binding_s = defaultdict(float)  # (function, binding module) -> seconds
        self.self_s = defaultdict(float)  # function -> seconds outside other layers
        self.max_s = defaultdict(float)  # function -> slowest call
        self.layer_self = defaultdict(float)
        self.group_s = defaultdict(float)  # repair group -> seconds in repair()
        self.counts = defaultdict(int)  # lookups, stores, fast path, node surgery
        self.program = defaultdict(int)  # solver counters, summed over operations
        self._stack: list[list] = []  # [layer, start, foreign seconds]
        self._live: list = []  # (stats or cache object, baseline values)
        self._restore: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"dynalloc.{layer}"]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    originals[id(fn)] = (f"{layer}.{name}", layer, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "dynalloc" and not modname.startswith("dynalloc."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[2] is value:
                    self._patch(mod, attr, self._wrap(*hit, modname))

        cls = self._motion.PlanCache
        self._patch(cls, "lookup", self._counting(cls.lookup, "plan_cache.lookup"))
        self._patch(cls, "store", self._counting(cls.store, "plan_cache.store"))
        for cls in (self._motion.PlanCache, self._search.SearchStats):
            self._patch(cls, "__init__", self._registering(cls.__init__))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ----------------------------------------------------------- wrappers

    def _wrap(self, qual: str, layer: str, fn, binding: str):
        tracer = self
        key = (qual, binding)
        surgery = layer == "repair" and qual.startswith("repair.handle_")
        is_repair = qual == "repair.repair"
        resume_key = ("search.run_search", "dynalloc.repair")

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = _snapshot(args[0]) if surgery else None
            resumes = tracer.calls[resume_key] if is_repair else 0
            stack = tracer._stack
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                own = dur - frame[2]
                tracer.calls[key] += 1
                tracer.incl[qual] += dur
                tracer.binding_s[key] += dur
                tracer.self_s[qual] += own
                if dur > tracer.max_s[qual]:
                    tracer.max_s[qual] = dur
                if stack and stack[-1][0] == layer:
                    stack[-1][2] += frame[2]
                else:
                    tracer.layer_self[layer] += own
                    if stack:
                        stack[-1][2] += dur
                if is_repair:
                    tracer.group_s[tracer.group] += dur
                    if tracer.calls[resume_key] == resumes:
                        tracer.counts["fast_path"] += 1
                if before is not None:
                    tracer._surgery(before, args[0])

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, method, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return method(*args, **kwargs)

        return wrapper

    def _registering(self, init):
        tracer = self

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if tracer.active:
                tracer._live.append((obj, _values(obj)))

        return wrapper

    def _surgery(self, before: dict, state) -> None:
        """Count nodes a repair handler deleted, revived or rescored."""
        after = {id(n): n for n in state.nodes.values()}
        self.counts["nodes_deleted"] += sum(1 for k in before if k not in after)
        for k, node in after.items():
            old = before.get(k)
            if old is None:
                continue
            _, status, tetaq, sched = old
            if status != "open" and node.status == "open":
                self.counts["nodes_revived"] += 1
            elif node.schedule is not sched or not _same(node.tetaq, tetaq):
                self.counts["nodes_rescored"] += 1

    # --------------------------------------------------------- operations

    def begin_op(self, group, states=()) -> None:
        """Start one timed operation on the given pre-existing states."""
        self.group = group
        self._live = []
        for st in states:
            for obj in (st.stats, st.plan_cache):
                self._live.append((obj, _values(obj)))
        self.active = True

    def end_op(self) -> None:
        self.active = False
        for obj, base in self._live:
            for field, value in zip(_fields(obj), base):
                self.program[field] += getattr(obj, field) - value
        self._live = []

    def reconcile(self) -> list[str]:
        """Mismatches between traced counts and the solver's own counters."""
        traced = {
            "expansions": self.total_calls("search.expand"),
            "scheduler_calls": self.calls[("scheduler.solve_schedule", "dynalloc.search")],
            "planner_calls": self.counts["plan_cache.store"],
            "hits": self.counts["plan_cache.lookup"] - self.counts["plan_cache.store"],
        }
        return [
            f"traced {k} {v} != solver counter {self.program[k]}"
            for k, v in traced.items()
            if v != self.program[k]
        ]

    def total_calls(self, qual: str) -> int:
        return sum(v for (q, _), v in self.calls.items() if q == qual)

    # ------------------------------------------------------------ metrics

    def metrics(self, rounds: int, groups, round_walls) -> dict:
        """Per-layer figures for one round (totals divided by ``rounds``)."""
        c = self.total_calls
        lookups = self.counts["plan_cache.lookup"]
        memo = c("search.solve_with_memo")
        memo_misses = self.calls[("scheduler.solve_schedule", "dynalloc.search")]
        m = {
            "motion.build_roadmap.calls": (c("motion.build_roadmap"), "count"),
            "motion.build_roadmap.s": (self.incl["motion.build_roadmap"], "s"),
            "motion.plan.calls": (c("motion.plan"), "count"),
            "motion.plan.s": (self.incl["motion.plan"], "s"),
            "motion.planner_calls": (self.program["planner_calls"], "count"),
            "motion.plan_cache.hit_ratio": (
                self.program["hits"] / lookups if lookups else 0.0, "ratio"),
            "motion.self_s": (self.layer_self["motion"], "s"),
            "scheduler.build_scheduling_problem.calls": (
                c("scheduler.build_scheduling_problem"), "count"),
            "scheduler.build_scheduling_problem.s": (
                self.incl["scheduler.build_scheduling_problem"], "s"),
            "scheduler.solve_schedule.calls": (c("scheduler.solve_schedule"), "count"),
            "scheduler.solve_schedule.s": (self.incl["scheduler.solve_schedule"], "s"),
            "scheduler.solve_schedule.max_ms": (
                self.max_s["scheduler.solve_schedule"] * 1000.0, "ms"),
            "scheduler.self_s": (self.layer_self["scheduler"], "s"),
            "search.expansions": (self.program["expansions"], "count"),
            "search.nodes": (c("search.make_node"), "count"),
            "search.nodes_touched": (self.program["nodes_touched"], "count"),
            "search.evaluate.calls": (c("search.evaluate"), "count"),
            "search.schedule_memo.hit_ratio": (
                (memo - memo_misses) / memo if memo else 0.0, "ratio"),
            "search.expand.calls": (c("search.expand"), "count"),
            "search.expand.self_s": (self.self_s["search.expand"], "s"),
            "search.self_s": (self.layer_self["search"], "s"),
        }
        for g in groups:
            m[f"repair.{g}.s"] = (self.group_s[g], "s")
        m.update({
            "repair.resume.s": (
                self.binding_s[("search.run_search", "dynalloc.repair")], "s"),
            "repair.fast_path.count": (self.counts["fast_path"], "count"),
            "repair.nodes_deleted": (self.counts["nodes_deleted"], "count"),
            "repair.nodes_revived": (self.counts["nodes_revived"], "count"),
            "repair.nodes_rescored": (self.counts["nodes_rescored"], "count"),
            "repair.self_s": (self.layer_self["repair"], "s"),
            "analysis.brute_force_optimal_makespan.s": (
                self.incl["analysis.brute_force_optimal_makespan"], "s"),
            "analysis.validate_bound.s": (self.incl["analysis.validate_bound"], "s"),
            "analysis.self_s": (self.layer_self["analysis"], "s"),
        })
        out = {}
        for name, (value, unit) in m.items():
            if unit in ("count", "s"):
                value = value / rounds
            out[name] = {"value": value, "unit": unit}
        out["trace.wall_s"] = {"value": statistics.median(round_walls), "unit": "s"}
        return out


def _values(obj) -> tuple:
    return tuple(getattr(obj, f) for f in _fields(obj))


def _fields(obj) -> tuple:
    return CACHE_FIELDS if hasattr(obj, "planner_calls") else STATS_FIELDS


def _snapshot(state) -> dict:
    # holding the node keeps its id from being reused during the handler
    return {id(n): (n, n.status, n.tetaq, n.schedule) for n in state.nodes.values()}


def _same(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)
