"""The benchmark's three workloads: inputs, one timed operation, its check.

Inputs are the acceptance suite's, so figures here speak about the same
problems: the 8-robot, 15-task, 4-trait domains from seeds 500-509, the
screened repair events on five of them, and the 20 desk-scale domains of the
gap-bound sweep. The run's ``--seed`` only orders the operations within a
round; it never changes what is solved, so every seed does the same work.

All solver calls go through module attributes, so the tracer's wrappers
see them.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field

import numpy as np

from dynalloc import analysis, generator, repair, runner
from dynalloc import search as search_mod
from dynalloc.domain import Allocation
from dynalloc.repair import DynamicEvent, EventKind

from checker import TOL, Checker, optimal_makespan

BENCH_SEEDS = tuple(range(500, 510))
BENCH_SHAPE = (8, 15, 4)  # robots, tasks, traits
BENCH_ALPHA = 0.25
# Five of the bench domains, so that one round of repairs stays near 20 s.
# 503 is never one: its two duration-change repairs take minutes each (every
# exact open node is re-solved eagerly) and would swamp the round. 504 holds
# the known stale-cache fault below.
REPAIR_SEEDS = (500, 501, 504, 506, 507)
DESK_SHAPES = ((3, 4), (2, 4), (3, 3), (2, 3), (3, 2))  # robots, tasks
DESK_COUNT = 20
SWEEP_ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)
GROUPS = tuple(k.value for k in EventKind) + ("mixed", "multi")

# Operations that fail on every run because of a known solver fault. Any
# other failure makes the run incorrect.
KNOWN_FAULTS = {
    # stale plan cache after agent loss: durations priced for another
    # robot's speed are served to the survivors (r3 lost; 186.911 reported,
    # 166.418 on the retained roadmap)
    ("repair-8x15", "504/agent_lost"),
}


@dataclass
class Outcome:
    """What one operation returned, as judged by the benchmark."""

    problems: list[str] = field(default_factory=list)
    makespan: float = 0.0  # our own recomputation, summed over plans
    assignments: int = 0
    posthoc: float = 0.0

    def add_plan(self, domain, state, solution) -> float:
        """Checks one returned plan on its state's roadmap; our own makespan."""
        checker = Checker(domain, state.roadmap)
        own = checker.check(solution)
        self.problems.extend(checker.problems)
        self.makespan += own
        self.assignments += int(np.asarray(solution.allocation.entries).sum())
        return own


def check_search(domain, result) -> Outcome:
    """Check a search or repair result at the bench alpha against ``domain``."""
    out = Outcome()
    if result.solution is None:
        out.problems.append(f"no solution ({result.reason})")
        return out
    out.add_plan(domain, result.state, result.solution)
    st = result.state
    out.posthoc = analysis.posthoc_bound(
        BENCH_ALPHA, st.lb, st.ub, result.solution.makespan, analysis.open_frontier(st)
    )
    return out


# ------------------------------------------------------------ solve-8x15


class Solve:
    """A fresh search at alpha 0.25 on each bench domain."""

    name = "solve-8x15"
    keys = BENCH_SEEDS

    def setup(self, keys) -> None:
        self.domains = {s: generator.generate_problem(s, *BENCH_SHAPE) for s in keys}

    def units(self) -> list:
        return list(self.domains)

    def steps(self, seed):
        """Yields (label, group, pre-existing states, call, check) per operation.

        The caller sends each call's result back in, so a chain of events can
        repair the state the previous step left.
        """
        domain = self.domains[seed]
        yield (
            str(seed),
            None,
            (),
            lambda: search_mod.search(domain, BENCH_ALPHA),
            lambda result: check_search(domain, result),
        )


# ----------------------------------------------------------- repair-8x15


def _solvable_after(domain, event) -> bool:
    """Cheap screen: the full allocation still meets every requirement."""
    new = domain
    for step in repair.decompose_mixed(domain, event):
        new = repair.apply_event(new, step)
    full = Allocation(np.ones((new.n_tasks, new.n_robots), dtype=np.int8))
    return search_mod.apr_value(full, new.team, new.requirements) <= 1e-12


def _screened_event(domain, kind, seed):
    for attempt in range(30):
        ev = generator.generate_event(domain, kind, seed + 1000 * attempt)
        if _solvable_after(domain, ev):
            return ev
    raise RuntimeError(f"no solvable {kind} event found for screening")


def _mixed_trait_event(domain, seed):
    """Sign-mixed row change: one trait up, one down, on a random robot."""
    rng = np.random.default_rng(seed)
    names = domain.team.trait_names
    for _ in range(30):
        i = int(rng.integers(domain.n_robots))
        row = np.array(domain.team.entries[i])
        nz = np.flatnonzero(row)
        if len(nz) < 2:
            continue
        up, down = rng.choice(nz, size=2, replace=False)
        row[up] *= 1.5
        row[down] *= 0.5
        ev = DynamicEvent(
            1.0,
            EventKind.TRAITS_INCREASED,
            {"agent": domain.team.robot_ids[i], "traits": dict(zip(names, row.tolist()))},
        )
        if len(repair.decompose_mixed(domain, ev)) == 2 and _solvable_after(domain, ev):
            return ev
    raise RuntimeError("could not build a mixed trait event")


def group_events(domain, group: str, seed: int) -> list:
    """The events of one repair group, screened as the acceptance suite does."""
    if group == "mixed":
        return [_mixed_trait_event(domain, seed)]
    if group == "multi":
        events, current = [], domain
        for off, kind in enumerate((EventKind.TRAITS_REDUCED, EventKind.DURATION_CHANGED)):
            ev = _screened_event(current, kind, seed + off)
            events.append(ev)
            current = _applied(current, ev)
        return events
    return [_screened_event(domain, EventKind(group), seed)]


def _applied(domain, event):
    for step in repair.decompose_mixed(domain, event):
        domain = repair.apply_event(domain, step)
    return domain


class Repair:
    """Every repair group on five bench domains, each from a copied state."""

    name = "repair-8x15"
    keys = REPAIR_SEEDS

    def setup(self, keys) -> None:
        self.initial = {}
        self.snapshots = {}
        self.events = {}
        for seed in keys:
            domain = generator.generate_problem(seed, *BENCH_SHAPE)
            result = search_mod.search(domain, BENCH_ALPHA)
            if result.solution is None:
                raise RuntimeError(f"seed {seed}: initial solve failed ({result.reason})")
            self.initial[seed] = result.solution
            self.snapshots[seed] = pickle.dumps(result.state)
            for group in GROUPS:
                evs = group_events(domain, group, 9000 + 37 * (seed - 500))
                domains, current = [], domain
                for ev in evs:
                    current = _applied(current, ev)
                    domains.append(current)
                self.events[seed, group] = list(zip(evs, domains))

    def units(self) -> list:
        return [(seed, group) for seed in self.initial for group in GROUPS]

    def steps(self, unit):
        seed, group = unit
        state = pickle.loads(self.snapshots[seed])  # a deep copy, made untimed
        solution = self.initial[seed]
        chain = self.events[unit]
        for step, (event, domain) in enumerate(chain):
            label = f"{seed}/{group}" + (f"/{step}" if len(chain) > 1 else "")
            result = yield (
                label,
                group,
                (state,),
                lambda st=state, sol=solution, ev=event: repair.repair(st, sol, ev),
                lambda result, d=domain: check_search(d, result),
            )
            state, solution = result.state, result.solution


# ----------------------------------------------------------- bounds-desk


class Bounds:
    """The gap-bound sweep: each desk domain's oracle plus six searches."""

    name = "bounds-desk"
    keys = tuple(range(DESK_COUNT))

    def setup(self, keys) -> None:
        self.domains = {
            i: generator.generate_problem(100 + i, *DESK_SHAPES[i % len(DESK_SHAPES)], 3)
            for i in keys
        }
        # ours, with any problem met on the way; computed at the first check
        self.optimum: dict[int, tuple[float, list[str]]] = {}

    def units(self) -> list:
        return list(self.domains)

    def steps(self, idx):
        domain = self.domains[idx]
        searches: list = []

        def call():
            # validate_bound keeps its search results to itself; catch them on
            # the way out so that every plan of the sweep can be checked
            real = analysis.search

            def capture(*args, **kwargs):
                result = real(*args, **kwargs)
                searches.append(result)
                return result

            analysis.search = capture
            try:
                return runner.run_bounds_sweep([domain], list(SWEEP_ALPHAS))
            finally:
                analysis.search = real

        def check(reports) -> Outcome:
            out = Outcome()
            if len(reports) != len(SWEEP_ALPHAS) or len(searches) != len(SWEEP_ALPHAS):
                out.problems.append("sweep returned the wrong number of runs")
                return out
            if idx not in self.optimum:
                checker = Checker(domain, searches[0].state.roadmap)
                self.optimum[idx] = optimal_makespan(checker), checker.problems
            best, problems = self.optimum[idx]
            out.problems.extend(problems)
            for report, result in zip(reports, searches):
                a = report.alpha
                if result.solution is None:
                    out.problems.append(f"alpha {a}: no solution")
                    continue
                own = out.add_plan(domain, result.state, result.solution)
                out.posthoc += report.posthoc_bound
                if not math.isclose(report.optimal_makespan, best, rel_tol=0, abs_tol=TOL):
                    out.problems.append(
                        f"oracle optimum {report.optimal_makespan} != ours {best}")
                if abs(report.achieved_makespan - own) > TOL:
                    out.problems.append(
                        f"alpha {a}: reported {report.achieved_makespan} != ours {own}")
                gap = own - best
                if gap > report.apriori_bound + TOL:
                    out.problems.append(f"alpha {a}: gap {gap} > a-priori bound")
                if gap > report.posthoc_bound + TOL:
                    out.problems.append(f"alpha {a}: gap {gap} > post-hoc bound")
                if a == 0.0 and gap > TOL:
                    out.problems.append(f"alpha 0: gap {gap} is not zero")
            return out

        yield str(idx), None, (), call, check


WORKLOADS = {w.name: w for w in (Solve, Repair, Bounds)}
