"""Scenario driver: solve, apply events, compare repair against recompute.

Every event is applied to the domain once, before the first search, so a
malformed event is refused before any solve. Wall time is measured around
the allocator call only. In ``repair`` mode events mutate the retained
search state; in ``recompute`` mode each event triggers a fresh search on
the updated domain, which builds a new state and shares only the
process's roadmap memo (``motion.build_roadmap``): a recompute reuses the
roadmap already built for the same inputs, and pays a build only when the
event changes the mandatory vertices (``agent_lost``, ``task_lost``,
``new_agent``).
"""

from __future__ import annotations

import copy
import csv
import json
import statistics
import time
from dataclasses import asdict, dataclass, field, fields
from functools import reduce
from pathlib import Path

from .analysis import (
    BoundReport,
    brute_force_optimal_makespan,
    oracle_travel,
    validate_bound,
)
from .domain import ProblemDomain, resource_count
from .repair import DynamicEvent, apply_event, decompose_mixed, repair
from .search import SearchResult, search
from .validation import solution_violations

class ScenarioError(Exception):
    pass


@dataclass
class EventRecord:
    scenario: str
    event_index: int
    event_kind: str
    mode: str
    wall_time_ms: float
    makespan: float
    resource_count: int
    expansions: int
    nodes_touched: int
    planner_calls: int
    scheduler_calls: int
    bnb_nodes: int
    relaxations: int


# the fields, in declaration order, are the results.csv columns
RESULT_COLUMNS = [f.name for f in fields(EventRecord)]
TIMING_COLUMNS = {"wall_time_ms"}


@dataclass
class ScenarioResult:
    records: list[EventRecord] = field(default_factory=list)

    def rows(self) -> list[dict]:
        return [asdict(r) for r in self.records]


def _timed(fn, repetitions: int):
    """Median wall time over repetitions; the last call's value is kept."""
    times = []
    result = None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return result, statistics.median(times)


def _checked(result: SearchResult, domain: ProblemDomain, context: str) -> SearchResult:
    if result.solution is None:
        raise ScenarioError(f"search exhausted ({result.reason}) during {context}")
    violations = solution_violations(domain, result.solution, result.state)
    if violations:
        raise ScenarioError(f"invalid solution during {context}: {violations}")
    return result


def _record(idx: int, kind: str, mode: str, ms: float, result: SearchResult) -> EventRecord:
    state = result.state
    return EventRecord(
        scenario="scenario",
        event_index=idx,
        event_kind=kind,
        mode=mode,
        wall_time_ms=ms,
        makespan=result.solution.makespan,
        resource_count=resource_count(result.solution.allocation),
        expansions=state.stats.expansions,
        nodes_touched=state.stats.nodes_touched,
        planner_calls=state.plan_cache.planner_calls,
        scheduler_calls=state.stats.scheduler_calls,
        bnb_nodes=state.stats.bnb_nodes,
        relaxations=state.stats.relaxations,
    )


def run_scenario(
    domain: ProblemDomain,
    events: list[DynamicEvent],
    mode: str,
    alpha: float,
    seed: int = 0,
    prm_samples: int = 200,
    prm_k: int = 8,
    repetitions: int = 1,
) -> ScenarioResult:
    if mode not in ("repair", "recompute", "both"):
        raise ScenarioError(f"unknown mode {mode!r}")
    if repetitions < 1:
        raise ScenarioError(f"repetitions must be at least 1, got {repetitions}")
    modes = ["repair", "recompute"] if mode == "both" else [mode]
    out = ScenarioResult()

    ordered = sorted(events, key=lambda e: e.time)
    domains = [domain]
    for event in ordered:  # a sign-mixed row change as its pure steps, as repair does
        domains.append(reduce(apply_event, decompose_mixed(domains[-1], event), domains[-1]))

    for run_mode in modes:
        result, ms = _timed(lambda: search(domain, alpha, prm_samples, prm_k, seed), repetitions)
        result = _checked(result, domain, f"{run_mode} initial solve")
        out.records.append(_record(-1, "initial", run_mode, ms, result))

        for idx, (event, after) in enumerate(zip(ordered, domains[1:])):
            if run_mode == "repair":
                state, solution = result.state, result.solution
                times = []
                for rep in range(repetitions):
                    # every run but the last repairs a copy, so each starts
                    # from the same state; the last repairs the state itself
                    target = state if rep == repetitions - 1 else copy.deepcopy(state)
                    t0 = time.perf_counter()
                    result = repair(target, solution, event)
                    times.append((time.perf_counter() - t0) * 1000.0)
                ms = statistics.median(times)
            else:
                result, ms = _timed(
                    lambda d=after: search(d, alpha, prm_samples, prm_k, seed), repetitions
                )
            result = _checked(result, after, f"{run_mode} event {idx}")
            out.records.append(_record(idx, event.kind.value, run_mode, ms, result))
    return out


def write_results(result: ScenarioResult, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    json_path = out_dir / "results.json"
    rows = result.rows()
    with csv_path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    json_path.write_text(json.dumps(rows, indent=2))
    return csv_path, json_path


def summary_table(result: ScenarioResult) -> str:
    lines = ["mode       events  median_ms  median_makespan"]
    for mode in ("repair", "recompute"):
        recs = [r for r in result.records if r.mode == mode and r.event_index >= 0]
        if not recs:
            continue
        lines.append(
            f"{mode:<10} {len(recs):>6}  {statistics.median(r.wall_time_ms for r in recs):>9.2f}"
            f"  {statistics.median(r.makespan for r in recs):>15.3f}"
        )
    return "\n".join(lines)


def run_bounds_sweep(
    domains: list[ProblemDomain],
    alphas: list[float],
    prm_samples: int = 200,
    prm_k: int = 8,
    seed: int = 0,
) -> list[BoundReport]:
    reports = []
    for domain in domains:
        # the oracle optimum is alpha-independent; compute it once per domain
        travel = oracle_travel(domain, prm_samples, prm_k, seed)
        optimal = brute_force_optimal_makespan(domain, travel)
        for alpha in alphas:
            reports.append(
                validate_bound(domain, alpha, prm_samples, prm_k, seed, optimal=optimal)
            )
    return reports


def write_bounds_csv(reports: list[BoundReport], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [BoundReport.CSV_HEADER] + [r.csv_row() for r in reports]
    path.write_text("\n".join(lines) + "\n")
    return path
