"""Tests of the benchmark's own checker and tracer.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checker import Checker, optimal_makespan, segment_is_clear  # noqa: E402
from tracing import Tracer  # noqa: E402

import dynalloc.repair  # noqa: E402
import dynalloc.search  # noqa: E402
from dynalloc import analysis, motion  # noqa: E402
from dynalloc.domain import Allocation  # noqa: E402
from dynalloc.generator import generate_problem  # noqa: E402
from dynalloc.geometry import Circle, Rect  # noqa: E402
from dynalloc.motion import MotionPlan  # noqa: E402
from dynalloc.repair import DynamicEvent, EventKind, apply_event, repair  # noqa: E402
from dynalloc.search import search  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    domain = generate_problem(0, 4, 5, 3)
    return domain, search(domain, 0.25)


def _check(domain, result):
    checker = Checker(domain, result.state.roadmap)
    own = checker.check(result.solution)
    return own, checker.problems


def test_fresh_solution_passes(solved):
    domain, result = solved
    own, problems = _check(domain, result)
    assert problems == []
    assert own == pytest.approx(result.solution.makespan, abs=1e-9)


def test_flags_stale_plan_cache_after_agent_loss(solved):
    domain, result = solved
    event = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": "r0"})
    repaired = repair(copy.deepcopy(result.state), result.solution, event)
    assert repaired.solution.makespan == pytest.approx(100.439, abs=1e-3)
    own, problems = _check(apply_event(domain, event), repaired)
    assert own == pytest.approx(107.060, abs=1e-3)
    assert any("recomputed optimum" in p for p in problems)


def test_prices_on_the_retained_roadmap_after_task_loss():
    import workloads

    domain = generate_problem(500, 8, 15, 4)
    result = search(domain, 0.25)
    (event,) = workloads.group_events(domain, "task_lost", 9000)
    after = apply_event(domain, event)
    repaired = repair(result.state, result.solution, event)
    own, problems = _check(after, repaired)
    assert problems == []
    # a fresh roadmap drops the lost task's sites, so it is another graph
    fresh = motion.build_roadmap(after.world, motion.mandatory_vertices(after))
    assert len(fresh.vertices) != len(repaired.state.roadmap.vertices)


def test_flags_tampered_outputs(solved):
    domain, result = solved
    sol = result.solution
    sched = sol.schedule

    starts = list(sched.start_times)
    late = max(range(len(starts)), key=lambda m: starts[m])
    starts[late] = 0.0
    early = dataclasses.replace(sol, schedule=dataclasses.replace(sched, start_times=tuple(starts)))
    checker = Checker(domain, result.state.roadmap)
    checker.check(early)
    assert checker.problems

    entries = np.array(sol.allocation.entries)
    m, r = map(int, np.argwhere(entries)[0])
    entries[m, r] = 0
    checker = Checker(domain, result.state.roadmap)
    checker.check(dataclasses.replace(sol, allocation=Allocation(entries)))
    assert any("requirements" in p or "makespan" in p for p in checker.problems)

    key, plan = next((k, p) for k, p in sol.motion_plans.items() if len(p.waypoints) > 2)
    shortcut = MotionPlan((plan.waypoints[0], plan.waypoints[-1]), plan.length, plan.duration)
    checker = Checker(domain, result.state.roadmap)
    checker.check(dataclasses.replace(sol, motion_plans={**sol.motion_plans, key: shortcut}))
    assert any("not a roadmap edge" in p for p in checker.problems)


def test_segment_sampling_counts_boundary_contact():
    circle = Circle((5.0, 0.0), 1.0)
    assert not segment_is_clear((0.0, 1.0), (10.0, 1.0), (circle,))
    assert segment_is_clear((0.0, 1.1), (10.0, 1.1), (circle,))
    rect = Rect((4.0, -1.0), (6.0, 1.0))
    assert not segment_is_clear((0.0, 0.0), (10.0, 0.0), (rect,))
    assert segment_is_clear((0.0, 2.0), (10.0, 2.0), (rect,))


def test_own_optimum_matches_the_solver_oracle():
    domain = generate_problem(100, 3, 4, 3)
    roadmap = search(domain, 0.0).state.roadmap
    checker = Checker(domain, roadmap)
    ours = optimal_makespan(checker)
    assert checker.problems == []
    theirs = analysis.brute_force_optimal_makespan(domain, analysis.oracle_travel(domain))
    assert ours == pytest.approx(theirs, abs=1e-9)


def test_tracer_counts_match_solver_counters():
    domain = generate_problem(0, 4, 5, 3)
    original = dynalloc.search.solve_schedule
    tracer = Tracer()
    tracer.install()
    try:
        assert dynalloc.search.solve_schedule is not original  # a from-import binding
        tracer.begin_op(None)
        result = dynalloc.search.search(domain, 0.25)
        tracer.end_op()
        event = DynamicEvent(1.0, EventKind.NEW_AGENT, {"agent": {
            "id": "rx", "traits": {"trait0": 1.0}, "start": [1.0, 1.0], "speed": 2.0}})
        tracer.begin_op("new_agent", (result.state,))
        dynalloc.repair.repair(result.state, result.solution, event)
        tracer.end_op()
    finally:
        tracer.remove()
    assert dynalloc.search.solve_schedule is original
    assert tracer.reconcile() == []
    assert tracer.total_calls("search.expand") == tracer.program["expansions"] > 0
    assert tracer.counts["plan_cache.store"] == tracer.program["planner_calls"] > 0


def test_tracer_reports_a_missed_binding():
    domain = generate_problem(0, 4, 5, 3)
    tracer = Tracer()
    tracer.install()
    try:
        # undo one from-import binding, as a wrapping that missed it would
        dynalloc.search.solve_schedule = dynalloc.search.solve_schedule.__wrapped__
        tracer.begin_op(None)
        dynalloc.search.search(domain, 0.25)
        tracer.end_op()
    finally:
        tracer.remove()
    assert any("scheduler_calls" in m for m in tracer.reconcile())
