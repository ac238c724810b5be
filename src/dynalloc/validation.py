"""End-to-end solution checks shared by the runner and the test suite."""

from __future__ import annotations

import dataclasses

from .domain import ProblemDomain, is_valid_allocation
from .motion import PlanCache, Planner, Roadmap, plan
from .scheduler import PriceMemo, SchedulingProblem, Schedule, build_scheduling_problem
from .search import SearchState, Solution, required_transitions

CHECK_TOL = 1e-9


def schedule_violations(problem: SchedulingProblem, schedule: Schedule) -> list[str]:
    """Every temporal constraint the schedule must satisfy, checked directly."""
    out = []
    s = schedule.start_times
    d = problem.durations
    for i in range(len(d)):
        if schedule.makespan < s[i] + d[i] - CHECK_TOL:
            out.append(f"makespan < completion of task {i}")
        if s[i] < problem.initial_arrivals.get(i, 0.0) - CHECK_TOL:
            out.append(f"task {i} starts before its arrival time")
    for i, j in problem.precedence:
        if s[j] < s[i] + d[i] + problem.transition(i, j) - CHECK_TOL:
            out.append(f"precedence ({i},{j}) violated")
    for pair in problem.mutex_reduced:
        direction = schedule.fixed_orderings.get(pair)
        if direction is None:
            out.append(f"mutex pair {pair} has no chosen direction")
            continue
        i, j = direction
        if s[j] < s[i] + d[i] + problem.transition(i, j) - CHECK_TOL:
            out.append(f"mutex ordering ({i},{j}) violated")
    return out


def plan_violations(domain: ProblemDomain, solution: Solution, roadmap: Roadmap) -> list[str]:
    """Each plan runs from its key's ``from`` point to its ``to`` point along
    roadmap edges, as long as a fresh shortest path, and every trip the
    schedule relies on has one. Durations are not compared."""
    out = []
    index = {v: i for i, v in enumerate(roadmap.vertices)}
    for key, p in solution.motion_plans.items():
        frm, to = key[-2:]
        trip = f"plan {frm}->{to}"
        if (p.waypoints[0], p.waypoints[-1]) != (frm, to):
            out.append(f"{trip} runs {p.waypoints[0]}->{p.waypoints[-1]}")
        walked = 0.0
        for a, b in zip(p.waypoints, p.waypoints[1:]):
            edge = dict(roadmap.adjacency.get(index.get(a), ())).get(index.get(b))
            if edge is None:
                out.append(f"{trip} step {a}->{b} is not a roadmap edge")
            else:
                walked += edge
        # the speed sets the duration only, which is not compared
        fresh = plan(roadmap, frm, to, 1.0) if frm in index and to in index else None
        if fresh is None or any(abs(x - fresh.length) > CHECK_TOL for x in (walked, p.length)):
            out.append(f"{trip} is not a shortest roadmap path")
    planned = {key[-2:] for key in solution.motion_plans}
    out.extend(
        f"no plan for {rid}'s trip {frm}->{to}"
        for rid, frm, to in required_transitions(domain, solution.allocation, solution.schedule)
        if (tuple(frm), tuple(to)) not in planned
    )
    return out


def solution_violations(
    domain: ProblemDomain, solution: Solution, state: SearchState
) -> list[str]:
    """Resource sufficiency, temporal feasibility and the solution's plans,
    with every trip priced and planned afresh on the state's roadmap: neither
    the solver's plan cache nor its shortest-path trees are read."""
    out = []
    if not is_valid_allocation(solution.allocation, domain.team, domain.requirements):
        out.append("allocation does not meet trait requirements")
    roadmap = dataclasses.replace(state.roadmap, trees={})
    memo = PriceMemo(domain, Planner(domain, roadmap, PlanCache()))
    problem = build_scheduling_problem(solution.allocation, memo)
    out.extend(schedule_violations(problem, solution.schedule))
    out.extend(plan_violations(domain, solution, roadmap))
    return out
