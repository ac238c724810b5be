"""End-to-end solution checks shared by the runner and the test suite."""

from __future__ import annotations

import math

import numpy as np

from .domain import ProblemDomain, is_valid_allocation
from .geometry import point_in_any
from .motion import MotionPlan, PlanCache, plan_provider
from .scheduler import SchedulingProblem, Schedule, build_scheduling_problem
from .search import SearchState, Solution

CHECK_TOL = 1e-9
COLLISION_SAMPLE_STEP = 0.01  # world units between the oracle's samples


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


def plan_collision_samples(plan: MotionPlan, obstacles) -> bool:
    """Dense-sampling oracle: True when every sample is obstacle-free."""
    for a, b in zip(plan.waypoints, plan.waypoints[1:]):
        length = math.dist(a, b)
        n = max(2, int(length / COLLISION_SAMPLE_STEP) + 1)
        xs = np.linspace(a[0], b[0], n)
        ys = np.linspace(a[1], b[1], n)
        for p in zip(xs, ys):
            if point_in_any((float(p[0]), float(p[1])), obstacles):
                return False
    return True


def solution_violations(
    domain: ProblemDomain, solution: Solution, state: SearchState
) -> list[str]:
    """Resource sufficiency and temporal feasibility, with every trip priced
    afresh on the state's roadmap: the solver's own plan cache is never read."""
    out = []
    if not is_valid_allocation(solution.allocation, domain.team, domain.requirements):
        out.append("allocation does not meet trait requirements")
    travel = plan_provider(domain, state.roadmap, PlanCache())
    problem = build_scheduling_problem(domain, solution.allocation, travel)
    out.extend(schedule_violations(problem, solution.schedule))
    return out
