"""Optimality-gap machinery: analytic bounds plus brute-force oracles.

The oracles enumerate every valid binary allocation (guarded to M*N <= 12)
and solve each one exactly, giving ground truth for the makespan gap and
the minimum-assignment count that the search's guarantees are checked
against.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import motion
from .domain import GE_TOL, Allocation, ProblemDomain, is_valid_allocation, resource_count
from .scheduler import PriceMemo, build_scheduling_problem, solve_schedule
from .search import OPEN, SearchResult, search


def open_frontier(state) -> list[tuple[float, float]]:
    """(apr, makespan floor) for every open node; input to posthoc_bound.

    A pending batch gives one pair, its largest apr with its members'
    shared floor: ``posthoc_bound``'s term rises with apr, so no other
    member can raise the bound.
    """
    pairs = [(n.apr, n.floor) for n in state.nodes.values() if n.status == OPEN]
    pairs += [(max(b.aprs), b.floor) for b in state.batches]
    return pairs


BRUTE_FORCE_CELL_LIMIT = 12
BOUND_TOL = 1e-9


class BoundError(Exception):
    pass


@dataclass
class BoundReport:
    alpha: float
    optimal_makespan: float
    achieved_makespan: float
    lb: float
    ub: float
    apriori_bound: float
    posthoc_bound: float
    min_open_apr: float
    normalized_gap: float

    CSV_HEADER = "alpha,optimal,achieved,lb,ub,bound_apriori,bound_posthoc,min_open_apr,gap_normalized"

    def csv_row(self) -> str:
        # the fields, in declaration order, are the CSV_HEADER columns
        return ",".join(repr(v) for v in dataclasses.astuple(self))


def time_optimality_bound(alpha: float, lb: float, ub: float) -> float:
    """Worst-case makespan excess of a search run at this alpha."""
    if not 0.0 <= alpha < 0.5:
        raise BoundError(
            f"alpha={alpha}: the a-priori gap bound loses significance at alpha >= 0.5"
        )
    if ub <= lb:
        raise BoundError("upper bound must exceed lower bound")
    return alpha / (1.0 - alpha) * (ub - lb)


def posthoc_bound(
    alpha: float, lb: float, ub: float, achieved: float, frontier
) -> float:
    """Tightened gap bound from the frontier left at termination.

    Unless the returned solution is already optimal, some open node is an
    ancestor of every optimal allocation (pruned nodes' subtrees are
    infeasible, and a fully expanded chain would have put the optimum
    itself on the frontier). For that ancestor n, two quantities each
    bound the gap: the a-priori coefficient times apr(n) (the best-first
    pop inequality), and achieved - floor(n) (a node's floor also floors
    every descendant's optimum). The ancestor is unknown, so take the max
    over the frontier of the smaller of the two. ``frontier`` is an
    iterable of (apr, floor) pairs for the open nodes; an empty frontier
    certifies optimality.
    """
    coef = time_optimality_bound(alpha, lb, ub)
    best = 0.0
    for apr, floor in frontier:
        if not 0.0 <= apr <= 1.0:
            raise BoundError("apr must be in [0, 1]")
        best = max(best, min(coef * apr, max(achieved - floor, 0.0)))
    return best


def check_enumerable(domain: ProblemDomain) -> None:
    """Raise ``BoundError`` when the domain is too large for the oracles."""
    cells = domain.n_tasks * domain.n_robots
    if cells > BRUTE_FORCE_CELL_LIMIT:
        raise BoundError(
            f"{cells} allocation cells exceed the enumeration guard "
            f"({BRUTE_FORCE_CELL_LIMIT})"
        )


def _enumerate_valid(domain: ProblemDomain):
    """Every valid allocation, in the row-major order of all binary matrices.

    Validity is a condition on each task's row alone, so each row ranges
    over the robot subsets that cover that task's requirement on their own,
    and the product of those choices holds every valid allocation.
    ``is_valid_allocation`` still filters the product, so the set is exactly
    the valid ones among all 2^(M*N) matrices.
    """
    n = domain.n_robots
    subsets = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8).reshape(-1, n)
    traits = subsets.astype(float) @ domain.team.entries
    rows = [
        subsets[np.all(traits >= req - GE_TOL, axis=1)].tolist()
        for req in domain.requirements.entries
    ]
    for choice in itertools.product(*rows):
        alloc = Allocation(np.array(choice, dtype=np.int8).reshape(domain.n_tasks, n))
        if is_valid_allocation(alloc, domain.team, domain.requirements):
            yield alloc


def brute_force_optimal_makespan(domain: ProblemDomain, travel) -> float:
    """Exact minimum makespan over all valid, schedulable allocations.

    ``travel`` should use instantiated plans; math.inf when no valid
    allocation is schedulable. One price memo serves the whole enumeration.
    """
    check_enumerable(domain)
    memo = PriceMemo(domain, travel)
    best = math.inf
    for alloc in _enumerate_valid(domain):
        sched = solve_schedule(build_scheduling_problem(alloc, memo))
        if sched is not None:
            best = min(best, sched.makespan)
    return best


def brute_force_min_assignments(domain: ProblemDomain, travel) -> float:
    """Fewest assignments among valid, schedulable allocations; inf if none."""
    check_enumerable(domain)
    memo = PriceMemo(domain, travel)
    best = math.inf
    for alloc in _enumerate_valid(domain):
        rc = resource_count(alloc)
        if rc >= best:
            continue
        sched = solve_schedule(build_scheduling_problem(alloc, memo))
        if sched is not None:
            best = rc
    return best


def oracle_travel(domain: ProblemDomain, prm_samples: int = 200, prm_k: int = 8, seed: int = 0):
    """A ``motion.Planner`` outside any search state.

    It gets the roadmap a search with the same (world, samples, k, seed)
    uses, the same immutable object within a process, so it prices trips
    exactly as that search does. It keeps its own ``PlanCache``, so its
    queries never move a search's plan counters.
    """
    roadmap = motion.build_roadmap(
        domain.world, motion.mandatory_vertices(domain), prm_samples, prm_k, seed
    )
    return motion.Planner(domain, roadmap, motion.PlanCache())


def validate_bound(
    domain: ProblemDomain,
    alpha: float,
    prm_samples: int = 200,
    prm_k: int = 8,
    seed: int = 0,
    *,
    optimal: float,
) -> BoundReport:
    """Run the search and check both gap bounds against ``optimal``, the
    domain's true optimum (``brute_force_optimal_makespan``), which does
    not depend on alpha."""
    check_enumerable(domain)
    result: SearchResult = search(domain, alpha, prm_samples, prm_k, seed)
    if result.solution is None:
        raise BoundError(f"search did not find a solution ({result.reason})")
    state = result.state
    if not math.isfinite(optimal):
        raise BoundError("oracle found no schedulable valid allocation")

    achieved = result.solution.makespan
    apriori = time_optimality_bound(alpha, state.lb, state.ub)
    tightened = posthoc_bound(
        alpha, state.lb, state.ub, achieved, open_frontier(state)
    )
    gap = achieved - optimal
    report = BoundReport(
        alpha=alpha,
        optimal_makespan=optimal,
        achieved_makespan=achieved,
        lb=state.lb,
        ub=state.ub,
        apriori_bound=apriori,
        posthoc_bound=tightened,
        min_open_apr=result.min_open_apr,
        normalized_gap=gap / (state.ub - state.lb),
    )
    if gap > apriori + BOUND_TOL:
        raise BoundError(f"gap {gap} exceeds a-priori bound {apriori}: {report}")
    if gap > tightened + BOUND_TOL:
        raise BoundError(f"gap {gap} exceeds post-hoc bound {tightened}: {report}")
    return report


def min_assignments_certificate(domain: ProblemDomain) -> float:
    """Independent assignment-count floor, one task row at a time.

    Requirement rows are satisfied independently, so the fewest possible
    assignments is the sum over tasks of the smallest coalition covering
    that task alone (enumerated by increasing size). Scheduling can only
    exclude allocations, so this never exceeds the true minimum.
    """
    total = 0.0
    n = domain.n_robots
    for req in domain.requirements.entries:
        total += next(
            (
                size
                for size in range(n + 1)
                for subset in itertools.combinations(range(n), size)
                if np.all(domain.team.entries[list(subset)].sum(axis=0) >= req - 1e-9)
            ),
            math.inf,
        )
    return total


def search_min_resources(domain: ProblemDomain):
    """Run the search at alpha = 1; return (solution or None, tie_free, state).

    At alpha = 1 the priority is the coverage residual alone, so the
    greedy argument for minimal assignment count holds only when every
    popped node strictly beats the rest of the frontier. ``run_search``
    counts the pops with an equal-priority rival in ``stats.tied_pops``;
    the run is tie-free when there were none.
    """
    result = search(domain, 1.0)
    return result.solution, result.state.stats.tied_pops == 0, result.state
