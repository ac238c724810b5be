"""Shared fixtures: tiny hand-built domains and seeded generated ones, and
the oracles and counters that only the tests use."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from dynalloc.analysis import _enumerate_valid, check_enumerable
from dynalloc.domain import (
    Allocation,
    DesiredTraitMatrix,
    ProblemDomain,
    TaskNetwork,
    TaskSpec,
    TeamTraitMatrix,
    WorldModel,
    resource_count,
)
from dynalloc.generator import generate_problem
from dynalloc.geometry import Circle, points_in_any
from dynalloc.scheduler import (
    INFEASIBLE,
    PriceMemo,
    Schedule,
    _Compiled,
    build_scheduling_problem,
    solve_schedule,
)
from dynalloc.search import OPEN, PendingBatch, SearchState, apr_value, search

COLLISION_SAMPLE_STEP = 0.01  # world units between the sampling oracle's samples
TIE_TOL = 1e-12


def build_domain(
    team_rows,
    req_rows,
    *,
    durations=None,
    precedence=(),
    mutex=(),
    obstacles=(),
    bounds=(0.0, 0.0, 20.0, 20.0),
    speeds=None,
):
    """Small hand-built domain with evenly spaced task sites and starts."""
    n_robots = len(team_rows)
    n_tasks = len(req_rows)
    n_traits = len(team_rows[0])
    robot_ids = tuple(f"r{i}" for i in range(n_robots))
    durations = durations or [1.0] * n_tasks
    tasks = tuple(
        TaskSpec(
            f"t{m}",
            durations[m],
            (2.0 + 3.0 * m, 5.0),
            (2.0 + 3.0 * m, 8.0),
        )
        for m in range(n_tasks)
    )
    starts = {rid: (1.0 + 2.0 * i, 1.0) for i, rid in enumerate(robot_ids)}
    speeds = speeds or {rid: 1.0 for rid in robot_ids}
    return ProblemDomain(
        iteration=0,
        network=TaskNetwork(tasks, frozenset(precedence), frozenset(mutex)),
        team=TeamTraitMatrix(
            np.array(team_rows, dtype=float),
            robot_ids,
            tuple(f"trait{u}" for u in range(n_traits)),
        ),
        requirements=DesiredTraitMatrix(np.array(req_rows, dtype=float)),
        world=WorldModel(bounds, tuple(obstacles), starts, speeds),
    )


def stn_solve(problem, orderings):
    """The schedule with every mutex direction fixed as ``orderings`` maps
    it; None when infeasible. Its start times are componentwise minimal
    among feasible ones."""
    comp = _Compiled(problem)
    if not comp.finite:
        return INFEASIBLE
    edges = [(i, j, problem.durations[i] + problem.transition(i, j)) for i, j in orderings.values()]
    res = comp.relax(edges)
    if res is None:
        return INFEASIBLE
    starts, mk = res
    return Schedule(tuple(starts), mk, dict(orderings))


def estimate_travel_time(frm, to, speed: float) -> float:
    """Straight-line time; a lower bound on any plan's duration."""
    if speed <= 0:
        raise ValueError("speed must be positive")
    return math.dist(frm, to) / speed


def euclidean_provider(domain):
    """Travel times from straight-line distance, ignoring obstacles."""
    speeds = domain.world.robot_speeds

    def travel(robot_id, frm, to):
        return estimate_travel_time(frm, to, speeds[robot_id])

    return travel


def plan_collision_samples(plan, obstacles) -> bool:
    """Dense-sampling oracle: True when every sample is obstacle-free.

    Each segment's ``np.linspace`` samples are tested as arrays by
    ``geometry.points_in_any``, with the verdicts of ``point_in_any``.
    """
    for a, b in zip(plan.waypoints, plan.waypoints[1:]):
        n = max(2, int(math.dist(a, b) / COLLISION_SAMPLE_STEP) + 1)
        xs = np.linspace(a[0], b[0], n)
        ys = np.linspace(a[1], b[1], n)
        if points_in_any(xs, ys, obstacles).any():
            return False
    return True


def brute_force_min_assignments(domain, travel) -> float:
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


def min_assignments_certificate(domain) -> float:
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


def search_counting_ties(domain, alpha):
    """``search(domain, alpha)``'s result, and its number of tied pops.

    A pop is tied when it returns an exact node and the frontier left
    behind holds a live entry whose priority is within ``TIE_TOL`` of the
    node's: the moment the search would expand or accept it.
    """
    tied = 0
    real = SearchState.pop

    def pop(state):
        nonlocal tied
        node = real(state)
        if node is not None and node.exact:
            top = state._live_top()
            tied += top is not None and top[0] <= node.tetaq + TIE_TOL
        return node

    with pytest.MonkeyPatch.context() as m:
        m.setattr(SearchState, "pop", pop)
        result = search(domain, alpha)
    return result, tied


def search_min_resources(domain):
    """Run the search at alpha = 1; return (solution or None, tie_free, state).

    At alpha = 1 the priority is the coverage residual alone, so the
    greedy argument for minimal assignment count holds only when every
    popped node strictly beats the rest of the frontier; the run is
    tie-free when no pop was tied (``search_counting_ties``).
    """
    result, tied = search_counting_ties(domain, 1.0)
    return result.solution, tied == 0, result.state


def pending_members(state):
    """(batch, position, key, apr, seq) of every member no pop has reached."""
    for batch in state.batches:
        for i in range(len(batch.keys)):
            yield batch, i, batch.keys[i], batch.aprs[i], batch.seqs[i]


def member_allocation(batch, key):
    """A pending member's allocation, built and validated from its key."""
    shape = batch.parent.allocation.entries.shape
    return Allocation(np.frombuffer(key, dtype=np.int8).reshape(shape))


def graph_size(state):
    """Nodes built plus children pending: the number of nodes the graph
    would hold if every child were registered as a node."""
    return len(state.nodes) + sum(len(b.keys) for b in state.batches)


def heap_violations(state):
    """Breaches of the frontier invariant that peeking the heap relies on.

    An entry is current when its version is its item's, and live when it
    is current and its item OPEN (a node on the frontier, or a batch with a
    pending member): ``pop`` would return it. Every OPEN node of the graph
    and every batch with a pending member must have exactly one live entry,
    keyed by its current (tetaq, assignments, seq), the batch's by its
    head member's; a spent batch must have no current entry, and no other
    item a live one. The pending keys must be exactly the pending members'
    keys, none of them a node's.
    """
    live = {}
    problems = []
    for tetaq, assignments, seq, version, item in state.open_heap:
        if item.version != version:
            continue
        if isinstance(item, PendingBatch):
            if item.status != OPEN:
                problems.append(f"spent batch of parent {item.parent.seq} has a current entry")
                continue
            want = (item.tetaq[-1], item.assignments, item.seqs[-1])
        elif item.status == OPEN:
            want = (item.tetaq, item.assignments, item.seq)
        else:
            continue
        live[id(item)] = live.get(id(item), 0) + 1
        if (tetaq, assignments, seq) != want:
            problems.append(f"item of seq {want[2]} keyed {(tetaq, assignments, seq)}, not {want}")
    frontier = {id(n): n for n in state.nodes.values() if n.status == OPEN}
    frontier.update((id(b), b) for b in state.batches)
    if any(b.status != OPEN for b in state.batches):
        problems.append("a spent batch is still in the state")
    for key, item in frontier.items():
        if live.get(key, 0) != 1:
            label = item.seqs[-1] if isinstance(item, PendingBatch) else item.seq
            problems.append(f"open item of seq {label} has {live.get(key, 0)} live entries")
    problems.extend(
        f"live entry for an item outside the frontier ({count})"
        for key, count in live.items()
        if key not in frontier
    )
    keys = [key for _, _, key, _, _ in pending_members(state)]
    if len(set(keys)) != len(keys) or set(keys) != state.pending_keys:
        problems.append("pending keys are not the pending members' keys")
    if state.pending_keys & state.nodes.keys():
        problems.append("a pending key is also a node's")
    return problems


def score_violations(state):
    """OPEN nodes and pending members whose scores are not current,
    compared with ``==``.

    Each OPEN node's apr must be its allocation's ``apr_value`` on the
    state's domain, its nsq and tetaq the priority formula on (apr, floor,
    lb, ub, alpha), and an exact node's floor its schedule's makespan. This
    is the rule that lets the search materialize a node without re-deriving
    its apr. A pending member is held to the same rule, with its batch's
    floor and nsq, and each batch's members must be in descending (tetaq,
    seq) order, its head last.
    """
    domain, lb, ub, alpha = state.domain, state.lb, state.ub, state.alpha

    def nsq_of(floor):
        return 0.0 if ub <= lb else min(1.0, max(0.0, (floor - lb) / (ub - lb)))

    problems = []
    for node in state.nodes.values():
        if node.status != OPEN:
            continue
        apr = apr_value(node.allocation, domain.team, domain.requirements)
        nsq = nsq_of(node.floor)
        expected = {"apr": apr, "nsq": nsq, "tetaq": alpha * node.apr + (1.0 - alpha) * nsq}
        if node.exact:
            expected["floor"] = node.schedule.makespan
        problems.extend(
            f"node {node.seq}: {name} {getattr(node, name)!r}, expected {value!r}"
            for name, value in expected.items()
            if getattr(node, name) != value
        )
    for batch, i, key, apr, seq in pending_members(state):
        nsq = nsq_of(batch.floor)
        got = (apr, batch.nsq, batch.tetaq[i])
        want = (
            apr_value(member_allocation(batch, key), domain.team, domain.requirements),
            nsq,
            alpha * apr + (1.0 - alpha) * nsq,
        )
        if got != want:
            problems.append(f"pending {seq}: (apr, nsq, tetaq) {got!r}, expected {want!r}")
    for batch in state.batches:
        order = list(zip(batch.tetaq, batch.seqs))
        if order != sorted(order, reverse=True):
            problems.append(
                f"batch of parent {batch.parent.seq} is not in descending (tetaq, seq) order"
            )
    return problems


def lazy_pops(run):
    """``run()``'s result, and (count, digest) of the seq and key of every
    lazy node a pop returned, in pop order: the order in which the search
    built and solved nodes."""
    digest = hashlib.sha256()
    count = 0
    real = SearchState.pop

    def pop(state):
        nonlocal count
        node = real(state)
        if node is not None and not node.exact:
            count += 1
            key = node.allocation.key()
            digest.update(node.seq.to_bytes(8, "little") + len(key).to_bytes(4, "little") + key)
        return node

    with pytest.MonkeyPatch.context() as m:
        m.setattr(SearchState, "pop", pop)
        result = run()
    return result, (count, digest.hexdigest()[:16])


@pytest.fixture
def tiny_domain():
    """One robot, one task, one trait; trivially solvable."""
    return build_domain([[1.0]], [[1.0]])


@pytest.fixture
def pair_domain():
    """Two robots each holding 1 unit of the trait; the task needs 2."""
    return build_domain([[1.0], [1.0]], [[2.0]])


@pytest.fixture
def empty_req_domain():
    """Requirements are all zero, so the empty allocation is a goal."""
    return build_domain([[1.0], [1.0]], [[0.0], [0.0]])


@pytest.fixture
def obstacle_domain():
    """A circle sits between every robot start and every task site."""
    return build_domain(
        [[1.0], [1.0]],
        [[1.0], [1.0]],
        obstacles=[Circle((10.0, 3.5), 2.0)],
        bounds=(0.0, 0.0, 20.0, 20.0),
    )


@pytest.fixture
def desk_domain():
    """Seeded generated domain at brute-force-oracle scale."""
    return generate_problem(0, 3, 4, 3)
