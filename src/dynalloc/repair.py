"""Targeted repair of a retained search state after a domain mutation.

Each event kind touches only the node sets it can actually invalidate:
losses delete nodes that reference the lost agent or task, capability or
requirement shifts rescore the open frontier's apr (and, for favorable
shifts, rescan closed/pruned nodes for newly viable allocations), duration
changes and task loss lower every node's makespan floor to a sound value
and demote the frontier to those floors, and a new agent widens every
allocation, links its start into the kept roadmap by edges out of it
only, and seeds fresh root children. Everything else is conserved (a new
agent leaves every path, plan, schedule and floor valid, unless an earlier
loss renumbered the plan cache's classes), and the search is then simply
resumed.

Repair only reshapes allocations and sets apr and floors; every priority
and every node transition goes through the search's own primitives
(``prioritize``, ``demote``, ``requeue``, ``accept_goal``). No frontier
schedule is re-solved by the surgery itself: a demoted node keeps a lower
bound on its new priority and is re-solved only when the resumed pop loop
reaches it (the lazy reuse of Lifelong Planning A*), so the exact pops, and
hence the expansions and the solution, are those an eager re-solve would
give.

The surgery handles nodes in whole arrays, not one numpy call per node:
the allocations it rescores are stacked into one (K, M, N) array and
scored by one ``apr_values`` call, a loss is cut out of every allocation
with one ``np.delete`` over that stack and a new agent adds one zero
column to it, and each reshaped allocation is then a read-only view of its
own key bytes, trusted rather than re-validated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import motion
from .domain import (
    DesiredTraitMatrix,
    DomainError,
    ProblemDomain,
    TaskNetwork,
    TaskSpec,
    TeamTraitMatrix,
    WorldModel,
    stack_allocations,
    start_faults,
    unstack_allocations,
)
from .search import (
    APR_TOL,
    CLOSED,
    OPEN,
    PRUNED,
    SearchResult,
    SearchState,
    accept_goal,
    add_children,
    apr_values,
    demote,
    prioritize,
    refresh_bounds,
    requeue,
    run_search,
)


class EventKind(enum.Enum):
    AGENT_LOST = "agent_lost"
    TASK_LOST = "task_lost"
    TRAITS_REDUCED = "traits_reduced"
    REQUIREMENTS_INCREASED = "requirements_increased"
    TRAITS_INCREASED = "traits_increased"
    REQUIREMENTS_REDUCED = "requirements_reduced"
    DURATION_CHANGED = "duration_changed"
    NEW_AGENT = "new_agent"


@dataclass(frozen=True)
class DynamicEvent:
    time: float
    kind: EventKind
    payload: dict

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise DomainError(f"event time must be finite and non-negative: {self.time}")


class EventError(DomainError):
    pass


def _trait_row(domain: ProblemDomain, mapping: dict) -> np.ndarray:
    names = domain.team.trait_names
    unknown = set(mapping) - set(names)
    if unknown:
        raise EventError(f"unknown trait names {sorted(unknown)}")
    return np.array([float(mapping.get(n, 0.0)) for n in names])


def _robot_index(domain: ProblemDomain, agent_id: str) -> int:
    try:
        return domain.team.robot_ids.index(agent_id)
    except ValueError:
        raise EventError(f"unknown agent id {agent_id!r}") from None


def apply_event(domain: ProblemDomain, event: DynamicEvent) -> ProblemDomain:
    """Produce the next domain iteration with exactly this mutation applied."""
    net, team, req, world = domain.network, domain.team, domain.requirements, domain.world
    kind, payload = event.kind, event.payload

    if kind == EventKind.AGENT_LOST:
        idx = _robot_index(domain, payload["agent"])
        rid = team.robot_ids[idx]
        team = TeamTraitMatrix(
            np.delete(team.entries, idx, axis=0),
            team.robot_ids[:idx] + team.robot_ids[idx + 1 :],
            team.trait_names,
        )
        world = WorldModel(
            world.bounds,
            world.obstacles,
            {k: v for k, v in world.robot_start_configs.items() if k != rid},
            {k: v for k, v in world.robot_speeds.items() if k != rid},
        )

    elif kind == EventKind.TASK_LOST:
        idx = net.task_index(payload["task"])

        def without(edges):
            return frozenset((i - (i > idx), j - (j > idx)) for i, j in edges if idx not in (i, j))

        net = TaskNetwork(
            net.tasks[:idx] + net.tasks[idx + 1 :],
            without(net.precedence_edges),
            without(net.mutex_edges),
        )
        req = DesiredTraitMatrix(np.delete(req.entries, idx, axis=0))

    elif kind in (EventKind.TRAITS_REDUCED, EventKind.TRAITS_INCREASED):
        idx = _robot_index(domain, payload["agent"])
        row = _trait_row(domain, payload["traits"])
        old = team.entries[idx]
        if kind == EventKind.TRAITS_REDUCED and np.any(row > old + 1e-12):
            raise EventError("traits_reduced payload raises some trait value")
        if kind == EventKind.TRAITS_INCREASED and np.any(row < old - 1e-12):
            raise EventError("traits_increased payload lowers some trait value")
        entries = np.array(team.entries)
        entries[idx] = row
        team = TeamTraitMatrix(entries, team.robot_ids, team.trait_names)

    elif kind in (EventKind.REQUIREMENTS_INCREASED, EventKind.REQUIREMENTS_REDUCED):
        idx = net.task_index(payload["task"])
        row = _trait_row(domain, payload["requires"])
        old = req.entries[idx]
        if kind == EventKind.REQUIREMENTS_INCREASED and np.any(row < old - 1e-12):
            raise EventError("requirements_increased payload lowers a requirement")
        if kind == EventKind.REQUIREMENTS_REDUCED and np.any(row > old + 1e-12):
            raise EventError("requirements_reduced payload raises a requirement")
        entries = np.array(req.entries)
        entries[idx] = row
        req = DesiredTraitMatrix(entries)

    elif kind == EventKind.DURATION_CHANGED:
        idx = net.task_index(payload["task"])
        d = float(payload["duration"])
        if not 0 <= d < math.inf:
            raise EventError(f"duration must be finite and non-negative, got {d}")
        t = net.tasks[idx]
        tasks = list(net.tasks)
        tasks[idx] = TaskSpec(t.id, d, t.initial_config, t.terminal_config)
        net = TaskNetwork(tuple(tasks), net.precedence_edges, net.mutex_edges)

    elif kind == EventKind.NEW_AGENT:
        spec = payload["agent"]
        rid = spec["id"]
        if rid in team.robot_ids:
            raise EventError(f"agent id {rid!r} already exists")
        speed = float(spec["speed"])
        if not 0 < speed < math.inf:
            raise EventError(f"agent speed must be finite and positive, got {speed}")
        try:
            start = tuple(float(v) for v in spec["start"])
        except (TypeError, ValueError):
            start = ()
        if len(start) != 2:
            raise EventError(f"agent start must be a 2-D point, got {spec['start']!r}")
        faults = start_faults(world, start)
        if faults:
            raise EventError(f"agent {rid!r} {faults[0][1]}: start {start}")
        row = _trait_row(domain, spec["traits"])
        team = TeamTraitMatrix(
            np.vstack([team.entries, row]), team.robot_ids + (rid,), team.trait_names
        )
        starts = dict(world.robot_start_configs)
        speeds = dict(world.robot_speeds)
        starts[rid] = start
        speeds[rid] = speed
        world = WorldModel(world.bounds, world.obstacles, starts, speeds)

    else:  # pragma: no cover
        raise EventError(f"unknown event kind {kind}")

    return ProblemDomain(domain.iteration + 1, net, team, req, world)


def _stack(nodes, shape: tuple[int, int]) -> np.ndarray:
    return stack_allocations([node.allocation for node in nodes], shape)


def _aprs(state: SearchState, nodes) -> list[float]:
    """The nodes' apr in the current domain, from one ``apr_values`` call."""
    domain = state.domain
    stack = _stack(nodes, (domain.n_tasks, domain.n_robots))
    return apr_values(stack, domain.team, domain.requirements).tolist()


def _rekey_open(state: SearchState) -> None:
    """Re-prioritize every open node from its current scores; one heapify."""
    prioritize(state, state.open_nodes())
    state.rebuild_heap()


def _rescore_open_apr(state: SearchState) -> None:
    nodes = state.open_nodes()
    for node, apr in zip(nodes, _aprs(state, nodes)):
        node.apr = apr
    _rekey_open(state)


def _reshape(state: SearchState, nodes, stack: np.ndarray) -> None:
    """Give each node the allocation of its slice of ``stack``; re-register all."""
    state.nodes = {}
    for node, alloc in zip(nodes, unstack_allocations(stack)):
        node.allocation = alloc
        state.nodes[alloc.key()] = node


def _lower_floors(state: SearchState, slack: float) -> None:
    """Lower every node's floor by ``slack``, whatever its status.

    ``slack`` bounds how far any allocation's optimal makespan can have
    fallen (``math.inf`` when nothing is known, which zeroes every floor),
    so each floor stays sound. Closed and pruned nodes matter too: a revived
    node, and every lazy child, hands its floor to the scheduler.
    """
    for node in state.nodes.values():
        node.floor = max(0.0, node.floor - slack)


def _rescore_frontier(state: SearchState) -> None:
    """Demote every open node to its (already lowered) floor; solve nothing.

    Needed whenever the schedules under the frontier changed; the pop loop
    re-solves a node only if it reaches the top.
    """
    demote(state, state.open_nodes())
    state.rebuild_heap()


def handle_agent_or_task_loss(state: SearchState, event: DynamicEvent, old_domain: ProblemDomain) -> None:
    """Drop every node referencing the lost agent or task, reindex the rest."""
    agent_loss = event.kind == EventKind.AGENT_LOST
    if agent_loss:
        idx = old_domain.team.robot_ids.index(event.payload["agent"])
        axis = 1
    else:
        idx = old_domain.network.task_index(event.payload["task"])
        axis = 0

    nodes = list(state.nodes.values())
    stack = _stack(nodes, (old_domain.n_tasks, old_domain.n_robots))
    uses = stack.take(idx, axis=axis + 1).any(axis=1)
    survivors = []
    for node, used in zip(nodes, uses.tolist()):
        if used:
            node.status = PRUNED  # detached; not re-registered below
        else:
            survivors.append(node)
    _reshape(state, survivors, np.delete(stack[~uses], idx, axis=axis + 1))

    if agent_loss:
        # survivors never assigned the agent: schedules and floors hold, and
        # the deleted nodes are PRUNED, so their heap entries are dead; only
        # ub can move (it divides by the slowest remaining speed)
        bounds = (state.lb, state.ub)
        refresh_bounds(state)
        if (state.lb, state.ub) != bounds:
            _rekey_open(state)
        return

    # task loss: requirement mass and schedule indexing both changed
    refresh_bounds(state)
    state.schedule_memo.clear()
    for node, apr in zip(survivors, _aprs(state, survivors)):
        node.apr = apr
    # no sound shift of a floor exists when a task disappears
    _lower_floors(state, math.inf)
    _rescore_frontier(state)
    for node in state.with_status(CLOSED):
        if node.apr <= APR_TOL:
            requeue(state, node)


def handle_decrease(state: SearchState, event: DynamicEvent) -> None:
    """Capabilities fell or requirements rose: only the frontier can improve."""
    _rescore_open_apr(state)


def handle_increase(state: SearchState, event: DynamicEvent) -> None:
    """Capabilities rose or requirements fell: stale nodes may now be viable."""
    _rescore_open_apr(state)
    stale = state.with_status(CLOSED) + state.with_status(PRUNED)
    for node, apr in zip(stale, _aprs(state, stale)):
        node.apr = apr
        if apr <= APR_TOL:
            requeue(state, node)


def handle_duration_change(
    state: SearchState, event: DynamicEvent, old_domain: ProblemDomain
) -> None:
    """One duration moved: shift every node's floor; apr is untouched.

    Under fixed orderings the makespan is a longest path, which lowering one
    task's duration by d shortens by at most d and raising it shortens not
    at all; the optimum over orderings inherits both facts.
    """
    idx = old_domain.network.task_index(event.payload["task"])
    d_old = old_domain.network.tasks[idx].duration
    d_new = state.domain.network.tasks[idx].duration
    refresh_bounds(state)
    _lower_floors(state, max(0.0, d_old - d_new))
    _rescore_frontier(state)


def handle_new_agent(state: SearchState, event: DynamicEvent) -> None:
    """Widen every allocation, link the new start in, seed root children.

    The start joins the retained roadmap by edges out of it only
    (``motion.link_start``), so no older path changes and every plan,
    schedule and floor stays exact; only the bounds move, so the frontier
    is re-keyed once. The exception is a cache whose class ids an earlier
    agent loss or trait change renumbered: its mispriced plans are dropped,
    and as schedules solved since may have read them, the floors are zeroed
    and the frontier demoted."""
    nodes = list(state.nodes.values())
    n_tasks = state.domain.n_tasks
    stack = _stack(nodes, (n_tasks, state.domain.n_robots - 1))
    zeros = np.zeros((len(nodes), n_tasks, 1), dtype=np.int8)
    _reshape(state, nodes, np.concatenate([stack, zeros], axis=2))
    # the root's allocation is all zeros, so no loss has deleted it
    root = next(node for node in nodes if node.parent is None)

    world = state.domain.world
    start = world.robot_start_configs[state.domain.team.robot_ids[-1]]
    state.roadmap = motion.link_start(state.roadmap, world, start, state.prm_k)
    refresh_bounds(state)
    if motion.drop_mispriced_plans(state.plan_cache, state.domain):
        _lower_floors(state, math.inf)
        _rescore_frontier(state)
    else:
        _rekey_open(state)

    new_col = state.domain.n_robots - 1
    add_children(state, root.allocation, root, [(m, new_col) for m in range(n_tasks)])


def decompose_mixed(domain: ProblemDomain, event: DynamicEvent) -> list[DynamicEvent]:
    """Split a sign-mixed trait/requirement row change into pure events."""
    if event.kind in (EventKind.TRAITS_REDUCED, EventKind.TRAITS_INCREASED):
        idx = _robot_index(domain, event.payload["agent"])
        old = domain.team.entries[idx]
        new = _trait_row(domain, event.payload["traits"])
        down_kind, up_kind = EventKind.TRAITS_REDUCED, EventKind.TRAITS_INCREASED
        key, ident = "traits", ("agent", event.payload["agent"])
    elif event.kind in (
        EventKind.REQUIREMENTS_INCREASED,
        EventKind.REQUIREMENTS_REDUCED,
    ):
        idx = domain.network.task_index(event.payload["task"])
        old = domain.requirements.entries[idx]
        new = _trait_row(domain, event.payload["requires"])
        down_kind, up_kind = (
            EventKind.REQUIREMENTS_REDUCED,
            EventKind.REQUIREMENTS_INCREASED,
        )
        key, ident = "requires", ("task", event.payload["task"])
    else:
        return [event]

    names = domain.team.trait_names
    has_down = bool(np.any(new < old - 1e-12))
    has_up = bool(np.any(new > old + 1e-12))
    if not (has_down and has_up):
        return [event]
    return [
        DynamicEvent(event.time, kind, {ident[0]: ident[1], key: dict(zip(names, row.tolist()))})
        for kind, row in ((down_kind, np.minimum(new, old)), (up_kind, new))
    ]


def repair(state: SearchState, solution, event: DynamicEvent) -> SearchResult:
    """Mutate the retained state for one event and resume the search.

    ``solution`` is the one the last solve or repair of this state
    returned, None when that found none. Its node is first returned to the
    frontier; after the kind-specific surgery it is re-certified under the
    new domain and, when it is still a goal, returned without any further
    expansion.

    A solution whose allocation is not in the state's graph is refused, and
    every step is applied to the domain before the state is touched, so a
    refused solution or event leaves the retained state as it was.
    """
    domain = state.domain
    sol_node = None
    if solution is not None:
        # look the node up by key: the state may be a copy whose node
        # objects are not those the solution was taken from
        alloc = solution.allocation
        sol_node = state.nodes.get(alloc.key())
        if sol_node is None or alloc.entries.shape != (domain.n_tasks, domain.n_robots):
            raise DomainError("the solution's allocation is not in this state's graph")
    steps = decompose_mixed(domain, event)
    domains = [domain]
    for step in steps:
        domains.append(apply_event(domains[-1], step))
    state.repair_reads += 1

    if sol_node is not None and sol_node.status != OPEN:
        sol_node.status = OPEN
        state.push(sol_node)

    for step, old_domain, new_domain in zip(steps, domains, domains[1:]):
        state.domain = new_domain
        # handlers are called by name, never through a table, so that
        # wrappers bound to the module attributes see every call
        kind = step.kind
        if kind in (EventKind.AGENT_LOST, EventKind.TASK_LOST):
            handle_agent_or_task_loss(state, step, old_domain)
        elif kind in (EventKind.TRAITS_REDUCED, EventKind.REQUIREMENTS_INCREASED):
            handle_decrease(state, step)
        elif kind in (EventKind.TRAITS_INCREASED, EventKind.REQUIREMENTS_REDUCED):
            handle_increase(state, step)
        elif kind == EventKind.DURATION_CHANGED:
            handle_duration_change(state, step, old_domain)
        else:
            handle_new_agent(state, step)

    # fast path: the old solution may still be a goal under the new domain
    if (
        sol_node is not None
        and sol_node.status == OPEN
        and sol_node.allocation.key() in state.nodes
        and requeue(state, sol_node)
        and sol_node.apr <= APR_TOL
    ):
        result = accept_goal(state, sol_node)
        if result is not None:
            return result

    return run_search(state)
