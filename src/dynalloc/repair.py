"""Targeted repair of a retained search state after a domain mutation.

A payload is read only through ``_index`` (agent and task ids) and the
readers of ``domain`` (``read_field``, ``read_number``, ``read_row``),
which refuse a missing or malformed field by name as an ``EventError``. A
new agent's id must be new; ``TeamTraitMatrix`` refuses a repeated one.
The four trait/requirement row changes are one shape, declared once in
``ROW_CHANGES``.

Every handler is two parts. First the surgery for its event, which
touches only the node sets the event can invalidate: losses delete nodes
that reference the lost agent or task, and revive the old solution minus
the lost column or row as one node (plan repair as reuse: van der Krogt &
de Weerdt, ICAPS 2005), a row change rescores the open
frontier's apr (and, when favorable, rescans closed/pruned nodes for newly
viable allocations), duration changes and task loss lower every node's
makespan floor to a sound value and demote the frontier to those floors,
and a new agent widens every allocation and links its start into the kept
roadmap by edges out of it only. The children no pop has reached are
part of the frontier: the surgery treats each pending batch
(``search.PendingBatch``) as its members, with one floor for all of them.
The surgery only reshapes allocations and sets apr (``_rescore``) and
floors (``_demote_frontier``). Then one shared re-key, ``_rekey``: the
nodes the event revived are opened and demoted, the bounds are refreshed,
every open node and pending batch is ``prioritize``d, and the heap is
rebuilt once. Only a new agent does more, seeding fresh root children
after it. Everything else is conserved, and the search is then simply
resumed.

No schedule is solved by the repair itself: a demoted or revived node
keeps a lower bound on its new priority and is re-solved only when the
resumed pop loop reaches it (the lazy reuse of Lifelong Planning A*:
Koenig, Likhachev & Furcy, AIJ 2004), so the exact pops, and hence the
expansions and the solution, are those an eager re-solve would give.

The surgery handles nodes in whole arrays, not one numpy call per node:
the allocations it rescores (nodes, then pending members) are stacked into
one (K, M, N) array and scored by one ``apr_values`` call, a loss is cut
out of every allocation with one ``np.delete`` over that stack and a new
agent adds one zero column to it, and each reshaped allocation is then a
read-only view of its own key bytes, trusted rather than re-validated; a
pending member keeps only its key bytes. A batch's members are handled by
whole-list operations (slices, ``compress``), not as node objects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import accumulate, compress

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
    read_field,
    read_number,
    read_row,
    stack_keys,
    start_faults,
    unstack_allocations,
)
from .search import (
    APR_TOL,
    CLOSED,
    OPEN,
    PRUNED,
    AllocationNode,
    SearchResult,
    SearchState,
    add_children,
    apr_value,
    apr_values,
    demote,
    make_node,
    prioritize,
    refresh_bounds,
    run_search,
    take_member,
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


class EventError(DomainError):
    pass


@dataclass(frozen=True)
class DynamicEvent:
    time: float
    kind: EventKind
    payload: dict

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise DomainError(f"event time must be finite and non-negative: {self.time}")
        if not isinstance(self.payload, dict):
            raise EventError(f"event payload must be an object, got {self.payload!r}")


# each trait/requirement row change: the payload's id key, its row key, and
# the direction (+1 up, -1 down) the row may move
ROW_CHANGES = {
    EventKind.TRAITS_REDUCED: ("agent", "traits", -1),
    EventKind.TRAITS_INCREASED: ("agent", "traits", 1),
    EventKind.REQUIREMENTS_INCREASED: ("task", "requires", 1),
    EventKind.REQUIREMENTS_REDUCED: ("task", "requires", -1),
}


def ids_and_rows(domain: ProblemDomain, id_key: str) -> tuple[list | tuple, np.ndarray]:
    """The ids an ``agent`` or ``task`` key names, and their trait rows."""
    if id_key == "agent":
        return domain.team.robot_ids, domain.team.entries
    return [t.id for t in domain.network.tasks], domain.requirements.entries


def _index(domain: ProblemDomain, payload: dict, id_key: str) -> int:
    """Position of the agent or task that ``payload[id_key]`` names."""
    ident = read_field(payload, id_key, "event payload", EventError)
    try:
        return ids_and_rows(domain, id_key)[0].index(ident)
    except ValueError:
        raise EventError(f"unknown {id_key} id {ident!r}") from None


def _row_change(domain: ProblemDomain, event: DynamicEvent) -> tuple[int, np.ndarray, np.ndarray]:
    """(index, old row, new row) of a row-change event, read from its payload."""
    id_key, row_key, _ = ROW_CHANGES[event.kind]
    idx = _index(domain, event.payload, id_key)
    new = read_row(event.payload, row_key, domain.team.trait_names, "event payload", EventError)
    return idx, ids_and_rows(domain, id_key)[1][idx], new


def _moves(old: np.ndarray, new: np.ndarray) -> dict[int, bool]:
    """Whether some value of the row moves, by direction (-1 down, +1 up)."""
    return {-1: bool(np.any(new < old - 1e-12)), 1: bool(np.any(new > old + 1e-12))}


def apply_event(domain: ProblemDomain, event: DynamicEvent) -> ProblemDomain:
    """Produce the next domain iteration with exactly this mutation applied."""
    net, team, req, world = domain.network, domain.team, domain.requirements, domain.world
    kind, payload = event.kind, event.payload

    if kind == EventKind.AGENT_LOST:
        idx = _index(domain, payload, "agent")
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
        idx = _index(domain, payload, "task")

        def without(edges):
            return frozenset((i - (i > idx), j - (j > idx)) for i, j in edges if idx not in (i, j))

        net = TaskNetwork(
            net.tasks[:idx] + net.tasks[idx + 1 :],
            without(net.precedence_edges),
            without(net.mutex_edges),
        )
        req = DesiredTraitMatrix(np.delete(req.entries, idx, axis=0))

    elif kind in ROW_CHANGES:
        id_key, _, direction = ROW_CHANGES[kind]
        idx, old, row = _row_change(domain, event)
        if _moves(old, row)[-direction]:
            way = "up" if direction < 0 else "down"
            raise EventError(f"{kind.value} payload moves some value {way}")
        entries = np.array(ids_and_rows(domain, id_key)[1])
        entries[idx] = row
        if id_key == "agent":
            team = TeamTraitMatrix(entries, team.robot_ids, team.trait_names)
        else:
            req = DesiredTraitMatrix(entries)

    elif kind == EventKind.DURATION_CHANGED:
        idx = _index(domain, payload, "task")
        d = read_number(payload, "duration", "event payload", EventError)
        if not 0 <= d < math.inf:
            raise EventError(f"duration must be finite and non-negative, got {d}")
        t = net.tasks[idx]
        tasks = list(net.tasks)
        tasks[idx] = TaskSpec(t.id, d, t.initial_config, t.terminal_config)
        net = TaskNetwork(tasks, net.precedence_edges, net.mutex_edges)

    elif kind == EventKind.NEW_AGENT:
        spec = read_field(payload, "agent", "event payload", EventError, dict)
        rid = read_field(spec, "id", "new agent", EventError, str)
        speed = read_number(spec, "speed", "new agent", EventError)
        if not 0 < speed < math.inf:
            raise EventError(f"agent speed must be finite and positive, got {speed}")
        start = read_number(spec, "start", "new agent", EventError, 2)
        faults = start_faults(world, start)
        if faults:
            raise EventError(f"agent {rid!r} {faults[0][1]}: start {start}")
        row = read_row(spec, "traits", team.trait_names, "new agent", EventError)
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


def _stack(nodes, batches, shape: tuple[int, int]) -> np.ndarray:
    """The nodes' allocations, then each batch's members in order, as one
    read-only (K, M, N) stack of ``shape`` matrices."""
    keys = [node.allocation.key() for node in nodes]
    for batch in batches:
        keys += batch.keys
    return stack_keys(keys, shape)


def _rescore(state: SearchState, nodes, batches) -> None:
    """Set the nodes' and the batches' members' apr in the current domain,
    from one ``apr_values`` call."""
    domain = state.domain
    stack = _stack(nodes, batches, (domain.n_tasks, domain.n_robots))
    aprs = apr_values(stack, domain.team, domain.requirements).tolist()
    for node, apr in zip(nodes, aprs):
        node.apr = apr
    pos = len(nodes)
    for batch in batches:
        batch.aprs = aprs[pos : pos + len(batch.keys)]
        pos += len(batch.keys)


def _reshape(state: SearchState, nodes, batches, stack: np.ndarray) -> None:
    """Give each node, then each batch member, its slice of ``stack`` (laid
    out as ``_stack`` lays it out); re-register all."""
    state.nodes = {}
    for node, alloc in zip(nodes, unstack_allocations(stack[: len(nodes)])):
        node.allocation = alloc
        state.nodes[alloc.key()] = node
    size = math.prod(stack.shape[1:])
    buf = stack[len(nodes) :].tobytes()
    pos = 0
    for batch in batches:
        batch.keys = [buf[i : i + size] for i in range(pos, pos + len(batch.keys) * size, size)]
        pos += len(batch.keys) * size
    state.pending_keys = {key for batch in batches for key in batch.keys}


def _demote_frontier(state: SearchState, slack: float) -> None:
    """Lower every node's and batch's floor by ``slack``, then demote the
    frontier.

    ``slack`` bounds how far any allocation's optimal makespan can have
    fallen (``math.inf`` when nothing is known, which zeroes every floor),
    so each floor stays sound. Closed and pruned nodes matter too: a revived
    node, and every pending child, hands its floor to the scheduler. No
    schedule is solved: the pop loop re-solves a node only if it reaches
    the top.
    """
    for node in state.nodes.values():
        node.floor = max(0.0, node.floor - slack)
    for batch in state.batches:
        batch.floor = max(0.0, batch.floor - slack)
    demote(state.open_nodes())


def _rekey(state: SearchState, revived=()) -> None:
    """The step every handler ends in: the nodes the event revived opened
    and demoted, each keeping its sound floor, then bounds from the new
    domain and roadmap, every open node's and batch's priority from its
    apr and floor, and one heapify."""
    for node in revived:
        node.status = OPEN
    demote(revived)
    refresh_bounds(state)
    prioritize(state, state.open_nodes(), state.batches)
    state.rebuild_heap()


def handle_agent_or_task_loss(
    state: SearchState,
    event: DynamicEvent,
    old_domain: ProblemDomain,
    incumbent: AllocationNode | None = None,
) -> None:
    """Drop every node and pending child referencing the lost agent or
    task, reindex the rest, and keep the incumbent minus the loss.

    Survivors of an agent loss never assigned the agent, so their apr,
    schedules and floors hold. A task loss changes requirement mass and
    schedule indexing: every survivor is rescored, no sound shift of a
    floor exists, and each closed node left viable is revived. A child
    uses whatever its parent uses, so a batch whose parent is dropped is
    dropped whole.

    ``incumbent`` is the node of the solution being repaired, or None. When
    the loss drops it, its projection (its allocation with the lost column
    or row cut out) is revived in its place: the node of that key if the
    graph has one (a pending member is built as a node first), else a new
    node whose parent is the incumbent's nearest ancestor that never used
    the lost index. That ancestor's allocation is a subset of the
    projection, so its floor is sound for it and its schedule is the warm
    hint.
    """
    agent_loss = event.kind == EventKind.AGENT_LOST
    idx = _index(old_domain, event.payload, "agent" if agent_loss else "task")
    axis = 1 if agent_loss else 0

    nodes = list(state.nodes.values())
    batches = state.batches
    stack = _stack(nodes, batches, (old_domain.n_tasks, old_domain.n_robots))
    uses = stack.take(idx, axis=axis + 1).any(axis=1)

    def uses_lost(node) -> bool:
        return bool(node.allocation.entries.take(idx, axis=axis).any())

    anchor = None  # a dropped incumbent's nearest ancestor that never used idx
    if incumbent is not None and uses_lost(incumbent):
        anchor = incumbent.parent
        while uses_lost(anchor):
            anchor = anchor.parent
    survivors = []
    for node, used in zip(nodes, uses.tolist()):
        if used:
            node.status = PRUNED  # detached; not re-registered below
        else:
            survivors.append(node)
    kept = (~uses).tolist()
    pos = len(nodes)
    for batch in batches:
        keep = kept[pos : pos + len(batch.keys)]
        pos += len(batch.keys)
        batch.keys = list(compress(batch.keys, keep))
        batch.aprs = list(compress(batch.aprs, keep))
        batch.seqs = list(compress(batch.seqs, keep))
    state.batches = [batch for batch in batches if batch.keys]
    _reshape(state, survivors, state.batches, np.delete(stack[~uses], idx, axis=axis + 1))

    revived = []
    if not agent_loss:
        state.schedule_memo.clear()
        _rescore(state, survivors, state.batches)
        _demote_frontier(state, math.inf)
        revived = [node for node in state.with_status(CLOSED) if node.apr <= APR_TOL]
    if anchor is not None:
        projection = np.delete(incumbent.allocation.entries, idx, axis=axis)
        revived.append(_projection(state, projection[None], anchor))
    _rekey(state, revived)


def _projection(
    state: SearchState, entries: np.ndarray, anchor: AllocationNode
) -> AllocationNode:
    """The node for the one allocation of ``entries`` (a (1, M, N) stack in
    the current domain): the node of its key, the pending member of its key
    built as a node, or a new node under ``anchor`` with the anchor's floor
    and a fresh seq."""
    alloc = unstack_allocations(entries)[0]
    key = alloc.key()
    if key in state.nodes:
        return state.nodes[key]
    if key in state.pending_keys:
        batch = next(batch for batch in state.batches if key in batch.keys)
        return take_member(state, batch, batch.keys.index(key))
    seq = state.next_seq
    state.next_seq += 1
    apr = apr_value(alloc, state.domain.team, state.domain.requirements)
    return make_node(state, alloc, anchor, apr, anchor.floor, seq)


def handle_row_change(state: SearchState, event: DynamicEvent) -> None:
    """A trait or requirement row moved one way: only apr changes.

    The frontier is rescored. Only a favorable change (a capability rose or
    a requirement fell) can make a closed or pruned node viable, so only
    then are those rescanned, and each viable one is revived."""
    id_key, _, direction = ROW_CHANGES[event.kind]
    favorable = direction > 0 if id_key == "agent" else direction < 0
    stale = state.with_status(CLOSED) + state.with_status(PRUNED) if favorable else []
    _rescore(state, state.open_nodes() + stale, state.batches)
    _rekey(state, [node for node in stale if node.apr <= APR_TOL])


def handle_duration_change(
    state: SearchState, event: DynamicEvent, old_domain: ProblemDomain
) -> None:
    """One duration moved: shift every node's floor; apr is untouched.

    Under fixed orderings the makespan is a longest path, which lowering one
    task's duration by d shortens by at most d and raising it shortens not
    at all; the optimum over orderings inherits both facts.
    """
    idx = _index(old_domain, event.payload, "task")
    d_old = old_domain.network.tasks[idx].duration
    d_new = state.domain.network.tasks[idx].duration
    _demote_frontier(state, max(0.0, d_old - d_new))
    _rekey(state)


def handle_new_agent(state: SearchState, event: DynamicEvent) -> None:
    """Widen every allocation, link the new start in, seed root children.

    The start joins the retained roadmap by edges out of it only
    (``motion.link_start``), so no older path changes and every plan,
    schedule and floor stays exact; only the bounds move. The exception is
    a cache whose robot positions an earlier agent loss shifted: its
    mispriced plans are dropped, and as schedules solved since may have
    read them, the floors are zeroed and the frontier demoted. The root's
    children are seeded after the re-key."""
    nodes = list(state.nodes.values())
    n_tasks = state.domain.n_tasks
    stack = _stack(nodes, state.batches, (n_tasks, state.domain.n_robots - 1))
    zeros = np.zeros((len(stack), n_tasks, 1), dtype=np.int8)
    _reshape(state, nodes, state.batches, np.concatenate([stack, zeros], axis=2))
    # the root's allocation is all zeros, so no loss has deleted it
    root = next(node for node in nodes if node.parent is None)

    world = state.domain.world
    start = world.robot_start_configs[state.domain.team.robot_ids[-1]]
    state.roadmap = motion.link_start(state.roadmap, world, start, state.prm_k)
    if motion.drop_mispriced_plans(state.plan_cache, state.domain):
        _demote_frontier(state, math.inf)
    _rekey(state)

    n_robots = state.domain.n_robots  # the new robot's cells: the last column
    add_children(state, root, range(n_robots - 1, n_tasks * n_robots, n_robots))


def decompose_mixed(domain: ProblemDomain, event: DynamicEvent) -> list[DynamicEvent]:
    """Split a sign-mixed trait/requirement row change into pure events:
    first the row's falls, then its rises, each under its own kind."""
    if event.kind not in ROW_CHANGES:
        return [event]
    idx, old, new = _row_change(domain, event)
    if not all(_moves(old, new).values()):
        return [event]
    id_key, row_key, _ = ROW_CHANGES[event.kind]
    kinds = {spec: kind for kind, spec in ROW_CHANGES.items()}
    ident = ids_and_rows(domain, id_key)[0][idx]
    names = domain.team.trait_names
    return [
        DynamicEvent(
            event.time,
            kinds[id_key, row_key, direction],
            {id_key: ident, row_key: dict(zip(names, row.tolist()))},
        )
        for direction, row in ((-1, np.minimum(new, old)), (1, new))
    ]


def repair(state: SearchState, solution, event: DynamicEvent) -> SearchResult:
    """Mutate the retained state for one event and resume the search.

    ``solution`` is the one the last solve or repair of this state
    returned, None when that found none. Its node is first returned to the
    frontier; a loss that deletes it revives its projection in its place.
    The handlers solve nothing, so the one pop loop, ``run_search``,
    re-certifies that node under the new domain when it reaches the top,
    and returns it only as it would any goal: both gap bounds and the
    tie-break by fewer assignments hold for a repair as for a fresh search.

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
    domains = list(accumulate(steps, apply_event, initial=domain))

    if sol_node is not None:
        sol_node.status = OPEN  # every handler's re-key pushes it

    for step, old_domain, new_domain in zip(steps, domains, domains[1:]):
        state.domain = new_domain
        # handlers are called by name, never through a table, so that
        # wrappers bound to the module attributes see every call
        kind = step.kind
        if kind in (EventKind.AGENT_LOST, EventKind.TASK_LOST):
            handle_agent_or_task_loss(state, step, old_domain, sol_node)
        elif kind in ROW_CHANGES:
            handle_row_change(state, step)
        elif kind == EventKind.DURATION_CHANGED:
            handle_duration_change(state, step, old_domain)
        else:
            handle_new_agent(state, step)

    return run_search(state)
