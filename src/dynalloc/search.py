"""Greedy best-first search over the incremental allocation graph.

Nodes are allocation matrices; each edge adds one robot-task assignment.
Priority is a convex mix of two normalized scores: the unmet-requirement
fraction (apr) and the schedule quality relative to analytic makespan
bounds (nsq). ``prioritize`` is the only code that writes nsq and the
priority, and every node transition (pending, lazy, exact, open, demoted)
lives here. An expansion's children are not nodes yet: they are kept as
one ``PendingBatch`` (keys, aprs and reserved seqs, one shared floor) with
one heap entry for its best member, and a child leaves its batch to
become an ``AllocationNode`` only when a pop reaches it (partial
expansion: Yoshizumi, Miura & Ishida, AAAI 2000). Every schedule is solved
against roadmap travel times from one ``motion.Planner`` per state, held
by the state's price memo: it plans each trip on demand through the
state's plan cache, so a repeated trip costs one shortest-path query
across the whole search, and the memo keeps each coalition's arrival and
transition time, so assembling a problem prices no trip twice. The same planner plans an
accepted solution's trips, so its schedule is backed by real plans.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import motion
from .domain import (
    Allocation,
    DesiredTraitMatrix,
    DimensionMismatchError,
    ProblemDomain,
    TeamTraitMatrix,
    stack_keys,
)
from .motion import MotionPlan, PlanCache, Roadmap
from .scheduler import (
    PriceMemo,
    Schedule,
    SchedulingProblem,
    build_scheduling_problem,
    schedule_lower_bound,
    schedule_upper_bound,
    solve_schedule,
)

APR_TOL = 1e-12
# allocations scored per matmul in ``apr_values``, so that its float
# temporaries stay small however many nodes a repair rescores
APR_SLICE = 512

OPEN, CLOSED, PRUNED = "open", "closed", "pruned"


def apr_values(
    stack: np.ndarray, team: TeamTraitMatrix, req: DesiredTraitMatrix
) -> np.ndarray:
    """Unmet-requirement fraction of each allocation in a (K, M, N) stack.

    For each matrix A of the stack, ``sum(max(req - A @ Q, 0)) / sum(req)``:
    the fraction of total required trait mass still unmet, 0 when A is
    valid. The stacked matmul multiplies each matrix on its own, as the
    one-allocation product does, so every value equals that formula
    exactly; one 2-D product over the flattened stack would round some sums
    differently. ``apr_value`` is the one-row call.
    """
    k, m, n = stack.shape
    if (m, n) != (req.n_tasks, team.n_robots):
        raise DimensionMismatchError(
            f"allocations are {m}x{n}, domain has {req.n_tasks} tasks "
            f"and {team.n_robots} robots"
        )
    out = np.zeros(k)
    total = float(req.entries.sum())
    if total == 0.0:
        return out
    for lo in range(0, k, APR_SLICE):
        part = stack[lo : lo + APR_SLICE]
        unmet = np.maximum(req.entries - part.astype(float) @ team.entries, 0.0)
        out[lo : lo + len(part)] = unmet.reshape(len(part), -1).sum(axis=1)
    return out / total


def apr_value(alloc: Allocation, team, req) -> float:
    """``apr_values`` of one allocation."""
    return float(apr_values(alloc.entries[None], team, req)[0])


@dataclass
class AllocationNode:
    """One allocation of the graph and its scores.

    ``apr`` is current in the domain whenever the node is OPEN: its creator
    scored it, and repair rescores every node an event can move. ``nsq``
    and ``tetaq`` are written by ``prioritize`` alone, from apr and floor.
    """

    allocation: Allocation
    parent: "AllocationNode | None"
    schedule: Schedule | None  # None until solved, once demoted, or if infeasible
    apr: float
    status: str
    seq: int
    # sound lower bound on this allocation's optimal makespan in the current
    # domain, whatever the status: the solved makespan once exact, else the
    # bound nsq was computed from (the parent's floor for a new child);
    # repair lowers it on every node. Constraints only accumulate down the
    # tree, so it also floors every descendant's optimum, which is what the
    # post-hoc gap bound relies on. The scheduler stops at it, so an
    # unsound floor can yield a suboptimal schedule
    floor: float = 0.0
    nsq: float = math.nan
    tetaq: float = math.nan
    version: int = 0  # bumped on re-prioritization; stale heap entries skipped

    @property
    def exact(self) -> bool:
        """Whether the priority is exact rather than a lower bound.

        The pop loop solves a lazy node and re-queues it with the exact
        priority, which preserves best-first order while skipping nodes
        that never reach the top of the frontier.
        """
        return self.schedule is not None

    @property
    def assignments(self) -> int:
        return self.allocation.count


@dataclass(eq=False)
class PendingBatch:
    """The children of one expansion that no pop has reached yet.

    Members are kept as parallel lists (key, apr, reserved seq, tetaq) in
    reverse pop order, by (tetaq, seq) descending, so the head, the member
    the next pop builds, is the last and leaves with ``list.pop()``. All
    share the parent (the hint of their solves), its assignment count plus
    one, and one floor, so one nsq; like a lazy node's, the floor is sound
    and repair lowers it. ``prioritize`` alone writes nsq and tetaq, and
    sorts the members; repair surgery may leave a batch's scores stale,
    because the re-key that ends it ``prioritize``s every batch.
    """

    parent: AllocationNode
    assignments: int
    floor: float
    keys: list[bytes]
    aprs: list[float]
    seqs: list[int]
    nsq: float = math.nan
    tetaq: list[float] = field(default_factory=list)
    status: str = OPEN  # CLOSED once its last member is built, as a node's
    version: int = 0  # bumped on every push; stale heap entries skipped


@dataclass
class Solution:
    allocation: Allocation
    schedule: Schedule
    motion_plans: dict[tuple[str, tuple, tuple], MotionPlan]  # by (robot_id, from, to)

    @property
    def makespan(self) -> float:
        return self.schedule.makespan


@dataclass
class SearchStats:
    expansions: int = 0
    scheduler_calls: int = 0
    nodes_touched: int = 0
    bnb_nodes: int = 0  # scheduler branch-and-bound nodes, over every solve
    relaxations: int = 0  # scheduler relaxations, over every solve


@dataclass
class SearchState:
    """Everything the search owns, retained afterwards for targeted repair.

    ``nodes`` holds every allocation built as a node; the children no pop
    has reached are in ``batches`` (each with a pending member: a batch
    leaves once its last member is built), and ``pending_keys`` holds
    their keys, so deduplication sees the whole graph.
    """

    domain: ProblemDomain
    alpha: float
    roadmap: Roadmap
    plan_cache: PlanCache
    lb: float = 0.0  # analytic makespan bounds; see ``refresh_bounds``
    ub: float = 0.0
    prm_k: int = 8
    open_heap: list = field(default_factory=list)
    nodes: dict[bytes, AllocationNode] = field(default_factory=dict)
    batches: list[PendingBatch] = field(default_factory=list)
    pending_keys: set[bytes] = field(default_factory=set)
    schedule_memo: dict = field(default_factory=dict)
    # assembly's constants and trip prices for the current domain and
    # roadmap; see ``_price_memo``
    price_memo: PriceMemo | None = None
    stats: SearchStats = field(default_factory=SearchStats)
    next_seq: int = 0  # the seq the next registered child takes

    def with_status(self, status: str) -> list[AllocationNode]:
        return [n for n in self.nodes.values() if n.status == status]

    def open_nodes(self):
        return self.with_status(OPEN)

    @staticmethod
    def _entry(item: AllocationNode | PendingBatch) -> tuple:
        """A fresh heap entry for a node or a batch's head member; the
        item's older entries go stale."""
        item.version += 1
        if isinstance(item, PendingBatch):
            return (item.tetaq[-1], item.assignments, item.seqs[-1], item.version, item)
        return (item.tetaq, item.assignments, item.seq, item.version, item)

    def push(self, item: AllocationNode | PendingBatch) -> None:
        heapq.heappush(self.open_heap, self._entry(item))

    def _live_top(self) -> tuple | None:
        """Drop stale entries off the heap top; the first live entry, if any."""
        while self.open_heap:
            entry = self.open_heap[0]
            if entry[4].status == OPEN and entry[4].version == entry[3]:
                return entry
            heapq.heappop(self.open_heap)
        return None

    def pop(self) -> AllocationNode | None:
        """The best open node; a batch's head is built as a node first,
        and the batch re-keyed by its next head."""
        entry = self._live_top()
        if entry is None:
            return None
        item = entry[4]
        if not isinstance(item, PendingBatch):
            return heapq.heappop(self.open_heap)[4]
        node = take_head(self, item)
        if item.status == OPEN:
            heapq.heapreplace(self.open_heap, self._entry(item))
        else:
            heapq.heappop(self.open_heap)
        return node

    def rebuild_heap(self) -> None:
        """Re-key every open node and batch after bulk priority updates.

        One ``heapify`` over the fresh entries. ``seq`` is unique, so the
        entries are totally ordered and pop in the order pushes would give.
        """
        items = self.open_nodes() + self.batches
        self.open_heap = [self._entry(item) for item in items]
        heapq.heapify(self.open_heap)


def new_state(
    domain: ProblemDomain,
    alpha: float,
    prm_samples: int = 200,
    prm_k: int = 8,
    seed: int = 0,
) -> SearchState:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    roadmap = motion.build_roadmap(
        domain.world, motion.mandatory_vertices(domain), prm_samples, prm_k, seed
    )
    state = SearchState(
        domain=domain,
        alpha=alpha,
        roadmap=roadmap,
        plan_cache=PlanCache(),
        prm_k=prm_k,
        next_seq=1,  # the root takes seq 0
    )
    refresh_bounds(state)
    root_alloc = Allocation(np.zeros((domain.n_tasks, domain.n_robots), dtype=np.int8))
    apr = apr_value(root_alloc, domain.team, domain.requirements)
    requeue(state, make_node(state, root_alloc, None, apr, 0.0, 0))
    return state


def refresh_bounds(state: SearchState) -> None:
    """Set the analytic makespan bounds from the current domain and roadmap."""
    durations = [t.duration for t in state.domain.network.tasks]
    state.lb = schedule_lower_bound(durations)
    state.ub = schedule_upper_bound(
        state.domain.world, durations, state.roadmap.total_edge_length
    )


def solve_with_memo(
    state: SearchState,
    problem: SchedulingProblem,
    floor: float = 0.0,
    hint: Schedule | None = None,
) -> Schedule | None:
    """Solve through the memo; ``floor`` and ``hint`` go to ``solve_schedule``.

    Both only prune, so the optimum and hence the memo key do not depend
    on them. Each solve adds its work to the state's counters.
    """
    key = problem.key()
    if key not in state.schedule_memo:
        state.stats.scheduler_calls += 1
        state.schedule_memo[key] = solve_schedule(problem, floor, hint, state.stats)
    return state.schedule_memo[key]


def evaluate(
    state: SearchState,
    alloc: Allocation,
    floor: float = 0.0,
    hint: Schedule | None = None,
) -> Schedule | None:
    """Schedule an allocation through the memo; None when it is infeasible.

    ``floor`` must be a sound lower bound on the allocation's optimal
    makespan; see ``solve_schedule``.
    """
    problem = build_scheduling_problem(alloc, _price_memo(state))
    return solve_with_memo(state, problem, floor, hint)


def _price_memo(state: SearchState) -> PriceMemo:
    """The state's price memo, started afresh, around a new planner, once
    its domain or roadmap has been replaced: a price is a trip through
    ``state.plan_cache`` on that roadmap for that domain's robots, and only
    an event replaces them."""
    memo = state.price_memo
    if memo is None or memo.domain is not state.domain or memo.travel.roadmap is not state.roadmap:
        planner = motion.Planner(state.domain, state.roadmap, state.plan_cache)
        memo = state.price_memo = PriceMemo(state.domain, planner)
    return memo


def prioritize(state: SearchState, nodes, batches=()) -> None:
    """Write each node's and each batch's nsq and tetaq from apr and floor.

    nsq is the floor normalized between the state's makespan bounds and
    clamped to [0, 1] (0 when the bounds meet); tetaq mixes apr and nsq by
    alpha. An exact node's floor is its makespan, any other's a lower bound
    on it, so a lazy priority never exceeds the exact one. A batch's
    members share one floor, hence one nsq; their tetaqs are the same
    formula taken elementwise, so each equals what a node of that apr and
    floor would get, and the members are sorted by (tetaq, seq) descending,
    the reverse of the order in which the heap would pop them as nodes;
    each batch must have a member. The only writer of nsq and tetaq;
    re-keying the heap is left to the caller.
    """
    lb, ub, alpha = state.lb, state.ub, state.alpha
    for node in nodes:
        nsq = 0.0 if ub <= lb else min(1.0, max(0.0, (node.floor - lb) / (ub - lb)))
        node.nsq = nsq
        node.tetaq = alpha * node.apr + (1.0 - alpha) * nsq
    for batch in batches:
        nsq = 0.0 if ub <= lb else min(1.0, max(0.0, (batch.floor - lb) / (ub - lb)))
        mix = (1.0 - alpha) * nsq
        tetaq = [alpha * apr + mix for apr in batch.aprs]
        members = sorted(zip(tetaq, batch.seqs, batch.keys, batch.aprs), reverse=True)
        batch.tetaq, batch.seqs, batch.keys, batch.aprs = map(list, zip(*members))
        batch.nsq = nsq


def make_node(
    state: SearchState,
    alloc: Allocation,
    parent: AllocationNode | None,
    apr: float,
    floor: float,
    seq: int,
) -> AllocationNode:
    """Register an allocation as a lazy, unscored node: the only place
    an ``AllocationNode`` is built.

    ``apr`` is the allocation's ``apr_values`` score and ``floor`` a sound
    bound on its makespan (the root's is 0); a child takes both, and the
    seq reserved for it, from its batch when a pop reaches it. The caller
    ``prioritize``s the node, and ``materialize`` solves it.
    """
    node = AllocationNode(alloc, parent, None, apr, OPEN, seq, floor)
    state.nodes[alloc.key()] = node
    return node


def take_head(state: SearchState, batch: PendingBatch) -> AllocationNode:
    """Take a batch's head member out and build it as a lazy node; the next
    member becomes the head, and a spent batch leaves the state.

    The node gets the member's apr, reserved seq and the batch's floor, so
    it is the lazy child an eager expansion would have registered; the
    caller ``requeue``s it, which scores it, and re-keys the batch.
    """
    batch.tetaq.pop()
    return take_member(state, batch, len(batch.keys) - 1)


def take_member(state: SearchState, batch: PendingBatch, i: int) -> AllocationNode:
    """``take_head`` of the batch's member at position ``i``, except that
    the batch's tetaq is left for the caller to ``prioritize``."""
    key, apr, seq = batch.keys.pop(i), batch.aprs.pop(i), batch.seqs.pop(i)
    if not batch.keys:
        batch.status = CLOSED
        state.batches.remove(batch)
    state.pending_keys.discard(key)
    parent = batch.parent
    alloc = Allocation._trusted(key, parent.allocation.entries.shape, batch.assignments)
    return make_node(state, alloc, parent, apr, batch.floor, seq)


def materialize(state: SearchState, node: AllocationNode) -> bool:
    """Solve a node's schedule and rescore it; False when it is pruned.

    Sets ``schedule``, ``status`` (OPEN, or PRUNED when its constraints are
    infeasible) and ``floor`` (the solved makespan), then ``prioritize``s
    the node; its apr must already be current. It always re-solves, through
    the schedule memo; pushing is left to the caller.

    The solve is warm: it stops once an incumbent meets the node's floor,
    and the parent's schedule, when it has one, gives the first incumbent.
    """
    hint = node.parent.schedule if node.parent is not None else None
    node.schedule = evaluate(state, node.allocation, node.floor, hint)
    if node.schedule is None:
        node.status = PRUNED
        return False
    node.status = OPEN
    node.floor = node.schedule.makespan
    prioritize(state, [node])
    return True


def requeue(state: SearchState, node: AllocationNode) -> bool:
    """Materialize a node and push it when it stays open."""
    is_open = materialize(state, node)
    if is_open:
        state.push(node)
    return is_open


def demote(nodes) -> None:
    """Forget the nodes' schedules, so each is re-solved when it is popped.

    Each floor must already be a sound lower bound on its node's optimal
    makespan in the current domain; the caller then ``prioritize``s the
    nodes, whose priorities fall to their floors' bounds, and re-keys the
    heap.
    """
    for node in nodes:
        node.schedule = None


def add_children(
    state: SearchState, parent: AllocationNode, cells
) -> PendingBatch | None:
    """Register the parent's allocation plus one assignment at each new
    cell (a flat, row-major index) as one pending batch; None when no
    child is new.

    A cell already assigned, or whose child is already in the graph (a
    node or a pending member), is skipped by a ``bytes`` lookup; no
    allocation is built. The new children are scored in one ``apr_values``
    call, take consecutive seqs in cell order and the parent's floor, and
    the batch is ``prioritize``d and pushed once.
    """
    base = parent.allocation
    nodes, pending = state.nodes, state.pending_keys
    keys = [
        child
        for child in base.child_keys(cells)
        if child not in nodes and child not in pending
    ]
    if not keys:  # common at desk scale: no numpy call for an empty batch
        return None
    stack = stack_keys(keys, base.entries.shape)
    aprs = apr_values(stack, state.domain.team, state.domain.requirements).tolist()
    seq = state.next_seq
    state.next_seq += len(keys)
    batch = PendingBatch(
        parent, base.count + 1, parent.floor, keys, aprs, list(range(seq, state.next_seq))
    )
    pending.update(keys)
    state.batches.append(batch)
    prioritize(state, (), [batch])
    state.push(batch)
    return batch


def expand(state: SearchState, node: AllocationNode) -> PendingBatch | None:
    """Register every new one-assignment child as one pending batch and
    close the node; dedup is against the whole graph. None when no child
    is new."""
    state.stats.expansions += 1
    batch = add_children(state, node, range(node.allocation.entries.size))
    node.status = CLOSED
    return batch


def required_transitions(
    domain: ProblemDomain, alloc: Allocation, schedule: Schedule
) -> list[tuple[str, tuple, tuple]]:
    """(robot_id, from, to) trips the schedule's travel times rely on."""
    net = domain.network
    a = alloc.entries
    ids = domain.team.robot_ids
    starts = domain.world.robot_start_configs
    trips: list[tuple[str, tuple, tuple]] = []
    for m in range(net.n_tasks):
        for n in np.flatnonzero(a[m]):
            rid = ids[int(n)]
            trips.append((rid, starts[rid], net.tasks[m].initial_config))
            trips.append((rid, net.tasks[m].initial_config, net.tasks[m].terminal_config))
    ordered = set(net.precedence_edges) | set(schedule.fixed_orderings.values())
    for i, j in ordered:
        shared = np.flatnonzero(a[i] & a[j])
        for n in shared:
            rid = ids[int(n)]
            trips.append((rid, net.tasks[i].terminal_config, net.tasks[j].initial_config))
    return trips


def instantiate_plans(
    state: SearchState, alloc: Allocation, schedule: Schedule
) -> dict[tuple[str, tuple, tuple], MotionPlan] | None:
    """Plan every required trip with the state's planner; None when any
    trip is disconnected."""
    planner = _price_memo(state).travel
    plans: dict[tuple[str, tuple, tuple], MotionPlan] = {}
    for rid, frm, to in required_transitions(state.domain, alloc, schedule):
        p = planner.plan(rid, frm, to)
        if p is None:
            return None
        plans[(rid, tuple(frm), tuple(to))] = p
    return plans


@dataclass
class SearchResult:
    solution: Solution | None
    reason: str  # solved | exhausted | limit-expansions | limit-time
    state: SearchState


def run_search(
    state: SearchState,
    max_expansions: int = 100_000,
    max_seconds: float = 300.0,
) -> SearchResult:
    """Pop-best loop; goal = zero apr with a plan-backed feasible schedule.

    A goal pop whose trips are all planned is closed and returned as the
    solution; a disconnected trip prunes it instead. Both limits count from
    the call, so a resumed search gets its own budget. When even every
    robot on every task leaves a requirement unmet, no allocation meets
    them all (traits are non-negative, so apr only falls as cells are
    added), and the search reports ``exhausted`` before its first pop,
    leaving the state as it is.
    """
    domain = state.domain
    full = np.ones((1, domain.n_tasks, domain.n_robots), dtype=np.int8)
    if apr_values(full, domain.team, domain.requirements)[0] > APR_TOL:
        return SearchResult(None, "exhausted", state)
    expansion_limit = state.stats.expansions + max_expansions
    t0 = time.monotonic()
    while True:
        if state.stats.expansions >= expansion_limit:
            return SearchResult(None, "limit-expansions", state)
        if time.monotonic() - t0 > max_seconds:
            return SearchResult(None, "limit-time", state)
        node = state.pop()
        if node is None:
            return SearchResult(None, "exhausted", state)
        if not node.exact:
            # re-queue with the exact priority; best-first order over exact
            # values is preserved because the bound never overestimates
            requeue(state, node)
            continue
        state.stats.nodes_touched += 1
        if node.apr <= APR_TOL:
            plans = instantiate_plans(state, node.allocation, node.schedule)
            if plans is None:
                node.status = PRUNED
                continue
            node.status = CLOSED
            solution = Solution(node.allocation, node.schedule, plans)
            return SearchResult(solution, "solved", state)
        expand(state, node)


def search(
    domain: ProblemDomain,
    alpha: float,
    prm_samples: int = 200,
    prm_k: int = 8,
    seed: int = 0,
    max_expansions: int = 100_000,
    max_seconds: float = 300.0,
) -> SearchResult:
    """Solve a fresh problem end to end, retaining the state for repair."""
    state = new_state(domain, alpha, prm_samples, prm_k, seed)
    return run_search(state, max_expansions, max_seconds)
