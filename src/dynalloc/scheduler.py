"""Exact makespan minimization under precedence, mutex, and travel times.

The core is a simple temporal network: earliest start times are the
longest-path distances over the difference-constraint graph, and a fixed
set of mutex orderings is infeasible exactly when that graph has a
positive cycle. The full problem (free mutex directions) is solved by
branch-and-bound over the orderings; the bound at a partial assignment is
the relaxation that drops every undecided mutex pair, which can only
shorten the makespan, so pruning is safe and the optimum is exact. A
branch-and-bound node is its longest paths over its committed edges, from
each task and from a source whose edges weigh the arrivals (its start
times). So probing one more ordering (does it close a positive cycle, how
far does it push the makespan) is a lookup, and committing it is one
update of the matrix. A node reads each inherited lookahead entry once,
since its cutoff holds until it branches.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import add

from .domain import Allocation, DimensionMismatchError, ProblemDomain, WorldModel

FEAS_TOL = 1e-9

Pair = tuple[int, int]

# travel(robot_id, from_point, to_point) -> seconds (may be math.inf)


@dataclass(frozen=True)
class SchedulingProblem:
    """Never written once built, its dicts included: a deep copy shares it."""

    durations: tuple[float, ...]
    precedence: frozenset[Pair]
    mutex_reduced: frozenset[Pair]  # stored with i < j
    transition_times: dict[Pair, float]  # ordered (i, j) -> seconds
    initial_arrivals: dict[int, float]  # task -> earliest physical arrival

    def __post_init__(self):
        for i, j in self.mutex_reduced:
            if (i, j) in self.precedence or (j, i) in self.precedence:
                raise ValueError(f"mutex pair ({i},{j}) also ordered by precedence")

    def key(self):
        """Hashable identity for schedule memoization."""
        return (
            self.durations,
            self.precedence,
            self.mutex_reduced,
            tuple(sorted(self.transition_times.items())),
            tuple(sorted(self.initial_arrivals.items())),
        )

    def transition(self, i: int, j: int) -> float:
        return self.transition_times.get((i, j), 0.0)

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True)
class Schedule:
    """Never written once built, its dict included: a deep copy shares it."""

    start_times: tuple[float, ...]
    makespan: float
    fixed_orderings: dict[Pair, Pair]  # mutex pair (i<j) -> chosen ordered pair

    def __deepcopy__(self, memo):
        return self


INFEASIBLE = None  # sentinel return for unschedulable instances


class _Compiled:
    """Per-solve working form: arrivals (the source row's edges), precedence and ordering edges.

    Never written once built but for its counters: ``bnb_nodes`` and
    ``relaxations`` count the work of one solve, a relaxation being a cold
    solve (``relax``) or a committed ordering.
    """

    __slots__ = (
        "n", "durations", "arrivals", "out", "orders", "finite", "bnb_nodes", "relaxations"
    )

    def __init__(self, problem: SchedulingProblem):
        self.n = len(problem.durations)
        self.durations = problem.durations
        self.arrivals = [problem.initial_arrivals.get(i, 0.0) for i in range(self.n)]
        self.out: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for i, j in sorted(problem.precedence):
            self.out[i].append((j, problem.durations[i] + problem.transition(i, j)))
        # mutex pair (i, j) -> (edge for i first, edge for j first)
        self.orders = {
            (i, j): (
                (i, j, problem.durations[i] + problem.transition(i, j)),
                (j, i, problem.durations[j] + problem.transition(j, i)),
            )
            for i, j in problem.mutex_reduced
        }
        self.finite = all(
            math.isfinite(v) for v in problem.transition_times.values()
        ) and all(math.isfinite(v) for v in problem.initial_arrivals.values())
        self.bnb_nodes = 0
        self.relaxations = 0

    def relax(self, extra=()):
        """Least start times over the precedence edges and the ``extra``
        edges (u, v, w), and their makespan; None on a positive cycle.

        Worklist propagation from the arrivals, seeded with every task; a
        task dequeued more than n times witnesses a positive cycle. Only the
        root, whose precedence is acyclic, and the hint are relaxed: refusing
        a cycle of exactly ``FEAS_TOL`` that the matrix accepts starts a solve cold.
        """
        self.relaxations += 1
        n, d = self.n, self.durations
        out = [list(o) for o in self.out]
        for u, v, w in extra:
            out[u].append((v, w))
        s = list(self.arrivals)
        mk = makespan(s, d)
        inq, counts = bytearray(b"\x01" * n), [0] * n
        queue = deque(range(n))
        while queue:
            u = queue.popleft()
            inq[u] = 0
            counts[u] += 1
            if counts[u] > n:
                return None
            su = s[u]
            for v, w in out[u]:
                nv = su + w
                if nv > s[v] + FEAS_TOL:
                    s[v] = nv
                    if nv + d[v] > mk:
                        mk = nv + d[v]
                    if not inq[v]:
                        inq[v] = 1
                        queue.append(v)
        return s, mk


# A longest-path matrix over a set of committed edges: row a holds, for each
# task b, the longest path from a to b (NO_PATH where there is none, 0 from a
# to itself), and in a last column a's tail, the longest path from a through
# any task x and on over x's duration: an edge of weight d[x] from every task
# to one virtual finish vertex (Dechter, Meiri & Pearl, AIJ 1991). A node's
# row n is a virtual source's, whose edges weigh the arrivals: the start
# times, and in the tail column the node's makespan bound.
NO_PATH = -math.inf


def _longest_paths(comp: _Compiled) -> list[list[float]]:
    """The matrix over ``comp``'s precedence edges, which close no positive cycle."""
    n, d = comp.n, comp.durations
    rows = [[0.0 if b == a else NO_PATH for b in range(n)] + [d[a]] for a in range(n)]
    # tails in descending order: edges mostly run from lower to higher
    # index, so each commit then finds few rows reaching its tail
    for u in reversed(range(n)):
        for v, w in comp.out[u]:
            rows = _with_edge(rows, (u, v, w))
    return rows


def _with_edge(rows, edge) -> list[list[float]]:
    """The matrix with ``edge`` committed, where it closes no positive cycle.

    A new longest path uses the edge at most once, so only the rows that
    reach its tail u change: row_a' = max(row_a, L[a][u] + w + row_v), the
    tail column included. Where L[a][u] + w <= L[a][v], the row already
    holds every such path (L[a][x] >= L[a][v] + L[v][x]) and stays.
    Copy-on-write: ``rows`` and its lists are left as they are, and
    unchanged rows are shared.
    """
    u, v, w = edge
    rv = rows[v]
    new = list(rows)
    for a, ra in enumerate(rows):
        c = ra[u] + w
        if c > ra[v]:
            new[a] = [x if x >= c + y else c + y for x, y in zip(ra, rv)]
    return new


def _probe(rows, edge) -> float:
    """Makespan of the node ``rows`` with ``edge`` committed; inf on a positive cycle.

    s is the source row. When the edge already holds nothing moves;
    otherwise the edge's head v starts at s[u] + w, and every start it
    pushes ends by that plus v's tail.
    """
    u, v, w = edge
    s = rows[-1]
    mk = s[-1]
    start = s[u] + w
    if start <= s[v] + FEAS_TOL:
        return mk
    if w + rows[v][u] > FEAS_TOL:
        return math.inf
    end = start + rows[v][-1]
    return end if end > mk else mk


def makespan(start_times, durations) -> float:
    """Completion time of the last task; 0 for no tasks."""
    return max(map(add, start_times, durations), default=0.0)


def _warm_incumbent(comp: _Compiled, pairs, hint: Schedule) -> Schedule | None:
    """The schedule that orients every mutex pair as ``hint`` does.

    A pair the hint fixed keeps its direction; any other goes first by the
    hint's start times, ties to the lower index. One cold relaxation on
    ``comp``. None when the hint has another task count or its orientation
    closes a positive cycle.
    """
    starts = hint.start_times
    if len(starts) != comp.n:
        return None
    orderings = {}
    for i, j in pairs:
        o = hint.fixed_orderings.get((i, j))
        if o is None:
            o = (j, i) if starts[j] < starts[i] else (i, j)
        orderings[(i, j)] = o
    res = comp.relax([comp.orders[p][o != p] for p, o in orderings.items()])
    if res is None:
        return None
    return Schedule(tuple(res[0]), res[1], orderings)


def solve_schedule(
    problem: SchedulingProblem,
    floor: float = 0.0,
    hint: Schedule | None = None,
    stats=None,
) -> Schedule | None:
    """Exact minimum makespan over all mutex ordering assignments.

    Branch-and-bound: each node fixes a subset of orderings; its bound is
    the STN relaxation ignoring undecided pairs (dropping constraints can
    only shorten the makespan, so pruning against the incumbent is safe).
    Branching is max-min strong branching (Achterberg, Koch & Martin, OR
    Letters 2005): each undecided pair is probed one step in both
    directions, and the search branches on the pair whose weaker child has
    the largest bound (the first such pair in probe order), descending into
    the cheaper direction first. A pair with a dead direction is forced
    instead. The search ends as soon as the incumbent meets the caller's
    ``floor``, the only static bound.

    A node first forces, in pair order, each pair whose inherited entry
    (probed at an ancestor, still a sound bound) has a dead direction; its
    cutoff holds until it branches, so this one scan resumes after each
    forced pair. It then re-probes the open pairs by gap, forcing at the
    first dead direction and re-sorting the rest, until every fresh entry
    is open both ways, and branches.

    A node is a value: its longest-path matrix over its committed edges,
    whose source row holds its start times and makespan bound (see
    ``NO_PATH``), its lookahead table and its chosen orderings, which no
    child writes, so nothing is undone on return. A probe is a lookup on
    the matrix, which tells whether an ordering closes a positive cycle and
    how far it pushes the makespan (``_probe``); committing an ordering,
    forced or branched, is ``_with_edge``, the one rule that moves a start.
    Only the root and the hint are relaxed.

    ``floor`` must be a sound lower bound on the optimum: one above it can
    end the search on a suboptimal schedule. ``hint`` is a related
    schedule, normally the parent allocation's; the orientation it implies
    (see ``_warm_incumbent``) is the first incumbent when feasible. Both
    only prune, so the optimum is unchanged; the defaults solve cold.
    ``stats``, when given, gains the solve's B&B nodes and relaxations (see
    ``_Compiled``) in its ``bnb_nodes`` and ``relaxations`` counters.
    """
    comp = _Compiled(problem)
    best = _branch_and_bound(comp, floor, hint) if comp.finite else INFEASIBLE
    if stats is not None:
        stats.bnb_nodes += comp.bnb_nodes
        stats.relaxations += comp.relaxations
    return best


def _branch_and_bound(comp: _Compiled, floor: float, hint: Schedule | None) -> Schedule | None:
    """``solve_schedule``'s search on a compiled problem with finite prices."""
    pairs = sorted(comp.orders)
    root = comp.relax()
    if root is None:
        return INFEASIBLE
    root_s, root_mk = root
    if not pairs:
        return Schedule(tuple(root_s), root_mk, {})

    best_mk = math.inf
    best: Schedule | None = None
    if hint is not None:
        best = _warm_incumbent(comp, pairs, hint)
        if best is not None:
            best_mk = best.makespan
            if best_mk <= floor + FEAS_TOL:
                return best
    n, d = comp.n, comp.durations
    edges = [comp.orders[p] for p in pairs]  # by pair position: (forward, reverse)

    # Lookahead table: pair position -> (makespan if forward, if reverse),
    # inf where the ordering closes a positive cycle. Starts only grow as
    # orderings are fixed, so a stale entry is a sound bound in its subtree.

    def recurse(rows, undecided, la, chosen) -> None:
        nonlocal best, best_mk
        comp.bnb_nodes += 1
        if best_mk <= floor + FEAS_TOL or rows[n][n] >= best_mk - FEAS_TOL:
            return
        # cut holds until the node branches, so an entry found open stays
        # open: the stale scan resumes after a forced pair, and ends for good
        cut = best_mk - FEAS_TOL
        la = la.copy()
        entries = iter(undecided)
        undecided, scored = [], []  # the pairs found open, and (gap, pair) of each
        while True:
            for k in entries:
                mk_f, mk_r = la[k]
                if mk_f >= cut or mk_r >= cut:
                    break
                undecided.append(k)
                scored.append((abs(mk_f - mk_r), k))
            else:
                s_cur, mk_cur = rows[n], rows[n][n]
                if not undecided:
                    best = Schedule(tuple(s_cur[:n]), makespan(s_cur, d), dict(chosen))
                    best_mk = best.makespan
                    return
                # re-probe the open pairs by gap (stale, or fresh where the
                # last refresh reached), stopping at a dead direction
                scored.sort(reverse=True)
                best_min = -1.0
                for pos, (_, k) in enumerate(scored):
                    (i, j, w_f), (_, _, w_r) = edges[k]
                    s_i, s_j = s_cur[i], s_cur[j]
                    start = s_i + w_f  # each direction as _probe gives it
                    if start <= s_j + FEAS_TOL:
                        mk_f = mk_cur
                    elif w_f + rows[j][i] > FEAS_TOL:
                        mk_f = math.inf
                    else:
                        mk_f = end if (end := start + rows[j][n]) > mk_cur else mk_cur
                    start = s_j + w_r
                    if start <= s_i + FEAS_TOL:
                        mk_r = mk_cur
                    elif w_r + rows[i][j] > FEAS_TOL:
                        mk_r = math.inf
                    else:
                        mk_r = end if (end := start + rows[i][n]) > mk_cur else mk_cur
                    la[k] = mk_f, mk_r
                    if mk_f >= cut or mk_r >= cut:
                        undecided.remove(k)
                        del scored[pos]
                        break
                    scored[pos] = (abs(mk_f - mk_r), k)
                    if (low := mk_r if mk_r < mk_f else mk_f) > best_min:
                        best_min, branch = low, k  # max-min strong branching
                else:
                    break  # every refreshed pair is open both ways: branch
            # commit k, reached by a break above: its entry has a dead direction
            r_live = mk_f >= cut
            if r_live and mk_r >= cut:
                return  # no completion of this node can improve
            edge = edges[k][r_live]
            comp.relaxations += 1
            if _probe(rows, edge) == math.inf:
                return  # the live entry was stale: it closes a positive cycle now
            rows = _with_edge(rows, edge)
            if rows[n][n] >= cut:
                return
            chosen += ((pairs[k], edge[:2]),)
        rest = undecided.copy()
        rest.remove(branch)
        mk_f, mk_r = la[branch]
        for r_live in (True, False) if mk_r < mk_f else (False, True):
            if (mk_r if r_live else mk_f) >= best_mk - FEAS_TOL:
                continue
            edge = edges[branch][r_live]
            # the last round probed both directions below the cutoff: finite
            comp.relaxations += 1
            recurse(_with_edge(rows, edge), rest, la, chosen + ((pairs[branch], edge[:2]),))
            if best_mk <= floor + FEAS_TOL:
                return  # incumbent meets the floor: provably optimal

    rows = _longest_paths(comp) + [root_s + [root_mk]]
    la = [(_probe(rows, f), _probe(rows, r)) for f, r in edges]
    recurse(rows, list(range(len(pairs))), la, ())
    return best


def schedule_lower_bound(durations) -> float:
    """Longest single task duration; no schedule can beat it."""
    return max(durations, default=0.0)


def schedule_upper_bound(
    world: WorldModel, durations, roadmap_total_edge_length: float
) -> float:
    """Worst-case makespan: total ordering with maximal travel.

    No roadmap path is longer than the roadmap's total edge length, so the
    travel term charges every task two trips of that length at the slowest
    robot's speed.
    """
    m = len(durations)
    if m == 0:
        return 0.0
    if not world.robot_speeds:
        raise ValueError("upper bound needs at least one robot speed")
    w = min(world.robot_speeds.values())
    if w <= 0:
        raise ValueError("robot speeds must be positive")
    return 2.0 * m * roadmap_total_edge_length / w + float(sum(durations))


def _transitive_closure(n: int, edges: frozenset[Pair]) -> set[Pair]:
    succ: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        succ[i].add(j)
    closure: set[Pair] = set()
    for start in range(n):
        stack = list(succ[start])
        seen: set[int] = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            closure.add((start, v))
            stack.extend(succ[v])
    return closure


class PriceMemo:
    """Everything assembly reads besides the allocation, for one domain.

    The domain's constants (durations, precedence, the task pairs its
    precedence closure leaves unordered, the mutexes that stay free) are
    derived once, and every travel time assembly takes is kept: each
    arrival by (task, coalition), each transition by (i, j, shared robots).
    A coalition is an allocation row's bytes read as one little-endian int,
    one byte per robot, so ``&`` gives the robots two tasks share. A price
    is the ``max`` over the coalition of ``travel``'s times, taken once, on
    the first allocation that needs it, so it is the value every later
    assembly would compute; the memo is only valid while ``travel`` prices
    every trip the same. A search state's memo holds the state's
    ``motion.Planner``, so the state can be pickled and deep-copied.
    """

    def __init__(self, domain: ProblemDomain, travel):
        net = domain.network
        n_tasks = net.n_tasks
        closure = _transitive_closure(n_tasks, net.precedence_edges)
        self.domain = domain
        self.travel = travel
        self.durations = tuple(t.duration for t in net.tasks)
        self.precedence = frozenset(net.precedence_edges)
        self.free_pairs = [
            (i, j)
            for i in range(n_tasks)
            for j in range(i + 1, n_tasks)
            if (i, j) not in closure and (j, i) not in closure
        ]
        self.base_mutex = frozenset(
            (i, j) for i, j in net.mutex_edges if (i, j) not in closure and (j, i) not in closure
        )
        self.arrivals: dict[tuple[int, int], float] = {}
        self.transitions: dict[tuple[int, int, int], float] = {}

    def arrival(self, task: int, coalition: int) -> float:
        """Earliest time the whole coalition can reach the task's site."""
        key = (task, coalition)
        value = self.arrivals.get(key)
        if value is None:
            domain = self.domain
            ids, starts = domain.team.robot_ids, domain.world.robot_start_configs
            site = domain.network.tasks[task].initial_config
            value = self.arrivals[key] = max(
                self.travel(ids[r], starts[ids[r]], site) for r in _members(coalition)
            )
        return value

    def transition(self, i: int, j: int, shared: int) -> float:
        """Time the slowest shared robot needs from task i's end to j's site."""
        if not shared:
            return 0.0
        key = (i, j, shared)
        value = self.transitions.get(key)
        if value is None:
            domain = self.domain
            ids, tasks = domain.team.robot_ids, domain.network.tasks
            frm, to = tasks[i].terminal_config, tasks[j].initial_config
            value = self.transitions[key] = max(
                self.travel(ids[r], frm, to) for r in _members(shared)
            )
        return value


def _members(coalition: int) -> list[int]:
    """Robot indices of a coalition int, ascending."""
    row = coalition.to_bytes((coalition.bit_length() + 7) // 8, "little")
    return [r for r, b in enumerate(row) if b]


def build_scheduling_problem(alloc: Allocation, memo: PriceMemo) -> SchedulingProblem:
    """Assemble durations, ordering constraints, and travel times.

    Shared-robot task pairs become induced mutexes (single-task robots);
    pairs already ordered by the transitive precedence closure are dropped.
    Transition and arrival times take the max over the relevant robots, so
    the slowest member of a coalition gates the coalition. ``memo`` holds
    the domain's constants, its travel function and the prices it gave.
    """
    n_robots = memo.domain.n_robots
    if alloc.entries.shape != (len(memo.durations), n_robots):
        raise DimensionMismatchError(
            f"allocation is {alloc.entries.shape}, domain has "
            f"{len(memo.durations)} tasks and {n_robots} robots"
        )
    key = alloc.key()
    coalitions = [
        int.from_bytes(key[k : k + n_robots], "little") for k in range(0, len(key), n_robots)
    ]
    mutex_reduced = memo.base_mutex.union(
        (i, j) for i, j in memo.free_pairs if coalitions[i] & coalitions[j]
    )

    transition_times: dict[Pair, float] = {}
    for i, j in memo.precedence:
        transition_times[(i, j)] = memo.transition(i, j, coalitions[i] & coalitions[j])
    for i, j in mutex_reduced:
        shared = coalitions[i] & coalitions[j]
        transition_times[(i, j)] = memo.transition(i, j, shared)
        transition_times[(j, i)] = memo.transition(j, i, shared)

    initial_arrivals = {
        m: memo.arrival(m, c) if c else 0.0 for m, c in enumerate(coalitions)
    }

    return SchedulingProblem(
        durations=memo.durations,
        precedence=memo.precedence,
        mutex_reduced=mutex_reduced,
        transition_times=transition_times,
        initial_arrivals=initial_arrivals,
    )
