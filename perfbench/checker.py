"""Independent check of a returned plan, and an independent desk-scale optimum.

Nothing here reads the solver's caches or calls its validation, travel
providers or problem assembly. Trips are priced by a Dijkstra of our own
over the adjacency of the roadmap the plans came from (the search state's
retained roadmap, which after a task loss still holds the lost task's sites,
so a freshly built roadmap would not be the same graph), with edge lengths
recomputed from the vertex coordinates, at each robot's own speed. Every
roadmap edge a plan or a priced trip uses is first checked obstacle-free by
dense sampling. The only solver code used is ``solve_schedule``, the exact
scheduler, on a problem assembled here from our own travel times; the
acceptance suite checks it against brute-force ordering enumeration.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from dynalloc.geometry import Circle
from dynalloc.scheduler import SchedulingProblem, solve_schedule

TOL = 1e-6  # absolute slack on start times and makespans
SAMPLE_STEP = 0.01  # dense-sampling spacing along a roadmap edge


def segment_is_clear(a, b, obstacles, step: float = SAMPLE_STEP) -> bool:
    """True when every sample along ab lies outside every obstacle.

    Boundary contact counts as collision, as in the solver's geometry.
    """
    n = max(2, int(math.dist(a, b) / step) + 1)
    t = np.linspace(0.0, 1.0, n)
    xs = a[0] + t * (b[0] - a[0])
    ys = a[1] + t * (b[1] - a[1])
    for ob in obstacles:
        if isinstance(ob, Circle):
            cx, cy = ob.center
            hit = (xs - cx) ** 2 + (ys - cy) ** 2 <= ob.radius**2
        else:
            (x0, y0), (x1, y1) = ob.min_corner, ob.max_corner
            hit = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
        if hit.any():
            return False
    return True


class Checker:
    """Prices trips and checks plans for one domain on one roadmap."""

    def __init__(self, domain, roadmap):
        self.domain = domain
        self.vertices = roadmap.vertices
        self.index = {tuple(v): i for i, v in enumerate(roadmap.vertices)}
        # our own edge lengths; the stored ones are never read
        self.adjacency = {
            v: [(w, math.dist(roadmap.vertices[v], roadmap.vertices[w])) for w, _ in nbrs]
            for v, nbrs in roadmap.adjacency.items()
        }
        self.speeds = domain.world.robot_speeds
        net = domain.network
        succ = {i: set() for i in range(net.n_tasks)}
        for i, j in net.precedence_edges:
            succ[i].add(j)
        self.after = {}  # transitive precedence successors of each task
        for i in succ:
            seen, stack = set(), list(succ[i])
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack.extend(succ[v])
            self.after[i] = seen
        self._trees: dict[int, tuple[dict, dict]] = {}
        self._clear: dict[tuple[int, int], bool] = {}
        self.problems: list[str] = []

    # ---------------------------------------------------------- geometry

    def edge_clear(self, u: int, v: int) -> bool:
        key = (min(u, v), max(u, v))
        if key not in self._clear:
            self._clear[key] = segment_is_clear(
                self.vertices[u], self.vertices[v], self.domain.world.obstacles
            )
        return self._clear[key]

    def _tree(self, src: int):
        if src not in self._trees:
            dist = {src: 0.0}
            prev: dict[int, int] = {}
            heap = [(0.0, src)]
            done = set()
            while heap:
                d, v = heapq.heappop(heap)
                if v in done:
                    continue
                done.add(v)
                for w, ln in self.adjacency.get(v, ()):
                    if d + ln < dist.get(w, math.inf):
                        dist[w] = d + ln
                        prev[w] = v
                        heapq.heappush(heap, (d + ln, w))
            self._trees[src] = (dist, prev)
        return self._trees[src]

    def path_length(self, frm, to) -> float:
        """Shortest roadmap length from frm to to; inf when disconnected.

        Every edge on the path is checked obstacle-free; a colliding edge is
        recorded as a problem, since the length would then be meaningless.
        """
        src, dst = self.index.get(tuple(frm)), self.index.get(tuple(to))
        if src is None or dst is None:
            self.problems.append(f"trip {frm}->{to} endpoint is not a roadmap vertex")
            return math.inf
        dist, prev = self._tree(src)
        if dst not in dist:
            return math.inf
        v = dst
        while v != src:
            if not self.edge_clear(prev[v], v):
                self.problems.append(f"roadmap edge {prev[v]}-{v} collides")
            v = prev[v]
        return dist[dst]

    def travel(self, rid: str, frm, to) -> float:
        return self.path_length(frm, to) / self.speeds[rid]

    # --------------------------------------------------------- scheduling

    def scheduling_problem(self, entries) -> SchedulingProblem:
        """The allocation's scheduling problem, assembled from our own travel.

        Tasks sharing a robot are mutually exclusive, except pairs already
        ordered through the transitive precedence closure; a transition or
        arrival waits for the slowest robot involved.
        """
        net = self.domain.network
        ids = self.domain.team.robot_ids
        starts = self.domain.world.robot_start_configs
        n = net.n_tasks
        robots_of = [{r for r in range(len(ids)) if entries[m][r]} for m in range(n)]

        after = self.after
        pairs = set(net.mutex_edges)
        pairs |= {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if robots_of[i] & robots_of[j]
        }
        mutex = frozenset(
            (i, j) for i, j in pairs if j not in after[i] and i not in after[j]
        )

        def transition(i: int, j: int) -> float:
            shared = robots_of[i] & robots_of[j]
            return max(
                (
                    self.travel(ids[r], net.tasks[i].terminal_config, net.tasks[j].initial_config)
                    for r in shared
                ),
                default=0.0,
            )

        transitions = {(i, j): transition(i, j) for i, j in net.precedence_edges}
        for i, j in mutex:
            transitions[(i, j)] = transition(i, j)
            transitions[(j, i)] = transition(j, i)
        arrivals = {
            m: max(
                (
                    self.travel(ids[r], starts[ids[r]], net.tasks[m].initial_config)
                    for r in robots_of[m]
                ),
                default=0.0,
            )
            for m in range(n)
        }
        return SchedulingProblem(
            durations=tuple(t.duration for t in net.tasks),
            precedence=frozenset(net.precedence_edges),
            mutex_reduced=mutex,
            transition_times=transitions,
            initial_arrivals=arrivals,
        )

    # ------------------------------------------------------------- checks

    def covers_task(self, m: int, row) -> bool:
        """True when the robots marked in ``row`` meet task m's requirement."""
        team = self.domain.team.entries
        req = self.domain.requirements.entries[m]
        return all(
            sum(team[r][u] for r, bit in enumerate(row) if bit) >= req[u] - 1e-9
            for u in range(len(req))
        )

    def check(self, solution) -> float:
        """Check one returned solution; returns our own optimal makespan.

        Problems found are appended to ``self.problems``.
        """
        out = self.problems
        net = self.domain.network
        entries = np.asarray(solution.allocation.entries).tolist()
        shape = (net.n_tasks, self.domain.n_robots)
        if (len(entries), len(entries[0]) if entries else 0) != shape:
            out.append(f"allocation shape differs from the domain's {shape}")
            return math.nan
        if any(v not in (0, 1) for row in entries for v in row):
            out.append("allocation entries are not binary")
        if not all(self.covers_task(m, row) for m, row in enumerate(entries)):
            out.append("allocation does not meet the requirements")

        problem = self.scheduling_problem(entries)
        s = solution.schedule.start_times
        d = problem.durations
        if len(s) != net.n_tasks:
            out.append("schedule length differs from the task count")
            return math.nan
        for m, arrival in problem.initial_arrivals.items():
            if s[m] < arrival - TOL:
                out.append(f"task {m} starts at {s[m]:.6f} before arrival {arrival:.6f}")
        for i, j in problem.precedence:
            if s[j] < s[i] + d[i] + problem.transition(i, j) - TOL:
                out.append(f"precedence or transition {i}->{j} violated")
        for i, j in problem.mutex_reduced:
            fwd = s[j] >= s[i] + d[i] + problem.transition(i, j) - TOL
            rev = s[i] >= s[j] + d[j] + problem.transition(j, i) - TOL
            if not (fwd or rev):
                out.append(f"mutex or transition between tasks {i} and {j} violated")

        reported = solution.schedule.makespan
        finish = max((s[m] + d[m] for m in range(net.n_tasks)), default=0.0)
        if abs(reported - finish) > TOL:
            out.append(f"makespan {reported:.6f} != max(start + duration) {finish:.6f}")
        best = solve_schedule(problem)
        optimum = math.inf if best is None else best.makespan
        if not abs(reported - optimum) <= TOL:
            out.append(f"makespan {reported:.6f} != recomputed optimum {optimum:.6f}")

        self._check_plans(solution, problem, entries)
        return optimum

    def _check_plans(self, solution, problem, entries) -> None:
        out = self.problems
        planned = {}
        for key, plan in solution.motion_plans.items():
            frm, to = key[-2], key[-1]
            if plan is None:
                out.append(f"missing plan for {frm}->{to}")
                continue
            wps = [tuple(p) for p in plan.waypoints]
            if wps[0] != tuple(frm) or wps[-1] != tuple(to):
                out.append(f"plan for {frm}->{to} has other endpoints")
            length = 0.0
            for a, b in zip(wps, wps[1:]):
                u, v = self.index.get(a), self.index.get(b)
                if u is None or v is None or v not in {w for w, _ in self.adjacency[u]}:
                    out.append(f"plan step {a}->{b} is not a roadmap edge")
                    continue
                if not self.edge_clear(u, v):
                    out.append(f"plan step {a}->{b} collides")
                length += math.dist(a, b)
            if abs(length - self.path_length(frm, to)) > TOL:
                out.append(f"plan for {frm}->{to} is not a shortest roadmap path")
            planned[(tuple(frm), tuple(to))] = plan

        # every trip the schedule relies on must be backed by a plan
        net = self.domain.network
        starts = self.domain.world.robot_start_configs
        ids = self.domain.team.robot_ids
        s = solution.schedule.start_times
        trips = set()
        for m, row in enumerate(entries):
            for r, bit in enumerate(row):
                if bit:
                    trips.add((starts[ids[r]], net.tasks[m].initial_config))
        ordered = set(problem.precedence)
        ordered |= {(i, j) if s[i] <= s[j] else (j, i) for i, j in problem.mutex_reduced}
        for i, j in ordered:
            if any(a and b for a, b in zip(entries[i], entries[j])):
                trips.add((net.tasks[i].terminal_config, net.tasks[j].initial_config))
        for frm, to in sorted(trips):
            if (tuple(frm), tuple(to)) not in planned:
                out.append(f"no plan backs the trip {frm}->{to}")


def optimal_makespan(checker: Checker) -> float:
    """Minimum makespan over every valid allocation, by our own enumeration.

    Each task's row ranges over the robot subsets that cover its requirement
    on their own, so the product of those choices is exactly the set of valid
    allocations; each is scheduled on the checker's travel times. inf when
    none is schedulable. A colliding roadmap edge on a priced trip is left in
    ``checker.problems``.
    """
    domain = checker.domain
    rows = [
        [
            bits
            for bits in itertools.product((0, 1), repeat=domain.n_robots)
            if checker.covers_task(m, bits)
        ]
        for m in range(domain.n_tasks)
    ]
    best = math.inf
    for entries in itertools.product(*rows):
        sched = solve_schedule(checker.scheduling_problem(entries))
        if sched is not None and sched.makespan < best:
            best = sched.makespan
    return best
