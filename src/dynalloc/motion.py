"""Probabilistic roadmap planning, and one planner that plans and prices trips.

A roadmap is built with every task site and robot start forced in as a
vertex, so path queries never need on-the-fly sampling. It depends only on
the world, those vertices, the sample count, k and the seed, so a process
builds it once per set of these inputs and hands every caller the same
immutable ``Roadmap``; a robot that joins later is linked in by
``link_start``. The build samples, finds neighbours and tests edges for
collision on whole arrays, and gives the roadmap a per-vertex loop would.
Each roadmap keeps one shortest-path tree per source vertex it was queried
from, grown on demand: a query pops the tree's Dijkstra heap only until its
target is settled, and the tree keeps its heap, so the next query from that
source resumes where the last stopped. ``plan`` reads its path off the
tree. A ``Planner`` serves every robot trip of one domain on one roadmap,
through a plan cache keyed by the robot's position in the team; positions
stay inside this module.
"""

from __future__ import annotations

import functools
import heapq
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .domain import ProblemDomain, WorldModel
from .geometry import Point, Shape, points_in_any, segment_collides, segments_collide


# rejection sampling gives up after this many draws per requested sample
REJECTION_CAP_FACTOR = 50
# distances computed per block of rows when finding nearest neighbours, so
# the build's temporaries stay small however many vertices a roadmap has
KNN_BLOCK = 1 << 14


class RoadmapError(Exception):
    pass


@dataclass(frozen=True)
class Roadmap:
    """Vertices and adjacency by index. Built edges run both ways; a start
    linked in by ``link_start`` has edges out of it only, so a path can
    begin there but never pass through it.

    A roadmap is immutable but for ``trees``, a cache that queries grow
    deterministically: whatever was queried before, a path read off it is
    the one a fresh full Dijkstra gives. So a deep copy shares the roadmap,
    trees and all, rather than copying it.
    """

    vertices: tuple[Point, ...]
    adjacency: dict[int, tuple[tuple[int, float], ...]]
    total_edge_length: float
    # source vertex -> (dist, prev, settled, heap): a Dijkstra from that
    # source paused where its last query stopped. dist and prev are by
    # vertex index (prev is -1 at the source and wherever no edge has
    # reached yet); dist and prev of a settled vertex are final
    trees: dict[int, tuple[array, array, bytearray, list]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _index: dict[Point, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # vertices are distinct, and mandatory ones are inserted exactly,
        # so lookup is by equality
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.vertices)})

    def __deepcopy__(self, memo):
        return self

    def vertex_index(self, p: Point) -> int:
        try:
            return self._index[tuple(p)]
        except KeyError:
            raise RoadmapError(f"point {p} is not a roadmap vertex") from None


@dataclass(frozen=True)
class MotionPlan:
    """One robot trip; immutable, so a deep copy shares it."""

    waypoints: tuple[Point, ...]
    length: float
    duration: float

    def __deepcopy__(self, memo):
        return self


@dataclass
class PlanCache:
    entries: dict[tuple[int, Point, Point], MotionPlan | None] = field(default_factory=dict)
    hits: int = 0
    planner_calls: int = 0

    def lookup(self, position: int, frm: Point, to: Point):
        """Returns (found, plan). ``plan`` may be None for a cached miss-path."""
        key = (position, tuple(frm), tuple(to))
        if key in self.entries:
            self.hits += 1
            return True, self.entries[key]
        return False, None

    def store(self, position: int, frm: Point, to: Point, plan: MotionPlan | None) -> None:
        self.entries[(position, tuple(frm), tuple(to))] = plan


def drop_mispriced_plans(cache: PlanCache, domain: ProblemDomain) -> int:
    """Drop the cached plans a fresh plan would not give; return how many.

    Keys hold robot positions in the team, which an agent loss shifts. A
    plan depends on its robot only through the speed, so an entry stays
    exactly when a robot holds its position and its duration is its length
    at that robot's speed."""
    speeds = [domain.world.robot_speeds[rid] for rid in domain.team.robot_ids]
    kept = {
        key: p
        for key, p in cache.entries.items()
        if key[0] < len(speeds) and (p is None or p.duration == p.length / speeds[key[0]])
    }
    dropped = len(cache.entries) - len(kept)
    cache.entries = kept
    return dropped


def mandatory_vertices(domain: ProblemDomain) -> list[Point]:
    pts: list[Point] = []
    for t in domain.network.tasks:
        pts.append(tuple(t.initial_config))
        pts.append(tuple(t.terminal_config))
    for rid in domain.team.robot_ids:
        pts.append(tuple(domain.world.robot_start_configs[rid]))
    seen: set[Point] = set()
    uniq = []
    for p in pts:
        if p not in seen:
            seen.add(p)
            uniq.append(p)
    return uniq


def build_roadmap(
    world: WorldModel,
    mandatory: list[Point],
    n_samples: int = 200,
    k_neighbors: int = 8,
    seed: int = 0,
) -> Roadmap:
    """Sample free space, force mandatory vertices, connect k nearest.

    Deterministic for a fixed seed, and memoized on these inputs for the
    life of the process: asking again for any roadmap already built returns
    the same object, however many others were built since. Raises when
    ``n_samples`` or ``k_neighbors`` is below 1, or when rejection sampling
    cannot find a single free sample within the cap; an error is not
    memoized.
    """
    return _build_roadmap(
        tuple(world.bounds),
        world.obstacles,
        tuple(tuple(p) for p in mandatory),
        n_samples,
        k_neighbors,
        seed,
    )


@functools.cache
def _build_roadmap(
    bounds: tuple[float, float, float, float],
    obstacles: tuple[Shape, ...],
    mandatory: tuple[Point, ...],
    n_samples: int,
    k_neighbors: int,
    seed: int,
) -> Roadmap:
    if n_samples < 1:
        raise RoadmapError("n_samples must be >= 1")
    if k_neighbors < 1:
        raise RoadmapError("k_neighbors must be >= 1")
    xmin, ymin, xmax, ymax = bounds
    if xmax <= xmin or ymax <= ymin:
        raise RoadmapError("world bounds are degenerate")

    rng = np.random.default_rng(seed)
    free: list[Point] = []
    drawn = 0
    cap = REJECTION_CAP_FACTOR * n_samples
    while len(free) < n_samples and drawn < cap:
        # block row r is the (x, y) that attempt drawn + r would draw alone
        need = n_samples - len(free)
        block = rng.uniform((xmin, ymin), (xmax, ymax), size=(min(2 * need + 16, cap - drawn), 2))
        drawn += len(block)
        clear = block[~points_in_any(block[:, 0], block[:, 1], obstacles)]
        free += map(tuple, clear[:need].tolist())
    if not free:
        raise RoadmapError(f"no free sample found in {cap} attempts")

    vertices = list(dict.fromkeys(list(mandatory) + free))
    pts = np.array(vertices)
    n = len(vertices)
    k = min(k_neighbors, n - 1)
    nbr, dist = _nearest(pts, k)

    # every candidate (i, nbr[i, r]) in row-major order, tested from i
    src = np.repeat(np.arange(n), k)
    dst = nbr.ravel()
    free_edge = ~segments_collide(pts[src, 0], pts[src, 1], pts[dst, 0], pts[dst, 1], obstacles)
    src, dst, dist = src[free_edge], dst[free_edge], dist.ravel()[free_edge]
    # an edge is kept at its first clear candidate; the reverse candidate
    # has the same length, since hypot ignores signs
    keys, first = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst), return_index=True)
    total = float(sum(dist[np.sort(first)].tolist()))

    # adjacency lists every neighbour of a vertex in index order
    lo, hi, ln = keys // n, keys % n, dist[first]
    frm, to, ln = np.concatenate((lo, hi)), np.concatenate((hi, lo)), np.concatenate((ln, ln))
    order = np.argsort(frm * n + to)
    cuts = np.searchsorted(frm[order], np.arange(n + 1)).tolist()
    links = list(zip(to[order].tolist(), ln[order].tolist()))
    return Roadmap(
        vertices=tuple(vertices),
        adjacency={i: tuple(links[cuts[i] : cuts[i + 1]]) for i in range(n)},
        total_edge_length=total,
    )


def _nearest(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's k nearest others and their distances, (n, k) each.

    Row i is what ``np.argsort(d, kind="stable")[:k]`` picks from i's
    distance row d (its own entry inf): the k smallest by distance, then
    by index, in that order. A row is partitioned, and only a row with a
    tie at its k-th distance is sorted whole.
    """
    n = len(pts)
    nbr = np.empty((n, k), dtype=np.intp)
    dist = np.empty((n, k))
    if k == 0:
        return nbr, dist
    x, y = pts[:, 0], pts[:, 1]
    step = max(1, KNN_BLOCK // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        d = np.hypot(x - x[rows, None], y - y[rows, None])
        d[np.arange(len(rows)), rows] = np.inf
        picked = d <= np.partition(d, k - 1, axis=1)[:, k - 1 : k]
        tied = picked.sum(axis=1) != k
        # untied rows: their k picks in index order, then stably by distance
        cols = np.nonzero(picked[~tied])[1].reshape(-1, k)
        near = np.take_along_axis(d[~tied], cols, axis=1)
        order = np.argsort(near, axis=1, kind="stable")
        nbr[rows[~tied]] = np.take_along_axis(cols, order, axis=1)
        dist[rows[~tied]] = np.take_along_axis(near, order, axis=1)
        for r in np.flatnonzero(tied).tolist():
            nbr[lo + r] = np.argsort(d[r], kind="stable")[:k]
            dist[lo + r] = d[r, nbr[lo + r]]
    return nbr, dist


def link_start(roadmap: Roadmap, world: WorldModel, start: Point, k_neighbors: int) -> Roadmap:
    """A new roadmap with ``start`` linked to its ``k_neighbors`` nearest
    visible vertices by edges out of the start only (the PRM query
    connection of Kavraki, Svestka, Latombe & Overmars, IEEE T-RA 1996).

    No edge enters the start, so no older path changes; the new edges join
    ``total_edge_length``, so the makespan upper bound stays sound. The given
    (possibly memoized) roadmap is never changed, and comes back as is when
    it already holds the start."""
    start = tuple(start)
    if start in roadmap.vertices:
        return roadmap
    d = np.hypot(*(np.array(roadmap.vertices) - start).T)
    links: list[tuple[int, float]] = []
    for j in np.argsort(d, kind="stable").tolist():
        if len(links) == k_neighbors:
            break
        if not segment_collides(start, roadmap.vertices[j], world.obstacles):
            links.append((j, float(d[j])))
    return Roadmap(
        vertices=roadmap.vertices + (start,),
        adjacency={**roadmap.adjacency, len(roadmap.vertices): tuple(sorted(links))},
        total_edge_length=roadmap.total_edge_length + sum(ln for _, ln in links),
    )


def _dijkstra(roadmap: Roadmap, src: int, dst: int) -> tuple[list[int], float] | None:
    """Shortest path from ``src`` to ``dst`` and its length; None when
    ``dst`` is unreachable.

    It resumes ``src``'s tree and pops until ``dst`` is settled. Across
    queries the pops are those of one full Dijkstra, in its order, and a
    settled vertex's dist and prev never change, so the path read off is
    the one a search stopped at ``dst`` returns, bit for bit.
    """
    tree = roadmap.trees.get(src)
    if tree is None:
        n = len(roadmap.vertices)
        dist = array("d", [math.inf]) * n
        dist[src] = 0.0
        tree = roadmap.trees[src] = (dist, array("i", [-1]) * n, bytearray(n), [(0.0, src)])
    dist, prev, settled, heap = tree
    adjacency = roadmap.adjacency
    while not settled[dst]:
        if not heap:
            return None
        d, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = 1
        for w, ln in adjacency.get(v, ()):
            nd = d + ln
            if nd < dist[w]:
                dist[w] = nd
                prev[w] = v
                heapq.heappush(heap, (nd, w))
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1], dist[dst]


def plan(roadmap: Roadmap, frm: Point, to: Point, speed: float) -> MotionPlan | None:
    """Shortest roadmap path as a motion plan at ``speed``; None when
    disconnected."""
    frm, to = tuple(frm), tuple(to)
    if frm == to:
        return MotionPlan((frm,), 0.0, 0.0)
    hit = _dijkstra(roadmap, roadmap.vertex_index(frm), roadmap.vertex_index(to))
    if hit is None:
        return None
    path, length = hit
    return MotionPlan(tuple(roadmap.vertices[i] for i in path), length, length / speed)


class Planner:
    """Every robot trip of one domain on one roadmap, planned through ``cache``.

    Called as ``planner(robot_id, frm, to)`` it gives the trip's travel
    time, inf when disconnected; ``plan`` gives the plan itself. A trip is
    looked up in the cache by its robot's position in the team and planned
    on a miss. It holds no function, so it pickles and deep-copies with its
    owner.
    """

    def __init__(self, domain: ProblemDomain, roadmap: Roadmap, cache: PlanCache):
        self.domain = domain
        self.roadmap = roadmap
        self.cache = cache
        self._positions = {rid: i for i, rid in enumerate(domain.team.robot_ids)}

    def plan(self, robot_id: str, frm: Point, to: Point) -> MotionPlan | None:
        position = self._positions[robot_id]
        found, p = self.cache.lookup(position, frm, to)
        if not found:
            p = plan(self.roadmap, frm, to, self.domain.world.robot_speeds[robot_id])
            self.cache.planner_calls += 1
            self.cache.store(position, frm, to, p)
        return p

    def __call__(self, robot_id: str, frm: Point, to: Point) -> float:
        p = self.plan(robot_id, frm, to)
        return math.inf if p is None else p.duration
