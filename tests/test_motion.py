"""Roadmap construction and plan queries against independent oracles."""

import copy
import heapq
import math
import pickle
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynalloc import motion
from dynalloc.generator import generate_problem
from dynalloc.geometry import Circle, Rect, point_in_any, segment_collides
from dynalloc.motion import (
    PlanCache,
    Planner,
    Roadmap,
    RoadmapError,
    build_roadmap,
    drop_mispriced_plans,
    link_start,
    mandatory_vertices,
    plan,
)
from dynalloc.search import search
from dynalloc.validation import plan_collision_samples

from conftest import build_domain, estimate_travel_time, euclidean_provider


def _bellman_ford_shortest(roadmap, src, dst):
    """Independent shortest-path oracle: |V|-1 full relaxation sweeps."""
    n = len(roadmap.vertices)
    dist = [math.inf] * n
    dist[src] = 0.0
    for _ in range(n - 1):
        changed = False
        for u in range(n):
            for v, ln in roadmap.adjacency.get(u, ()):
                if dist[u] + ln < dist[v] - 1e-15:
                    dist[v] = dist[u] + ln
                    changed = True
        if not changed:
            break
    return dist[dst]


def _early_exit_dijkstra(roadmap, src, dst):
    """Reference single-pair Dijkstra that stops as soon as ``dst`` pops."""
    dist = {src: 0.0}
    prev = {}
    heap = [(0.0, src)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == dst:
            path = [dst]
            while path[-1] != src:
                path.append(prev[path[-1]])
            return path[::-1], d
        for w, ln in roadmap.adjacency.get(v, ()):
            nd = d + ln
            if nd < dist.get(w, math.inf):
                dist[w] = nd
                prev[w] = v
                heapq.heappush(heap, (nd, w))
    return None


def _full_tree(roadmap, src):
    """Reference single-source Dijkstra run to exhaustion: (dist, prev)."""
    n = len(roadmap.vertices)
    dist = array("d", [math.inf]) * n
    prev = array("i", [-1]) * n
    done = bytearray(n)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = 1
        for w, ln in roadmap.adjacency.get(v, ()):
            nd = d + ln
            if nd < dist[w]:
                dist[w] = nd
                prev[w] = v
                heapq.heappush(heap, (nd, w))
    return dist, prev


def _reference_build(bounds, obstacles, mandatory, n_samples, k_neighbors, seed):
    """``motion._build_roadmap`` one sample and one vertex row at a time:
    the reference the array build must equal."""
    if n_samples < 1:
        raise RoadmapError("n_samples must be >= 1")
    if k_neighbors < 1:
        raise RoadmapError("k_neighbors must be >= 1")
    xmin, ymin, xmax, ymax = bounds
    if xmax <= xmin or ymax <= ymin:
        raise RoadmapError("world bounds are degenerate")

    rng = np.random.default_rng(seed)
    free = []
    attempts = 0
    cap = motion.REJECTION_CAP_FACTOR * n_samples
    while len(free) < n_samples and attempts < cap:
        attempts += 1
        p = (float(rng.uniform(xmin, xmax)), float(rng.uniform(ymin, ymax)))
        if not point_in_any(p, obstacles):
            free.append(p)
    if not free:
        raise RoadmapError(f"no free sample found in {cap} attempts")

    vertices = list(dict.fromkeys(list(mandatory) + free))
    pts = np.array(vertices)
    n = len(vertices)
    k = min(k_neighbors, n - 1)

    edges = set()
    lengths = {}
    for i in range(n):
        d = np.hypot(pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1])
        d[i] = np.inf
        for j in np.argsort(d, kind="stable")[:k]:
            j = int(j)
            e = (min(i, j), max(i, j))
            if e in edges:
                continue
            if segment_collides(vertices[i], vertices[j], obstacles):
                continue
            edges.add(e)
            lengths[e] = float(d[j])

    adjacency = {i: [] for i in range(n)}
    for (i, j), ln in sorted(lengths.items()):
        adjacency[i].append((j, ln))
        adjacency[j].append((i, ln))
    return Roadmap(
        vertices=tuple(vertices),
        adjacency={i: tuple(v) for i, v in adjacency.items()},
        total_edge_length=float(sum(lengths.values())),
    )


def _build_both(bounds, obstacles, mandatory, n_samples, k, seed):
    """(array build, reference build) of one input, or of each the
    ``RoadmapError`` message; the array build bypasses the memo."""
    out = []
    for build in (motion._build_roadmap.__wrapped__, _reference_build):
        try:
            out.append(build(bounds, obstacles, mandatory, n_samples, k, seed))
        except RoadmapError as err:
            out.append(str(err))
    return out


def _assert_same_roadmap(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert got.vertices == want.vertices
    assert got.adjacency == want.adjacency
    assert got.total_edge_length == want.total_edge_length
    links = [link for nbrs in got.adjacency.values() for link in nbrs]
    assert all(type(j) is int and type(ln) is float for j, ln in links)
    assert type(got.total_edge_length) is float


def _components(roadmap):
    """Flood-fill connectivity oracle."""
    seen = set()
    comps = []
    for start in range(len(roadmap.vertices)):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in roadmap.adjacency.get(u, ()):
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps


@pytest.fixture
def world_and_mandatory(obstacle_domain):
    return obstacle_domain.world, mandatory_vertices(obstacle_domain)


class TestRoadmap:
    def test_deterministic_for_fixed_seed(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        a = build_roadmap(world, mandatory, 60, 5, seed=3)
        motion._build_roadmap.cache_clear()
        b = build_roadmap(world, mandatory, 60, 5, seed=3)
        assert a is not b  # b was built afresh, not handed back by the memo
        assert a.vertices == b.vertices
        assert a.adjacency == b.adjacency
        assert a.total_edge_length == b.total_edge_length

    def test_memo_keeps_every_roadmap_built(self, world_and_mandatory):
        # a sweep cycles through more domains than a small LRU would hold
        world, mandatory = world_and_mandatory
        first = build_roadmap(world, mandatory, 20, 4, seed=1000)
        for seed in range(1001, 1011):
            build_roadmap(world, mandatory, 20, 4, seed=seed)
        assert build_roadmap(world, mandatory, 20, 4, seed=1000) is first

    def test_mandatory_points_are_vertices(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        rm = build_roadmap(world, mandatory, 40, 5, seed=0)
        for p in mandatory:
            assert rm.vertex_index(p) >= 0

    def test_vertices_and_edges_avoid_obstacles(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        rm = build_roadmap(world, mandatory, 80, 6, seed=1)
        from dynalloc.geometry import point_in_any, segment_collides

        for v in rm.vertices:
            assert not point_in_any(v, world.obstacles)
        for u, nbrs in rm.adjacency.items():
            for v, _ in nbrs:
                assert not segment_collides(
                    rm.vertices[u], rm.vertices[v], world.obstacles
                )

    def test_unknown_vertex_lookup_raises(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        rm = build_roadmap(world, mandatory, 20, 4, seed=0)
        with pytest.raises(RoadmapError):
            rm.vertex_index((123.0, 456.0))

    def test_fully_blocked_world_raises(self):
        domain = build_domain(
            [[1.0]],
            [[1.0]],
            bounds=(0.0, 0.0, 4.0, 4.0),
            obstacles=[Circle((2.0, 2.0), 10.0)],
        )
        with pytest.raises(RoadmapError):
            build_roadmap(domain.world, [], 10, 3, seed=0)

    def test_same_inputs_share_one_roadmap(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        a = build_roadmap(world, mandatory, 60, 5, seed=3)
        assert build_roadmap(world, list(mandatory), 60, 5, seed=3) is a
        assert build_roadmap(world, mandatory, 60, 5, seed=4) is not a
        assert build_roadmap(world, mandatory[1:], 60, 5, seed=3) is not a

    @pytest.mark.parametrize("k", [0, -1])
    def test_neighbor_count_below_one_refused(self, world_and_mandatory, k):
        """k = -1 would link each vertex to all but its farthest; k = 0 to none."""
        world, mandatory = world_and_mandatory
        with pytest.raises(RoadmapError, match="k_neighbors"):
            build_roadmap(world, mandatory, 60, k, seed=3)

    def test_errors_are_not_memoized(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        for _ in range(2):
            with pytest.raises(RoadmapError):
                build_roadmap(world, mandatory, n_samples=0)


DESK_SHAPES = ((3, 4), (2, 4), (3, 3), (2, 3), (3, 2))
# every domain the searches of the benchmark and the acceptance suite build
# a roadmap for, and more of both sizes
BUILD_DOMAINS = {
    "bench-500-509": [(s, 8, 15, 4) for s in range(500, 510)],
    "desk-100-119": [(100 + i, *DESK_SHAPES[i % 5], 3) for i in range(20)],
    "small-0-49": [(s, 4, 5, 3) for s in range(50)],
    "bench-600-639": [(s, 8, 15, 4) for s in range(600, 640)],
}


def _circle(draw, bounds):
    xmin, ymin, xmax, ymax = bounds
    centre = (draw(st.floats(xmin, xmax)), draw(st.floats(ymin, ymax)))
    return Circle(centre, draw(st.floats(0.05, 0.6 * (xmax - xmin))))


def _rect(draw, bounds):
    xmin, ymin, xmax, ymax = bounds
    x0, y0 = draw(st.floats(xmin, xmax)), draw(st.floats(ymin, ymax))
    return Rect((x0, y0), (x0 + draw(st.floats(0.0, 4.0)), y0 + draw(st.floats(0.0, 4.0))))


def _grazing_pair(draw, ob):
    """Two points whose segment touches ``ob`` only at its boundary, up to
    rounding: tangent to a circle, or along a rect's side or through its
    corner."""
    s, u = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))
    if isinstance(ob, Circle):
        t = draw(st.floats(0.0, 2.0 * math.pi))
        (cx, cy), r = ob.center, ob.radius
        px, py = cx + r * math.cos(t), cy + r * math.sin(t)
        dx, dy = -math.sin(t), math.cos(t)
        return (px - s * dx, py - s * dy), (px + u * dx, py + u * dy)
    (x0, y0), (x1, y1) = ob.min_corner, ob.max_corner
    return draw(
        st.sampled_from(
            [
                ((x0 - s, y0), (x1 + u, y0)),  # along the bottom side
                ((x1, y0 - s), (x1, y1 + u)),  # along the right side
                ((x0 - s, y1 + s), (x0 + u, y1 - u)),  # through the top-left corner
            ]
        )
    )


@st.composite
def _worlds(draw):
    """Build inputs over circles and rects, with mandatory points that
    graze obstacles, duplicate each other or the first free sample, and
    sample and neighbour counts down to 1 and past the vertex count."""
    xmin, ymin = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    bounds = (xmin, ymin, xmin + draw(st.floats(1.0, 10.0)), ymin + draw(st.floats(1.0, 10.0)))
    shapes = draw(st.lists(st.sampled_from([_circle, _rect]), max_size=4))
    obstacles = tuple(make(draw, bounds) for make in shapes)
    grazed = draw(st.lists(st.sampled_from(obstacles), max_size=3)) if obstacles else []
    mandatory = [p for ob in grazed for p in _grazing_pair(draw, ob)]
    coordinate = st.tuples(st.floats(bounds[0], bounds[2]), st.floats(bounds[1], bounds[3]))
    mandatory += draw(st.lists(coordinate, max_size=4))
    if mandatory and draw(st.booleans()):
        mandatory.append(mandatory[0])
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        # the first draw, forced in: a free first sample duplicates it
        first = np.random.default_rng(seed).uniform(bounds[:2], bounds[2:], size=(1, 2))
        mandatory.append(tuple(first[0].tolist()))
    n_samples = draw(st.integers(1, 40))
    n = len(set(mandatory)) + n_samples
    k = draw(st.one_of(st.integers(1, 10), st.integers(max(1, n - 1), n + 3)))
    return bounds, obstacles, tuple(mandatory), n_samples, k, seed


class TestArrayBuild:
    """The array build gives exactly the roadmap a per-sample, per-row
    loop gives: vertices, adjacency and the summed edge length, ``==``."""

    @pytest.mark.parametrize("group", list(BUILD_DOMAINS))
    def test_equals_the_loop_on_generated_domains(self, group):
        for args in BUILD_DOMAINS[group]:
            domain = generate_problem(*args)
            mandatory = tuple(mandatory_vertices(domain))
            world = domain.world
            got, want = _build_both(tuple(world.bounds), world.obstacles, mandatory, 200, 8, 0)
            _assert_same_roadmap(got, want)

    @settings(max_examples=150, deadline=None)
    @given(_worlds())
    def test_equals_the_loop_on_any_world(self, case):
        _assert_same_roadmap(*_build_both(*case))

    def test_a_world_that_hits_the_rejection_cap(self):
        """A circle leaves only the corners free: the cap stops sampling
        with fewer samples than asked for, or with none."""
        bounds = (-1.0, -1.0, 1.0, 1.0)
        got, want = _build_both(bounds, (Circle((0.0, 0.0), 1.35),), ((0.0, 0.0),), 30, 3, 7)
        _assert_same_roadmap(got, want)
        assert len(got.vertices) == 7  # the origin and six of 30 samples
        got, want = _build_both(bounds, (Circle((0.0, 0.0), 1.4),), ((0.0, 0.0),), 30, 3, 7)
        assert got == want == "no free sample found in 1500 attempts"

    def test_a_tie_at_the_kth_distance_keeps_the_lower_index(self):
        """Four points at distance 1 from the origin and a nearer one after
        them: with k = 2 the origin takes the nearer one, then the tied
        point of lowest index."""
        points = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.5, 0.0))
        nbr, dist = motion._nearest(np.array(points), 2)
        assert nbr[0].tolist() == [5, 1] and dist[0].tolist() == [0.5, 1.0]
        got, want = _build_both((-9.0, -9.0, -8.0, -8.0), (), points, 1, 2, 0)
        _assert_same_roadmap(got, want)


class TestPlans:
    def test_plan_matches_bellman_ford(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        rm = build_roadmap(world, mandatory, 60, 5, seed=2)
        for frm in mandatory[:3]:
            for to in mandatory[3:]:
                p = plan(rm, frm, to, speed=2.0)
                oracle = _bellman_ford_shortest(
                    rm, rm.vertex_index(frm), rm.vertex_index(to)
                )
                if p is None:
                    assert math.isinf(oracle)
                else:
                    assert p.length == pytest.approx(oracle, abs=1e-9)
                    assert p.duration == pytest.approx(oracle / 2.0, abs=1e-9)

    def test_disconnection_matches_flood_fill(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        # tiny sample count makes disconnection likely but not certain
        rm = build_roadmap(world, mandatory, 3, 1, seed=0)
        comps = _components(rm)
        vi = {p: rm.vertex_index(p) for p in mandatory}
        comp_of = {}
        for ci, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = ci
        for frm in mandatory:
            for to in mandatory:
                p = plan(rm, frm, to, speed=1.0)
                connected = comp_of[vi[frm]] == comp_of[vi[to]]
                assert (p is not None) == connected

    def test_same_point_plan_is_free(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        rm = build_roadmap(world, mandatory, 20, 4, seed=0)
        p = plan(rm, mandatory[0], mandatory[0], speed=1.0)
        assert p.length == 0.0 and p.duration == 0.0

    def test_cache_keeps_a_plan_per_robot(self):
        domain = build_domain(
            [[1.0], [1.0], [1.0]], [[1.0]], speeds={"r0": 1.0, "r1": 1.0, "r2": 2.0}
        )
        mandatory = mandatory_vertices(domain)
        rm = build_roadmap(domain.world, mandatory, 40, 5, seed=0)
        cache = PlanCache()
        planner = Planner(domain, rm, cache)
        frm, to = mandatory[0], mandatory[1]
        first = planner.plan("r0", frm, to)
        assert first is not None and cache.planner_calls == 1
        assert planner.plan("r0", frm, to) is first
        assert cache.planner_calls == 1 and cache.hits == 1
        twin = planner.plan("r1", frm, to)  # same traits and speed, own entry
        assert cache.planner_calls == 2 and twin is not first
        assert (twin.length, twin.duration) == (first.length, first.duration)
        faster = planner.plan("r2", frm, to)
        assert cache.planner_calls == 3
        assert faster.duration == first.length / 2.0
        assert planner("r2", frm, to) == faster.duration

    def test_plans_pass_collision_oracle(self, obstacle_domain):
        world = obstacle_domain.world
        mandatory = mandatory_vertices(obstacle_domain)
        rm = build_roadmap(world, mandatory, 120, 8, seed=0)
        for frm in mandatory:
            for to in mandatory:
                p = plan(rm, frm, to, speed=1.0)
                if p is not None:
                    assert plan_collision_samples(p, world.obstacles)


def _roadmap_of(domain, *build_args):
    mandatory = mandatory_vertices(domain)
    return build_roadmap(domain.world, mandatory, *build_args), mandatory


def _obstacle_domain():
    """The ``obstacle_domain`` fixture's domain, for use in parametrize."""
    return build_domain([[1.0], [1.0]], [[1.0], [1.0]], obstacles=[Circle((10.0, 3.5), 2.0)])


def _diamond_roadmap():
    """Two equally long routes from vertex 0 to vertex 3, through 1 and 2."""
    vertices = ((0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 0.0), (3.0, 0.0))
    adjacency = {
        0: ((1, 1.0), (2, 1.0)),
        1: ((0, 1.0), (3, 1.0)),
        2: ((0, 1.0), (3, 1.0)),
        3: ((1, 1.0), (2, 1.0), (4, 2.0)),
        4: ((3, 2.0),),
    }
    return Roadmap(vertices, adjacency, 6.0), vertices


class TestShortestPathTrees:
    """Paths read off the per-source trees equal an early-exit search's."""

    @pytest.mark.parametrize(
        "make, unreachable_pairs",
        [
            (lambda: _roadmap_of(generate_problem(500, 8, 15, 4)), 0),
            (lambda: _roadmap_of(generate_problem(100, 3, 4, 3)), 0),
            (lambda: _roadmap_of(_obstacle_domain(), 120, 8), 0),
            (lambda: _roadmap_of(_obstacle_domain(), 3, 1), 16),
            (_diamond_roadmap, 0),
        ],
        ids=["bench-500", "desk-100", "obstacle", "obstacle-disconnected", "diamond-ties"],
    )
    def test_every_mandatory_pair_matches_the_reference(self, make, unreachable_pairs):
        rm, mandatory = make()
        index = [rm.vertex_index(p) for p in mandatory]
        unreachable = 0
        for s in index:
            assert motion._dijkstra(rm, s, s) == ([s], 0.0)  # starts the tree from s
            wants = {t: _early_exit_dijkstra(rm, s, t) for t in index}
            for t, want in wants.items():
                assert motion._dijkstra(rm, s, t) == want
                p = plan(rm, rm.vertices[s], rm.vertices[t], speed=1.0)
                if want is None:
                    unreachable += 1
                    assert p is None
                elif s != t:
                    assert p.waypoints == tuple(rm.vertices[i] for i in want[0])
                    assert p.length == want[1]
            dist, prev, settled, _ = rm.trees[s]
            for t, want in wants.items():
                assert settled[t] == (want is not None)
                assert dist[t] == (math.inf if want is None else want[1])
                assert prev[t] == (-1 if want is None or t == s else want[0][-2])
        assert unreachable == unreachable_pairs

    def test_one_tree_per_queried_source(self):
        rm, vertices = _diamond_roadmap()
        assert rm.trees == {}
        assert motion._dijkstra(rm, 0, 0) == ([0], 0.0)
        tree = rm.trees[0]
        dist, prev, settled, heap = tree
        assert list(settled) == [1, 0, 0, 0, 0]  # only the source was popped
        assert list(dist) == [0.0, 1.0, 1.0, math.inf, math.inf]
        plan(rm, vertices[0], vertices[4], speed=1.0)
        assert list(dist) == [0.0, 1.0, 1.0, 2.0, 4.0]
        assert list(prev) == [-1, 0, 0, 1, 3]  # the tie at 3 keeps the first route
        assert list(settled) == [1] * 5 and heap == []
        plan(rm, vertices[0], vertices[3], speed=1.0)
        assert list(rm.trees) == [0] and rm.trees[0] is tree

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_query_order_settles_what_a_full_search_does(self, data):
        """After every query, in any order and from any sources, each
        settled vertex has the dist and prev of a full Dijkstra from its
        tree's source, and each path is the early-exit search's."""
        rm, _ = data.draw(st.sampled_from(TREE_ROADMAPS))()
        rm = Roadmap(rm.vertices, rm.adjacency, rm.total_edge_length)  # no trees yet
        n = len(rm.vertices)
        vertex = st.integers(0, n - 1)
        full = {}
        for s, t in data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=30)):
            assert motion._dijkstra(rm, s, t) == _early_exit_dijkstra(rm, s, t)
            full.setdefault(s, _full_tree(rm, s))
            dist, prev, settled, heap = rm.trees[s]
            for v in range(n):
                if settled[v]:
                    assert (dist[v], prev[v]) == (full[s][0][v], full[s][1][v])
            assert settled[t] or heap == []

    def test_a_copy_made_mid_growth_resumes_to_the_same_paths(self):
        """A solved state's trees are partly grown. Its copy, pickled (its
        own roadmap) or deep-copied (the same roadmap), resumes them to the
        paths a roadmap with no trees gives, settling what a full Dijkstra
        settles."""
        # a roadmap seed no other test builds, so no other test grew its trees
        state = search(generate_problem(0, 4, 5, 3), 0.25, seed=25).state
        pickled = pickle.loads(pickle.dumps(state))
        for copied, shared in ((pickled, False), (copy.deepcopy(state), True)):
            rm = copied.roadmap
            assert (rm is state.roadmap) == shared
            assert any(heap for _, _, _, heap in rm.trees.values())  # mid-growth
            fresh = Roadmap(rm.vertices, rm.adjacency, rm.total_edge_length)
            points = mandatory_vertices(copied.domain)
            for frm in points:
                for to in points:
                    assert plan(rm, frm, to, 1.0) == plan(fresh, frm, to, 1.0)
            for s, (dist, prev, settled, _) in rm.trees.items():
                full_dist, full_prev = _full_tree(rm, s)
                for v in range(len(rm.vertices)):
                    if settled[v]:
                        assert (dist[v], prev[v]) == (full_dist[v], full_prev[v])

    def test_an_unreachable_query_empties_the_heap(self):
        rm, mandatory = _roadmap_of(_obstacle_domain(), 3, 1)
        index = [rm.vertex_index(p) for p in mandatory]
        s, t = next(
            (s, t) for s in index for t in index if _early_exit_dijkstra(rm, s, t) is None
        )
        assert motion._dijkstra(rm, s, t) is None
        dist, prev, settled, heap = rm.trees[s]
        assert heap == [] and not settled[t] and dist[t] == math.inf
        assert (dist, prev) == _full_tree(rm, s)


TREE_ROADMAPS = [
    lambda: _roadmap_of(generate_problem(100, 3, 4, 3)),
    lambda: _roadmap_of(_obstacle_domain(), 120, 8),
    lambda: _roadmap_of(_obstacle_domain(), 3, 1),
    _diamond_roadmap,
]


class TestLinkStart:
    """A start linked in by out-edges keeps every older path."""

    START = (15.0, 2.0)

    def test_start_gets_edges_out_of_it_only(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        rm = build_roadmap(world, mandatory, 60, 5, seed=3)
        plan(rm, mandatory[0], mandatory[1], speed=1.0)  # grows a tree
        snapshot = (rm.vertices, dict(rm.adjacency), rm.total_edge_length, dict(rm.trees))
        linked = link_start(rm, world, self.START, 5)
        assert (rm.vertices, rm.adjacency, rm.total_edge_length, rm.trees) == snapshot
        n = len(rm.vertices)
        assert linked.vertices == rm.vertices + (self.START,)
        assert linked.trees == {} and linked.trees is not rm.trees
        # the k nearest vertices the start sees, by brute force
        visible = [
            j
            for j in sorted(range(n), key=lambda j: math.dist(self.START, rm.vertices[j]))
            if not segment_collides(self.START, rm.vertices[j], world.obstacles)
        ]
        edges = linked.adjacency[n]
        assert sorted(j for j, _ in edges) == sorted(visible[:5])
        for j, ln in edges:
            assert ln == pytest.approx(math.dist(self.START, rm.vertices[j]), abs=1e-12)
        assert {v: linked.adjacency[v] for v in range(n)} == rm.adjacency
        assert linked.total_edge_length == pytest.approx(
            rm.total_edge_length + sum(ln for _, ln in edges), abs=1e-9
        )

    def test_paths_from_the_start_match_bellman_ford(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        rm = build_roadmap(world, mandatory, 60, 5, seed=2)
        linked = link_start(rm, world, self.START, 5)
        src = linked.vertex_index(self.START)
        for to in mandatory:
            p = plan(linked, self.START, to, speed=2.0)
            oracle = _bellman_ford_shortest(linked, src, linked.vertex_index(to))
            assert p.length == pytest.approx(oracle, abs=1e-9)
            assert p.waypoints[0] == self.START
            # nothing routes back through the start
            assert plan(linked, to, self.START, speed=2.0) is None

    def test_a_start_already_on_the_roadmap_changes_nothing(self, world_and_mandatory):
        world, mandatory = world_and_mandatory
        rm = build_roadmap(world, mandatory, 60, 5, seed=3)
        assert link_start(rm, world, list(mandatory[0]), 5) is rm


class TestProviders:
    def test_mispriced_plans_are_dropped(self, obstacle_domain):
        mandatory = mandatory_vertices(obstacle_domain)
        rm = build_roadmap(obstacle_domain.world, mandatory, 120, 8, seed=0)
        cache = PlanCache()
        travel = Planner(obstacle_domain, rm, cache)
        for to in mandatory:
            travel("r0", mandatory[0], to)
        kept = dict(cache.entries)
        assert drop_mispriced_plans(cache, obstacle_domain) == 0
        assert cache.entries == kept
        # a plan priced at another speed, and one under a position no robot holds
        wrong = plan(rm, mandatory[1], mandatory[2], 123.0)
        cache.store(0, mandatory[1], mandatory[2], wrong)
        cache.store(99, mandatory[1], mandatory[2], None)
        assert drop_mispriced_plans(cache, obstacle_domain) == 2
        assert cache.entries == kept

    def test_euclidean_is_a_lower_bound_on_plans(self, obstacle_domain):
        mandatory = mandatory_vertices(obstacle_domain)
        rm = build_roadmap(obstacle_domain.world, mandatory, 120, 8, seed=0)
        euclid = euclidean_provider(obstacle_domain)
        planned = Planner(obstacle_domain, rm, PlanCache())
        for frm in mandatory:
            for to in mandatory:
                t = planned("r0", frm, to)
                if math.isfinite(t):
                    assert euclid("r0", frm, to) <= t + 1e-9

    def test_a_disconnected_trip_costs_inf(self, obstacle_domain):
        mandatory = mandatory_vertices(obstacle_domain)
        rm = build_roadmap(obstacle_domain.world, mandatory, 3, 1, seed=0)
        planner = Planner(obstacle_domain, rm, PlanCache())
        trips = [(frm, to) for frm in mandatory for to in mandatory]
        cut = [t for t in trips if plan(rm, *t, 1.0) is None]
        assert cut
        for frm, to in trips:
            assert math.isinf(planner("r0", frm, to)) == ((frm, to) in cut)

    def test_estimate_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            estimate_travel_time((0.0, 0.0), (1.0, 0.0), 0.0)
