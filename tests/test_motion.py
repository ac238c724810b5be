"""Roadmap construction and plan queries against independent oracles."""

import heapq
import math

import pytest

from dynalloc import motion
from dynalloc.generator import generate_problem
from dynalloc.geometry import Circle, segment_collides
from dynalloc.motion import (
    PlanCache,
    Planner,
    Roadmap,
    RoadmapError,
    build_roadmap,
    capability_classes,
    drop_mispriced_plans,
    estimate_travel_time,
    euclidean_provider,
    link_start,
    mandatory_vertices,
    plan,
)
from dynalloc.validation import plan_collision_samples

from conftest import build_domain


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

    def test_cache_shares_across_capability_class(self):
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
        assert planner.plan("r1", frm, to) is first  # same traits and speed
        assert cache.planner_calls == 1 and cache.hits == 1
        faster = planner.plan("r2", frm, to)
        assert cache.planner_calls == 2  # other speed: separate entry
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
            assert motion._dijkstra(rm, s, s) == ([s], 0.0)  # grows the tree from s
            dist, prev = rm.trees[s]
            wants = {t: _early_exit_dijkstra(rm, s, t) for t in index}
            # read the tree before walking it: a corrupted prev can loop
            for t, want in wants.items():
                assert dist[t] == (math.inf if want is None else want[1])
                assert prev[t] == (-1 if want is None or t == s else want[0][-2])
            for t, want in wants.items():
                assert motion._dijkstra(rm, s, t) == want
                p = plan(rm, rm.vertices[s], rm.vertices[t], speed=1.0)
                if want is None:
                    unreachable += 1
                    assert p is None
                elif s != t:
                    assert p.waypoints == tuple(rm.vertices[i] for i in want[0])
                    assert p.length == want[1]
        assert unreachable == unreachable_pairs

    def test_one_tree_per_queried_source(self):
        rm, vertices = _diamond_roadmap()
        assert rm.trees == {}
        assert motion._dijkstra(rm, 0, 0) == ([0], 0.0)
        tree = rm.trees[0]
        dist, prev = tree
        assert list(dist) == [0.0, 1.0, 1.0, 2.0, 4.0]
        assert list(prev) == [-1, 0, 0, 1, 3]  # the tie at 3 keeps the first route
        plan(rm, vertices[0], vertices[4], speed=1.0)
        plan(rm, vertices[0], vertices[3], speed=1.0)
        assert list(rm.trees) == [0] and rm.trees[0] is tree


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
    def test_capability_classes_group_by_traits_and_speed(self):
        domain = build_domain(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0]],
            speeds={"r0": 1.0, "r1": 1.0, "r2": 1.0},
        )
        classes = capability_classes(domain.team, domain.world)
        assert classes["r0"] == classes["r1"]
        assert classes["r0"] != classes["r2"]

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
        # a plan priced at another speed, and one under an id no class holds
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
