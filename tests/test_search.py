"""Best-first allocation search: goals, ordering, laziness, monotonicity."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynalloc.analysis import brute_force_optimal_makespan, oracle_travel
from dynalloc.domain import (
    Allocation,
    DesiredTraitMatrix,
    DimensionMismatchError,
    TeamTraitMatrix,
    resource_count,
    stack_allocations,
)
from dynalloc.generator import generate_problem
from dynalloc import motion, search as search_mod
from dynalloc.search import (
    APR_SLICE,
    OPEN,
    apr_value,
    apr_values,
    expand,
    materialize,
    min_open_apr,
    new_state,
    prioritize,
    search,
)
from dynalloc.validation import solution_violations

from conftest import build_domain, heap_violations


def _acceptance_desks():
    """The 20 desk domains of acceptance criterion 2 (seeds 100-119)."""
    shapes = ((3, 4), (2, 4), (3, 3), (2, 3), (3, 2))
    return [generate_problem(100 + i, *shapes[i % 5], 3) for i in range(20)]


class TestScores:
    """``prioritize`` writes nsq and tetaq from a node's apr and floor."""

    @staticmethod
    def _scored(apr, floor, lb, ub, alpha):
        node = SimpleNamespace(apr=apr, floor=floor)
        prioritize(SimpleNamespace(lb=lb, ub=ub, alpha=alpha), [node])
        return node

    def test_nsq_clamps_and_normalizes(self):
        assert self._scored(0.0, 5.0, 0.0, 10.0, 0.25).nsq == 0.5
        assert self._scored(0.0, -1.0, 0.0, 10.0, 0.25).nsq == 0.0
        assert self._scored(0.0, 99.0, 0.0, 10.0, 0.25).nsq == 1.0
        assert self._scored(0.0, 3.0, 5.0, 5.0, 0.25).nsq == 0.0  # degenerate interval

    def test_tetaq_mixes_convexly(self):
        node = self._scored(0.4, 8.0, 0.0, 10.0, 0.25)
        assert node.nsq == 0.8
        assert node.tetaq == pytest.approx(0.25 * 0.4 + 0.75 * 0.8)

    def test_alpha_outside_unit_interval_refused(self, tiny_domain):
        with pytest.raises(ValueError):
            search(tiny_domain, 1.5)


def _reference_aprs(stack, team, req):
    """The unmet-requirement fraction of each allocation, one at a time."""
    total = req.entries.sum()
    if total == 0.0:
        return [0.0] * len(stack)
    return [
        float(np.maximum(req.entries - a.astype(float) @ team.entries, 0).sum() / total)
        for a in stack
    ]


def _random_kernel_input(seed, k, n_tasks, n_robots, n_traits, zero_req=False):
    """A random binary (k, n_tasks, n_robots) stack, team and requirements."""
    rng = np.random.default_rng(seed)

    def sparse(rows, high, density):
        return rng.uniform(0, high, (rows, n_traits)) * (rng.random((rows, n_traits)) < density)

    team = TeamTraitMatrix(
        sparse(n_robots, 3, 0.7),
        tuple(f"r{i}" for i in range(n_robots)),
        tuple(f"u{j}" for j in range(n_traits)),
    )
    req_rows = sparse(n_tasks, 4, 0.8)
    req = DesiredTraitMatrix(0 * req_rows if zero_req else req_rows)
    stack = rng.integers(0, 2, (k, n_tasks, n_robots)).astype(np.int8)
    return stack, team, req


class TestAprKernel:
    """``apr_values`` scores a stack exactly as the one-allocation formula."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.one_of(st.integers(0, 8), st.integers(APR_SLICE - 2, 2 * APR_SLICE + 3)),
        n_tasks=st.integers(1, 15),
        n_robots=st.integers(1, 10),
        n_traits=st.integers(1, 4),
        zero_req=st.booleans(),
    )
    def test_matches_the_reference_formula(
        self, seed, k, n_tasks, n_robots, n_traits, zero_req
    ):
        stack, team, req = _random_kernel_input(
            seed, k, n_tasks, n_robots, n_traits, zero_req
        )
        got = apr_values(stack, team, req)
        assert got.shape == (k,)
        assert got.tolist() == _reference_aprs(stack, team, req)

    @pytest.mark.parametrize(
        "k, shape, zero_req",
        [
            (0, (15, 8, 4), False),
            (3, (15, 8, 4), True),
            (APR_SLICE + 1, (15, 8, 4), False),
            (2 * APR_SLICE + 7, (15, 8, 4), False),
            # one 2-D matmul over the flattened stack rounds some of these
            # differently from the one-allocation product
            (40, (1, 12, 4), False),
        ],
        ids=[
            "empty-stack",
            "zero-requirements",
            "one-slice-boundary",
            "two-slice-boundaries",
            "one-task-twelve-robots",
        ],
    )
    def test_edge_cases(self, k, shape, zero_req):
        stack, team, req = _random_kernel_input(199, k, *shape, zero_req=zero_req)
        got = apr_values(stack, team, req).tolist()
        assert got == _reference_aprs(stack, team, req)
        if zero_req:
            assert got == [0.0] * k

    def test_one_row_call_is_apr_value(self):
        stack, team, req = _random_kernel_input(3, 40, 6, 4, 3)
        for a, expected in zip(stack, apr_values(stack, team, req).tolist()):
            assert apr_value(Allocation(a), team, req) == expected

    def test_refuses_a_stack_of_another_shape(self):
        stack, team, req = _random_kernel_input(3, 2, 6, 4, 3)
        for bad in (stack[:, :, 1:], stack[:, 1:, :]):
            with pytest.raises(DimensionMismatchError):
                apr_values(bad, team, req)

    def test_expanded_children_carry_the_kernel_values(self):
        domain = generate_problem(500, 8, 15, 4)
        state = new_state(domain, 0.25)
        node = state.pop()
        for _ in range(2):
            children = expand(state, node)
            assert len(children) == node.allocation.entries.size - node.assignments
            stack = stack_allocations([c.allocation for c in children], (15, 8))
            expected = _reference_aprs(stack, domain.team, domain.requirements)
            assert [c.apr for c in children] == expected
            assert all(type(c.apr) is float for c in children)
            node = children[-1]


class TestTrivialGoals:
    def test_zero_requirements_solved_at_root(self, empty_req_domain):
        result = search(empty_req_domain, 0.25, prm_samples=50, prm_k=5)
        assert result.reason == "solved"
        assert resource_count(result.solution.allocation) == 0
        assert result.state.stats.expansions == 0

    def test_single_robot_single_task(self, tiny_domain):
        result = search(tiny_domain, 0.25, prm_samples=50, prm_k=5)
        assert result.reason == "solved"
        assert result.solution.allocation.entries.tolist() == [[1]]
        assert solution_violations(tiny_domain, result.solution, result.state) == []

    def test_coalition_of_two_required(self, pair_domain):
        result = search(pair_domain, 0.25, prm_samples=50, prm_k=5)
        assert result.reason == "solved"
        assert result.solution.allocation.entries.tolist() == [[1, 1]]

    def test_unsatisfiable_requirements_exhaust(self):
        domain = build_domain([[1.0]], [[5.0]])
        result = search(domain, 0.25, prm_samples=50, prm_k=5)
        assert result.solution is None
        assert result.reason == "exhausted"
        # the frontier emptied, so min_open_apr reports the default
        assert result.min_open_apr == 1.0

    def test_expansion_limit_reported(self, desk_domain):
        result = search(desk_domain, 0.25, max_expansions=0)
        assert result.reason in ("limit-expansions", "solved")


class TestLaziness:
    @pytest.fixture(scope="class")
    def desk_searches(self):
        """Searches on the acceptance desk domains at alpha 0 and 0.25, with
        each child ``expand`` returned as it stood at creation: (exact,
        schedule, floor, the parent's floor)."""
        created = []
        real_expand = search_mod.expand

        def recording_expand(state, node):
            children = real_expand(state, node)
            created.extend((c.exact, c.schedule, c.floor, node.floor) for c in children)
            return children

        with pytest.MonkeyPatch.context() as m:
            m.setattr(search_mod, "expand", recording_expand)
            results = [
                search(domain, alpha)
                for domain in _acceptance_desks()
                for alpha in (0.0, 0.25)
            ]
        return results, created

    def test_every_child_enters_the_frontier_lazy(self, desk_searches):
        """Only ``materialize`` makes a node exact; a child starts from its
        parent's floor."""
        _, created = desk_searches
        assert created
        for exact, schedule, floor, parent_floor in created:
            assert not exact
            assert schedule is None
            assert floor == parent_floor

    def test_unhindered_new_robot_keeps_the_parent_schedule(self, desk_searches):
        """A new robot assigned nowhere else in the parent adds no mutex pair;
        if it also reaches the task no later than the parent starts it, the
        child's warm solve returns the parent's start times and makespan."""
        checked = 0
        for result in desk_searches[0]:
            assert result.reason == "solved"
            state = result.state
            domain = state.domain
            classes = motion.capability_classes(domain.team, domain.world)
            for node in state.nodes.values():
                parent = node.parent
                if parent is None or not node.exact:
                    continue
                old = parent.allocation.entries
                m, n = divmod(int((node.allocation.entries != old).argmax()), old.shape[1])
                if old[:, n].any():
                    continue
                rid = domain.team.robot_ids[n]
                trip = motion.plan(
                    state.roadmap,
                    domain.world.robot_start_configs[rid],
                    domain.network.tasks[m].initial_config,
                    classes[rid],
                    domain.world.robot_speeds[rid],
                    state.plan_cache,
                )
                if trip is None or trip.duration > parent.schedule.start_times[m] + 1e-12:
                    continue
                checked += 1
                assert node.schedule.start_times == parent.schedule.start_times
                assert node.schedule.makespan == parent.schedule.makespan
        assert checked

    def test_lazy_children_materialize_on_pop(self, desk_domain):
        state = new_state(desk_domain, 0.25, prm_samples=100, prm_k=6)
        root = state.pop()
        children = expand(state, root)
        lazy = [c for c in children if not c.exact]
        assert lazy, "expansion should defer scheduling"
        node = lazy[0]
        bound = node.tetaq
        assert materialize(state, node)
        assert node.exact and node.schedule is not None
        # the bound never overestimates the exact priority
        assert node.tetaq >= bound - 1e-12

    def test_lazy_matches_eager_solution(self):
        """Forcing immediate evaluation must not change the solution."""
        for seed in (0, 1, 2):
            domain = generate_problem(seed, 3, 4, 3)
            lazy_result = search(domain, 0.25, seed=0)
            eager_state = new_state(domain, 0.25, seed=0)
            while True:
                node = eager_state.pop()
                assert node is not None
                if not node.exact:
                    if materialize(eager_state, node):
                        eager_state.push(node)
                    continue
                if node.apr <= 1e-12:
                    break
                for child in expand(eager_state, node):
                    # eager: solve every child right away and re-key it
                    if child.status == OPEN and not child.exact:
                        if materialize(eager_state, child):
                            eager_state.push(child)
            assert lazy_result.reason == "solved"
            assert node.allocation.key() == lazy_result.solution.allocation.key()
            assert node.schedule.makespan == pytest.approx(
                lazy_result.solution.makespan, abs=1e-9
            )


class TestWarmStartedSchedules:
    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    def test_search_matches_cold_solves(self, alpha, monkeypatch):
        """Solves warm-started from the parent and stopped at the node's floor
        give the same search as cold ones on the 20 acceptance desk domains."""
        cold_solve = search_mod.solve_schedule
        for i, domain in enumerate(_acceptance_desks()):
            warm = search(domain, alpha)
            with monkeypatch.context() as m:
                m.setattr(
                    search_mod,
                    "solve_schedule",
                    lambda problem, floor=0.0, hint=None, stats=None: cold_solve(problem),
                )
                cold = search(domain, alpha)
            assert warm.reason == cold.reason == "solved", i
            assert warm.solution.allocation.key() == cold.solution.allocation.key(), i
            assert warm.solution.makespan == pytest.approx(cold.solution.makespan, abs=1e-9), i
            assert warm.state.stats.expansions == cold.state.stats.expansions, i
            assert len(warm.state.nodes) == len(cold.state.nodes), i


class TestMonotonicity:
    def test_child_scores_move_the_right_way(self):
        for seed in (0, 3):
            domain = generate_problem(seed, 3, 4, 3)
            result = search(domain, 0.3, seed=0)
            assert result.reason == "solved"
            for node in result.state.nodes.values():
                if node.parent is None:
                    continue
                assert node.apr <= node.parent.apr + 1e-12
                if (
                    node.exact
                    and node.parent.exact
                    and node.schedule is not None
                    and node.parent.schedule is not None
                ):
                    assert node.nsq >= node.parent.nsq - 1e-9


class TestOptimality:
    def test_alpha_zero_finds_time_optimal(self):
        """With alpha=0 the search orders nodes purely by schedule quality."""
        for seed in (0, 1):
            domain = generate_problem(seed, 2, 3, 2)
            result = search(domain, 0.0, seed=0)
            assert result.reason == "solved"
            optimal = brute_force_optimal_makespan(
                domain, oracle_travel(domain, seed=0)
            )
            assert result.solution.makespan == pytest.approx(optimal, abs=1e-9)

    def test_solution_backed_by_plans(self, desk_domain):
        result = search(desk_domain, 0.25)
        assert result.reason == "solved"
        assert result.solution.motion_plans
        for plan in result.solution.motion_plans.values():
            assert plan is not None


class TestStateBookkeeping:
    def test_nodes_deduplicated_by_allocation(self, desk_domain):
        result = search(desk_domain, 0.25)
        keys = [n.allocation.key() for n in result.state.nodes.values()]
        assert len(keys) == len(set(keys))

    def test_only_registered_children_are_built(self, desk_domain, monkeypatch):
        """Duplicates are dropped by key before any child allocation exists."""
        builds = []
        original = Allocation.with_assignment

        def counting(alloc, task, robot):
            builds.append((task, robot))
            return original(alloc, task, robot)

        monkeypatch.setattr(Allocation, "with_assignment", counting)
        result = search(desk_domain, 0.0)
        assert result.reason == "solved"
        assert result.state.stats.expansions > 1
        assert len(builds) == len(result.state.nodes) - 1  # every node but the root

    def test_stale_heap_entries_skipped(self, desk_domain):
        state = new_state(desk_domain, 0.25)
        root = state.pop()
        state.push(root)
        root.tetaq = 0.99
        state.push(root)  # re-push bumps the version; the old entry is stale
        popped = state.pop()
        assert popped is root
        assert state.pop() is None or state.pop() is not root

    def test_heap_holds_exactly_the_frontier_after_search(self):
        for seed in (0, 1, 2, 3):
            domain = generate_problem(seed, 3, 4, 3)
            for alpha in (0.0, 0.25, 1.0):
                result = search(domain, alpha, seed=0)
                assert heap_violations(result.state) == []

    def test_best_priority_matches_frontier_scan(self, desk_domain):
        state = new_state(desk_domain, 0.25, prm_samples=100, prm_k=6)
        expand(state, state.pop())
        open_tetaq = [n.tetaq for n in state.nodes.values() if n.status == OPEN]
        assert state.best_priority() == min(open_tetaq)
        while state.pop() is not None:
            pass
        assert state.best_priority() == math.inf

    def test_min_open_apr_tracks_frontier(self, desk_domain):
        state = new_state(desk_domain, 0.25)
        assert min_open_apr(state) == pytest.approx(
            apr_value(
                next(iter(state.nodes.values())).allocation,
                desk_domain.team,
                desk_domain.requirements,
            )
        )
