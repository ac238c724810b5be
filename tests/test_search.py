"""Best-first allocation search: goals, ordering, laziness, monotonicity."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynalloc.analysis import brute_force_optimal_makespan, min_open_apr, oracle_travel
from dynalloc.domain import (
    Allocation,
    DesiredTraitMatrix,
    DimensionMismatchError,
    TeamTraitMatrix,
    resource_count,
    stack_keys,
)
from dynalloc.generator import generate_problem
from dynalloc import search as search_mod
from dynalloc.search import (
    APR_SLICE,
    OPEN,
    apr_value,
    apr_values,
    expand,
    materialize,
    new_state,
    prioritize,
    required_transitions,
    run_search,
    search,
    take_head,
)
from dynalloc.validation import solution_violations

from conftest import build_domain, graph_size, heap_violations, lazy_pops, pending_members


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
        """An expansion's batch holds one member per free cell, in cell
        order by seq, each with the kernel's apr of its allocation."""
        domain = generate_problem(500, 8, 15, 4)
        state = new_state(domain, 0.25)
        node = state.pop()
        for _ in range(2):
            seq = state.next_seq
            batch = expand(state, node)
            cells = np.argwhere(node.allocation.entries == 0).tolist()
            assert len(batch.keys) == len(cells) == node.allocation.entries.size - node.assignments
            seqs, keys, aprs = zip(*sorted(zip(batch.seqs, batch.keys, batch.aprs)))
            assert list(seqs) == list(range(seq, state.next_seq))
            children = []
            for m, n in cells:
                entries = node.allocation.entries.copy()
                entries[m, n] = 1
                children.append(Allocation(entries))
            assert list(keys) == [c.key() for c in children]
            stack = stack_keys([c.key() for c in children], (15, 8))
            assert list(aprs) == _reference_aprs(stack, domain.team, domain.requirements)
            assert all(type(a) is float for a in aprs)
            head = batch.seqs[-1]
            node = state.pop()  # the batch's best member, built as a node
            assert node.seq == head and node.parent is not None


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
        # nothing was expanded, so min_open_apr is the root's
        assert min_open_apr(result.state) == 1.0
        assert result.state.stats.expansions == 0

    def test_expansion_limit_reported(self, desk_domain):
        result = search(desk_domain, 0.25, max_expansions=0)
        assert result.reason in ("limit-expansions", "solved")

    def test_each_call_gets_its_own_expansion_budget(self):
        """Resumed in slices of five expansions, a search makes five more
        per call and ends as one uninterrupted call does."""
        domain = generate_problem(500, 8, 15, 4)
        whole = search(domain, 0.25)
        sliced = search(domain, 0.25, max_expansions=5)
        state = sliced.state
        for expansions in (5, 10, 15, 20):
            assert (sliced.reason, state.stats.expansions) == ("limit-expansions", expansions)
            sliced = run_search(state, max_expansions=5)
        assert sliced.reason == "solved"
        assert sliced.solution.allocation.key() == whole.solution.allocation.key()
        assert state.stats == whole.state.stats


class TestLaziness:
    @pytest.fixture(scope="class")
    def desk_searches(self):
        """Searches on the acceptance desk domains at alpha 0 and 0.25, with
        (its floor, the parent's floor) of each batch ``expand`` returned,
        and (exact, schedule, floor, its batch's floor) of each node a pop
        built from a batch, as each stood at creation."""
        created, built = [], []
        real_expand, real_take = search_mod.expand, search_mod.take_head

        def recording_expand(state, node):
            batch = real_expand(state, node)
            if batch is not None:
                created.append((batch.floor, node.floor))
            return batch

        def recording_take(state, batch):
            node = real_take(state, batch)
            built.append((node.exact, node.schedule, node.floor, batch.floor))
            return node

        with pytest.MonkeyPatch.context() as m:
            m.setattr(search_mod, "expand", recording_expand)
            m.setattr(search_mod, "take_head", recording_take)
            results = [
                search(domain, alpha)
                for domain in _acceptance_desks()
                for alpha in (0.0, 0.25)
            ]
        return results, created, built

    def test_every_child_enters_the_frontier_lazy(self, desk_searches):
        """Only ``materialize`` makes a node exact; a child starts from its
        parent's floor, kept by its batch until a pop builds it."""
        _, created, built = desk_searches
        assert created and built
        for floor, parent_floor in created:
            assert floor == parent_floor
        for exact, schedule, floor, batch_floor in built:
            assert not exact
            assert schedule is None
            assert floor == batch_floor

    def test_unhindered_new_robot_keeps_the_parent_schedule(self, desk_searches):
        """A new robot assigned nowhere else in the parent adds no mutex pair;
        if it also reaches the task no later than the parent starts it, the
        child's warm solve returns the parent's start times and makespan."""
        checked = 0
        for result in desk_searches[0]:
            assert result.reason == "solved"
            state = result.state
            domain = state.domain
            travel = state.price_memo.travel
            for node in state.nodes.values():
                parent = node.parent
                if parent is None or not node.exact:
                    continue
                old = parent.allocation.entries
                m, n = divmod(int((node.allocation.entries != old).argmax()), old.shape[1])
                if old[:, n].any():
                    continue
                rid = domain.team.robot_ids[n]
                start = domain.world.robot_start_configs[rid]
                arrival = travel(rid, start, domain.network.tasks[m].initial_config)
                if arrival > parent.schedule.start_times[m] + 1e-12:
                    continue
                checked += 1
                assert node.schedule.start_times == parent.schedule.start_times
                assert node.schedule.makespan == parent.schedule.makespan
        assert checked

    def test_lazy_children_materialize_on_pop(self, desk_domain):
        state = new_state(desk_domain, 0.25, prm_samples=100, prm_k=6)
        root = state.pop()
        batch = expand(state, root)
        assert len(state.nodes) == 1, "expansion should build no node"
        bound, head = batch.tetaq[-1], batch.seqs[-1]
        node = state.pop()
        assert node.seq == head and not node.exact
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
                batch = expand(eager_state, node)
                while batch is not None and batch.status == OPEN:
                    # eager: build and solve every child right away
                    materialize(eager_state, take_head(eager_state, batch))
                eager_state.rebuild_heap()  # the children in, the spent batch out
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
            assert graph_size(warm.state) == graph_size(cold.state), i


class TestMonotonicity:
    def test_child_scores_move_the_right_way(self):
        for seed in (0, 3):
            domain = generate_problem(seed, 3, 4, 3)
            result = search(domain, 0.3, seed=0)
            assert result.reason == "solved"
            members = list(pending_members(result.state))
            assert members
            for batch, _, _, apr, _ in members:
                assert apr <= batch.parent.apr + 1e-12
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

    @pytest.mark.parametrize("shape", [(0, 3, 4, 3), (500, 8, 15, 4)], ids=["desk", "bench-500"])
    def test_plans_are_keyed_by_robot_and_priced_at_its_speed(self, shape):
        """On a fresh solve, the plans are exactly the schedule's required
        trips, keyed (robot_id, from, to), each at its own robot's speed.
        After an agent loss the cache's robot positions go stale (ROADMAP
        item 1), so only fresh solves are checked."""
        domain = generate_problem(*shape)
        solution = search(domain, 0.25).solution
        required = required_transitions(domain, solution.allocation, solution.schedule)
        assert set(solution.motion_plans) == {
            (rid, tuple(frm), tuple(to)) for rid, frm, to in required
        }
        speeds = domain.world.robot_speeds
        for (rid, _, _), plan in solution.motion_plans.items():
            assert plan.duration == plan.length / speeds[rid]


class TestStateBookkeeping:
    def test_nodes_deduplicated_by_allocation(self, desk_domain):
        result = search(desk_domain, 0.25)
        keys = [n.allocation.key() for n in result.state.nodes.values()]
        assert len(keys) == len(set(keys))

    def test_only_registered_children_are_built(self, desk_domain, monkeypatch):
        """Duplicates are dropped by key, and a child's allocation is built
        only when a pop makes it a node: once per node but the root."""
        builds = []
        original = Allocation._trusted

        def counting(cls, key, shape, count):
            builds.append(key)
            return original(key, shape, count)

        monkeypatch.setattr(Allocation, "_trusted", classmethod(counting))
        result = search(desk_domain, 0.0)
        state = result.state
        assert result.reason == "solved"
        assert state.stats.expansions > 1
        assert state.batches and graph_size(state) > len(state.nodes)
        children = sorted(key for key, node in state.nodes.items() if node.parent is not None)
        assert sorted(builds) == children
        assert len(builds) == len(state.nodes) - 1  # every node but the root

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

    def test_live_top_matches_frontier_scan(self, desk_domain):
        """``pop`` takes the live top: its tetaq is the frontier's least, and
        a drained heap has none."""
        state = new_state(desk_domain, 0.25, prm_samples=100, prm_k=6)
        expand(state, state.pop())
        open_tetaq = [n.tetaq for n in state.nodes.values() if n.status == OPEN]
        open_tetaq += [batch.tetaq[i] for batch, i, *_ in pending_members(state)]
        assert state._live_top()[0] == min(open_tetaq)
        while state.pop() is not None:
            pass
        assert state._live_top() is None

    def test_min_open_apr_tracks_frontier(self, desk_domain):
        state = new_state(desk_domain, 0.25)
        assert min_open_apr(state) == pytest.approx(
            apr_value(
                next(iter(state.nodes.values())).allocation,
                desk_domain.team,
                desk_domain.requirements,
            )
        )


# (count, digest) of the lazy pops, measured when every child was registered
# as a node at its parent's expansion; (3, 0.0)'s digest as it was before
# commits read start times off the longest-path matrix, which moved node
# 1946's makespan one ulp off its tie with node 1951: each schedule is now
# the longest paths of its orderings, so tied pops stay tied
DESK_POPS = {
    (0, 0.0): (3832, "80771fe564cba6e1"),
    (0, 0.25): (6, "b7dc2ddc443a49ba"),
    (0, 1.0): (6, "b7dc2ddc443a49ba"),
    (1, 0.0): (3862, "fae515f48f0dcde6"),
    (1, 0.25): (7, "8777a0434d4c89e1"),
    (1, 1.0): (7, "8777a0434d4c89e1"),
    (2, 0.0): (1435, "b9926b0ecab4c08d"),
    (2, 0.25): (7, "b094a5a2bc57b8c5"),
    (2, 1.0): (6, "ed5cbdee8cc3cd31"),
    (3, 0.0): (3493, "ed7d299941dd3215"),
    (3, 0.25): (7, "08382b28b50260a0"),
    (3, 1.0): (6, "b4c03058a64f38a2"),
}
BENCH_POPS = {
    500: (28, "de35ca3e06c06062"),
    501: (21, "a9fa4831238658dd"),
    502: (28, "d96dacb1cc49099e"),
    503: (25, "c1398fb1b17bf158"),
    504: (20, "29a7ee7298ab586d"),
    505: (26, "7f881fd5f2ec1918"),
    506: (41, "9cac66d4ebe0219b"),
    507: (29, "6feae2acd1da6eeb"),
    508: (32, "bd6a78136af2b44b"),
    509: (21, "c1ca5119ffc9b057"),
}


class TestPopOrder:
    """Nodes are built and solved in the order of eager registration."""

    @pytest.mark.parametrize("seed, alpha", sorted(DESK_POPS))
    def test_desk_searches(self, seed, alpha):
        _, pops = lazy_pops(lambda: search(generate_problem(seed, 3, 4, 3), alpha, seed=0))
        assert pops == DESK_POPS[seed, alpha]

    def test_bench_searches(self):
        got = {
            seed: lazy_pops(lambda: search(generate_problem(seed, 8, 15, 4), 0.25))[1]
            for seed in BENCH_POPS
        }
        assert got == BENCH_POPS
