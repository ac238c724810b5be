"""Gap bounds, brute-force oracles, and the alpha = 1 resource guarantee."""

import itertools

import numpy as np
import pytest

from dynalloc.analysis import (
    BoundError,
    _enumerate_valid,
    brute_force_optimal_makespan,
    oracle_travel,
    posthoc_bound,
    time_optimality_bound,
    validate_bound,
)
from dynalloc.domain import Allocation, is_valid_allocation, resource_count
from dynalloc.generator import generate_problem
from dynalloc.search import search

from conftest import (
    brute_force_min_assignments,
    build_domain,
    min_assignments_certificate,
    search_counting_ties,
    search_min_resources,
)


class TestBoundFormulas:
    def test_apriori_grows_with_alpha(self):
        b1 = time_optimality_bound(0.1, 0.0, 10.0)
        b2 = time_optimality_bound(0.4, 0.0, 10.0)
        assert b1 == pytest.approx(10.0 / 9.0)
        assert b2 == pytest.approx(10.0 * 4.0 / 6.0)
        assert b2 > b1

    def test_alpha_zero_bound_is_zero(self):
        assert time_optimality_bound(0.0, 1.0, 5.0) == 0.0

    def test_rejects_alpha_at_or_above_half(self):
        with pytest.raises(BoundError):
            time_optimality_bound(0.5, 0.0, 1.0)
        with pytest.raises(BoundError):
            time_optimality_bound(0.9, 0.0, 1.0)
        with pytest.raises(BoundError):
            time_optimality_bound(-0.1, 0.0, 1.0)

    def test_posthoc_never_exceeds_apriori(self):
        apriori = time_optimality_bound(0.3, 0.0, 10.0)
        frontier = [(1.0, 0.0), (0.5, 2.0), (0.0, 9.0)]
        assert posthoc_bound(0.3, 0.0, 10.0, 6.0, frontier) <= apriori + 1e-12

    def test_posthoc_empty_frontier_certifies_optimality(self):
        assert posthoc_bound(0.3, 0.0, 10.0, 6.0, []) == 0.0

    def test_posthoc_ignores_dominated_goal_candidates(self):
        # an apr=0 open node with a worse makespan floor contributes nothing
        assert posthoc_bound(0.3, 0.0, 10.0, 6.0, [(0.0, 7.0)]) == 0.0
        # but a low-makespan positive-apr ancestor does
        assert posthoc_bound(0.3, 0.0, 10.0, 6.0, [(0.5, 1.0)]) == pytest.approx(
            min(time_optimality_bound(0.3, 0.0, 10.0) * 0.5, 5.0)
        )

    def test_posthoc_rejects_bad_fraction(self):
        with pytest.raises(BoundError):
            posthoc_bound(0.3, 0.0, 10.0, 6.0, [(1.5, 0.0)])


def _every_valid(domain):
    """The valid allocations among all 2^(M*N) binary matrices, in order."""
    m, n = domain.n_tasks, domain.n_robots
    for bits in itertools.product((0, 1), repeat=m * n):
        alloc = Allocation(np.array(bits, dtype=np.int8).reshape(m, n))
        if is_valid_allocation(alloc, domain.team, domain.requirements):
            yield alloc


DESK_SHAPES = ((3, 4), (2, 4), (3, 3), (2, 3), (3, 2))


class TestOracles:
    @pytest.mark.parametrize(
        "domains",
        [
            lambda: [generate_problem(s, 3, 4, 3) for s in range(20)],
            lambda: [generate_problem(100 + i, *DESK_SHAPES[i % 5], 3) for i in range(20)],
            lambda: [
                build_domain([[1.0], [1.0]], [[0.0], [0.0]]),
                build_domain([[1.0], [1.0]], [[2.0]]),
                build_domain([[1.0], [1.0]], [[3.0]]),
            ],
        ],
        ids=["desk-3x4x3", "criterion-2", "hand-built"],
    )
    def test_only_valid_allocations_are_enumerated(self, domains):
        """Row by row, the oracles meet exactly the valid allocations of the
        full enumeration, in its order."""
        for domain in domains():
            got = [a.key() for a in _enumerate_valid(domain)]
            assert got == [a.key() for a in _every_valid(domain)]

    def test_guard_rejects_large_instances(self):
        domain = generate_problem(0, 4, 4, 3)  # 16 cells > 12
        with pytest.raises(BoundError):
            brute_force_optimal_makespan(domain, oracle_travel(domain))

    def test_min_assignments_on_hand_built_case(self):
        # one robot suffices for each task; minimum is one per task
        domain = build_domain([[2.0], [2.0]], [[1.0], [1.0]])
        travel = oracle_travel(domain, prm_samples=60, prm_k=5)
        assert brute_force_min_assignments(domain, travel) == 2

    def test_optimal_leq_any_search_result(self):
        for seed in (0, 1, 2):
            domain = generate_problem(seed, 3, 4, 3)
            optimal = brute_force_optimal_makespan(domain, oracle_travel(domain))
            result = search(domain, 0.3)
            assert result.reason == "solved"
            assert optimal <= result.solution.makespan + 1e-9

    def test_oracle_travel_matches_search_travel(self):
        """Same world, samples, k, seed: both sides price trips identically."""
        domain = generate_problem(7, 3, 4, 3)
        travel = oracle_travel(domain, 100, 6, seed=0)
        result = search(domain, 0.25, prm_samples=100, prm_k=6, seed=0)
        t0 = domain.network.tasks[0]
        rid = domain.team.robot_ids[0]
        frm = domain.world.robot_start_configs[rid]
        search_travel = result.state.price_memo.travel
        assert travel(rid, frm, t0.initial_config) == pytest.approx(
            search_travel(rid, frm, t0.initial_config), abs=1e-12
        )

    def test_searches_and_oracle_share_one_roadmap_not_one_cache(self):
        """One roadmap per set of build inputs; each caller keeps its own PlanCache."""
        domain = generate_problem(7, 3, 4, 3)
        states = [search(domain, alpha).state for alpha in (0.0, 0.25)]
        calls = [st.plan_cache.planner_calls for st in states]
        travel = oracle_travel(domain)
        roadmap, cache = travel.roadmap, travel.cache
        brute_force_optimal_makespan(domain, travel)
        assert cache.planner_calls > 0
        assert roadmap is states[0].roadmap is states[1].roadmap
        assert len({id(cache), id(states[0].plan_cache), id(states[1].plan_cache)}) == 3
        assert [st.plan_cache.planner_calls for st in states] == calls


class TestValidateBound:
    def test_alpha_zero_gap_is_zero(self):
        domain = generate_problem(0, 3, 4, 3)
        optimal = brute_force_optimal_makespan(domain, oracle_travel(domain))
        report = validate_bound(domain, 0.0, optimal=optimal)
        assert report.normalized_gap == pytest.approx(0.0, abs=1e-9)

    def test_report_fields_consistent(self):
        domain = generate_problem(1, 3, 4, 3)
        optimal = brute_force_optimal_makespan(domain, oracle_travel(domain))
        report = validate_bound(domain, 0.3, optimal=optimal)
        assert report.lb < report.ub
        assert report.optimal_makespan <= report.achieved_makespan + 1e-9
        assert report.posthoc_bound <= report.apriori_bound + 1e-12
        row = report.csv_row()
        assert len(row.split(",")) == len(report.CSV_HEADER.split(","))


class TestResourceOptimality:
    def test_certificate_is_a_true_lower_bound(self):
        for seed in (0, 1, 2, 3):
            domain = generate_problem(seed, 3, 4, 3)
            cert = min_assignments_certificate(domain)
            optimal = brute_force_min_assignments(domain, oracle_travel(domain))
            assert cert <= optimal

    def test_certificate_on_hand_built_case(self):
        # each task is covered by any single robot: certificate = 2
        domain = build_domain([[2.0], [2.0]], [[1.0], [1.0]])
        assert min_assignments_certificate(domain) == 2

    def test_alpha_one_matches_oracle_when_certified(self):
        """A tie-free alpha = 1 run that meets the certificate floor uses the
        oracle's minimum count, and no run ever beats that minimum."""
        for seed in (0, 1, 2, 3):
            domain = generate_problem(seed, 3, 4, 3)
            solution, tie_free, _ = search_min_resources(domain)
            assert solution is not None, seed
            achieved = resource_count(solution.allocation)
            optimal = brute_force_min_assignments(domain, oracle_travel(domain))
            assert achieved >= optimal, seed
            if tie_free and achieved == min_assignments_certificate(domain):
                assert achieved == optimal, seed

    def test_identical_robots_make_a_tied_pop(self):
        # either robot alone covers the task: the two children tie at apr 0
        domain = build_domain([[1.0], [1.0]], [[1.0]])
        solution, tie_free, state = search_min_resources(domain)
        assert solution is not None
        assert tie_free is False

    def test_single_robot_run_is_tie_free(self):
        domain = build_domain([[1.0]], [[1.0]])
        solution, tie_free, state = search_min_resources(domain)
        assert solution is not None
        assert tie_free is True

    def test_desk_runs_tie_as_pinned(self):
        """The tied pops of criterion 3's 20 desk runs at alpha 1, as the
        search's own counter read them when it probed the heap after each
        exact pop."""
        shapes = [(3, 4), (2, 4), (3, 3), (2, 3), (3, 2)]
        tied = [
            search_counting_ties(generate_problem(100 + i, *shapes[i % 5], 3), 1.0)[1]
            for i in range(20)
        ]
        assert tied == [2, 0, 2, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 2, 1, 1, 0, 0]

    def test_achieved_never_below_oracle(self):
        for seed in (4, 5):
            domain = generate_problem(seed, 3, 4, 3)
            solution, _, _ = search_min_resources(domain)
            assert solution is not None
            optimal = brute_force_min_assignments(domain, oracle_travel(domain))
            assert resource_count(solution.allocation) >= optimal
