"""Event application and targeted repair across all eight event kinds."""

import copy
import dataclasses
import math
import pickle
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from dynalloc import motion, repair as repair_mod, runner, search as search_mod
from dynalloc.analysis import (
    BOUND_TOL,
    brute_force_optimal_makespan,
    open_frontier,
    posthoc_bound,
    time_optimality_bound,
)
from dynalloc.domain import Allocation, DomainError
from dynalloc.generator import generate_event, generate_problem
from dynalloc.geometry import Circle
from dynalloc.repair import (
    DynamicEvent,
    EventError,
    EventKind,
    apply_event,
    decompose_mixed,
    repair,
)
from dynalloc.scheduler import (
    PriceMemo,
    build_scheduling_problem,
    schedule_lower_bound,
    schedule_upper_bound,
    solve_schedule,
)
from dynalloc.search import (
    CLOSED,
    OPEN,
    apr_value,
    demote,
    evaluate,
    materialize,
    search,
)
from dynalloc.runner import ScenarioError, run_scenario
from dynalloc.validation import solution_violations

from test_acceptance import _bench_groups, _screened_event, desk_domains
from conftest import (
    build_domain,
    graph_size,
    heap_violations,
    lazy_pops,
    member_allocation,
    pending_members,
    score_violations,
)

ALL_KINDS = list(EventKind)
ROW_KINDS = list(repair_mod.ROW_CHANGES)


def _solved(domain, alpha=0.25, **kw):
    result = search(domain, alpha, **kw)
    assert result.reason == "solved"
    return result


class TestApplyEvent:
    def test_agent_lost_removes_everywhere(self, desk_domain):
        ev = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": "r1"})
        new = apply_event(desk_domain, ev)
        assert "r1" not in new.team.robot_ids
        assert "r1" not in new.world.robot_start_configs
        assert "r1" not in new.world.robot_speeds
        assert new.n_robots == desk_domain.n_robots - 1

    def test_task_lost_reindexes_edges(self):
        domain = build_domain(
            [[1.0]], [[1.0], [1.0], [1.0]], precedence={(0, 2)}, mutex={(1, 2)}
        )
        new = apply_event(domain, DynamicEvent(0.0, EventKind.TASK_LOST, {"task": "t1"}))
        assert new.n_tasks == 2
        # t2 shifted down to index 1; the (0, 2) precedence follows it
        assert new.network.precedence_edges == frozenset({(0, 1)})
        assert new.network.mutex_edges == frozenset()

    def test_trait_change_sign_validation(self, desk_domain):
        names = desk_domain.team.trait_names
        up = {n: float(v) + 1.0 for n, v in zip(names, desk_domain.team.entries[0])}
        with pytest.raises(EventError):
            apply_event(
                desk_domain,
                DynamicEvent(0.0, EventKind.TRAITS_REDUCED, {"agent": "r0", "traits": up}),
            )
        down = {n: 0.0 for n in names}
        with pytest.raises(EventError):
            apply_event(
                desk_domain,
                DynamicEvent(0.0, EventKind.TRAITS_INCREASED, {"agent": "r0", "traits": down}),
            )

    def test_requirement_change_sign_validation(self, desk_domain):
        names = desk_domain.team.trait_names
        tid = desk_domain.network.tasks[0].id
        down = {n: 0.0 for n in names}
        with pytest.raises(EventError):
            apply_event(
                desk_domain,
                DynamicEvent(
                    0.0, EventKind.REQUIREMENTS_INCREASED, {"task": tid, "requires": down}
                ),
            )

    def test_unknown_ids_rejected(self, desk_domain):
        with pytest.raises(EventError):
            apply_event(
                desk_domain, DynamicEvent(0.0, EventKind.AGENT_LOST, {"agent": "ghost"})
            )
        with pytest.raises(EventError):
            apply_event(
                desk_domain,
                DynamicEvent(
                    0.0,
                    EventKind.TRAITS_REDUCED,
                    {"agent": "r0", "traits": {"no_such_trait": 0.0}},
                ),
            )

    def test_new_agent_appends_row(self, desk_domain):
        names = desk_domain.team.trait_names
        ev = DynamicEvent(
            0.0,
            EventKind.NEW_AGENT,
            {
                "agent": {
                    "id": "rx",
                    "traits": {names[0]: 1.5},
                    "start": [5.0, 5.0],
                    "speed": 2.0,
                }
            },
        )
        new = apply_event(desk_domain, ev)
        assert new.n_robots == desk_domain.n_robots + 1
        assert new.team.robot_ids[-1] == "rx"
        assert new.world.robot_speeds["rx"] == 2.0

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["time", "duration", "speed"])
    def test_non_finite_numbers_rejected(self, desk_domain, field, value):
        """An infinite duration would repair to an infinite makespan that no
        check flags, and a NaN one reaches the scheduler; both are refused
        when the event is built or applied."""
        tid = desk_domain.network.tasks[0].id
        agent = {"id": "rx", "traits": {}, "start": [5.0, 5.0], "speed": value}
        with pytest.raises(DomainError):
            if field == "time":
                DynamicEvent(value, EventKind.AGENT_LOST, {"agent": "r0"})
            elif field == "duration":
                apply_event(
                    desk_domain,
                    DynamicEvent(
                        0.0, EventKind.DURATION_CHANGED, {"task": tid, "duration": value}
                    ),
                )
            else:
                apply_event(
                    desk_domain, DynamicEvent(0.0, EventKind.NEW_AGENT, {"agent": agent})
                )

    @pytest.mark.parametrize(
        "where", ["nan", "inf", "three-d", "not-a-number", "out-of-bounds", "in-obstacle"]
    )
    def test_bad_new_agent_start_rejected(self, desk_domain, where):
        """A NaN start would repair to a NaN upper bound; a start outside the
        world or inside an obstacle is one ``validate_problem`` refuses."""
        start = {
            "nan": [math.nan, 1.0],
            "inf": [1.0, math.inf],
            "three-d": [1.0, 1.0, 1.0],
            "not-a-number": ["a", 1.0],
            "out-of-bounds": [desk_domain.world.bounds[2] + 1.0, 5.0],
            "in-obstacle": list(desk_domain.world.obstacles[0].center),
        }[where]
        agent = {"id": "rx", "traits": {}, "start": start, "speed": 1.0}
        with pytest.raises(EventError, match="start"):
            apply_event(desk_domain, DynamicEvent(0.0, EventKind.NEW_AGENT, {"agent": agent}))

    @pytest.mark.parametrize(
        "kind, payload, field",
        [
            (EventKind.TASK_LOST, {"task": "nope"}, "nope"),
            (EventKind.DURATION_CHANGED, {"task": "nope", "duration": 1.0}, "nope"),
            (EventKind.AGENT_LOST, {}, "'agent'"),
            (EventKind.DURATION_CHANGED, {"task": "t0", "duration": "x"}, "'duration'"),
            (EventKind.TRAITS_REDUCED, {"agent": "r0", "traits": {"trait0": "a"}}, "'trait0'"),
            (
                EventKind.NEW_AGENT,
                {"agent": {"id": "rx", "traits": {}, "start": [5.0, 5.0], "speed": "fast"}},
                "'speed'",
            ),
            (EventKind.NEW_AGENT, {"agent": "rx"}, "'agent'"),
            (EventKind.REQUIREMENTS_REDUCED, {"task": "t0", "requires": [0.5]}, "'requires'"),
            (EventKind.AGENT_LOST, "r0", "payload"),
            (EventKind.DURATION_CHANGED, {"task": "t0", "duration": True}, "'duration'"),
            (EventKind.DURATION_CHANGED, {"task": "t0", "duration": "3.5"}, "'duration'"),
            (
                EventKind.NEW_AGENT,
                {"agent": {"id": "rx", "traits": {}, "start": [5.0, 5.0], "speed": True}},
                "'speed'",
            ),
            (
                EventKind.NEW_AGENT,
                {"agent": {"id": "rx", "traits": {}, "start": "55", "speed": 1.0}},
                "'start'",
            ),
            (
                EventKind.NEW_AGENT,
                {"agent": {"id": "rx", "traits": {}, "start": [True, True], "speed": 1.0}},
                "'start'",
            ),
            (EventKind.TRAITS_REDUCED, {"agent": "r0", "traits": {"trait0": False}}, "'trait0'"),
        ],
        ids=["unknown-task", "unknown-task-duration", "no-agent", "duration-not-a-number",
             "trait-not-a-number", "speed-not-a-number", "spec-not-an-object",
             "row-not-a-mapping", "payload-not-an-object", "duration-bool", "duration-string",
             "speed-bool", "start-string", "start-bools", "trait-bool"],
    )
    def test_malformed_payload_rejected(self, desk_domain, kind, payload, field):
        """Refused as an ``EventError`` that names the field, never a
        ``KeyError`` or ``ValueError`` from deep inside the model."""
        with pytest.raises(EventError, match=field):
            apply_event(desk_domain, DynamicEvent(0.0, kind, payload))

    def test_iteration_counter_advances(self, desk_domain):
        ev = generate_event(desk_domain, EventKind.DURATION_CHANGED, 0)
        assert apply_event(desk_domain, ev).iteration == desk_domain.iteration + 1


class TestDecomposeMixed:
    def test_mixed_trait_change_splits(self, desk_domain):
        names = desk_domain.team.trait_names
        old = desk_domain.team.entries[0]
        mixed = dict(zip(names, old.tolist()))
        mixed[names[0]] = float(old[0]) + 1.0
        mixed[names[-1]] = 0.0
        ev = DynamicEvent(0.0, EventKind.TRAITS_INCREASED, {"agent": "r0", "traits": mixed})
        steps = decompose_mixed(desk_domain, ev)
        assert [s.kind for s in steps] == [
            EventKind.TRAITS_REDUCED,
            EventKind.TRAITS_INCREASED,
        ]
        # applying both steps lands on the mixed target row
        d = apply_event(desk_domain, steps[0])
        d = apply_event(d, steps[1])
        assert np.allclose(d.team.entries[0], [mixed[n] for n in names])

    def test_pure_change_passes_through(self, desk_domain):
        ev = generate_event(desk_domain, EventKind.TRAITS_REDUCED, 3)
        assert decompose_mixed(desk_domain, ev) == [ev]


class TestRepair:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
    def test_every_kind_yields_valid_solution(self, kind):
        domain = generate_problem(3, 4, 5, 3)
        result = _solved(domain)
        ev = generate_event(domain, kind, seed=11)
        new_domain = apply_event(domain, ev)
        repaired = repair(result.state, result.solution, ev)
        assert heap_violations(repaired.state) == []
        if repaired.solution is None:
            # acceptable only when the mutated domain truly has no solution
            fresh = search(new_domain, 0.25)
            assert fresh.solution is None
        else:
            assert solution_violations(new_domain, repaired.solution, repaired.state) == []

    def test_requirements_reduced_keeps_old_allocation(self):
        """A strictly easier problem re-certifies the old solution directly."""
        domain = generate_problem(1, 3, 4, 3)
        result = _solved(domain)
        ev = generate_event(domain, EventKind.REQUIREMENTS_REDUCED, 9)
        before = result.solution.allocation.key()
        repaired = repair(result.state, result.solution, ev)
        assert repaired.reason == "solved"
        assert repaired.solution.allocation.key() == before
        assert repaired.state.stats.expansions == result.state.stats.expansions

    def test_a_repair_gets_its_own_expansion_budget(self, desk_solved):
        """The expansion limit counts the repair's own expansions, not the
        state's since its first search."""
        state = copy.deepcopy(desk_solved.state)
        state.stats.expansions = 100_000
        ev = generate_event(state.domain, EventKind.DURATION_CHANGED, 11)
        repaired = repair(state, None, ev)
        assert repaired.reason == "solved"
        assert state.stats.expansions > 100_000

    def test_agent_loss_drops_affected_nodes(self):
        domain = generate_problem(2, 3, 4, 3)
        result = _solved(domain)
        lost = "r0"
        ev = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": lost})
        repaired = repair(result.state, result.solution, ev)
        for node in repaired.state.nodes.values():
            assert node.allocation.entries.shape[1] == domain.n_robots - 1
        for batch, _, key, _, _ in pending_members(repaired.state):
            assert member_allocation(batch, key).entries.shape[1] == domain.n_robots - 1
        if repaired.solution is not None:
            new_domain = apply_event(domain, ev)
            assert solution_violations(new_domain, repaired.solution, repaired.state) == []

    def test_losing_the_slowest_robot_refreshes_the_bounds(self):
        domain = generate_problem(2, 3, 4, 3)
        state = _solved(domain).state
        speeds = domain.world.robot_speeds
        ev = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": min(speeds, key=speeds.get)})
        ub = state.ub
        state.domain = apply_event(domain, ev)
        repair_mod.handle_agent_or_task_loss(state, ev, domain)
        durations = [t.duration for t in state.domain.network.tasks]
        assert state.ub == schedule_upper_bound(
            state.domain.world, durations, state.roadmap.total_edge_length
        )
        assert state.ub < ub
        assert heap_violations(state) == []
        assert score_violations(state) == []

    @pytest.mark.parametrize("kind", ROW_KINDS, ids=[k.value for k in ROW_KINDS])
    def test_row_change_rescans_stale_nodes_only_when_favorable(self, kind):
        """A risen capability or a fallen requirement can make a closed or
        pruned allocation viable, so only then are those nodes rescored; the
        frontier is rescored either way."""
        domain = generate_problem(1, 3, 4, 3)
        state = _solved(domain).state
        ev = generate_event(domain, kind, 9)
        stale = {
            id(n): (n, n.apr, n.status) for n in state.nodes.values() if n.status != OPEN
        }
        state.domain = apply_event(domain, ev)
        repair_mod.handle_row_change(state, ev)
        team, req = state.domain.team, state.domain.requirements
        fresh = {k: apr_value(n.allocation, team, req) for k, (n, _, _) in stale.items()}
        assert any(fresh[k] != apr for k, (_, apr, _) in stale.items())
        favorable = kind in (EventKind.TRAITS_INCREASED, EventKind.REQUIREMENTS_REDUCED)
        for k, (node, apr, status) in stale.items():
            if favorable:
                assert node.apr == fresh[k]
            else:
                assert (node.apr, node.status) == (apr, status)
        assert heap_violations(state) == []
        assert score_violations(state) == []

    def test_new_agent_widens_every_node(self):
        domain = generate_problem(4, 3, 4, 3)
        result = _solved(domain)
        ev = generate_event(domain, EventKind.NEW_AGENT, 13)
        repaired = repair(result.state, result.solution, ev)
        for node in repaired.state.nodes.values():
            assert node.allocation.entries.shape[1] == domain.n_robots + 1
        members = list(pending_members(repaired.state))
        assert members
        for batch, _, key, _, _ in members:
            assert member_allocation(batch, key).entries.shape[1] == domain.n_robots + 1

    def test_repair_on_copied_state_matches_original(self):
        """Timing harnesses deepcopy the state; repair must accept the copy."""
        domain = generate_problem(5, 3, 4, 3)
        result = _solved(domain)
        ev = generate_event(domain, EventKind.TRAITS_REDUCED, 21)
        copied = copy.deepcopy(result.state)
        a = repair(copied, result.solution, ev)
        b = repair(result.state, result.solution, ev)
        assert (a.solution is None) == (b.solution is None)
        if a.solution is not None:
            assert a.solution.allocation.key() == b.solution.allocation.key()
            assert a.solution.makespan == pytest.approx(b.solution.makespan, abs=1e-9)

    def test_a_deep_copy_shares_the_roadmap(self):
        """A deep copy shares the roadmap, whose only mutable part is its
        deterministic tree cache: repairing the copy grows the shared trees,
        and the original's next repair is still that of a pickled twin,
        which has a roadmap of its own."""
        # a roadmap seed no other test builds, so no other test grew its trees
        solved = _solved(generate_problem(0, 4, 5, 3), seed=31)
        original = solved.state
        twin = pickle.loads(pickle.dumps(original))
        copied = copy.deepcopy(original)
        assert copied.roadmap is original.roadmap
        assert twin.roadmap is not original.roadmap
        trees = original.roadmap.trees

        def settled():
            return sum(sum(tree[2]) for tree in trees.values())

        before = settled()
        lost = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": "r0"})
        assert repair(copied, solved.solution, lost).reason == "solved"
        assert settled() > before

        def outputs(state):
            event = generate_event(state.domain, EventKind.TRAITS_REDUCED, 3)
            out = repair(state, solved.solution, event)
            cache = state.plan_cache
            return (
                out.reason,
                out.solution.makespan,
                out.solution.schedule.start_times,
                out.solution.allocation.key(),
                dataclasses.astuple(state.stats),
                (cache.planner_calls, cache.hits),
            )

        assert outputs(original) == outputs(twin)

    def test_a_deep_copy_shares_its_schedules_problems_and_plans(self):
        """Nothing writes a schedule, a scheduling problem or a motion plan
        once built, so a deep copy of a solved state shares its nodes'
        schedules, its schedule memo's and its plan cache's plans."""
        state = _solved(generate_problem(0, 4, 5, 3)).state
        copied = copy.deepcopy(state)
        exact = [key for key, node in state.nodes.items() if node.exact]
        assert exact
        for key in exact:
            assert copied.nodes[key].schedule is state.nodes[key].schedule
        assert copied.schedule_memo.keys() == state.schedule_memo.keys()
        assert all(copied.schedule_memo[k] is v for k, v in state.schedule_memo.items())
        plans = state.plan_cache.entries
        assert any(p is not None for p in plans.values())
        assert all(copied.plan_cache.entries[k] is v for k, v in plans.items())
        problem = build_scheduling_problem(state.nodes[exact[0]].allocation, state.price_memo)
        assert copy.deepcopy(problem) is problem

    def test_noop_duration_change_is_idempotent(self):
        domain = generate_problem(6, 3, 4, 3)
        result = _solved(domain)
        task = domain.network.tasks[0]
        ev = DynamicEvent(
            0.0, EventKind.DURATION_CHANGED, {"task": task.id, "duration": task.duration}
        )
        repaired = repair(result.state, result.solution, ev)
        assert repaired.reason == "solved"
        assert repaired.solution.allocation.key() == result.solution.allocation.key()
        assert repaired.solution.makespan == pytest.approx(
            result.solution.makespan, abs=1e-9
        )

    def test_negative_event_time_rejected(self):
        with pytest.raises(Exception):
            DynamicEvent(-1.0, EventKind.AGENT_LOST, {"agent": "r0"})

    @pytest.mark.parametrize(
        "kind, payload",
        [
            (EventKind.DURATION_CHANGED, {"task": "t0", "duration": math.inf}),
            (EventKind.AGENT_LOST, {"agent": "ghost"}),
            (
                EventKind.NEW_AGENT,
                {"agent": {"id": "rx", "traits": {}, "start": [math.nan, 1.0], "speed": 1.0}},
            ),
            (
                EventKind.NEW_AGENT,
                {"agent": {"id": "rx", "traits": {}, "start": [-5.0, 1.0], "speed": 1.0}},
            ),
            (EventKind.TASK_LOST, {"task": "nope"}),
            (
                EventKind.NEW_AGENT,
                {"agent": {"id": "rx", "traits": {}, "start": [5.0, 5.0], "speed": "fast"}},
            ),
            (EventKind.DURATION_CHANGED, {"task": "t0", "duration": True}),
            (
                EventKind.NEW_AGENT,
                {"agent": {"id": "rx", "traits": {}, "start": "55", "speed": 1.0}},
            ),
            (
                EventKind.NEW_AGENT,
                {"agent": {"id": "r0", "traits": {}, "start": [5.0, 5.0], "speed": 1.0}},
            ),
        ],
        ids=["infinite-duration", "unknown-agent", "nan-start", "start-out-of-bounds",
             "unknown-task", "speed-not-a-number", "duration-bool", "start-string",
             "repeated-agent-id"],
    )
    def test_refused_event_leaves_the_state_untouched(self, kind, payload):
        domain = generate_problem(100, 3, 4, 3)
        result = _solved(domain)
        state = result.state
        node = state.nodes[result.solution.allocation.key()]
        before = _untouched(state)
        assert node.status == CLOSED
        with pytest.raises(DomainError):
            repair(state, result.solution, DynamicEvent(0.0, kind, payload))
        assert _untouched(state) == before

    def test_solution_outside_the_graph_is_refused(self):
        # after r1 is lost the graph holds 4x2 allocations; the pre-loss
        # solution is 4x3 and belongs to no node of it
        domain = generate_problem(5, 3, 4, 3)
        result = _solved(domain)
        state = result.state
        loss = DynamicEvent(0.0, EventKind.AGENT_LOST, {"agent": "r1"})
        repair(state, result.solution, loss)

        def snapshot():
            statuses = {key: node.status for key, node in state.nodes.items()}
            return statuses, len(state.open_heap), state.domain

        before = snapshot()
        event = DynamicEvent(0.0, EventKind.DURATION_CHANGED, {"task": "t1", "duration": 3.0})
        with pytest.raises(DomainError, match="not in this state's graph"):
            repair(state, result.solution, event)
        assert snapshot() == before


@pytest.fixture(scope="module")
def desk_solved():
    """Desk 0 at 4 robots and 5 tasks, solved once; tests copy before mutating."""
    return _solved(generate_problem(0, 4, 5, 3))


class TestIndependentValidation:
    """``solution_violations`` prices every trip afresh, never from the
    solver's plan cache."""

    def test_a_wrong_cached_plan_is_flagged(self):
        domain = generate_problem(0, 4, 5, 3)
        result = _solved(domain)
        state = copy.deepcopy(result.state)
        # every cached trip made free: a schedule solved on these prices
        # ignores travel, which only fresh prices can show
        cache = state.plan_cache.entries
        for key, plan in cache.items():
            cache[key] = dataclasses.replace(plan, duration=0.0)
        memo = _memo(domain, state.roadmap, state.plan_cache)
        problem = build_scheduling_problem(result.solution.allocation, memo)
        planted = dataclasses.replace(result.solution, schedule=solve_schedule(problem))
        assert solution_violations(domain, result.solution, state) == []
        assert solution_violations(domain, planted, state) != []

    @staticmethod
    def _planted(result, plant):
        """The solution with ``plant`` applied to a copy of its plans; the
        untouched solution must pass."""
        assert solution_violations(result.state.domain, result.solution, result.state) == []
        plans = dict(result.solution.motion_plans)
        plant(plans)
        solution = dataclasses.replace(result.solution, motion_plans=plans)
        return solution_violations(result.state.domain, solution, result.state)

    def test_a_shortcut_off_the_roadmap_is_flagged(self, desk_solved):
        def plant(plans):
            key, p = next((k, p) for k, p in plans.items() if len(p.waypoints) > 2)
            frm, to = key[-2:]
            plans[key] = dataclasses.replace(p, waypoints=(frm, to), length=math.dist(frm, to))

        found = self._planted(desk_solved, plant)
        assert any("is not a roadmap edge" in v for v in found), found

    def test_a_wrong_endpoint_is_flagged(self, desk_solved):
        def plant(plans):
            keys = list(plans)
            other = next(k for k in keys if k[-1] != keys[0][-1])
            plans[keys[0]] = plans[other]

        found = self._planted(desk_solved, plant)
        assert any(" runs " in v for v in found), found

    def test_a_dropped_trip_is_flagged(self, desk_solved):
        def plant(plans):
            trips = [key[-2:] for key in plans]
            del plans[next(k for k in plans if trips.count(k[-2:]) == 1)]

        found = self._planted(desk_solved, plant)
        assert any(v.startswith("no plan for") for v in found), found

    def test_desk_agent_loss_is_refused_or_priced_afresh(self, monkeypatch):
        """Losing r0 on desk 0 shifts the robot positions the plan cache is
        keyed by, so the repair solves on stale prices. The
        scenario must be refused, or report the fresh optimum of the
        repaired allocation."""
        domain = generate_problem(0, 4, 5, 3)
        event = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": "r0"})
        repaired = []

        def spy(*args):
            repaired.append(repair(*args))
            return repaired[-1]

        monkeypatch.setattr(runner, "repair", spy)
        try:
            result = run_scenario(domain, [event], "repair", alpha=0.25, repetitions=1)
        except ScenarioError as exc:
            assert "violated" in str(exc)
            return
        after, last = apply_event(domain, event), repaired[-1]
        memo = _memo(after, last.state.roadmap, motion.PlanCache())
        problem = build_scheduling_problem(last.solution.allocation, memo)
        fresh = solve_schedule(problem).makespan
        assert result.records[-1].makespan == pytest.approx(fresh, abs=1e-9)

    @pytest.mark.parametrize("seed", [8, 22, 40, 54, 58])
    def test_a_trait_change_keeps_twin_robots_priced(self, seed):
        """r1 is r0's twin, in trait row and speed, and r2 is 2.5 times as
        fast. Cutting r0's traits makes the twins differ, and the repair
        must still price every trip at its own robot's speed."""
        domain = generate_problem(seed, 3, 4, 2)
        entries = domain.team.entries.copy()
        entries[1] = entries[0]
        speeds = dict(domain.world.robot_speeds)
        speeds["r1"], speeds["r2"] = speeds["r0"], 2.5 * speeds["r0"]
        domain = dataclasses.replace(
            domain,
            team=dataclasses.replace(domain.team, entries=entries),
            world=dataclasses.replace(domain.world, robot_speeds=speeds),
        )
        result = search(domain, 0.25)
        cut = {n: 0.9 * v for n, v in zip(domain.team.trait_names, entries[0].tolist())}
        event = DynamicEvent(1.0, EventKind.TRAITS_REDUCED, {"agent": "r0", "traits": cut})
        repaired = repair(result.state, result.solution, event)
        after = apply_event(domain, event)
        memo = _memo(after, repaired.state.roadmap, motion.PlanCache())
        problem = build_scheduling_problem(repaired.solution.allocation, memo)
        assert solution_violations(after, repaired.solution, repaired.state) == []
        assert repaired.solution.makespan == solve_schedule(problem).makespan


def _memo(domain, roadmap, cache: motion.PlanCache) -> PriceMemo:
    """A price memo whose own planner plans through ``cache``."""
    return PriceMemo(domain, motion.Planner(domain, roadmap, cache))


def _eager_demote_frontier(state, slack):
    """Reference: the eager rescore that lazy demotion replaced.

    Every floor is lowered by ``slack`` as the lazy path does; then every
    exact open node is re-solved on the spot and every lazy one, and every
    pending child, falls to the trivial floor. The handler's re-key
    follows, as it does the lazy demotion.
    """
    for node in state.nodes.values():
        node.floor = max(0.0, node.floor - slack)
    for batch in state.batches:
        batch.floor = 0.0
    for node in state.open_nodes():
        if node.exact:
            materialize(state, node)
        else:
            node.floor = 0.0
            demote([node])


def _scaled_duration(domain, task, factor):
    t = domain.network.tasks[task]
    return DynamicEvent(
        1.0, EventKind.DURATION_CHANGED, {"task": t.id, "duration": t.duration * factor}
    )


def _event_chain(domain, case, seed):
    """The events of one differential case, each drawn on the domain before it."""
    if case == "duration_up":
        return [_scaled_duration(domain, seed % domain.n_tasks, 1.7)]
    if case == "duration_down":
        return [_scaled_duration(domain, seed % domain.n_tasks, 0.3)]
    if case == "task_lost":
        return [generate_event(domain, EventKind.TASK_LOST, seed)]
    first = generate_event(domain, EventKind.TRAITS_REDUCED, seed)
    after = apply_event(domain, first)
    return [first, generate_event(after, EventKind.DURATION_CHANGED, seed + 1)]


@pytest.fixture(scope="module")
def solved_desks():
    """The acceptance suite's first ten desk domains, solved once per alpha.

    Tests repair deep copies only, so the solved states stay untouched.
    """
    shapes = ((3, 4), (2, 4), (3, 3), (2, 3), (3, 2))
    domains = [generate_problem(100 + i, *shapes[i % 5], 3) for i in range(10)]
    return {alpha: [(d, _solved(d, alpha)) for d in domains] for alpha in (0.0, 0.25)}


def _mixed_trait_event(domain):
    """Sign-mixed row change: a robot's largest trait halves, its smallest
    rises by 1 (the robot whose traits differ most)."""
    entries = domain.team.entries
    i = int(np.argmax(entries.max(axis=1) - entries.min(axis=1)))
    row = np.array(entries[i])
    row[int(np.argmax(row))] *= 0.5
    row[int(np.argmin(entries[i]))] += 1.0
    traits = dict(zip(domain.team.trait_names, row.tolist()))
    return DynamicEvent(
        1.0, EventKind.TRAITS_INCREASED, {"agent": domain.team.robot_ids[i], "traits": traits}
    )


class TestScoreAudit:
    """Every OPEN node's scores stay current (``conftest.score_violations``)."""

    GROUPS = [k.value for k in EventKind] + ["mixed", "multi"]

    def test_after_fresh_searches(self, solved_desks):
        for results in solved_desks.values():
            for i, (_, result) in enumerate(results):
                assert score_violations(result.state) == [], i

    @pytest.mark.parametrize("group", GROUPS)
    def test_after_every_repair_group(self, group, solved_desks, monkeypatch):
        """Checked when the surgery hands over to the resumed search, and
        once the repair returns."""
        real_run_search = repair_mod.run_search

        def audited_run_search(state, *args, **kwargs):
            assert score_violations(state) == []
            return real_run_search(state, *args, **kwargs)

        monkeypatch.setattr(repair_mod, "run_search", audited_run_search)
        for i, (domain, result) in enumerate(solved_desks[0.25]):
            if group == "mixed":
                events = [_mixed_trait_event(domain)]
                assert len(decompose_mixed(domain, events[0])) == 2, i
            elif group == "multi":
                events = _event_chain(domain, "traits_then_duration", 3000 + i)
            else:
                events = [generate_event(domain, EventKind(group), 3000 + i)]
            state, solution = copy.deepcopy(result.state), result.solution
            for ev in events:
                out = repair(state, solution, ev)
                state, solution = out.state, out.solution
                assert score_violations(state) == [], (i, ev)
                assert heap_violations(state) == [], (i, ev)


class TestLazyFrontier:
    """Repair demotes the frontier to sound floors and re-solves on pop."""

    @pytest.mark.parametrize(
        "seed,shape,kind,event_seed",
        [
            (100, (3, 4, 3), EventKind.DURATION_CHANGED, 100001),
            (101, (2, 4, 3), EventKind.TASK_LOST, 101002),
        ],
        ids=["duration_changed", "task_lost"],
    )
    def test_open_floors_stay_below_the_optimum(self, seed, shape, kind, event_seed):
        domain = generate_problem(seed, *shape)
        result = _solved(domain)
        ev = generate_event(domain, kind, event_seed)
        repaired = repair(result.state, result.solution, ev)
        state = repaired.state
        frontier = [(n.allocation, n.floor) for n in state.nodes.values() if n.status == OPEN]
        frontier += [(member_allocation(b, key), b.floor) for b, _, key, _, _ in pending_members(state)]
        assert frontier
        for alloc, floor in frontier:
            sched = evaluate(state, alloc)
            if sched is not None:
                assert floor <= sched.makespan + 1e-9

    @pytest.mark.parametrize("case", ["duration_up", "duration_down", "task_lost"])
    def test_every_floor_stays_below_the_optimum(self, case, solved_desks):
        """Closed and pruned nodes too: a revived node or a lazy child hands
        its floor to the scheduler, which stops as soon as it is met."""
        for i, (domain, result) in enumerate(solved_desks[0.25]):
            state = copy.deepcopy(result.state)
            (ev,) = _event_chain(domain, case, 2000 + i)
            state = repair(state, result.solution, ev).state
            memo = _memo(state.domain, state.roadmap, state.plan_cache)
            statuses = set()
            floors = [(node.allocation, node.floor, node.status) for node in state.nodes.values()]
            floors += [
                (member_allocation(batch, key), batch.floor, "pending")
                for batch, _, key, _, _ in pending_members(state)
            ]
            for alloc, floor, status in floors:
                statuses.add(status)
                sched = solve_schedule(build_scheduling_problem(alloc, memo))
                if sched is not None:
                    assert floor <= sched.makespan + 1e-9, (i, status)
            assert {CLOSED, "pending"} <= statuses, i

    @pytest.mark.parametrize(
        "case", ["duration_up", "duration_down", "task_lost", "traits_then_duration"]
    )
    @pytest.mark.parametrize("keep_solution", [True, False], ids=["solution", "resume"])
    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    def test_matches_eager_resolving(
        self, case, keep_solution, alpha, solved_desks, monkeypatch
    ):
        """Same solution, makespan and expansions as re-solving eagerly.

        Without the old solution the resumed pop loop has no incumbent near
        the top and has to walk the demoted frontier; at alpha 0 the
        frontier is ordered by makespan alone, so any floor that breaks the
        order shows.
        """
        for i, (domain, result) in enumerate(solved_desks[alpha]):
            events = _event_chain(domain, case, 1000 + i)
            outcomes = []
            for eager in (False, True):
                state = copy.deepcopy(result.state)
                solution = result.solution if keep_solution else None
                with monkeypatch.context() as m:
                    if eager:
                        m.setattr(repair_mod, "_demote_frontier", _eager_demote_frontier)
                    for ev in events:
                        out = repair(state, solution, ev)
                        state, solution = out.state, out.solution
                assert heap_violations(state) == []
                outcomes.append(out)
            lazy, eager = outcomes
            assert lazy.reason == eager.reason, i
            assert lazy.state.stats.expansions == eager.state.stats.expansions, i
            assert (lazy.solution is None) == (eager.solution is None), i
            if lazy.solution is not None:
                assert lazy.solution.allocation.key() == eager.solution.allocation.key(), i
                assert lazy.solution.makespan == pytest.approx(
                    eager.solution.makespan, abs=1e-9
                ), i

    def test_duration_change_solves_only_the_old_solution(self):
        domain = generate_problem(100, 3, 4, 3)
        result = _solved(domain)
        stats = result.state.stats
        # eager rescoring would re-solve every one of these
        assert sum(n.exact for n in result.state.open_nodes()) > 1
        calls, expansions = stats.scheduler_calls, stats.expansions
        ev = generate_event(domain, EventKind.DURATION_CHANGED, 100001)
        repaired = repair(result.state, result.solution, ev)
        assert repaired.solution.allocation.key() == result.solution.allocation.key()
        assert stats.scheduler_calls - calls <= 1
        assert stats.expansions == expansions


def _handle(state, event, old_domain, incumbent=None):
    """Run one pure event's handler on a state whose domain is already set;
    a loss handler is given ``incumbent``."""
    if event.kind in (EventKind.AGENT_LOST, EventKind.TASK_LOST):
        repair_mod.handle_agent_or_task_loss(state, event, old_domain, incumbent)
    elif event.kind in repair_mod.ROW_CHANGES:
        repair_mod.handle_row_change(state, event)
    elif event.kind == EventKind.DURATION_CHANGED:
        repair_mod.handle_duration_change(state, event, old_domain)
    else:
        repair_mod.handle_new_agent(state, event)


class TestHandlerContract:
    """Every handler ends in the shared re-key: the heap and every open
    node's scores are current, and the bounds are those of the new domain
    and roadmap."""

    @staticmethod
    def _apply(state, event, incumbent=None):
        old = state.domain
        state.domain = apply_event(old, event)
        _handle(state, event, old, incumbent)
        assert heap_violations(state) == []
        assert score_violations(state) == []
        durations = [t.duration for t in state.domain.network.tasks]
        ub = schedule_upper_bound(state.domain.world, durations, state.roadmap.total_edge_length)
        assert (state.lb, state.ub) == (schedule_lower_bound(durations), ub)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
    def test_each_kind(self, kind, desk_solved):
        state = copy.deepcopy(desk_solved.state)
        event = generate_event(state.domain, kind, 11)
        if kind == EventKind.AGENT_LOST:  # the slowest robot, so that ub moves
            speeds = state.domain.world.robot_speeds
            event = DynamicEvent(1.0, kind, {"agent": min(speeds, key=speeds.get)})
        self._apply(state, event)

    def test_a_new_agent_after_an_agent_loss(self, desk_solved, monkeypatch):
        """The loss shifts the robot positions, so the new agent's handler
        drops mispriced plans and demotes the frontier."""
        state = copy.deepcopy(desk_solved.state)
        self._apply(state, DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": "r0"}))
        dropped = []
        real = motion.drop_mispriced_plans

        def spy(*args):
            dropped.append(real(*args))
            return dropped[-1]

        monkeypatch.setattr(motion, "drop_mispriced_plans", spy)
        self._apply(state, generate_event(state.domain, EventKind.NEW_AGENT, 7))
        assert dropped and dropped[0] > 0

    @staticmethod
    def _registrations(monkeypatch):
        """(node, floor) of every node the loss handler registers itself; a
        pending member built as a node is not one of them."""
        made = []
        real = repair_mod.make_node

        def spy(state, alloc, parent, apr, floor, seq):
            made.append((real(state, alloc, parent, apr, floor, seq), floor))
            return made[-1][0]

        monkeypatch.setattr(repair_mod, "make_node", spy)
        return made

    def test_an_agent_loss_registers_the_projection_once(self, desk_solved, monkeypatch):
        """Losing a robot the incumbent used registers the incumbent minus
        that robot's column as one new node: a fresh seq, the nearest
        surviving ancestor as parent, that ancestor's floor, which is sound,
        and an apr current in the new domain."""
        state = copy.deepcopy(desk_solved.state)
        incumbent = state.nodes[desk_solved.solution.allocation.key()]
        event, idx, axis = _projection_case(state, incumbent, "new", EventKind.AGENT_LOST)
        projection = np.delete(incumbent.allocation.entries, idx, axis=axis)
        made = self._registrations(monkeypatch)
        seq = state.next_seq
        self._apply(state, event, incumbent)

        node = state.nodes[projection.tobytes()]
        assert [registered for registered, _ in made] == [node]
        assert np.array_equal(node.allocation.entries, projection)
        assert node.allocation.key() not in state.pending_keys
        assert (node.seq, state.next_seq) == (seq, seq + 1)
        anchor = incumbent.parent  # the nearest ancestor still in the graph
        while state.nodes.get(anchor.allocation.key()) is not anchor:
            anchor = anchor.parent
        assert node.parent is anchor
        fresh = _memo(state.domain, state.roadmap, motion.PlanCache())
        optimum = solve_schedule(build_scheduling_problem(node.allocation, fresh)).makespan
        assert made[0][1] == anchor.floor <= optimum + 1e-9
        assert node.apr == apr_value(node.allocation, state.domain.team, state.domain.requirements)

    def test_a_task_loss_returns_the_projection_without_expanding(self, desk_solved):
        """Each task lost in turn: the repair returns the old allocation
        minus the task's row with no expansion, after one lazy pop, the
        revived projection's."""
        solution = desk_solved.solution
        for m, task in enumerate(desk_solved.state.domain.network.tasks):
            state = copy.deepcopy(desk_solved.state)
            expansions = state.stats.expansions
            event = DynamicEvent(1.0, EventKind.TASK_LOST, {"task": task.id})
            result, pops = lazy_pops(lambda: repair(state, solution, event))
            projection = np.delete(solution.allocation.entries, m, axis=0)
            assert np.array_equal(result.solution.allocation.entries, projection)
            assert (state.stats.expansions, pops[0]) == (expansions, 1)
            assert solution_violations(state.domain, result.solution, state) == []
            assert heap_violations(state) == []

    @pytest.mark.parametrize("where", ["node", "member"])
    def test_a_projection_already_in_the_graph_is_revived(
        self, where, desk_domain, monkeypatch
    ):
        """When the incumbent's projection is a surviving node, that node is
        revived; when it is a pending member, the member is built as a node
        (its reserved seq, its batch's parent) and revived. Either way it is
        open and lazy, to be solved when a pop reaches it. No node is
        registered, and no second entry with that key appears."""
        result = _solved(desk_domain)
        state = copy.deepcopy(result.state)
        incumbent = state.nodes[result.solution.allocation.key()]
        event, idx, axis = _projection_case(state, incumbent, where)
        old_key = _zeroed(incumbent.allocation.entries, idx, axis).tobytes()
        if where == "node":
            existing = state.nodes[old_key]
        else:
            batch = next(b for b in state.batches if old_key in b.keys)
            member = batch.seqs[batch.keys.index(old_key)], batch.parent
        made = self._registrations(monkeypatch)
        seq = state.next_seq
        self._apply(state, event, incumbent)

        assert made == [] and state.next_seq == seq
        projection = np.delete(incumbent.allocation.entries, idx, axis=axis)
        key = projection.tobytes()
        node = state.nodes[key]
        if where == "node":
            assert node is existing
        else:
            assert (node.seq, node.parent) == member
        assert np.array_equal(node.allocation.entries, projection)
        assert key not in state.pending_keys
        assert node.status == OPEN and not node.exact


def _zeroed(entries, idx, axis):
    """``entries`` with column (axis 1) or row (axis 0) ``idx`` cleared."""
    out = np.array(entries)
    out.swapaxes(0, axis)[idx] = 0
    return out


def _loss_events(domain):
    """Each robot's loss event, then each task's."""
    agents = [DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": r}) for r in domain.team.robot_ids]
    tasks = [DynamicEvent(1.0, EventKind.TASK_LOST, {"task": t.id}) for t in domain.network.tasks]
    return agents + tasks


def _projection_case(state, incumbent, where, kind=None):
    """The first loss event (of ``kind``, if given) that drops ``incumbent``
    and whose projection, taken in the old domain as the incumbent with the
    lost column or row cleared, is ``"new"`` to the graph, a ``"node"`` or a
    pending ``"member"``; with its (index, axis)."""
    domain = state.domain
    for event in _loss_events(domain):
        if kind is not None and event.kind != kind:
            continue
        if event.kind == EventKind.AGENT_LOST:
            idx, axis = domain.team.robot_ids.index(event.payload["agent"]), 1
        else:
            idx, axis = [t.id for t in domain.network.tasks].index(event.payload["task"]), 0
        entries = incumbent.allocation.entries
        if not entries.take(idx, axis=axis).any():
            continue
        key = _zeroed(entries, idx, axis).tobytes()
        found = "node" if key in state.nodes else "member" if key in state.pending_keys else "new"
        if found == where:
            return event, idx, axis
    raise AssertionError(f"no loss whose projection is {where}")


# acceptance criterion 2's first ten desk domains (every shape twice) and
# three alphas, the last just below the a-priori bound's limit
ENVELOPE_DESKS = range(10)
ENVELOPE_ALPHAS = (0.0, 0.25, 0.45)
# (desk, alpha, chain) of the loss repairs the envelope flags because of
# ROADMAP item 1: an agent loss shifts the robot positions that key the plan
# cache, so the survivors' trips are served at another robot's speed.
# ``test_the_known_faults_are_the_stale_plan_cache`` shows each is clean
# when the cache is emptied before every repair
STALE_CACHE_FAULTS = {
    (2, 0.0, "r0"),
    (2, 0.0, "r1"),
    (2, 0.0, "r0,t2"),
    (2, 0.25, "r0"),
    (2, 0.25, "r0,t2"),
    (2, 0.45, "r0"),
    (2, 0.45, "r0,t2"),
    (7, 0.0, "r1"),
}


def _loss_chains(domain):
    """Each robot lost, each task lost, and the first robot then the last
    task lost, by label."""
    events = _loss_events(domain)
    chains = [[event] for event in events] + [[events[0], events[-1]]]
    return {",".join(next(iter(e.payload.values())) for e in chain): chain for chain in chains}


def _envelope_problems(state, solution, alpha):
    """What a repaired desk state breaks of what a fresh search keeps.

    The solution must pass ``solution_violations``, and its gap to the
    brute-force optimum must be within the a-priori and the post-hoc bound;
    the heap and every score must be current; every node's floor, and
    every pending member's, must be at most that allocation's optimum. The
    optimum and the floors' references are priced afresh on the state's
    roadmap, never through its plan cache.
    """
    domain = state.domain
    travel = motion.Planner(domain, state.roadmap, motion.PlanCache())
    optimal = brute_force_optimal_makespan(domain, travel)
    if solution is None:
        return [] if math.isinf(optimal) else [f"no solution, optimum {optimal}"]
    problems = solution_violations(domain, solution, state)
    gap = solution.makespan - optimal
    frontier = open_frontier(state)
    bounds = {
        "a-priori": time_optimality_bound(alpha, state.lb, state.ub),
        "post-hoc": posthoc_bound(alpha, state.lb, state.ub, solution.makespan, frontier),
    }
    problems += [
        f"gap {gap} > {name} bound {b}" for name, b in bounds.items() if gap > b + BOUND_TOL
    ]
    problems += heap_violations(state) + score_violations(state)
    memo = PriceMemo(domain, travel)

    def optimum(alloc):
        schedule = solve_schedule(build_scheduling_problem(alloc, memo))
        return math.inf if schedule is None else schedule.makespan

    floors = [(f"node {n.seq}", n.floor, n.allocation) for n in state.nodes.values()]
    floors += [
        (f"pending {seq}", batch.floor, member_allocation(batch, key))
        for batch, _, key, _, seq in pending_members(state)
    ]
    problems += [
        f"{name}: floor {floor} > optimum {optimum(alloc)}"
        for name, floor, alloc in floors
        if floor > optimum(alloc) + BOUND_TOL
    ]
    return problems


def _chain_problems(result, alpha, chain, fresh_cache=False):
    """Repair a pickled copy of ``result``'s state through ``chain``; the
    envelope problems after each step. ``fresh_cache`` empties the plan
    cache before every repair."""
    state, solution = pickle.loads(pickle.dumps(result.state)), result.solution
    problems = []
    for event in chain:
        if fresh_cache:
            state.plan_cache = motion.PlanCache()
        out = repair(state, solution, event)
        solution = out.solution
        problems += _envelope_problems(state, solution, alpha)
        if solution is None:
            break
    return problems


class TestLossEnvelope:
    """Every loss repair at desk scale, against the brute-force optimum."""

    @pytest.mark.parametrize("desk", ENVELOPE_DESKS)
    def test_every_loss_repair_stays_in_the_envelope(self, desk):
        domain = desk_domains()[desk]
        flagged = {}
        for alpha in ENVELOPE_ALPHAS:
            result = search(domain, alpha)
            for label, chain in _loss_chains(domain).items():
                problems = _chain_problems(result, alpha, chain)
                if problems:
                    flagged[desk, alpha, label] = problems
        known = {case for case in STALE_CACHE_FAULTS if case[0] == desk}
        assert set(flagged) == known, flagged

    def test_the_known_faults_are_the_stale_plan_cache(self):
        for desk, alpha, label in sorted(STALE_CACHE_FAULTS):
            domain = desk_domains()[desk]
            chain = _loss_chains(domain)[label]
            assert _chain_problems(search(domain, alpha), alpha, chain, fresh_cache=True) == []

    @pytest.mark.parametrize(
        "desk, kind, seed",
        [(17, EventKind.REQUIREMENTS_REDUCED, 1), (17, EventKind.NEW_AGENT, 0)],
        ids=["requirements_reduced", "new_agent"],
    )
    def test_a_repair_takes_a_goal_only_from_the_top(self, desk, kind, seed):
        """A favorable event makes another allocation better than the old
        solution, which is still a goal: at alpha 0 returning the old one
        without a pop breaks both bounds (by 26.5 and 76.4)."""
        result = search(desk_domains()[desk], 0.0)
        event = generate_event(result.state.domain, kind, seed)
        assert _chain_problems(result, 0.0, [event]) == []

    def test_an_unsound_projection_floor_is_caught(self, monkeypatch):
        """A floor far above every makespan on the projected node: its solve
        stops at its first schedule, which on desk 6 losing t2 is not the
        optimum."""
        domain = desk_domains()[6]
        result = search(domain, 0.25)
        chain = _loss_chains(domain)["t2"]
        assert _chain_problems(result, 0.25, chain) == []
        real = repair_mod._projection

        def planted(*args):
            node = real(*args)
            node.floor += 1e9
            return node

        monkeypatch.setattr(repair_mod, "_projection", planted)
        assert _chain_problems(result, 0.25, chain) != []


# desks of ``ENVELOPE_DESKS`` that take one more robot within the
# brute-force guard and screen a solvable event of every kind: desks 0 and 5
# are 3x4, and desk 8 draws no solvable ``traits_reduced`` in 30 tries.
# Desk 6, a second 2x4, is left out to keep both alphas near 2.5 s
EVENT_DESKS = (1, 2, 3, 4, 7, 9)
NON_LOSS_KINDS = [k for k in EventKind if k not in (EventKind.AGENT_LOST, EventKind.TASK_LOST)]


class TestEventEnvelope:
    """One repair of each non-loss kind, and a new agent after an agent
    loss, at desk scale against the brute-force optimum, with the checks of
    ``TestLossEnvelope``."""

    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    def test_every_event_repair_stays_in_the_envelope(self, alpha, solved_desks):
        flagged = {}
        for desk in EVENT_DESKS:
            domain, result = solved_desks[alpha][desk]
            chains = {
                kind.value: [_screened_event(domain, kind, 4000 + desk)]
                for kind in NON_LOSS_KINDS
            }
            lost = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": "r0"})
            joined = _screened_event(apply_event(domain, lost), EventKind.NEW_AGENT, 4000 + desk)
            chains["r0,new_agent"] = [lost, joined]
            for label, chain in chains.items():
                problems = _chain_problems(result, alpha, chain)
                if problems:
                    flagged[desk, label] = problems
        # a chain whose loss of r0 is a known stale-cache fault
        known = {
            (desk, "r0,new_agent")
            for desk, a, label in STALE_CACHE_FAULTS
            if (a, label) == (alpha, "r0")
        }
        assert set(flagged) == known, flagged


def _distances_from(roadmap, src):
    """Shortest lengths from ``src`` over the roadmap's directed edges (scipy)."""
    rows, cols, lengths = zip(
        *((u, v, ln) for u, edges in roadmap.adjacency.items() for v, ln in edges)
    )
    n = len(roadmap.vertices)
    graph = csr_matrix((lengths, (rows, cols)), shape=(n, n))
    return csgraph_dijkstra(graph, directed=True, indices=src)


@pytest.fixture(scope="module")
def bench_solved():
    """Bench seed 500 solved once; tests repair deep copies only."""
    domain = generate_problem(500, 8, 15, 4)
    return domain, _solved(domain)


class TestNewAgent:
    """A new agent's start is linked into the retained roadmap, which keeps
    every older path, so nothing retained is invalidated."""

    def test_every_old_shortest_path_is_kept(self, bench_solved):
        domain, result = bench_solved
        state = copy.deepcopy(result.state)
        old = state.roadmap
        repair(state, result.solution, generate_event(domain, EventKind.NEW_AGENT, 9000))
        new = state.roadmap
        assert new.vertices[:-1] == old.vertices
        mandatory = motion.mandatory_vertices(domain)
        assert len(mandatory) ** 2 > 1000
        for frm in mandatory:
            for to in mandatory:
                want = motion.plan(old, frm, to, speed=1.0)
                assert motion.plan(new, frm, to, speed=1.0) == want

    def test_repair_keeps_the_roadmap_plans_schedules_and_floors(self, monkeypatch):
        domain = generate_problem(4, 3, 4, 3)
        result = _solved(domain)
        state = result.state
        memoized = motion.build_roadmap(
            domain.world, motion.mandatory_vertices(domain), 200, 8, 0
        )
        assert memoized is state.roadmap
        n_vertices, cache = len(memoized.vertices), state.plan_cache
        kept = [(node, node.floor, node.schedule) for node in state.nodes.values()]
        expansions, calls = state.stats.expansions, state.stats.scheduler_calls
        old = result.solution.allocation.entries
        widened = Allocation(np.hstack([old, np.zeros((old.shape[0], 1), np.int8)]))

        def refused(what):
            def call(*args, **kwargs):
                raise AssertionError(f"a new-agent repair must not {what}")

            return call

        with monkeypatch.context() as m:
            m.setattr(motion, "build_roadmap", refused("rebuild the roadmap"))
            ev = generate_event(domain, EventKind.NEW_AGENT, 13)
            repaired = repair(state, result.solution, ev)

        again = motion.build_roadmap(domain.world, motion.mandatory_vertices(domain), 200, 8, 0)
        assert again is memoized and len(memoized.vertices) == n_vertices
        assert len(state.roadmap.vertices) == n_vertices + 1
        assert state.plan_cache is cache
        for node, floor, schedule in kept:
            assert node.floor == floor and node.schedule is schedule
        assert heap_violations(state) == []
        assert score_violations(state) == []
        assert repaired.solution.allocation.key() == widened.key()
        assert (state.stats.expansions, state.stats.scheduler_calls) == (expansions, calls)

    def test_a_new_agent_after_an_agent_loss_prices_plans_afresh(self):
        """Losing r0 shifts every robot position (ROADMAP item 1), so
        the cache holds plans priced at another robot's speed; the new-agent
        repair that follows must price its solution as a fresh cache does."""
        domain = generate_problem(0, 4, 5, 3)
        result = search(domain, 0.25)
        state = result.state
        ev = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": "r0"})
        lost = repair(state, result.solution, ev)
        repaired = repair(state, lost.solution, generate_event(state.domain, EventKind.NEW_AGENT, 7))
        alloc = repaired.solution.allocation
        memo = _memo(state.domain, state.roadmap, motion.PlanCache())
        fresh = solve_schedule(build_scheduling_problem(alloc, memo))
        assert repaired.solution.makespan == pytest.approx(fresh.makespan, abs=1e-9)
        assert heap_violations(state) == []
        assert score_violations(state) == []

    def test_a_repair_can_assign_the_new_robot(self):
        # two robots of one unit each cannot meet a requirement of three
        domain = build_domain(
            [[1.0], [1.0]], [[3.0]], obstacles=[Circle((10.0, 3.5), 2.0)]
        )
        result = search(domain, 0.25)
        assert result.reason == "exhausted"
        start = (15.0, 2.0)
        agent = {"id": "rx", "traits": {"trait0": 1.0}, "start": list(start), "speed": 2.0}
        ev = DynamicEvent(1.0, EventKind.NEW_AGENT, {"agent": agent})
        repaired = repair(result.state, None, ev)
        assert repaired.reason == "solved"
        assert repaired.solution.allocation.entries.all()
        state = repaired.state
        assert solution_violations(state.domain, repaired.solution, state) == []
        rm = state.roadmap
        dist = _distances_from(rm, rm.vertex_index(start))
        from_start = [
            p for (_, frm, _), p in repaired.solution.motion_plans.items() if frm == start
        ]
        assert from_start
        for p in from_start:
            assert p.length == pytest.approx(dist[rm.vertex_index(p.waypoints[-1])], abs=1e-9)


class TestUnmeetable:
    """Desk 0 without ``r1``: even every robot on every task leaves a
    requirement unmet, so no allocation is valid."""

    LOST = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": "r1"})

    def test_search_and_repair_report_it_before_any_pop(self, desk_solved):
        state = copy.deepcopy(desk_solved.state)
        expansions = state.stats.expansions
        start = time.monotonic()
        lost = repair(state, desk_solved.solution, self.LOST)
        assert (lost.reason, lost.solution) == ("exhausted", None)
        assert state.stats.expansions == expansions
        fresh = search(apply_event(desk_solved.state.domain, self.LOST), 0.25)
        assert fresh.reason == "exhausted" and fresh.state.stats.expansions == 0
        assert time.monotonic() - start < 1.0

    def test_a_new_agent_with_the_lost_traits_repairs_the_kept_state(self, desk_solved):
        domain = desk_solved.state.domain
        state = copy.deepcopy(desk_solved.state)
        assert repair(state, desk_solved.solution, self.LOST).reason == "exhausted"
        r1 = domain.team.robot_ids.index("r1")
        agent = {
            "id": "rx",
            "traits": dict(zip(domain.team.trait_names, domain.team.entries[r1].tolist())),
            "start": list(domain.world.robot_start_configs["r1"]),
            "speed": domain.world.robot_speeds["r1"],
        }
        repaired = repair(state, None, DynamicEvent(2.0, EventKind.NEW_AGENT, {"agent": agent}))
        assert repaired.reason == "solved"
        assert solution_violations(state.domain, repaired.solution, state) == []
        assert heap_violations(state) == [] and score_violations(state) == []


class TestReshaping:
    """Surgery reshapes the retained graph in whole arrays, as validated rebuilds would."""

    @pytest.mark.parametrize("case", ["agent_lost", "task_lost", "new_agent"])
    def test_survivors_match_validated_rebuilds(self, case):
        domain = generate_problem(0, 3, 4, 3)
        state = _solved(domain).state
        before = {id(n): (n, np.array(n.allocation.entries)) for n in state.nodes.values()}
        pending = {
            seq: member_allocation(batch, key).entries
            for batch, _, key, _, seq in pending_members(state)
        }
        size = graph_size(state)
        idx = 1  # neither the first nor the last robot or task
        if case == "agent_lost":
            ev = DynamicEvent(1.0, EventKind.AGENT_LOST, {"agent": domain.team.robot_ids[idx]})
        elif case == "task_lost":
            ev = DynamicEvent(1.0, EventKind.TASK_LOST, {"task": domain.network.tasks[idx].id})
        else:
            ev = generate_event(domain, EventKind.NEW_AGENT, 13)
        state.domain = new = apply_event(domain, ev)
        if case == "new_agent":
            repair_mod.handle_new_agent(state, ev)
        else:
            repair_mod.handle_agent_or_task_loss(state, ev, domain)

        def rebuilt(old):
            """The validated rebuild of ``old``; None when the event drops it."""
            if case == "new_agent":
                column = np.zeros((old.shape[0], 1), dtype=np.int8)
                return Allocation(np.hstack([old, column]))
            axis = 1 if case == "agent_lost" else 0
            if old.take(idx, axis=axis).any():
                return None
            return Allocation(np.delete(old, idx, axis=axis))

        after = {id(n): n for n in state.nodes.values()}
        deleted = 0
        for key, (node, old) in before.items():
            expected = rebuilt(old)
            if expected is None:
                assert key not in after
                deleted += 1
                continue
            got = after[key].allocation
            assert got.key() == expected.key()
            assert got.count == expected.count
            assert got.entries.dtype == np.int8
            assert np.array_equal(got.entries, expected.entries)
            assert not got.entries.flags.writeable
            assert state.nodes[expected.key()] is node
        members = {seq: (batch, key) for batch, _, key, _, seq in pending_members(state)}
        for seq, old in pending.items():
            expected = rebuilt(old)
            if expected is None:
                assert seq not in members
                deleted += 1
                continue
            batch, key = members.pop(seq)
            assert key == expected.key()
            assert batch.assignments == expected.count
        new_members = len(members)  # the new agent's root children
        assert (deleted > 0) == (case != "new_agent")
        assert new_members == (new.n_tasks if case == "new_agent" else 0)
        assert graph_size(state) == size - deleted + new_members
        if case != "agent_lost":  # task loss and new agent rescore or score apr
            for node in state.nodes.values():
                assert node.apr == apr_value(node.allocation, new.team, new.requirements)
            for batch, _, key, apr, _ in pending_members(state):
                alloc = member_allocation(batch, key)
                assert apr == apr_value(alloc, new.team, new.requirements)
        assert heap_violations(state) == []

    def test_rebuild_heap_pops_as_pushes_would(self):
        """Over open nodes and pending children alike: a batch pops its
        members in (tetaq, seq) order, each where a node of its key would."""
        state = _solved(generate_problem(0, 3, 4, 3), alpha=0.0).state
        frontier = state.open_nodes()
        for node in frontier:
            node.tetaq = round(node.tetaq, 1)  # ties, broken by assignments then seq
        assert len({n.tetaq for n in frontier}) < len(frontier)
        assert len({(n.tetaq, n.assignments) for n in frontier}) < len(frontier)
        ranked = sorted(
            [(n.tetaq, n.assignments, n.seq) for n in frontier]
            + [(b.tetaq[i], b.assignments, seq) for b, i, _, _, seq in pending_members(state)]
        )
        assert len(ranked) > len(frontier)
        copied = copy.deepcopy(state)
        state.rebuild_heap()
        assert heap_violations(state) == []
        rebuilt = [n.seq for n in iter(state.pop, None)]
        copied.open_heap = []
        items = copied.open_nodes() + [b for b in copied.batches if b.status == OPEN]
        for item in reversed(items):
            copied.push(item)
        pushed = [n.seq for n in iter(copied.pop, None)]
        assert rebuilt == pushed == [seq for _, _, seq in ranked]


def _memo_mismatches(state, reference: motion.PlanCache) -> list[int]:
    """Seqs of the nodes whose problem, built through the state's price
    memo, differs from one built through a throwaway memo whose planner
    plans through ``reference``."""
    memo = search_mod._price_memo(state)
    allocs = [(node.seq, node.allocation) for node in state.nodes.values()]
    allocs += [(seq, member_allocation(b, key)) for b, _, key, _, seq in pending_members(state)]
    return [
        seq
        for seq, alloc in allocs
        if build_scheduling_problem(alloc, memo).key()
        != build_scheduling_problem(alloc, _memo(state.domain, state.roadmap, reference)).key()
    ]


def _memo_snapshot(state):
    """The state's price memo, and by value its prices and its plan cache's
    entries and counters."""
    memo, cache = state.price_memo, state.plan_cache
    return memo, (
        dict(cache.entries),
        cache.planner_calls,
        cache.hits,
        dict(memo.arrivals),
        dict(memo.transitions),
    )


@pytest.fixture(scope="module", params=["desk", "bench500"])
def memo_case(request):
    if request.param == "desk":
        domain = generate_problem(0, 3, 4, 3)
        return domain, _solved(domain)
    return request.getfixturevalue("bench_solved")


class TestPriceMemo:
    """The state's price memo gives every node the problem a throwaway
    assembly gives, however many events the state has been through."""

    def test_after_a_fresh_solve(self, memo_case):
        _, result = memo_case
        assert _memo_mismatches(copy.deepcopy(result.state), motion.PlanCache()) == []

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
    def test_after_each_repair_kind(self, memo_case, kind):
        """After an agent loss the reference is the state's own plans: the
        plan cache then serves plans priced at another robot's speed (the
        stale-cache fault, ROADMAP item 2), which the memo keeps exactly."""
        domain, result = memo_case
        state = copy.deepcopy(result.state)
        repair(state, result.solution, generate_event(domain, kind, 11))
        if kind == EventKind.AGENT_LOST:
            reference = motion.PlanCache(dict(state.plan_cache.entries))
        else:
            reference = motion.PlanCache()
        assert _memo_mismatches(state, reference) == []

    def test_after_a_new_agent_that_follows_an_agent_loss(self, memo_case):
        """The new agent's repair drops the mispriced plans, so from then on
        the memo prices every trip as a fresh cache does."""
        domain, result = memo_case
        state = copy.deepcopy(result.state)
        lost = repair(state, result.solution, generate_event(domain, EventKind.AGENT_LOST, 11))
        repair(state, lost.solution, generate_event(state.domain, EventKind.NEW_AGENT, 7))
        assert _memo_mismatches(state, motion.PlanCache()) == []

    def test_an_event_starts_a_new_memo(self, memo_case):
        domain, result = memo_case
        state = copy.deepcopy(result.state)
        before = state.price_memo
        repaired = repair(
            state, result.solution, generate_event(domain, EventKind.DURATION_CHANGED, 11)
        )
        assert repaired.solution is not None
        assert state.price_memo is not before
        planner = state.price_memo.travel
        assert state.price_memo.domain is planner.domain is state.domain
        assert planner.roadmap is state.roadmap
        assert planner.cache is state.plan_cache

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_copies_of_solved_and_repaired_states(self, memo_case, how):
        """A copy carries the plans and prices, and its memo's planner plans
        on the copy's own domain, roadmap and plan cache, so the copy prices
        and repairs on its own: the original's stay as they were, its plan
        counters included."""
        domain, result = memo_case
        dup = {
            "pickle": lambda st: pickle.loads(pickle.dumps(st)),
            "deepcopy": copy.deepcopy,
        }[how]
        repaired_state = copy.deepcopy(result.state)
        event = generate_event(domain, EventKind.TRAITS_INCREASED, 11)
        repaired = repair(repaired_state, result.solution, event)
        cases = ((result.state, result.solution), (repaired_state, repaired.solution))
        for state, solution in cases:
            memo, before = _memo_snapshot(state)
            copied = dup(state)
            copied_memo, copied_values = _memo_snapshot(copied)
            assert copied_memo is not memo and copied_values == before
            planner = copied_memo.travel
            assert planner is not memo.travel
            assert planner.domain is copied_memo.domain is copied.domain
            assert planner.roadmap is copied.roadmap
            assert planner.cache is copied.plan_cache is not state.plan_cache
            # every node priced on the copy's own memo, then an event
            assert _memo_mismatches(copied, motion.PlanCache()) == []
            lookups = copied.plan_cache.planner_calls + copied.plan_cache.hits
            event = generate_event(state.domain, EventKind.DURATION_CHANGED, 5)
            repair(copied, solution, event)
            assert copied.price_memo is not copied_memo
            assert copied.plan_cache.planner_calls + copied.plan_cache.hits > lookups
            after_memo, after = _memo_snapshot(state)
            assert after_memo is memo and after == before


def _untouched(state) -> str:
    """What a refused event, or a repair of a copy, must leave as it was:
    every node, pending batch and heap entry, and the state's counters, by
    value and by identity."""
    nodes = {
        key: (
            id(n), n.status, n.apr, n.floor, n.nsq, n.tetaq, n.version, n.seq,
            id(n.schedule), id(n.parent), n.allocation.key(),
        )
        for key, n in state.nodes.items()
    }
    batches = [
        (id(b), id(b.parent), b.keys, b.aprs, b.seqs, b.tetaq, b.nsq, b.floor, b.version)
        for b in state.batches
    ]
    heap = [(*entry[:4], id(entry[4])) for entry in state.open_heap]
    cache = state.plan_cache
    counters = (
        dataclasses.astuple(state.stats), state.next_seq,
        cache.planner_calls, cache.hits, len(cache.entries), len(state.schedule_memo),
        sorted(state.pending_keys), id(state.domain), id(state.roadmap), state.lb, state.ub,
    )
    return repr((nodes, batches, heap, counters))


GROUPS = [k.value for k in EventKind] + ["mixed", "multi"]
# (count, digest) of the lazy pops of each group's repair chain on bench seed
# 500, measured when every child was registered as a node at its parent's
# expansion, for the two losses since they keep the old solution's
# projection, and since a revived or demoted incumbent is solved only when
# a pop reaches it, which adds its one lazy pop; a group whose incumbent
# stays exact and on top pops nothing lazy
GROUP_POPS = {
    "agent_lost": (26, "2459e7328bb55b44"),
    "task_lost": (1, "a69a7d1379f17dc0"),
    "traits_reduced": (9, "4ba795f3091f96bc"),
    "requirements_increased": (3, "356a04baee1ad2ac"),
    "traits_increased": (1, "4d650f9ca023f23b"),
    "requirements_reduced": (0, "e3b0c44298fc1c14"),
    "duration_changed": (1, "701bed816faeced5"),
    "new_agent": (0, "e3b0c44298fc1c14"),
    "mixed": (5, "5701ee68ba390451"),
    "multi": (10, "d5d2dd74b58b4789"),
}


def _repair_chain(state, solution, events):
    for ev in events:
        out = repair(state, solution, ev)
        state, solution = out.state, out.solution
    return out


@pytest.mark.parametrize("group", GROUPS)
class TestBenchRepairChains:
    """Each repair group of the acceptance suite on bench seed 500, from a
    deep copy of the solved state."""

    def test_pop_order_is_pinned(self, group, bench_solved):
        domain, result = bench_solved
        events = _bench_groups()[group](domain, 9000)
        state = copy.deepcopy(result.state)
        _, pops = lazy_pops(lambda: _repair_chain(state, result.solution, events))
        assert pops == GROUP_POPS[group]

    def test_a_copy_repairs_as_its_original_and_apart_from_it(self, group, bench_solved):
        """Repairing ``copy.deepcopy(state)`` gives the outputs, counters and
        graph size that repairing ``state`` gives, and leaves ``state`` as
        it was."""
        domain, result = bench_solved
        events = _bench_groups()[group](domain, 9000)
        original = copy.deepcopy(result.state)
        before = _untouched(original)
        repaired_copy = _repair_chain(copy.deepcopy(original), result.solution, events)
        assert _untouched(original) == before
        repaired = _repair_chain(original, result.solution, events)

        def outputs(out):
            assert heap_violations(out.state) == []
            return (
                out.reason,
                out.solution.makespan,
                out.solution.allocation.key(),
                dataclasses.astuple(out.state.stats),
                len(out.state.nodes),
                graph_size(out.state),
            )

        assert outputs(repaired_copy) == outputs(repaired)


def test_a_repair_breaks_a_goal_tie_as_a_pop_does(bench_solved):
    """After the ``traits_increased`` group's event on bench seed 500 the old
    solution, of 20 assignments, ties at makespan 266.21688631783076 with a
    goal of 17. The pop loop orders a tie by fewer assignments, so the
    repair returns the 17, as a pop of a fresh search would."""
    domain, result = bench_solved
    assert result.solution.allocation.count == 20
    events = _bench_groups()["traits_increased"](domain, 9000)
    out = _repair_chain(copy.deepcopy(result.state), result.solution, events)
    assert out.solution.allocation.count == 17
    assert out.solution.makespan == result.solution.makespan == 266.21688631783076
