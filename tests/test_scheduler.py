"""Exact scheduler checked against brute-force ordering enumeration.

The oracle enumerates every assignment of directions to the mutex pairs
and solves each resulting fixed network with an independent full-sweep
longest-path fixpoint (no code shared with the module under test).
"""

import hashlib
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynalloc import scheduler as scheduler_module
from dynalloc import search as search_module
from dynalloc.domain import Allocation, DimensionMismatchError
from dynalloc.generator import generate_problem
from dynalloc.scheduler import (
    FEAS_TOL,
    INFEASIBLE,
    NO_PATH,
    PriceMemo,
    Schedule,
    SchedulingProblem,
    _branch_and_bound,
    _Compiled,
    _longest_paths,
    _probe,
    _warm_incumbent,
    _with_edge,
    build_scheduling_problem,
    makespan,
    schedule_lower_bound,
    schedule_upper_bound,
    solve_schedule,
)
from dynalloc.search import search
from dynalloc.validation import schedule_violations

from conftest import build_domain, euclidean_provider, graph_size, stn_solve

MK_TOL = 1e-9

# ---------------------------------------------------------------- oracle


def _oracle_fixed(problem: SchedulingProblem, ordered_pairs) -> float | None:
    """Makespan for one full direction assignment; None when infeasible.

    Full Bellman-Ford-style sweeps over every edge: after n sweeps any
    further change witnesses a positive cycle.
    """
    n = len(problem.durations)
    edges = []
    for i, j in problem.precedence:
        edges.append((i, j, problem.durations[i] + problem.transition(i, j)))
    for i, j in ordered_pairs:
        edges.append((i, j, problem.durations[i] + problem.transition(i, j)))
    s = [problem.initial_arrivals.get(i, 0.0) for i in range(n)]
    for sweep in range(n + 1):
        changed = False
        for i, j, w in edges:
            if s[i] + w > s[j] + 1e-12:
                s[j] = s[i] + w
                changed = True
        if not changed:
            break
        if sweep == n:
            return None
    return max((s[i] + problem.durations[i] for i in range(n)), default=0.0)


def oracle_min_makespan(problem: SchedulingProblem) -> float | None:
    """Exact optimum by trying every one of the 2^|mutex| orderings."""
    pairs = sorted(problem.mutex_reduced)
    best = None
    for dirs in itertools.product((0, 1), repeat=len(pairs)):
        ordered = [
            (i, j) if d == 0 else (j, i) for (i, j), d in zip(pairs, dirs)
        ]
        mk = _oracle_fixed(problem, ordered)
        if mk is not None and (best is None or mk < best):
            best = mk
    return best


def random_problem(rng, max_tasks=8, max_mutex=6) -> SchedulingProblem:
    n = int(rng.integers(1, max_tasks + 1))
    durations = tuple(np.round(rng.uniform(0.5, 10.0, n), 3).tolist())
    precedence = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.2:
                precedence.add((i, j))
    candidates = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in precedence
    ]
    rng.shuffle(candidates)
    n_mutex = int(rng.integers(0, min(max_mutex, len(candidates)) + 1))
    mutex = frozenset(candidates[:n_mutex])
    transition_times = {}
    for i, j in precedence:
        transition_times[(i, j)] = round(float(rng.uniform(0.0, 5.0)), 3)
    for i, j in mutex:
        transition_times[(i, j)] = round(float(rng.uniform(0.0, 5.0)), 3)
        transition_times[(j, i)] = round(float(rng.uniform(0.0, 5.0)), 3)
    arrivals = {i: round(float(rng.uniform(0.0, 4.0)), 3) for i in range(n)}
    return SchedulingProblem(
        durations=durations,
        precedence=frozenset(precedence),
        mutex_reduced=mutex,
        transition_times=transition_times,
        initial_arrivals=arrivals,
    )


# ----------------------------------------------------------------- tests


@pytest.fixture
def relax_calls(monkeypatch):
    """A list that gains one entry per ``_Compiled.relax`` call and per
    ``_with_edge`` call outside ``_longest_paths``: a cold solve or a
    committed ordering."""
    calls = []
    relax, with_edge = _Compiled.relax, _with_edge

    def counted_relax(self, *args):
        calls.append("relax")
        return relax(self, *args)

    def counted_with_edge(rows, edge):
        if sys._getframe(1).f_code.co_name != "_longest_paths":
            calls.append("commit")
        return with_edge(rows, edge)

    monkeypatch.setattr(_Compiled, "relax", counted_relax)
    monkeypatch.setattr(scheduler_module, "_with_edge", counted_with_edge)
    return calls


class TestFixedOrderingSolve:
    def test_simple_chain(self):
        p = SchedulingProblem(
            durations=(2.0, 3.0),
            precedence=frozenset({(0, 1)}),
            mutex_reduced=frozenset(),
            transition_times={(0, 1): 1.0},
            initial_arrivals={0: 0.5},
        )
        sched = stn_solve(p, {})
        assert sched.start_times == (0.5, 3.5)
        assert sched.makespan == pytest.approx(6.5)

    def test_positive_cycle_is_infeasible(self):
        # forcing both directions of a pair via precedence-like orderings
        p = SchedulingProblem(
            durations=(1.0, 1.0),
            precedence=frozenset(),
            mutex_reduced=frozenset({(0, 1)}),
            transition_times={(0, 1): 0.0, (1, 0): 0.0},
            initial_arrivals={},
        )
        # a direction map that orders the pair both ways is a positive cycle
        comp_cycle = stn_solve(
            SchedulingProblem(
                durations=(1.0, 1.0),
                precedence=frozenset({(0, 1), (1, 0)}),
                mutex_reduced=frozenset(),
                transition_times={},
                initial_arrivals={},
            ),
            {},
        )
        assert comp_cycle is INFEASIBLE
        assert stn_solve(p, {(0, 1): (0, 1)}) is not INFEASIBLE

    def test_infinite_travel_is_infeasible(self):
        p = SchedulingProblem(
            durations=(1.0,),
            precedence=frozenset(),
            mutex_reduced=frozenset(),
            transition_times={},
            initial_arrivals={0: math.inf},
        )
        assert solve_schedule(p) is INFEASIBLE

    def test_mutex_overlapping_precedence_rejected(self):
        with pytest.raises(ValueError):
            SchedulingProblem(
                durations=(1.0, 1.0),
                precedence=frozenset({(0, 1)}),
                mutex_reduced=frozenset({(0, 1)}),
                transition_times={},
                initial_arrivals={},
            )


class TestExactness:
    def test_two_task_mutex_picks_cheaper_order(self):
        p = SchedulingProblem(
            durations=(5.0, 1.0),
            precedence=frozenset(),
            mutex_reduced=frozenset({(0, 1)}),
            transition_times={(0, 1): 0.0, (1, 0): 0.0},
            initial_arrivals={0: 0.0, 1: 0.0},
        )
        sched = solve_schedule(p)
        # 1-before-0 gives makespan 6; 0-before-1 also 6; both optimal
        assert sched.makespan == pytest.approx(6.0)
        assert oracle_min_makespan(p) == pytest.approx(6.0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            p = random_problem(rng, max_tasks=6, max_mutex=5)
            sched = solve_schedule(p)
            oracle = oracle_min_makespan(p)
            if oracle is None:
                assert sched is INFEASIBLE
            else:
                assert sched is not INFEASIBLE
                assert sched.makespan == pytest.approx(oracle, abs=1e-9)
                assert schedule_violations(p, sched) == []

    def test_start_times_are_componentwise_minimal(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_problem(rng, max_tasks=5, max_mutex=3)
            sched = solve_schedule(p)
            if sched is INFEASIBLE:
                continue
            # re-solving with the returned orderings fixed reproduces the
            # same minimal start vector
            again = stn_solve(p, sched.fixed_orderings)
            assert again.start_times == pytest.approx(sched.start_times)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_oracle_agreement_property(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, max_tasks=5, max_mutex=4)
        sched = solve_schedule(p)
        oracle = oracle_min_makespan(p)
        if oracle is None:
            assert sched is INFEASIBLE
        else:
            assert sched.makespan == pytest.approx(oracle, abs=1e-9)


class TestWarmStart:
    """A sound ``floor`` and any ``hint`` leave the optimum unchanged."""

    @pytest.fixture(scope="class")
    def cases(self):
        """Acceptance criterion 1's 200 problems with their brute-force optima."""
        rng = np.random.default_rng(2024)
        problems = [random_problem(rng, max_tasks=8, max_mutex=6) for _ in range(200)]
        return [(p, oracle_min_makespan(p)) for p in problems]

    @staticmethod
    def _solve_at_the_optimum(cases, make_hint):
        """Solve every case with ``floor`` at its optimum and the given hint."""
        for p, oracle in cases:
            sched = solve_schedule(p, oracle or 0.0, make_hint(p))
            if oracle is None:
                assert sched is INFEASIBLE
            else:
                assert abs(sched.makespan - oracle) <= MK_TOL
                assert schedule_violations(p, sched) == []

    def test_no_hint(self, cases):
        self._solve_at_the_optimum(cases, lambda p: None)

    def test_cold_optimum_as_hint(self, cases):
        self._solve_at_the_optimum(cases, solve_schedule)

    def test_random_orientation_as_hint(self, cases):
        """Some pairs fixed at random, the rest oriented by random starts."""
        rng = np.random.default_rng(5)

        def random_hint(p):
            pairs = sorted(p.mutex_reduced)
            fixed = {
                q: (q if rng.random() < 0.5 else (q[1], q[0]))
                for q in pairs
                if rng.random() < 0.5
            }
            starts = tuple(rng.uniform(0.0, 20.0, len(p.durations)).tolist())
            return Schedule(starts, math.inf, fixed)

        self._solve_at_the_optimum(cases, random_hint)

    def test_hint_of_the_wrong_length_is_ignored(self, cases, relax_calls):
        """Same schedule, and not one relaxation more, than without a hint."""
        for p, oracle in cases:
            cold = solve_schedule(p)
            if cold is INFEASIBLE or not p.mutex_reduced:
                continue
            relax_calls.clear()
            plain = solve_schedule(p, oracle)
            expected = len(relax_calls)
            for starts in (cold.start_times + (0.0,), cold.start_times[:-1]):
                relax_calls.clear()
                hint = Schedule(starts, cold.makespan, cold.fixed_orderings)
                assert solve_schedule(p, oracle, hint) == plain
                assert len(relax_calls) == expected

    def test_hint_closing_a_positive_cycle_is_ignored(self, cases):
        """Every pair run high index first: infeasible wherever precedence
        already orders a mutex pair the other way round."""
        cyclic = 0
        for p, oracle in cases:
            backwards = {(i, j): (j, i) for i, j in p.mutex_reduced}
            if stn_solve(p, backwards) is not INFEASIBLE:
                continue
            cyclic += 1
            hint = Schedule((0.0,) * len(p.durations), 0.0, backwards)
            assert solve_schedule(p, oracle, hint) == solve_schedule(p, oracle)
        assert cyclic >= 5

    def test_optimal_hint_at_the_floor_exits_before_branching(self, cases, relax_calls):
        """The root relaxation and the hint's own are the only ones made."""
        branched = 0
        for p, oracle in cases:
            if oracle is None:
                continue
            relax_calls.clear()
            best = solve_schedule(p)
            branched += len(relax_calls) > 2
            relax_calls.clear()
            warm = solve_schedule(p, oracle, best)
            assert len(relax_calls) <= 2
            assert abs(warm.makespan - oracle) <= MK_TOL
        assert branched > 0


def _milp_optimum(problem: SchedulingProblem, optimize):
    """HiGHS's dual bound and optimal orientation for the disjunctive big-M model.

    Binary ``y`` per mutex pair (i, j) is 1 when i goes first; each direction's
    edge is switched off by ``big_m`` in the other. Starts are capped at
    ``horizon``, the longest any acyclic orientation's least starts can be,
    which keeps the big-M valid.
    """
    n, d = len(problem.durations), problem.durations
    pairs = sorted(problem.mutex_reduced)
    arrivals = [problem.initial_arrivals.get(i, 0.0) for i in range(n)]
    edges = sorted(problem.precedence) + pairs + [(j, i) for i, j in pairs]
    weight = {(i, j): d[i] + problem.transition(i, j) for i, j in edges}
    longest_out = [0.0] * n
    for (i, _), w in weight.items():
        longest_out[i] = max(longest_out[i], w)
    horizon = max(arrivals) + sum(longest_out)
    big_m = horizon + max(weight.values(), default=0.0)
    cmax, ys = n, n + 1  # variable layout: starts, makespan, one y per pair
    rows, lower = [], []

    def constraint(coefs, lb):
        row = np.zeros(ys + len(pairs))
        for k, v in coefs:
            row[k] += v
        rows.append(row)
        lower.append(lb)

    for i in range(n):
        constraint([(cmax, 1.0), (i, -1.0)], d[i])
    for i, j in problem.precedence:
        constraint([(j, 1.0), (i, -1.0)], weight[(i, j)])
    for k, (i, j) in enumerate(pairs):
        constraint([(j, 1.0), (i, -1.0), (ys + k, -big_m)], weight[(i, j)] - big_m)
        constraint([(i, 1.0), (j, -1.0), (ys + k, big_m)], weight[(j, i)])
    cost = np.zeros(ys + len(pairs))
    cost[cmax] = 1.0
    res = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(np.array(rows), lb=np.array(lower)),
        integrality=np.array([0] * ys + [1] * len(pairs)),
        bounds=optimize.Bounds(
            arrivals + [0.0] + [0.0] * len(pairs),
            [horizon] * n + [horizon + max(d)] + [1.0] * len(pairs),
        ),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    orientation = {
        (i, j): (i, j) if res.x[ys + k] > 0.5 else (j, i) for k, (i, j) in enumerate(pairs)
    }
    return res.mip_dual_bound, orientation


# bench seed -> makespan, expansions, nodes, scheduler calls, the plan cache's
# planner calls and hits, and the sha256 of the start times and orderings
# (``_schedule_digest``) of ``search`` at alpha 0.25, as the scheduler that
# probed by relaxation returned them
BENCH_PINS = {
    500: (266.21688631783076, 20, 2211, 28, 177, 70,
          "63777e9fc866492cfc3b7be353e0c8cb5c7871631ff2c724d9ab18a1ab0b45a8"),
    501: (299.8430883052373, 17, 1905, 22, 100, 55,
          "4fbd2ae67368d045cd10d20c53b8fef99c4d0c591919c8cec89746549c04abe4"),
    502: (135.47344114254813, 20, 2211, 27, 163, 59,
          "47f23e04eb36d0ac184b14f5aafe08029253c870a6471401df5851e556b8401f"),
    503: (190.7422849719188, 24, 2605, 26, 177, 117,
          "7c5524e8a1985af5dfb81e0626e958f85ac1a0c03bf777a65914be3dcf93f437"),
    504: (161.4318085414917, 19, 2110, 20, 74, 41,
          "a6867ec8fc319ce4215647af9ec0e75b93c79fa050cad3d535a0928eafa6ea29"),
    505: (335.2877606269341, 21, 2311, 27, 134, 70,
          "d634a0c2ba9e6e4f169759229687ae423828f0b900aa1898a6c84565f50ce57c"),
    506: (117.89599163100655, 23, 2508, 42, 211, 94,
          "a3e56c68f769f3a1f879ccb6c05fc17b108881c67c2c0c1454a7f592120bce9c"),
    507: (309.3581801120604, 23, 2508, 29, 169, 95,
          "fd9218dd8e8211c2f635a027b3cc1de83697bd258ccd87f4c178028dc3f1f1b2"),
    508: (205.4178196063214, 25, 2701, 32, 185, 102,
          "728259fabb463f21ccdcc78c2924d5586a09572910326107f86b3ad000296e30"),
    509: (223.63815955145768, 19, 2110, 22, 104, 62,
          "20401c914206f3aa5e41c2a8183d73931eb7b8d4d2a7e3adc66e46a539dacbac"),
}


def _schedule_digest(schedule: Schedule) -> str:
    key = (schedule.start_times, sorted(schedule.fixed_orderings.items()))
    return hashlib.sha256(repr(key).encode()).hexdigest()


class TestBenchScale:
    """Warm solves of ``search`` on the 8-robot, 15-task, 4-trait bench domains."""

    @pytest.fixture(scope="class")
    def bench_calls(self):
        """The ten searches, and the (problem, floor, hint, schedule) of every
        solve they made."""
        calls = []

        def capture(problem, floor=0.0, hint=None, stats=None):
            sched = solve_schedule(problem, floor, hint, stats)
            calls.append((problem, floor, hint, sched))
            return sched

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_module, "solve_schedule", capture)
            results = {
                seed: search(generate_problem(seed, 8, 15, 4), 0.25) for seed in BENCH_PINS
            }
        return results, calls

    @pytest.fixture(scope="class")
    def bench_searches(self, bench_calls):
        """The ten searches, and every (problem, schedule) their solves gave."""
        results, calls = bench_calls
        return results, [(problem, sched) for problem, _, _, sched in calls]

    def test_search_outputs_are_pinned(self, bench_searches):
        """The branching decisions, hence every output, are those of the
        scheduler that probed each ordering by relaxing it."""
        results, _ = bench_searches
        for seed, result in results.items():
            stats = result.state.stats
            got = (
                result.solution.makespan,
                stats.expansions,
                graph_size(result.state),
                stats.scheduler_calls,
                result.state.plan_cache.planner_calls,
                result.state.plan_cache.hits,
                _schedule_digest(result.solution.schedule),
            )
            assert got == BENCH_PINS[seed], seed

    def test_relax_budget_on_seed_503(self, relax_calls):
        """Seed 503 holds the heaviest solves. Probing by lookup leaves about
        7k relaxations there, where relaxing every probe made 68k; the
        branch-and-bound visits the same 1,102 nodes, and the search's
        counters agree with a count made from outside."""
        stats = search(generate_problem(503, 8, 15, 4), 0.25).state.stats
        assert len(relax_calls) <= 10_000
        assert stats.relaxations == len(relax_calls)
        assert stats.bnb_nodes == 1102

    def test_every_solve_decides_as_the_reference(self, bench_calls):
        """Each of the 275 solves, re-run from its floor and hint, makes the
        decisions of the branch-and-bound that restarts its scan."""
        _, calls = bench_calls
        assert len(calls) == sum(pin[3] for pin in BENCH_PINS.values())
        for problem, floor, hint, _ in calls:
            got = _decisions(_branch_and_bound, problem, floor, hint)
            assert got == _decisions(_reference_branch_and_bound, problem, floor, hint)

    def test_every_solve_is_its_orderings_relaxed(self, bench_calls):
        """Each of the 275 solves returns the start times and makespan of a
        cold relaxation of its fixed orderings, within n * FEAS_TOL."""
        _, calls = bench_calls
        for problem, _, _, sched in calls:
            tol = len(problem.durations) * FEAS_TOL
            cold = stn_solve(problem, sched.fixed_orderings)
            assert abs(sched.makespan - cold.makespan) <= tol
            assert max(abs(x - y) for x, y in zip(sched.start_times, cold.start_times)) <= tol

    def test_every_makespan_is_its_start_times_makespan(self, bench_calls):
        """Bit for bit, over the 275 solves: the search prunes on the source
        row's tail column, which can sit an ulp off the start times' makespan."""
        _, calls = bench_calls
        for problem, _, _, sched in calls:
            assert sched.makespan == makespan(sched.start_times, problem.durations)

    def test_warm_solves_match_a_milp_oracle(self, bench_searches):
        """Every solve with at least 45 mutex pairs, and every 25th of the rest,
        lies between HiGHS's dual bound and the makespan of HiGHS's orientation
        re-solved by ``stn_solve``. HiGHS's bound can sit up to 1e-6 low."""
        optimize = pytest.importorskip("scipy.optimize")
        _, solves = bench_searches
        heavy = [c for c in solves if len(c[0].mutex_reduced) >= 45]
        rest = [c for c in solves if len(c[0].mutex_reduced) < 45]
        assert len(heavy) >= 10
        for problem, sched in heavy + rest[::25]:
            dual, orientation = _milp_optimum(problem, optimize)
            assert sched.makespan <= stn_solve(problem, orientation).makespan + MK_TOL
            assert sched.makespan >= dual - 1e-6


class TestBounds:
    def test_lower_bound_is_max_duration(self):
        assert schedule_lower_bound([1.0, 4.0, 2.0]) == 4.0
        assert schedule_lower_bound([]) == 0.0

    def test_bounds_bracket_solutions(self):
        rng = np.random.default_rng(11)
        domain = build_domain([[1.0], [1.0]], [[1.0], [1.0], [2.0]])
        from dynalloc.motion import build_roadmap, mandatory_vertices

        travel = euclidean_provider(domain)
        alloc = Allocation(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int8))
        p = build_scheduling_problem(alloc, PriceMemo(domain, travel))
        sched = solve_schedule(p)
        lb = schedule_lower_bound(p.durations)
        # the roadmap's total edge length far exceeds any straight-line
        # trip in this 20 x 20 world
        roadmap = build_roadmap(domain.world, mandatory_vertices(domain))
        ub = schedule_upper_bound(domain.world, p.durations, roadmap.total_edge_length)
        assert lb <= sched.makespan <= ub

    def test_upper_bound_rejects_bad_speeds(self):
        domain = build_domain([[1.0]], [[1.0]], speeds={"r0": -1.0})
        with pytest.raises(ValueError):
            schedule_upper_bound(domain.world, [1.0], 1.0)


class TestProblemAssembly:
    def test_shared_robot_induces_mutex(self):
        domain = build_domain([[1.0]], [[1.0], [1.0]])
        alloc = Allocation(np.array([[1], [1]], dtype=np.int8))

        p = build_scheduling_problem(alloc, PriceMemo(domain, euclidean_provider(domain)))
        assert (0, 1) in p.mutex_reduced

    def test_precedence_closure_drops_induced_mutex(self):
        domain = build_domain([[1.0]], [[1.0], [1.0], [1.0]], precedence={(0, 1), (1, 2)})
        alloc = Allocation(np.array([[1], [1], [1]], dtype=np.int8))

        p = build_scheduling_problem(alloc, PriceMemo(domain, euclidean_provider(domain)))
        # (0,2) is ordered through the closure, so no mutex pair survives
        assert p.mutex_reduced == frozenset()

    def test_slowest_coalition_member_gates_arrival(self):
        domain = build_domain(
            [[1.0], [1.0]],
            [[2.0]],
            speeds={"r0": 1.0, "r1": 2.0},
        )
        alloc = Allocation(np.array([[1, 1]], dtype=np.int8))

        travel = euclidean_provider(domain)
        p = build_scheduling_problem(alloc, PriceMemo(domain, travel))
        expected = max(
            travel("r0", domain.world.robot_start_configs["r0"], domain.network.tasks[0].initial_config),
            travel("r1", domain.world.robot_start_configs["r1"], domain.network.tasks[0].initial_config),
        )
        assert p.initial_arrivals[0] == pytest.approx(expected)

    def test_makespan_helper(self):
        assert makespan([0.0, 2.0], [1.0, 3.0]) == 5.0
        assert makespan([], []) == 0.0

    def test_a_shared_memo_builds_what_a_throwaway_one_does(self):
        """One memo across every allocation of a desk domain: the same
        problem as a memo made for each call, and no price taken twice."""

        domain = generate_problem(0, 3, 4, 3)
        priced = []

        def travel(rid, frm, to):
            priced.append((rid, frm, to))
            return euclidean_provider(domain)(rid, frm, to)

        memo = PriceMemo(domain, travel)
        for bits in itertools.product((0, 1), repeat=12):
            alloc = Allocation(np.array(bits, dtype=np.int8).reshape(4, 3))
            shared = build_scheduling_problem(alloc, memo)
            throwaway = PriceMemo(domain, euclidean_provider(domain))
            assert shared.key() == build_scheduling_problem(alloc, throwaway).key()
        assert len(memo.arrivals) == 4 * 7
        # each price taken once: one trip per member of its coalition
        coalitions = [c for _, c in memo.arrivals] + [c for _, _, c in memo.transitions]
        assert len(priced) == sum(bin(c).count("1") for c in coalitions)
        with pytest.raises(DimensionMismatchError):
            build_scheduling_problem(Allocation(np.ones((4, 2), np.int8)), memo)


def _full_scan_relax(comp: _Compiled, extra):
    """The worklist relaxation from the arrivals over ``comp``'s precedence
    edges and the ``extra`` edges that pops every task first and scans every
    out-edge of each popped task, in exact arithmetic: rounding cannot lift
    a lap of a cycle weighing exactly ``FEAS_TOL`` past the tolerance."""
    n, d = comp.n, [Fraction(x) for x in comp.durations]
    out = [[(v, Fraction(w)) for v, w in o] for o in comp.out]
    for u, v, w in extra:
        out[u].append((v, Fraction(w)))
    s = [Fraction(x) for x in comp.arrivals]
    tol = Fraction(FEAS_TOL)
    mk = max(x + y for x, y in zip(s, d))
    inq, counts = bytearray(b"\x01" * n), [0] * n
    queue = list(range(n))
    while queue:
        u = queue.pop(0)
        inq[u] = 0
        counts[u] += 1
        if counts[u] > n:
            return None
        for v, w in out[u]:
            nv = s[u] + w
            if nv > s[v] + tol:
                s[v] = nv
                mk = max(mk, nv + d[v])
                if not inq[v]:
                    inq[v] = 1
                    queue.append(v)
    return s, mk


def _drawn_problem(data, n, duration, gap, arrival):
    """A problem of n tasks with no mutex pair: drawn durations, precedence
    edges i -> j with i < j and their transition gaps, and arrivals; and
    every ordered task pair, for drawing orderings."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    precedence = data.draw(st.sets(st.sampled_from([p for p in pairs if p[0] < p[1]])))
    problem = SchedulingProblem(
        durations=tuple(data.draw(st.lists(duration, min_size=n, max_size=n))),
        precedence=frozenset(precedence),
        mutex_reduced=frozenset(),
        transition_times={p: data.draw(gap) for p in sorted(precedence)},
        initial_arrivals={i: data.draw(arrival) for i in range(n)},
    )
    return problem, pairs


def _node_matrix(comp: _Compiled):
    """The root's matrix: the longest paths over ``comp``'s precedence
    edges, and the cold relaxation's start times and makespan as the source
    row."""
    s, mk = comp.relax()
    return _longest_paths(comp) + [s + [mk]]


class TestCommit:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_commit_matches_a_cold_relaxation(self, data):
        """Along a chain of edges each committed onto the node's matrix, as
        the branch-and-bound does (``_probe``, then ``_with_edge``): a
        positive cycle exactly where a cold full-scan relaxation of every
        committed edge finds one, and otherwise the source row's start times
        and makespan bound within n * FEAS_TOL of the relaxation's.
        Half-unit weights, some off by less than the tolerance, make ties at
        and within it common."""
        n = data.draw(st.integers(2, 7))
        half = st.builds(
            lambda k, e: k / 2 + e, st.integers(0, 12), st.sampled_from([0.0, 5e-10])
        )
        problem, pairs = _drawn_problem(data, n, half, half, half)
        comp = _Compiled(problem)
        rows = _node_matrix(comp)
        committed = []
        for _ in range(data.draw(st.integers(1, 6))):
            u, v = data.draw(st.sampled_from(pairs))
            edge = (u, v, comp.durations[u] + data.draw(half))
            committed.append(edge)
            cold = _full_scan_relax(comp, committed)
            assert (_probe(rows, edge) == math.inf) == (cold is None)
            if cold is None:
                return
            rows = _with_edge(rows, edge)
            assert max(abs(x - y) for x, y in zip(rows[n], cold[0])) <= n * FEAS_TOL
            assert abs(rows[n][n] - cold[1]) <= n * FEAS_TOL


def _reference_longest_paths(comp: _Compiled, extra):
    """Longest paths over ``comp``'s precedence edges and the ``extra`` edges
    by Floyd-Warshall, with the tail (longest path plus the last task's
    duration) as the last column."""
    n, d = comp.n, comp.durations
    dist = [[0.0 if a == b else NO_PATH for b in range(n)] for a in range(n)]
    for u, v, w in [(u, v, w) for u in range(n) for v, w in comp.out[u]] + extra:
        dist[u][v] = max(dist[u][v], w)
    for k in range(n):
        for a in range(n):
            for b in range(n):
                dist[a][b] = max(dist[a][b], dist[a][k] + dist[k][b])
    return [row + [max(x + d[b] for b, x in enumerate(row))] for row in dist]


class TestProbe:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_lookup_probe_matches_a_relaxation(self, data):
        """Along a chain of random orderings: the probe's lookup of the tail
        column and a cold full-scan relaxation agree on whether the ordering
        closes a positive cycle, and on the makespan within n * FEAS_TOL;
        some orderings are then committed, and the source row's start times
        agree with the relaxation's within n * FEAS_TOL. Every duration is
        at least 0.5, so every cycle is clearly positive or absent. The
        matrix stays the longest paths of the committed edges throughout."""
        n = data.draw(st.integers(2, 8))
        gap = st.floats(0.0, 5.0)
        problem, pairs = _drawn_problem(data, n, st.floats(0.5, 10.0), gap, st.floats(0.0, 4.0))
        comp = _Compiled(problem)
        rows = _node_matrix(comp)
        committed = []
        for _ in range(data.draw(st.integers(1, 12))):
            u, v = data.draw(st.sampled_from(pairs))
            edge = (u, v, comp.durations[u] + data.draw(gap))
            probed = _probe(rows, edge)
            cold = _full_scan_relax(comp, committed + [edge])
            assert (probed == math.inf) == (cold is None)
            if cold is None:
                continue
            assert abs(probed - cold[1]) <= n * FEAS_TOL
            if data.draw(st.booleans()):
                committed.append(edge)
                rows = _with_edge(rows, edge)
                assert max(abs(x - y) for x, y in zip(rows[n], cold[0])) <= n * FEAS_TOL
        reference = _reference_longest_paths(comp, committed)
        for row, ref in zip(rows, reference):
            for x, y in zip(row, ref):
                assert x == y == NO_PATH or abs(x - y) <= n * FEAS_TOL


def _reference_commit(comp: _Compiled, edge, s, mk: float, rows):
    """Start times and makespan of the node (s, mk) with ``edge`` committed;
    None on a positive cycle. ``rows`` is the node's matrix without its
    source row.

    Where the edge (u, v, w) already holds nothing moves; otherwise a
    new longest path uses it once, so each task x starts at least at
    s[u] + w + L[v][x].
    """
    comp.relaxations += 1
    u, v, w = edge
    start = s[u] + w
    if start <= s[v] + FEAS_TOL:
        return s, mk
    if w + rows[v][u] > FEAS_TOL:
        return None
    s = [y if (y := start + r) > x + FEAS_TOL else x for x, r in zip(s, rows[v])]
    return s, makespan(s, comp.durations)


def _reference_branch_and_bound(comp: _Compiled, floor: float, hint: Schedule | None):
    """The branch-and-bound that restarts its stale scan after every forced
    pair, rebuilds and sorts its refresh list each time, copies the table and
    the orderings at every step, probes through ``_probe`` and keeps its
    start times and makespan beside the matrix, moved by a commit pass of
    their own (``_reference_commit``): the decisions ``_branch_and_bound``
    must make, node for node."""
    pairs = sorted(comp.orders)
    root = comp.relax()
    if root is None:
        return INFEASIBLE
    root_s, root_mk = root
    if not pairs:
        return Schedule(tuple(root_s), root_mk, {})

    best_mk = math.inf
    best = None
    if hint is not None:
        best = _warm_incumbent(comp, pairs, hint)
        if best is not None:
            best_mk = best.makespan
            if best_mk <= floor + FEAS_TOL:
                return best
    orders = comp.orders

    def probe(s, mk, rows, p):
        node = [*rows, [*s, mk]]
        forward, reverse = orders[p]
        return _probe(node, forward), _probe(node, reverse)

    def recurse(s_cur, mk_cur, rows, undecided, la, orderings):
        nonlocal best, best_mk
        comp.bnb_nodes += 1
        while True:
            if best_mk <= floor + FEAS_TOL or mk_cur >= best_mk - FEAS_TOL:
                return
            if not undecided:
                best_mk = mk_cur
                best = Schedule(tuple(s_cur), mk_cur, dict(orderings))
                return
            cut = best_mk - FEAS_TOL
            scored = []
            for p in undecided:
                mk_f, mk_r = la[p]
                if mk_f >= cut or mk_r >= cut:
                    break
                scored.append((abs(mk_f - mk_r), p))
            else:
                scored.sort(reverse=True)
                la = dict(la)
                best_min = -1.0
                for _, p in scored:
                    la[p] = mk_f, mk_r = probe(s_cur, mk_cur, rows, p)
                    if mk_f >= cut or mk_r >= cut:
                        break
                    if min(mk_f, mk_r) > best_min:
                        best_min = min(mk_f, mk_r)
                        branch = p
                else:
                    break
            r_live = mk_f >= cut
            if r_live and mk_r >= cut:
                return
            edge = orders[p][r_live]
            res = _reference_commit(comp, edge, s_cur, mk_cur, rows)
            if res is None:
                return
            s_cur, mk_cur = res
            if mk_cur >= cut:
                return
            rows = _with_edge(rows, edge)
            orderings = {**orderings, p: (edge[0], edge[1])}
            undecided = [q for q in undecided if q != p]
        rest = [q for q in undecided if q != branch]
        for mk, edge in sorted(zip(la[branch], orders[branch]), key=lambda c: c[0]):
            if mk >= best_mk - FEAS_TOL:
                continue
            res = _reference_commit(comp, edge, s_cur, mk_cur, rows)
            if res is None:
                continue
            recurse(
                res[0], res[1], _with_edge(rows, edge), rest, la,
                {**orderings, branch: (edge[0], edge[1])},
            )
            if best_mk <= floor + FEAS_TOL:
                return

    rows = _longest_paths(comp)
    recurse(
        root_s, root_mk, rows, pairs, {p: probe(root_s, root_mk, rows, p) for p in pairs}, {}
    )
    return best


def _decisions(bnb, problem: SchedulingProblem, floor: float, hint):
    """What ``bnb`` decides on a fresh compile of ``problem``: the schedule's
    start times, makespan and fixed orderings in insertion order (None when
    infeasible), and the solve's B&B nodes and relaxations."""
    comp = _Compiled(problem)
    sched = bnb(comp, floor, hint)
    if sched is not None:
        sched = (sched.start_times, sched.makespan, list(sched.fixed_orderings.items()))
    return sched, comp.bnb_nodes, comp.relaxations


def _root_cycles(problem: SchedulingProblem) -> int:
    """The orderings that close a positive cycle at the root of a solve."""
    comp = _Compiled(problem)
    rows = _node_matrix(comp)
    return sum(_probe(rows, e) == math.inf for pair in comp.orders.values() for e in pair)


class TestResumedScan:
    @pytest.fixture(scope="class")
    def cases(self):
        """300 random problems, three (problem, floor, hint) each: floors at
        zero, inside the optimum and at it; no hint, the cold optimum, a
        random orientation, or every pair run high index first."""
        rng = np.random.default_rng(26)
        cases = []
        for _ in range(300):
            p = random_problem(rng, max_tasks=9, max_mutex=14)
            cold = solve_schedule(p)
            pairs = sorted(p.mutex_reduced)
            hints = [
                None,
                cold,
                Schedule(
                    tuple(rng.uniform(0.0, 20.0, len(p.durations)).tolist()),
                    math.inf,
                    {q: q if rng.random() < 0.5 else q[::-1] for q in pairs if rng.random() < 0.5},
                ),
                Schedule((0.0,) * len(p.durations), 0.0, {q: q[::-1] for q in pairs}),
            ]
            for floor in (0.0, cold.makespan * rng.uniform(0.5, 1.0), cold.makespan):
                cases.append((p, floor, hints[rng.integers(len(hints))]))
        return cases

    def test_random_solves_decide_as_the_reference(self, cases):
        """Among the solves are warm exits, hints that close a positive
        cycle, and problems where some ordering closes one at the root."""
        warm_exits = branched = 0
        for p, floor, hint in cases:
            got = _decisions(_branch_and_bound, p, floor, hint)
            assert got == _decisions(_reference_branch_and_bound, p, floor, hint)
            warm_exits += bool(p.mutex_reduced) and got[1] == 0
            branched += got[1] > 1
        cyclic = sum(_root_cycles(p) > 0 for p, _, _ in cases[::3])
        assert min(warm_exits, cyclic, branched) >= 10

    def test_every_makespan_is_its_start_times_makespan(self, cases):
        """Bit for bit, as on the bench solves."""
        for p, floor, hint in cases:
            sched = solve_schedule(p, floor, hint)
            assert sched.makespan == makespan(sched.start_times, p.durations)
