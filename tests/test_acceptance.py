"""Acceptance gate: eight system-level criteria at pinned tolerances.

Each test prints one ``ACCEPTANCE <n> (<label>): PASS|FAIL`` line. Expensive
artifacts (desk-scale sweeps, benchmark-scale scenario runs) are computed
once and shared across criteria through module-level caches.
"""

import contextlib
import copy
import csv
import math
import statistics
import time

import numpy as np
import pytest

from dynalloc.analysis import (
    brute_force_min_assignments,
    brute_force_optimal_makespan,
    min_assignments_certificate,
    open_frontier,
    oracle_travel,
    posthoc_bound,
    search_min_resources,
    time_optimality_bound,
)
from dynalloc.cli import main as cli_main
from dynalloc.domain import aggregate_traits, resource_count
from dynalloc.generator import generate_event, generate_problem
from dynalloc.problem_io import save_domain, save_events
from dynalloc.repair import DynamicEvent, EventKind, apply_event, decompose_mixed, repair
from dynalloc.runner import TIMING_COLUMNS
from dynalloc.scheduler import solve_schedule
from dynalloc.search import apr_value, search
from dynalloc.validation import plan_collision_samples, solution_violations

from conftest import pending_members
from test_scheduler import oracle_min_makespan, random_problem

MK_TOL = 1e-9
ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)
N_DESK = 20
BENCH_ROBOTS, BENCH_TASKS, BENCH_TRAITS = 8, 15, 4
BENCH_ALPHA = 0.25
N_SCENARIOS = 10


@contextlib.contextmanager
def _verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        _report(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    _report(f"ACCEPTANCE {num} ({label}): PASS")


def _report(line: str) -> None:
    # bypass pytest's capture so every verdict survives into the run log
    capman = _CAPTURE.get("manager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(f"\n{line}", flush=True)
    else:
        print(line)


_CAPTURE: dict = {}


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    _CAPTURE["manager"] = request.config.pluginmanager.getplugin("capturemanager")
    yield


# ------------------------------------------------------- shared artifacts

_cache: dict = {}


def desk_domains():
    """20 generated domains, each within the brute-force guard (M*N <= 12)."""
    if "desk" not in _cache:
        shapes = [(3, 4), (2, 4), (3, 3), (2, 3), (3, 2)]
        _cache["desk"] = [
            generate_problem(100 + i, *shapes[i % len(shapes)], 3)
            for i in range(N_DESK)
        ]
    return _cache["desk"]


def sweep_runs():
    """Per desk domain: the brute-force optimum and one search per alpha."""
    if "sweep" not in _cache:
        runs = []
        for domain in desk_domains():
            optimal = brute_force_optimal_makespan(domain, oracle_travel(domain))
            per_alpha = {}
            for alpha in ALPHAS:
                result = search(domain, alpha)
                assert result.reason == "solved", (
                    f"desk domain unsolved at alpha={alpha}: {result.reason}"
                )
                per_alpha[alpha] = result
            runs.append((domain, optimal, per_alpha))
        _cache["sweep"] = runs
    return _cache["sweep"]


def resource_runs():
    """Per desk domain: the alpha=1 run plus the assignment-count oracle."""
    if "resource" not in _cache:
        runs = []
        for domain in desk_domains():
            solution, tie_free, state = search_min_resources(domain)
            assert solution is not None
            optimal = brute_force_min_assignments(domain, oracle_travel(domain))
            runs.append((domain, solution, tie_free, state, optimal))
        _cache["resource"] = runs
    return _cache["resource"]


def bench_initial():
    """Benchmark-scale domains with their initial solve, shared by groups."""
    if "bench" not in _cache:
        runs = []
        for i in range(N_SCENARIOS):
            domain = generate_problem(500 + i, BENCH_ROBOTS, BENCH_TASKS, BENCH_TRAITS)
            result = search(domain, BENCH_ALPHA)
            assert result.reason == "solved"
            runs.append((domain, result))
        _cache["bench"] = runs
    return _cache["bench"]


def _solvable_after(domain, event) -> bool:
    """Cheap screen: the full allocation still meets every requirement."""
    new = domain
    for step in decompose_mixed(domain, event):
        new = apply_event(new, step)
    full = np.ones((new.n_tasks, new.n_robots), dtype=np.int8)
    from dynalloc.domain import Allocation

    return apr_value(Allocation(full), new.team, new.requirements) <= 1e-12


def _screened_event(domain, kind, seed):
    for attempt in range(30):
        ev = generate_event(domain, kind, seed + 1000 * attempt)
        if _solvable_after(domain, ev):
            return ev
    raise AssertionError(f"no solvable {kind} event found for screening")


def _mixed_trait_event(domain, seed):
    """Sign-mixed row change: one trait up, one down, on a random robot."""
    rng = np.random.default_rng(seed)
    names = domain.team.trait_names
    for _ in range(30):
        i = int(rng.integers(domain.n_robots))
        row = np.array(domain.team.entries[i])
        nz = np.flatnonzero(row)
        if len(nz) < 2:
            continue
        up, down = rng.choice(nz, size=2, replace=False)
        row[up] *= 1.5
        row[down] *= 0.5
        ev = DynamicEvent(
            1.0,
            EventKind.TRAITS_INCREASED,
            {"agent": domain.team.robot_ids[i], "traits": dict(zip(names, row.tolist()))},
        )
        if len(decompose_mixed(domain, ev)) == 2 and _solvable_after(domain, ev):
            return ev
    raise AssertionError("could not build a mixed trait event")


def _bench_groups():
    """Group name -> event-list builder (each returns a list of events)."""
    singles = {
        kind.value: (lambda d, s, k=kind: [_screened_event(d, k, s)])
        for kind in EventKind
    }
    singles["mixed"] = lambda d, s: [_mixed_trait_event(d, s)]

    def multi(domain, seed):
        kinds = (EventKind.TRAITS_REDUCED, EventKind.DURATION_CHANGED)
        events = []
        current = domain
        for off, kind in enumerate(kinds):
            ev = _screened_event(current, kind, seed + off)
            events.append(ev)
            for step in decompose_mixed(current, ev):
                current = apply_event(current, step)
        return events

    singles["multi"] = multi
    return singles


def bench_records():
    """Per-event repair-vs-recompute measurements across all ten groups."""
    if "records" in _cache:
        return _cache["records"]
    records = []
    groups = _bench_groups()
    for group, build in groups.items():
        for i, (domain, initial) in enumerate(bench_initial()):
            events = build(domain, 9000 + 37 * i)
            current = domain
            rep_state, rep_sol = copy.deepcopy(initial.state), initial.solution
            for ev in events:
                for step in decompose_mixed(current, ev):
                    current = apply_event(current, step)

                t0 = time.perf_counter()
                repaired = repair(rep_state, rep_sol, ev)
                repair_ms = (time.perf_counter() - t0) * 1000.0

                t0 = time.perf_counter()
                recomputed = search(current, BENCH_ALPHA)
                recompute_ms = (time.perf_counter() - t0) * 1000.0

                violations = (
                    None
                    if repaired.solution is None
                    else solution_violations(current, repaired.solution, repaired.state)
                )
                records.append(
                    {
                        "group": group,
                        "repair_ms": repair_ms,
                        "recompute_ms": recompute_ms,
                        "repair_makespan": (
                            math.nan if repaired.solution is None else repaired.solution.makespan
                        ),
                        "recompute_makespan": (
                            math.nan
                            if recomputed.solution is None
                            else recomputed.solution.makespan
                        ),
                        "repair_solved": repaired.solution is not None,
                        "recompute_solved": recomputed.solution is not None,
                        "violations": violations,
                        "repaired": repaired,
                    }
                )
                rep_state, rep_sol = repaired.state, repaired.solution
    _cache["records"] = records
    return records


# -------------------------------------------------------------- criteria


def test_criterion_1_scheduler_exactness():
    with _verdict(1, "scheduler exactness on 200 random instances"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            problem = random_problem(rng, max_tasks=8, max_mutex=6)
            sched = solve_schedule(problem)
            oracle = oracle_min_makespan(problem)
            if oracle is None:
                assert sched is None
            else:
                assert sched is not None
                assert abs(sched.makespan - oracle) <= MK_TOL
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (budget 30s)"


def test_criterion_2_gap_bounds_across_alpha_sweep():
    with _verdict(2, "optimality-gap bounds over 20 domains x 6 alphas"):
        t0 = time.monotonic()
        for domain, optimal, per_alpha in sweep_runs():
            assert math.isfinite(optimal)
            for alpha, result in per_alpha.items():
                state = result.state
                gap = result.solution.makespan - optimal
                apriori = time_optimality_bound(alpha, state.lb, state.ub)
                tightened = posthoc_bound(
                    alpha,
                    state.lb,
                    state.ub,
                    result.solution.makespan,
                    open_frontier(state),
                )
                assert gap <= apriori + MK_TOL, (
                    f"alpha={alpha}: gap {gap} exceeds a-priori bound {apriori}"
                )
                assert gap <= tightened + MK_TOL, (
                    f"alpha={alpha}: gap {gap} exceeds post-hoc bound {tightened}"
                )
                if alpha == 0.0:
                    assert gap <= MK_TOL, f"alpha=0 must be time-optimal, gap={gap}"
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"criterion 2 took {elapsed:.1f}s (budget 5 min)"


def test_criterion_3_resource_optimality_at_alpha_one():
    with _verdict(3, "alpha=1 assignment counts match the oracle when certified"):
        logged = []
        for idx, (domain, solution, tie_free, _, optimal) in enumerate(resource_runs()):
            achieved = resource_count(solution.allocation)
            cert = min_assignments_certificate(domain)
            assert cert <= optimal  # the certificate is a true floor
            assert achieved >= optimal  # the oracle is a true minimum
            certified = tie_free and achieved == cert
            if certified:
                assert achieved == optimal, (
                    f"certified run used {achieved} assignments, oracle {optimal}"
                )
            else:
                logged.append((idx, achieved, optimal, tie_free, cert))
        for idx, achieved, optimal, tie_free, cert in logged:
            print(
                f"  uncertified run logged (domain {idx}): achieved={achieved} "
                f"oracle={optimal} tie_free={tie_free} certificate={cert}"
            )


def test_criterion_4_score_monotonicity():
    with _verdict(4, "apr/nsq monotonicity over every parent-child edge"):
        states = [
            result.state
            for _, _, per_alpha in sweep_runs()
            for result in per_alpha.values()
        ]
        states += [state for _, _, _, state, _ in resource_runs()]
        checked = 0
        for state in states:
            for batch, _, _, apr, _ in pending_members(state):
                assert apr <= batch.parent.apr + 1e-12
            for node in state.nodes.values():
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
                    checked += 1
        assert checked > 0


def test_criterion_5_repair_vs_recompute():
    with _verdict(5, "repair speed and quality vs fresh recompute"):
        t0 = time.monotonic()
        records = bench_records()
        assert len(records) >= 10 * N_SCENARIOS

        # repair never returns an invalid solution
        for r in records:
            if r["repair_solved"]:
                assert r["violations"] == [], (
                    f"invalid repair in group {r['group']}: {r['violations']}"
                )
            else:
                # only acceptable when recompute cannot solve it either
                assert not r["recompute_solved"]

        # overall speed: median repair wall-time at most half of recompute
        med_repair = statistics.median(r["repair_ms"] for r in records)
        med_recompute = statistics.median(r["recompute_ms"] for r in records)
        assert med_repair <= 0.5 * med_recompute, (
            f"median repair {med_repair:.1f}ms > 0.5 x median recompute "
            f"{med_recompute:.1f}ms"
        )

        # per-group quality: median makespan ratio within 10%, except the
        # group that gains an agent (repair may keep a narrower allocation)
        groups = sorted({r["group"] for r in records})
        for group in groups:
            ratios = [
                r["repair_makespan"] / r["recompute_makespan"]
                for r in records
                if r["group"] == group and r["repair_solved"] and r["recompute_solved"]
            ]
            assert ratios, f"group {group} produced no comparable runs"
            med_ratio = statistics.median(ratios)
            print(f"  group {group}: median makespan ratio {med_ratio:.3f}")
            if group != EventKind.NEW_AGENT.value:
                assert med_ratio <= 1.10, (
                    f"group {group}: median repair makespan ratio {med_ratio:.3f} > 1.10"
                )
        elapsed = time.monotonic() - t0
        assert elapsed < 900.0, f"criterion 5 took {elapsed:.1f}s (budget 15 min)"


def _all_solutions():
    """Every (domain, solution, state) produced for the earlier criteria."""
    out = []
    for domain, _, per_alpha in sweep_runs():
        for result in per_alpha.values():
            out.append((domain, result.solution, result.state))
    for domain, solution, _, state, _ in resource_runs():
        out.append((domain, solution, state))
    for domain, result in bench_initial():
        out.append((domain, result.solution, result.state))
    return out


def test_criterion_6_end_to_end_validity():
    with _verdict(6, "trait coverage, temporal constraints, collision-free plans"):
        for domain, solution, state in _all_solutions():
            agg = aggregate_traits(solution.allocation, domain.team)
            assert np.all(agg >= domain.requirements.entries - 1e-9)
            assert solution_violations(domain, solution, state) == []
            for plan in solution.motion_plans.values():
                assert plan_collision_samples(plan, domain.world.obstacles)


def test_criterion_7_bound_soundness():
    with _verdict(7, "achieved makespan within the analytic bounds"):
        for domain, solution, state in _all_solutions():
            assert state.lb - MK_TOL <= solution.makespan <= state.ub + MK_TOL


def test_criterion_8_csv_determinism(tmp_path):
    with _verdict(8, "byte-identical outputs modulo timing columns"):
        domain = generate_problem(3, 3, 4, 3)
        ppath = tmp_path / "p.json"
        spath = tmp_path / "s.json"
        save_domain(domain, ppath)
        save_events(
            [
                generate_event(domain, EventKind.DURATION_CHANGED, 1),
                generate_event(domain, EventKind.TRAITS_REDUCED, 2),
            ],
            spath,
        )

        def strip_timing(path):
            with open(path, newline="") as f:
                rows = list(csv.DictReader(f))
            return [
                {k: v for k, v in row.items() if k not in TIMING_COLUMNS}
                for row in rows
            ]

        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli_main(
                ["run-scenario", str(ppath), str(spath), "--mode", "both",
                 "--reps", "1", "--out", str(out)]
            ) == 0
            assert cli_main(
                ["bounds", "--robots", "2", "--tasks", "3", "--traits", "2",
                 "--alphas", "0.0", "0.3", "--out", str(out)]
            ) == 0
            assert cli_main(
                ["gen", "--seed", "11", "--robots", "3", "--tasks", "3",
                 "--traits", "2", "--out", str(out)]
            ) == 0
            outs.append(out)
        a, b = outs
        assert strip_timing(a / "results.csv") == strip_timing(b / "results.csv")
        assert (a / "bounds.csv").read_bytes() == (b / "bounds.csv").read_bytes()
        assert (a / "problem_seed11.json").read_bytes() == (
            b / "problem_seed11.json"
        ).read_bytes()
