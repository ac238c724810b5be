"""Shared fixtures: tiny hand-built domains and seeded generated ones."""

from __future__ import annotations

import numpy as np
import pytest

from dynalloc.domain import (
    DesiredTraitMatrix,
    ProblemDomain,
    TaskNetwork,
    TaskSpec,
    TeamTraitMatrix,
    WorldModel,
)
from dynalloc.generator import generate_problem
from dynalloc.geometry import Circle
from dynalloc.search import OPEN, apr_value


def build_domain(
    team_rows,
    req_rows,
    *,
    durations=None,
    precedence=(),
    mutex=(),
    obstacles=(),
    bounds=(0.0, 0.0, 20.0, 20.0),
    speeds=None,
):
    """Small hand-built domain with evenly spaced task sites and starts."""
    n_robots = len(team_rows)
    n_tasks = len(req_rows)
    n_traits = len(team_rows[0])
    robot_ids = tuple(f"r{i}" for i in range(n_robots))
    durations = durations or [1.0] * n_tasks
    tasks = tuple(
        TaskSpec(
            f"t{m}",
            durations[m],
            (2.0 + 3.0 * m, 5.0),
            (2.0 + 3.0 * m, 8.0),
        )
        for m in range(n_tasks)
    )
    starts = {rid: (1.0 + 2.0 * i, 1.0) for i, rid in enumerate(robot_ids)}
    speeds = speeds or {rid: 1.0 for rid in robot_ids}
    return ProblemDomain(
        iteration=0,
        network=TaskNetwork(tasks, frozenset(precedence), frozenset(mutex)),
        team=TeamTraitMatrix(
            np.array(team_rows, dtype=float),
            robot_ids,
            tuple(f"trait{u}" for u in range(n_traits)),
        ),
        requirements=DesiredTraitMatrix(np.array(req_rows, dtype=float)),
        world=WorldModel(bounds, tuple(obstacles), starts, speeds),
    )


def heap_violations(state):
    """Breaches of the frontier invariant that peeking the heap relies on.

    An entry is live when ``pop`` would return it: its version is the node's
    and the node is OPEN. Every OPEN node of the graph must have exactly one
    live entry, keyed by its current tetaq, and no other node may have one.
    """
    live = {}
    problems = []
    for tetaq, _, _, version, node in state.open_heap:
        if node.status == OPEN and node.version == version:
            live[id(node)] = live.get(id(node), 0) + 1
            if tetaq != node.tetaq:
                problems.append(f"node {node.seq} keyed {tetaq}, tetaq {node.tetaq}")
    frontier = {id(n): n for n in state.nodes.values() if n.status == OPEN}
    for key, node in frontier.items():
        if live.get(key, 0) != 1:
            problems.append(f"open node {node.seq} has {live.get(key, 0)} live entries")
    problems.extend(
        f"live entry for a node outside the frontier ({count})"
        for key, count in live.items()
        if key not in frontier
    )
    return problems


def score_violations(state):
    """OPEN nodes whose scores are not current, compared with ``==``.

    Each OPEN node's apr must be its allocation's ``apr_value`` on the
    state's domain, its nsq and tetaq the priority formula on (apr, floor,
    lb, ub, alpha), and an exact node's floor its schedule's makespan. This
    is the rule that lets the search materialize a node without re-deriving
    its apr.
    """
    domain, lb, ub, alpha = state.domain, state.lb, state.ub, state.alpha
    problems = []
    for node in state.nodes.values():
        if node.status != OPEN:
            continue
        apr = apr_value(node.allocation, domain.team, domain.requirements)
        nsq = 0.0 if ub <= lb else min(1.0, max(0.0, (node.floor - lb) / (ub - lb)))
        expected = {"apr": apr, "nsq": nsq, "tetaq": alpha * node.apr + (1.0 - alpha) * nsq}
        if node.exact:
            expected["floor"] = node.schedule.makespan
        problems.extend(
            f"node {node.seq}: {name} {getattr(node, name)!r}, expected {value!r}"
            for name, value in expected.items()
            if getattr(node, name) != value
        )
    return problems


@pytest.fixture
def tiny_domain():
    """One robot, one task, one trait; trivially solvable."""
    return build_domain([[1.0]], [[1.0]])


@pytest.fixture
def pair_domain():
    """Two robots each holding 1 unit of the trait; the task needs 2."""
    return build_domain([[1.0], [1.0]], [[2.0]])


@pytest.fixture
def empty_req_domain():
    """Requirements are all zero, so the empty allocation is a goal."""
    return build_domain([[1.0], [1.0]], [[0.0], [0.0]])


@pytest.fixture
def obstacle_domain():
    """A circle sits between every robot start and every task site."""
    return build_domain(
        [[1.0], [1.0]],
        [[1.0], [1.0]],
        obstacles=[Circle((10.0, 3.5), 2.0)],
        bounds=(0.0, 0.0, 20.0, 20.0),
    )


@pytest.fixture
def desk_domain():
    """Seeded generated domain at brute-force-oracle scale."""
    return generate_problem(0, 3, 4, 3)
