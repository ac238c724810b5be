"""Seeded random problem and scenario generation.

Requirements are built as scaled sub-sums of actual robot trait rows, so
every generated task is satisfiable by some coalition. Task sites and
robot starts are rejection-sampled into free space.
"""

from __future__ import annotations

import numpy as np

from .domain import (
    DesiredTraitMatrix,
    DomainError,
    ProblemDomain,
    TaskNetwork,
    TaskSpec,
    TeamTraitMatrix,
    WorldModel,
    validate_problem,
)
from .geometry import Circle, point_in_any
from .repair import DynamicEvent, EventKind

MAX_PLACEMENT_TRIES = 10_000


# the generated world: a square with a few circular obstacles
WIDTH = 100.0
HEIGHT = 100.0
N_OBSTACLES = 3
MAX_OBSTACLE_RADIUS = 8.0
MIN_SPEED = 1.0
MAX_SPEED = 3.0
PRECEDENCE_PROB = 0.15
MUTEX_PROB = 0.1
MAX_COALITION = 2
TRAIT_PROB = 0.7  # chance a robot possesses each trait
MAX_DURATION = 10.0


def _free_point(rng, world_bounds, obstacles):
    xmin, ymin, xmax, ymax = world_bounds
    for _ in range(MAX_PLACEMENT_TRIES):
        p = (
            round(float(rng.uniform(xmin, xmax)), 3),
            round(float(rng.uniform(ymin, ymax)), 3),
        )
        if not point_in_any(p, obstacles):
            return p
    raise DomainError("could not place a point in free space")


def generate_problem(seed: int, n_robots: int, n_tasks: int, n_traits: int) -> ProblemDomain:
    """Deterministic random domain; always passes validate_problem."""
    if min(n_robots, n_tasks, n_traits) < 1:
        raise DomainError("counts must all be >= 1")
    rng = np.random.default_rng(seed)
    bounds = (0.0, 0.0, WIDTH, HEIGHT)

    obstacles = tuple(
        Circle(
            (
                round(float(rng.uniform(0.15 * WIDTH, 0.85 * WIDTH)), 3),
                round(float(rng.uniform(0.15 * HEIGHT, 0.85 * HEIGHT)), 3),
            ),
            round(float(rng.uniform(1.0, MAX_OBSTACLE_RADIUS)), 3),
        )
        for _ in range(N_OBSTACLES)
    )

    # robots: trait rows with sparse zeros, positive speeds, free starts
    robot_ids = tuple(f"r{i}" for i in range(n_robots))
    team = np.zeros((n_robots, n_traits))
    for i in range(n_robots):
        while True:
            mask = rng.random(n_traits) < TRAIT_PROB
            if mask.any():
                break
        team[i, mask] = np.round(rng.uniform(0.5, 2.0, int(mask.sum())), 3)
    starts = {rid: _free_point(rng, bounds, obstacles) for rid in robot_ids}
    speeds = {
        rid: round(float(rng.uniform(MIN_SPEED, MAX_SPEED)), 3)
        for rid in robot_ids
    }

    # tasks: requirement rows are scaled sums of a random robot subset
    tasks = []
    req = np.zeros((n_tasks, n_traits))
    for m in range(n_tasks):
        size = int(rng.integers(1, min(MAX_COALITION, n_robots) + 1))
        subset = rng.choice(n_robots, size=size, replace=False)
        scale = float(rng.uniform(0.5, 1.0))
        req[m] = np.round(team[subset].sum(axis=0) * scale, 3)
        initial = _free_point(rng, bounds, obstacles)
        terminal = _free_point(rng, bounds, obstacles)
        tasks.append(
            TaskSpec(
                f"t{m}",
                round(float(rng.uniform(1.0, MAX_DURATION)), 3),
                initial,
                terminal,
            )
        )

    precedence = set()
    mutex = set()
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            u = rng.random()
            if u < PRECEDENCE_PROB:
                precedence.add((i, j))  # i < j keeps the DAG acyclic
            elif u < PRECEDENCE_PROB + MUTEX_PROB:
                mutex.add((i, j))

    domain = ProblemDomain(
        iteration=0,
        network=TaskNetwork(tuple(tasks), frozenset(precedence), frozenset(mutex)),
        team=TeamTraitMatrix(team, robot_ids, tuple(f"trait{u}" for u in range(n_traits))),
        requirements=DesiredTraitMatrix(req),
        world=WorldModel(bounds, obstacles, starts, speeds),
    )
    report = validate_problem(domain)
    if not report.ok:
        raise DomainError(f"generator produced an invalid domain: {report.issues}")
    return domain


def generate_event(domain: ProblemDomain, kind: EventKind, seed: int) -> DynamicEvent:
    """One random event of the given kind, consistent with the domain."""
    rng = np.random.default_rng(seed)
    names = domain.team.trait_names
    time = round(float(rng.uniform(0.0, 10.0)), 3)

    def pick_robot() -> int:
        return int(rng.integers(domain.n_robots))

    def pick_task() -> int:
        return int(rng.integers(domain.n_tasks))

    if kind == EventKind.AGENT_LOST:
        return DynamicEvent(
            time, kind, {"agent": domain.team.robot_ids[pick_robot()]}
        )
    if kind == EventKind.TASK_LOST:
        return DynamicEvent(time, kind, {"task": domain.network.tasks[pick_task()].id})
    if kind in (EventKind.TRAITS_REDUCED, EventKind.TRAITS_INCREASED):
        i = pick_robot()
        row = np.array(domain.team.entries[i])
        factor = rng.uniform(0.3, 0.9) if kind == EventKind.TRAITS_REDUCED else rng.uniform(
            1.1, 1.8
        )
        row = np.round(row * factor, 6)
        return DynamicEvent(
            time,
            kind,
            {"agent": domain.team.robot_ids[i], "traits": dict(zip(names, row.tolist()))},
        )
    if kind in (EventKind.REQUIREMENTS_INCREASED, EventKind.REQUIREMENTS_REDUCED):
        m = pick_task()
        row = np.array(domain.requirements.entries[m])
        factor = (
            rng.uniform(1.05, 1.3)
            if kind == EventKind.REQUIREMENTS_INCREASED
            else rng.uniform(0.3, 0.9)
        )
        row = np.round(row * factor, 6)
        return DynamicEvent(
            time,
            kind,
            {"task": domain.network.tasks[m].id, "requires": dict(zip(names, row.tolist()))},
        )
    if kind == EventKind.DURATION_CHANGED:
        m = pick_task()
        task = domain.network.tasks[m]
        return DynamicEvent(
            time,
            kind,
            {"task": task.id, "duration": round(task.duration * float(rng.uniform(0.5, 2.0)), 6)},
        )
    if kind == EventKind.NEW_AGENT:
        row = np.zeros(len(names))
        mask = rng.random(len(names)) < 0.7
        if not mask.any():
            mask[int(rng.integers(len(names)))] = True
        row[mask] = np.round(rng.uniform(0.5, 2.0, int(mask.sum())), 3)
        start = _free_point(rng, domain.world.bounds, domain.world.obstacles)
        return DynamicEvent(
            time,
            kind,
            {
                "agent": {
                    "id": f"r_new_{seed}",
                    "traits": dict(zip(names, row.tolist())),
                    "start": list(start),
                    "speed": round(float(rng.uniform(1.0, 3.0)), 3),
                }
            },
        )
    raise DomainError(f"unsupported event kind {kind}")
