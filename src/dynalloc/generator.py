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
from .repair import ROW_CHANGES, DynamicEvent, EventKind, ids_and_rows

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
# the range of the factor each row-change kind scales its row by
ROW_FACTORS = {
    EventKind.TRAITS_REDUCED: (0.3, 0.9),
    EventKind.TRAITS_INCREASED: (1.1, 1.8),
    EventKind.REQUIREMENTS_INCREASED: (1.05, 1.3),
    EventKind.REQUIREMENTS_REDUCED: (0.3, 0.9),
}


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

    def pick(id_key: str) -> tuple[int, str]:
        ids = ids_and_rows(domain, id_key)[0]
        i = int(rng.integers(len(ids)))
        return i, ids[i]

    if kind in (EventKind.AGENT_LOST, EventKind.TASK_LOST):
        id_key = "agent" if kind == EventKind.AGENT_LOST else "task"
        return DynamicEvent(time, kind, {id_key: pick(id_key)[1]})
    if kind in ROW_CHANGES:
        id_key, row_key, _ = ROW_CHANGES[kind]
        i, ident = pick(id_key)
        row = ids_and_rows(domain, id_key)[1][i] * rng.uniform(*ROW_FACTORS[kind])
        return DynamicEvent(
            time, kind, {id_key: ident, row_key: dict(zip(names, np.round(row, 6).tolist()))}
        )
    if kind == EventKind.DURATION_CHANGED:
        m, tid = pick("task")
        duration = domain.network.tasks[m].duration * float(rng.uniform(0.5, 2.0))
        return DynamicEvent(time, kind, {"task": tid, "duration": round(duration, 6)})
    if kind == EventKind.NEW_AGENT:
        row = np.zeros(len(names))
        mask = rng.random(len(names)) < 0.7
        if not mask.any():
            mask[int(rng.integers(len(names)))] = True
        row[mask] = np.round(rng.uniform(0.5, 2.0, int(mask.sum())), 3)
        start = _free_point(rng, domain.world.bounds, domain.world.obstacles)
        agent = {
            "id": f"r_new_{seed}",
            "traits": dict(zip(names, row.tolist())),
            "start": list(start),
            "speed": round(float(rng.uniform(1.0, 3.0)), 3),
        }
        return DynamicEvent(time, kind, {"agent": agent})
    raise DomainError(f"unsupported event kind {kind}")
