"""JSON serialization for problems and event scenarios.

Strict on input: every field is read through the readers of ``domain``,
so a bool or a string is not a number and a point is exactly 2 numbers,
and unknown keys at any object level are rejected so that a typo in a
hand-written problem file fails loudly instead of silently changing the
instance.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .domain import (
    DesiredTraitMatrix,
    DomainError,
    ProblemDomain,
    TaskNetwork,
    TaskSpec,
    TeamTraitMatrix,
    WorldModel,
    read_field,
    read_number,
    read_row,
)
from .geometry import Circle, Rect
from .repair import DynamicEvent, EventKind


class ParseError(DomainError):
    pass


def _object(value, allowed: set[str], where: str) -> dict:
    """``value``, refused unless it is an object whose keys all lie in ``allowed``."""
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)} in {where}")
    return value


# each obstacle type: its shape, and the point length of each field (0: a number)
SHAPES = {"circle": (Circle, {"c": 2, "r": 0}), "rect": (Rect, {"min": 2, "max": 2})}


def _parse_obstacle(ob, where: str):
    _object(ob, {"type", "c", "r", "min", "max"}, where)
    shape = read_field(ob, "type", where, ParseError, str)
    if shape not in SHAPES:
        raise ParseError(f"obstacle in {where} must have type 'circle' or 'rect'")
    cls, lengths = SHAPES[shape]
    _object(ob, {"type", *lengths}, where)
    return cls(*(read_number(ob, key, where, ParseError, n) for key, n in lengths.items()))


def domain_from_dict(data) -> ProblemDomain:
    _object(data, {"robots", "traits", "tasks", "precedence", "mutex", "world"}, "problem")
    names = read_field(data, "traits", "problem", ParseError, list)
    if not all(isinstance(n, str) for n in names):
        raise ParseError(f"'traits' in problem must be a list of strings, got {names!r}")

    robot_ids, team_rows, starts, speeds = [], [], {}, {}
    for i, r in enumerate(read_field(data, "robots", "problem", ParseError, list)):
        where = f"robots[{i}]"
        _object(r, {"id", "traits", "start", "speed"}, where)
        rid = read_field(r, "id", where, ParseError, str)
        robot_ids.append(rid)
        team_rows.append(read_row(r, "traits", names, where, ParseError))
        starts[rid] = read_number(r, "start", where, ParseError, 2)
        speeds[rid] = read_number(r, "speed", where, ParseError)

    tasks, req_rows = [], []
    for i, t in enumerate(read_field(data, "tasks", "problem", ParseError, list)):
        where = f"tasks[{i}]"
        _object(t, {"id", "duration", "requires", "initial", "terminal"}, where)
        tid = read_field(t, "id", where, ParseError, str)
        sites = (read_number(t, key, where, ParseError, 2) for key in ("initial", "terminal"))
        tasks.append(TaskSpec(tid, read_number(t, "duration", where, ParseError), *sites))
        req_rows.append(read_row(t, "requires", names, where, ParseError))

    ids = [t.id for t in tasks]

    def edges(key: str) -> list[tuple[int, int]]:
        pairs = read_field(data, key, "problem", ParseError, list) if key in data else []
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and all(p in ids for p in pair)):
                raise ParseError(f"{key} edge {pair!r} must name two known task ids")
        return [(ids.index(a), ids.index(b)) for a, b in pairs]

    w = _object(read_field(data, "world", "problem", ParseError), {"bounds", "obstacles"}, "world")
    bounds = read_number(w, "bounds", "world", ParseError, 4)
    obstacles = read_field(w, "obstacles", "world", ParseError, list) if "obstacles" in w else []
    shapes = [_parse_obstacle(ob, f"world obstacles[{i}]") for i, ob in enumerate(obstacles)]
    return ProblemDomain(
        iteration=0,
        network=TaskNetwork(tasks, edges("precedence"), edges("mutex")),
        team=TeamTraitMatrix(np.array(team_rows), robot_ids, names),
        requirements=DesiredTraitMatrix(np.array(req_rows)),
        world=WorldModel(bounds, shapes, starts, speeds),
    )


def domain_to_dict(domain: ProblemDomain) -> dict:
    names = domain.team.trait_names
    tasks_by_idx = domain.network.tasks

    def sparse(row) -> dict:
        return {n: float(v) for n, v in zip(names, row) if v != 0.0}

    obstacles = []
    for ob in domain.world.obstacles:
        if isinstance(ob, Circle):
            obstacles.append({"type": "circle", "c": list(ob.center), "r": ob.radius})
        else:
            obstacles.append(
                {"type": "rect", "min": list(ob.min_corner), "max": list(ob.max_corner)}
            )
    return {
        "traits": list(names),
        "robots": [
            {
                "id": rid,
                "traits": sparse(domain.team.entries[i]),
                "start": list(domain.world.robot_start_configs[rid]),
                "speed": domain.world.robot_speeds[rid],
            }
            for i, rid in enumerate(domain.team.robot_ids)
        ],
        "tasks": [
            {
                "id": t.id,
                "duration": t.duration,
                "requires": sparse(domain.requirements.entries[i]),
                "initial": list(t.initial_config),
                "terminal": list(t.terminal_config),
            }
            for i, t in enumerate(tasks_by_idx)
        ],
        "precedence": sorted(
            [tasks_by_idx[i].id, tasks_by_idx[j].id]
            for i, j in domain.network.precedence_edges
        ),
        "mutex": sorted(
            [tasks_by_idx[i].id, tasks_by_idx[j].id] for i, j in domain.network.mutex_edges
        ),
        "world": {"bounds": list(domain.world.bounds), "obstacles": obstacles},
    }


def _load(path, from_dict):
    """``from_dict`` of one JSON file; a file that cannot be read or is not
    JSON, and a field ``from_dict`` refuses, raise ParseError naming the file.

    Values the model itself refuses (a NaN trait, a negative event time, a
    repeated id) keep their own ``DomainError``.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return from_dict(data)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_domain(path) -> ProblemDomain:
    return _load(path, domain_from_dict)


def save_domain(domain: ProblemDomain, path) -> None:
    Path(path).write_text(json.dumps(domain_to_dict(domain), indent=2, sort_keys=True))


def events_from_dict(data) -> list[DynamicEvent]:
    _object(data, {"events"}, "scenario")
    out = []
    for i, e in enumerate(read_field(data, "events", "scenario", ParseError, list)):
        where = f"events[{i}]"
        _object(e, {"time", "kind", "payload"}, where)
        time = read_number(e, "time", where, ParseError)
        kind = read_field(e, "kind", where, ParseError, str)
        if kind not in {k.value for k in EventKind}:
            raise ParseError(f"unknown event kind {kind!r} in {where}")
        out.append(DynamicEvent(time, EventKind(kind), read_field(e, "payload", where, ParseError)))
    return sorted(out, key=lambda ev: ev.time)


def load_events(path) -> list[DynamicEvent]:
    return _load(path, events_from_dict)


def save_events(events: list[DynamicEvent], path) -> None:
    data = {
        "events": [
            {"time": e.time, "kind": e.kind.value, "payload": e.payload} for e in events
        ]
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))
