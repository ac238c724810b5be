"""JSON serialization for problems and event scenarios.

Strict on input: unknown keys at any object level are rejected so that a
typo in a hand-written problem file fails loudly instead of silently
changing the instance.
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
)
from .geometry import Circle, Rect
from .repair import DynamicEvent, EventKind


class ParseError(DomainError):
    pass


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)} in {where}")


def _require(obj: dict, keys: set[str], where: str) -> None:
    missing = keys - set(obj)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)} in {where}")


def _parse_obstacle(ob: dict, where: str):
    if ob.get("type") == "circle":
        _check_keys(ob, {"type", "c", "r"}, where)
        _require(ob, {"c", "r"}, where)
        return Circle(tuple(ob["c"]), float(ob["r"]))
    if ob.get("type") == "rect":
        _check_keys(ob, {"type", "min", "max"}, where)
        _require(ob, {"min", "max"}, where)
        return Rect(tuple(ob["min"]), tuple(ob["max"]))
    raise ParseError(f"obstacle in {where} must have type 'circle' or 'rect'")


def domain_from_dict(data: dict) -> ProblemDomain:
    _check_keys(
        data, {"robots", "traits", "tasks", "precedence", "mutex", "world"}, "problem"
    )
    _require(data, {"robots", "traits", "tasks", "world"}, "problem")
    trait_names = tuple(data["traits"])

    def row(mapping: dict, where: str) -> list[float]:
        unknown = set(mapping) - set(trait_names)
        if unknown:
            raise ParseError(f"unknown trait names {sorted(unknown)} in {where}")
        return [float(mapping.get(t, 0.0)) for t in trait_names]

    robot_ids, team_rows, starts, speeds = [], [], {}, {}
    for r in data["robots"]:
        _check_keys(r, {"id", "traits", "start", "speed"}, f"robot {r.get('id')}")
        _require(r, {"id", "traits", "start", "speed"}, f"robot {r.get('id')}")
        robot_ids.append(r["id"])
        team_rows.append(row(r["traits"], f"robot {r['id']}"))
        starts[r["id"]] = tuple(r["start"])
        speeds[r["id"]] = float(r["speed"])

    tasks, req_rows = [], []
    for t in data["tasks"]:
        _check_keys(
            t, {"id", "duration", "requires", "initial", "terminal"}, f"task {t.get('id')}"
        )
        _require(t, {"id", "duration", "requires", "initial", "terminal"}, f"task {t.get('id')}")
        tasks.append(
            TaskSpec(t["id"], float(t["duration"]), tuple(t["initial"]), tuple(t["terminal"]))
        )
        req_rows.append(row(t["requires"], f"task {t['id']}"))

    task_idx = {t.id: i for i, t in enumerate(tasks)}

    def edge(pair, where: str):
        a, b = pair
        if a not in task_idx or b not in task_idx:
            raise ParseError(f"unknown task id in {where} edge {pair}")
        return task_idx[a], task_idx[b]

    precedence = frozenset(edge(p, "precedence") for p in data.get("precedence", []))
    mutex = frozenset(tuple(sorted(edge(p, "mutex"))) for p in data.get("mutex", []))

    w = data["world"]
    _check_keys(w, {"bounds", "obstacles"}, "world")
    _require(w, {"bounds"}, "world")
    world = WorldModel(
        bounds=tuple(float(v) for v in w["bounds"]),
        obstacles=tuple(
            _parse_obstacle(ob, f"world obstacle {i}")
            for i, ob in enumerate(w.get("obstacles", []))
        ),
        robot_start_configs=starts,
        robot_speeds=speeds,
    )
    return ProblemDomain(
        iteration=0,
        network=TaskNetwork(tuple(tasks), precedence, mutex),
        team=TeamTraitMatrix(np.array(team_rows), tuple(robot_ids), trait_names),
        requirements=DesiredTraitMatrix(np.array(req_rows)),
        world=world,
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
    """``from_dict`` of one JSON file; a malformed file raises ParseError naming it.

    Values the model itself refuses (a NaN trait, a negative event time)
    keep their own ``DomainError``.
    """
    try:
        return from_dict(json.loads(Path(path).read_text()))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (OSError, ValueError, TypeError, KeyError, AttributeError, IndexError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_domain(path) -> ProblemDomain:
    return _load(path, domain_from_dict)


def save_domain(domain: ProblemDomain, path) -> None:
    Path(path).write_text(json.dumps(domain_to_dict(domain), indent=2, sort_keys=True))


def events_from_dict(data: dict) -> list[DynamicEvent]:
    _check_keys(data, {"events"}, "scenario")
    _require(data, {"events"}, "scenario")
    out = []
    for i, e in enumerate(data["events"]):
        _check_keys(e, {"time", "kind", "payload"}, f"event {i}")
        _require(e, {"time", "kind", "payload"}, f"event {i}")
        try:
            kind = EventKind(e["kind"])
        except ValueError:
            raise ParseError(f"unknown event kind {e['kind']!r}") from None
        out.append(DynamicEvent(float(e["time"]), kind, e["payload"]))
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
