"""Core problem model: trait matrices, task network, world, allocations.

All types are immutable after construction; a mutated problem is a new
``ProblemDomain`` with ``iteration + 1``; a repeated robot, task or trait
id is refused on construction. Cross-object consistency (matrix
dimensions, DAG-ness of precedence, geometric placement) is checked by
``validate_problem`` rather than in constructors so that malformed inputs
can be loaded and reported instead of crashing the loader. Outside input
is read only through ``read_field``, ``read_number`` and ``read_row``,
which refuse a field by name with the error class their caller passes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .geometry import Circle, Point, Shape, point_in_any

GE_TOL = 1e-9  # absolute slack for elementwise >= comparisons


class DomainError(Exception):
    """Base class for model errors."""


class DimensionMismatchError(DomainError):
    pass


def read_field(obj: dict, key: str, where: str, error: type[DomainError], kind: type = object):
    """``obj[key]``, refused as ``error`` when it is absent or not a ``kind``."""
    if key not in obj:
        raise error(f"{where} has no {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        expected = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise error(f"{key!r} in {where} must be {expected}, got {value!r}")
    return value


def read_number(obj: dict, key: str, where: str, error: type[DomainError], length: int = 0):
    """``obj[key]`` as a float or, given a ``length``, a point: a list of that
    many. A number is a JSON int or float, never a bool or a string."""
    value = read_field(obj, key, where, error)
    point = isinstance(value, (list, tuple)) and len(value) == length
    items = value if point else [value]
    if point != bool(length) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in items
    ):
        expected = f"a list of {length} numbers" if length else "a number"
        raise error(f"{key!r} in {where} must be {expected}, got {value!r}")
    try:
        return tuple(map(float, items)) if length else float(value)
    except OverflowError:
        raise error(f"{key!r} in {where} is too large for a float") from None


def read_row(obj: dict, key: str, names, where: str, error: type[DomainError]) -> np.ndarray:
    """The trait row ``obj[key]`` maps by name; a trait it leaves out is 0."""
    mapping = read_field(obj, key, where, error, dict)
    unknown = set(mapping) - set(names)
    if unknown:
        raise error(f"unknown trait names {sorted(unknown)} in {where}")
    where = f"{where} {key}"
    return np.array([read_number(mapping, n, where, error) if n in mapping else 0.0 for n in names])


def _distinct(ids, what: str) -> None:
    repeated = [i for i, n in Counter(ids).items() if n > 1]
    if repeated:
        raise DomainError(f"{what} must be distinct, repeated: {repeated}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TeamTraitMatrix:
    """Per-robot capability values; rows are robots, columns are traits."""

    entries: np.ndarray
    robot_ids: tuple[str, ...]
    trait_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))
        object.__setattr__(self, "robot_ids", tuple(self.robot_ids))
        object.__setattr__(self, "trait_names", tuple(self.trait_names))
        if self.entries.ndim != 2:
            raise DimensionMismatchError("team trait matrix must be 2-D")
        n, u = self.entries.shape
        if n < 1 or u < 1:
            raise DimensionMismatchError("team trait matrix must be at least 1x1")
        if len(self.robot_ids) != n:
            raise DimensionMismatchError("robot_ids length must equal row count")
        if len(self.trait_names) != u:
            raise DimensionMismatchError("trait_names length must equal column count")
        _distinct(self.robot_ids, "robot ids")
        _distinct(self.trait_names, "trait names")
        if not np.all(np.isfinite(self.entries) & (self.entries >= 0)):
            raise DomainError("trait values must be finite and non-negative")

    @property
    def n_robots(self) -> int:
        return self.entries.shape[0]

    @property
    def n_traits(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class DesiredTraitMatrix:
    """Per-task trait requirements; rows are tasks, columns are traits."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))
        if self.entries.ndim != 2:
            raise DimensionMismatchError("desired trait matrix must be 2-D")
        if not np.all(np.isfinite(self.entries) & (self.entries >= 0)):
            raise DomainError("required trait values must be finite and non-negative")

    @property
    def n_tasks(self) -> int:
        return self.entries.shape[0]

    @property
    def n_traits(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class TaskSpec:
    id: str
    duration: float
    initial_config: Point
    terminal_config: Point

    def __post_init__(self):
        object.__setattr__(self, "initial_config", tuple(self.initial_config))
        object.__setattr__(self, "terminal_config", tuple(self.terminal_config))


@dataclass(frozen=True)
class TaskNetwork:
    """Tasks with precedence (ordered) and mutex (unordered) edges.

    Edges are index pairs into ``tasks``; mutex pairs are stored sorted.
    """

    tasks: tuple[TaskSpec, ...]
    precedence_edges: frozenset[tuple[int, int]]
    mutex_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(
            self, "precedence_edges", frozenset(tuple(e) for e in self.precedence_edges)
        )
        object.__setattr__(
            self,
            "mutex_edges",
            frozenset(tuple(sorted(e)) for e in self.mutex_edges),
        )
        _distinct([t.id for t in self.tasks], "task ids")
        for i, j in self.precedence_edges | self.mutex_edges:
            if i == j:
                raise DomainError(f"self-loop on task index {i}")

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class WorldModel:
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    obstacles: tuple[Shape, ...]
    robot_start_configs: dict[str, Point]
    robot_speeds: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(
            self,
            "robot_start_configs",
            {k: tuple(v) for k, v in self.robot_start_configs.items()},
        )
        object.__setattr__(self, "robot_speeds", dict(self.robot_speeds))

    def in_bounds(self, p: Point) -> bool:
        xmin, ymin, xmax, ymax = self.bounds
        return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax


@dataclass(frozen=True)
class ProblemDomain:
    iteration: int
    network: TaskNetwork
    team: TeamTraitMatrix
    requirements: DesiredTraitMatrix
    world: WorldModel

    @property
    def n_tasks(self) -> int:
        return self.network.n_tasks

    @property
    def n_robots(self) -> int:
        return self.team.n_robots


@dataclass(frozen=True)
class Allocation:
    """Binary robot-to-task assignment matrix, tasks x robots.

    A matrix handed in by a caller is validated here, once: it must be 2-D
    and every entry must equal 0 or 1 before the int8 cast, so 0.5, 257 or
    -255 are refused rather than truncated. ``child_keys`` derives the keys
    of its children without building them, and ``_trusted`` builds a child
    from its key without re-checking it, since setting one cell of a valid
    matrix to 1 keeps it valid; ``unstack_allocations`` likewise trusts a
    stack cut or widened from valid matrices. Every allocation carries its
    assignment ``count`` and its ``key``, so neither is recomputed from the
    matrix.
    """

    entries: np.ndarray
    count: int = field(init=False, repr=False, compare=False)
    _key: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = np.asarray(self.entries)
        if raw.ndim != 2:
            raise DimensionMismatchError("allocation must be 2-D")
        if not ((raw == 0) | (raw == 1)).all():
            raise DomainError("allocation entries must be 0 or 1")
        arr = raw.astype(np.int8, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "count", int(np.count_nonzero(arr)))
        object.__setattr__(self, "_key", arr.tobytes())

    def key(self) -> bytes:
        """Canonical hashable form (shape is fixed per domain)."""
        return self._key

    def child_keys(self, cells) -> list[bytes]:
        """The key of the allocation with one more assignment at each cell of
        ``cells`` not yet assigned, in order, without building the child.

        Cells are flat, row-major indices into the matrix, as an expansion
        enumerates them; one slice-and-join per child, no per-cell call.
        """
        key = self._key
        return [key[:i] + b"\x01" + key[i + 1 :] for i in cells if not key[i]]

    @classmethod
    def _trusted(cls, key: bytes, shape: tuple[int, ...], count: int) -> "Allocation":
        """The allocation whose key is ``key``, the bytes of a valid matrix.

        Its entries are a read-only view of the immutable key: no copy, no
        re-validation. Only code that derived ``key`` (and ``count``) from
        valid matrices may call it.
        """
        alloc = object.__new__(cls)
        entries = np.frombuffer(key, dtype=np.int8).reshape(shape)
        object.__setattr__(alloc, "entries", entries)
        object.__setattr__(alloc, "count", count)
        object.__setattr__(alloc, "_key", key)
        return alloc


def stack_keys(keys, shape: tuple[int, int]) -> np.ndarray:
    """The matrices whose keys are given, all of ``shape``, as one
    (K, M, N) int8 array.

    Read-only: a view of the keys joined into one buffer.
    """
    return np.frombuffer(b"".join(keys), dtype=np.int8).reshape(len(keys), *shape)


def unstack_allocations(stack: np.ndarray) -> list[Allocation]:
    """One allocation per slice of a (K, M, N) int8 stack of valid matrices.

    Nothing is re-validated: each allocation's entries are a read-only view
    of its own key bytes, and the assignment counts come from one pass over
    the stack.
    """
    k, *shape = stack.shape
    size = math.prod(shape)
    buf = stack.tobytes()
    counts = np.count_nonzero(stack.reshape(k, size), axis=1).tolist()
    return [
        Allocation._trusted(buf[i * size : (i + 1) * size], tuple(shape), c)
        for i, c in enumerate(counts)
    ]


def aggregate_traits(alloc: Allocation, team: TeamTraitMatrix) -> np.ndarray:
    """Traits accumulated at each task by its assigned coalition (A @ Q)."""
    if alloc.entries.shape[1] != team.n_robots:
        raise DimensionMismatchError(
            f"allocation has {alloc.entries.shape[1]} robot columns, "
            f"team has {team.n_robots} robots"
        )
    return alloc.entries.astype(float) @ team.entries


def trait_mismatch(
    alloc: Allocation, team: TeamTraitMatrix, req: DesiredTraitMatrix
) -> np.ndarray:
    """Requirement minus aggregate; positive entries are unmet demand."""
    agg = aggregate_traits(alloc, team)
    if agg.shape != req.entries.shape:
        raise DimensionMismatchError(
            f"aggregate shape {agg.shape} vs requirements {req.entries.shape}"
        )
    return req.entries - agg


def is_valid_allocation(
    alloc: Allocation, team: TeamTraitMatrix, req: DesiredTraitMatrix
) -> bool:
    """True iff each task's coalition meets its requirement row."""
    return bool(np.all(trait_mismatch(alloc, team, req) <= GE_TOL))


def resource_count(alloc: Allocation) -> int:
    return alloc.count


def precedence_has_cycle(network: TaskNetwork) -> bool:
    """Kahn's algorithm; True when some edge survives elimination."""
    n = network.n_tasks
    indeg = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in network.precedence_edges:
        indeg[j] += 1
        succ[i].append(j)
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen < n


@dataclass
class ValidationIssue:
    code: str
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    def add(self, code: str, message: str) -> None:
        self.issues.append(ValidationIssue(code, message))

    @property
    def ok(self) -> bool:
        return not self.issues

    def codes(self) -> set[str]:
        return {i.code for i in self.issues}


def _point_faults(world: WorldModel, p: Point, what: str, verb: str) -> list[tuple[str, str]]:
    if not all(map(math.isfinite, p)):
        return [(f"{what}_NOT_FINITE", f"{verb} at a non-finite point")]
    faults = []
    if not world.in_bounds(p):
        faults.append((f"{what}_OUT_OF_BOUNDS", f"{verb} outside bounds"))
    if point_in_any(p, world.obstacles):
        faults.append((f"{what}_IN_OBSTACLE", f"{verb} inside an obstacle"))
    return faults


def start_faults(world: WorldModel, start: Point) -> list[tuple[str, str]]:
    """(code, reason) for each rule a robot start breaks; empty when valid."""
    return _point_faults(world, start, "START", "starts")


def site_faults(world: WorldModel, site: Point) -> list[tuple[str, str]]:
    """(code, reason) for each rule a task site breaks; empty when valid."""
    return _point_faults(world, site, "SITE", "lies")


def _obstacle_fault(ob: Shape) -> str | None:
    """Why an obstacle would silently block nothing or hold no point; None
    when it is a finite circle of positive radius or a finite rect whose
    min corner is at or below its max corner."""
    if isinstance(ob, Circle):
        if not all(map(math.isfinite, ob.center)):
            return f"circle centre {ob.center} is not finite"
        if not 0 < ob.radius < math.inf:
            return f"circle radius {ob.radius} is not finite and positive"
        return None
    corners = ob.min_corner + ob.max_corner
    if not all(map(math.isfinite, corners)):
        return f"rect corners {corners} are not finite"
    if ob.min_corner[0] > ob.max_corner[0] or ob.min_corner[1] > ob.max_corner[1]:
        return f"rect min corner {ob.min_corner} exceeds max corner {ob.max_corner}"
    return None


def validate_problem(domain: ProblemDomain) -> ValidationReport:
    """Collect every well-formedness violation; empty report means valid."""
    report = ValidationReport()
    net, team, req, world = domain.network, domain.team, domain.requirements, domain.world

    if req.n_tasks != net.n_tasks:
        report.add(
            "DIMENSION_MISMATCH",
            f"requirements have {req.n_tasks} rows, network has {net.n_tasks} tasks",
        )
    if req.n_traits != team.n_traits:
        report.add(
            "DIMENSION_MISMATCH",
            f"requirements have {req.n_traits} trait columns, team has {team.n_traits}",
        )
    if precedence_has_cycle(net):
        report.add("CYCLIC_PRECEDENCE", "precedence edges contain a cycle")
    for i, t in enumerate(net.tasks):
        if not math.isfinite(t.duration):
            report.add("NONFINITE_DURATION", f"task {t.id} has duration {t.duration}")
        elif t.duration < 0:
            report.add("NEGATIVE_DURATION", f"task {t.id} has duration {t.duration}")
    for i, j in net.precedence_edges | net.mutex_edges:
        if not (0 <= i < net.n_tasks and 0 <= j < net.n_tasks):
            report.add("BAD_EDGE_INDEX", f"edge ({i},{j}) out of range")
    xmin, ymin, xmax, ymax = world.bounds
    if not (all(map(math.isfinite, world.bounds)) and xmin < xmax and ymin < ymax):
        report.add("BAD_BOUNDS", f"world bounds {world.bounds} are not finite with min < max")
    for k, ob in enumerate(world.obstacles):
        reason = _obstacle_fault(ob)
        if reason is not None:
            report.add("BAD_OBSTACLE", f"obstacle {k}: {reason}")
    for t in net.tasks:
        for name, site in (("initial", t.initial_config), ("terminal", t.terminal_config)):
            for code, reason in site_faults(world, site):
                report.add(code, f"task {t.id} {name} site {reason}")
    for rid in team.robot_ids:
        start = world.robot_start_configs.get(rid)
        if start is None:
            report.add("MISSING_START", f"robot {rid} has no start config")
            continue
        for code, reason in start_faults(world, start):
            report.add(code, f"robot {rid} {reason}")
        speed = world.robot_speeds.get(rid, 0.0)
        if speed is None or not 0 < speed < math.inf:
            report.add("BAD_SPEED", f"robot {rid} has speed {speed}")
    return report
