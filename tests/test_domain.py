"""Domain model: matrices, allocations, trait math, and validation codes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynalloc.domain import (
    Allocation,
    DesiredTraitMatrix,
    DimensionMismatchError,
    DomainError,
    TaskNetwork,
    TaskSpec,
    TeamTraitMatrix,
    WorldModel,
    aggregate_traits,
    is_valid_allocation,
    precedence_has_cycle,
    resource_count,
    trait_mismatch,
    validate_problem,
)
from dynalloc.geometry import Circle, Rect
from dynalloc.search import apr_value

from conftest import build_domain


def _team(rows):
    rows = np.array(rows, dtype=float)
    return TeamTraitMatrix(
        rows,
        tuple(f"r{i}" for i in range(rows.shape[0])),
        tuple(f"trait{u}" for u in range(rows.shape[1])),
    )


def _assigned(alloc, cell):
    """A fresh allocation: ``alloc`` plus one assignment at a flat cell."""
    entries = np.array(alloc.entries)
    entries.flat[cell] = 1
    return Allocation(entries)


def _draw_rows(data, n_rows, n_cols):
    row = st.lists(st.floats(0, 3, allow_nan=False), min_size=n_cols, max_size=n_cols)
    return data.draw(st.lists(row, min_size=n_rows, max_size=n_rows))


class TestMatrices:
    def test_team_rejects_negative_traits(self):
        with pytest.raises(DomainError):
            _team([[1.0, -0.5]])

    def test_team_rejects_row_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            TeamTraitMatrix(np.ones((2, 2)), ("r0",), ("a", "b"))

    @pytest.mark.parametrize(
        "robot_ids, trait_names", [(("r0", "r0"), ("a",)), (("r0", "r1"), ("a", "a"))],
        ids=["robot", "trait"],
    )
    def test_team_rejects_repeated_ids(self, robot_ids, trait_names):
        """A repeated robot id would pair two trait rows with one start and speed."""
        with pytest.raises(DomainError, match="must be distinct"):
            TeamTraitMatrix(np.ones((2, len(trait_names))), robot_ids, trait_names)

    def test_requirements_reject_negative(self):
        with pytest.raises(DomainError):
            DesiredTraitMatrix(np.array([[-1.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("matrix", ["team", "requirements"])
    def test_non_finite_values_rejected(self, matrix, value):
        with pytest.raises(DomainError):
            if matrix == "team":
                _team([[1.0, value]])
            else:
                DesiredTraitMatrix(np.array([[1.0, value]]))

    def test_entries_are_frozen(self):
        team = _team([[1.0]])
        with pytest.raises(ValueError):
            team.entries[0, 0] = 2.0


class TestAllocation:
    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            Allocation(np.array([[2]], dtype=np.int8))

    @pytest.mark.parametrize(
        "entries", [[[0.5, 1.0]], [[257, 0]], [[-255, 1]], [[math.nan, 0.0]]],
        ids=["fraction", "wraps-to-1", "wraps-to-1-negative", "nan"],
    )
    def test_rejects_values_the_int8_cast_would_truncate(self, entries):
        with pytest.raises(DomainError):
            Allocation(np.array(entries))

    @pytest.mark.parametrize("dtype", [bool, np.int8, float])
    def test_accepts_binary_input_of_any_dtype(self, dtype):
        a = Allocation(np.array([[1, 0], [1, 1]], dtype=dtype))
        assert a.entries.dtype == np.int8
        assert a.entries.tolist() == [[1, 0], [1, 1]]
        assert resource_count(a) == 3

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatchError):
            Allocation(np.zeros(3, dtype=np.int8))

    def test_entries_are_frozen_and_copied(self):
        source = np.zeros((2, 2), dtype=np.int8)
        a = Allocation(source)
        source[0, 0] = 1
        assert a.entries[0, 0] == 0
        with pytest.raises(ValueError):
            a.entries[0, 0] = 1
        child = Allocation._trusted(a.child_keys([1])[0], a.entries.shape, 1)
        with pytest.raises(ValueError):
            child.entries[0, 0] = 1

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_derived_children_match_fresh_construction(self, data):
        """A chain of children built by ``_trusted`` from ``child_keys``, as a
        pop builds a pending member, carries the same key, count and apr as
        the same matrix validated from scratch, compared exactly; along it,
        ``child_keys`` gives each free cell's child key, in cell order."""
        n_tasks = data.draw(st.integers(1, 4))
        n_robots = data.draw(st.integers(1, 4))
        n_traits = data.draw(st.integers(1, 3))
        team = _team(_draw_rows(data, n_robots, n_traits))
        req = DesiredTraitMatrix(np.array(_draw_rows(data, n_tasks, n_traits)))
        cells = st.tuples(st.integers(0, n_tasks - 1), st.integers(0, n_robots - 1))
        child = Allocation(np.zeros((n_tasks, n_robots), dtype=np.int8))
        for task, robot in data.draw(st.lists(cells, max_size=2 * n_tasks * n_robots)):
            assert child.child_keys(range(child.entries.size)) == [
                _assigned(child, i).key() for i in np.flatnonzero(child.entries == 0)
            ]
            keys = child.child_keys([task * n_robots + robot])
            if child.entries[task, robot]:
                assert keys == []
                continue
            fresh = _assigned(child, task * n_robots + robot)
            child = Allocation._trusted(keys[0], child.entries.shape, child.count + 1)
            assert child.key() == fresh.key()
            assert child.entries.tolist() == fresh.entries.tolist()
            assert resource_count(child) == resource_count(fresh) == int(fresh.entries.sum())
            assert apr_value(child, team, req) == apr_value(fresh, team, req)

    def test_child_keys_leave_the_parent_unchanged(self):
        a = Allocation(np.zeros((2, 2), dtype=np.int8))
        (key,) = a.child_keys([2])  # cell (1, 0)
        b = Allocation._trusted(key, (2, 2), 1)
        assert a.entries[1, 0] == 0 and b.entries[1, 0] == 1
        assert a.key() != b.key() == key

    def test_key_identifies_matrix_content(self):
        a = Allocation(np.array([[1, 0], [0, 1]], dtype=np.int8))
        b = Allocation(np.array([[1, 0], [0, 1]], dtype=np.int8))
        assert a.key() == b.key()

    def test_resource_count(self):
        a = Allocation(np.array([[1, 0], [1, 1]], dtype=np.int8))
        assert resource_count(a) == 3


class TestTraitMath:
    def test_aggregate_matches_manual_matmul(self):
        team = _team([[1.0, 0.0], [0.5, 2.0], [0.0, 1.0]])
        a = Allocation(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int8))
        expected = np.array(
            [
                [1.0 + 0.5, 0.0 + 2.0],
                [0.5 + 0.0, 2.0 + 1.0],
            ]
        )
        assert np.allclose(aggregate_traits(a, team), expected)

    def test_validity_and_mismatch_agree(self):
        team = _team([[1.0], [1.0]])
        req = DesiredTraitMatrix(np.array([[2.0]]))
        full = Allocation(np.ones((1, 2), dtype=np.int8))
        half = Allocation(np.array([[1, 0]], dtype=np.int8))
        assert is_valid_allocation(full, team, req)
        assert not is_valid_allocation(half, team, req)
        assert trait_mismatch(half, team, req).sum() == pytest.approx(1.0)
        assert trait_mismatch(full, team, req).sum() == pytest.approx(0.0)

    def test_apr_oracle_elementwise(self):
        # apr == sum over cells of max(requirement - aggregate, 0),
        # normalized by total requirement mass (independent loop oracle)
        rng = np.random.default_rng(5)
        team = _team(rng.uniform(0, 2, (4, 3)))
        req = DesiredTraitMatrix(rng.uniform(0, 3, (5, 3)))
        alloc = Allocation(rng.integers(0, 2, (5, 4)).astype(np.int8))
        agg = aggregate_traits(alloc, team)
        unmet = 0.0
        for m in range(5):
            for u in range(3):
                unmet += max(req.entries[m, u] - agg[m, u], 0.0)
        assert apr_value(alloc, team, req) == pytest.approx(
            unmet / req.entries.sum(), abs=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_apr_invariants(self, data):
        n_robots = data.draw(st.integers(1, 4))
        n_tasks = data.draw(st.integers(1, 4))
        n_traits = data.draw(st.integers(1, 3))
        team = _team(
            data.draw(
                st.lists(
                    st.lists(
                        st.floats(0, 3, allow_nan=False),
                        min_size=n_traits,
                        max_size=n_traits,
                    ),
                    min_size=n_robots,
                    max_size=n_robots,
                )
            )
        )
        req = DesiredTraitMatrix(
            np.array(
                data.draw(
                    st.lists(
                        st.lists(
                            st.floats(0, 3, allow_nan=False),
                            min_size=n_traits,
                            max_size=n_traits,
                        ),
                        min_size=n_tasks,
                        max_size=n_tasks,
                    )
                )
            )
        )
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=n_tasks * n_robots, max_size=n_tasks * n_robots)
        )
        alloc = Allocation(np.array(bits, dtype=np.int8).reshape(n_tasks, n_robots))
        apr = apr_value(alloc, team, req)
        assert 0.0 <= apr <= 1.0
        # adding any assignment can only reduce (or preserve) apr
        for m in range(n_tasks):
            for n in range(n_robots):
                if not alloc.entries[m, n]:
                    child = _assigned(alloc, m * n_robots + n)
                    assert apr_value(child, team, req) <= apr + 1e-12
        # validity is exactly "no cell is unmet beyond tolerance"
        assert is_valid_allocation(alloc, team, req) == (
            trait_mismatch(alloc, team, req).max(initial=0.0) <= 1e-9
        )


class TestTaskNetwork:
    def test_mutex_stored_sorted_and_no_self_loops(self):
        tasks = tuple(TaskSpec(f"t{i}", 1.0, (0.0, 0.0), (1.0, 1.0)) for i in range(3))
        net = TaskNetwork(tasks, frozenset(), frozenset({(2, 0)}))
        assert net.mutex_edges == frozenset({(0, 2)})
        with pytest.raises(DomainError):
            TaskNetwork(tasks, frozenset({(1, 1)}), frozenset())

    def test_repeated_task_id_rejected(self):
        """A repeated task id would send every edge naming it to the later task."""
        tasks = tuple(TaskSpec("t0", 1.0, (0.0, 0.0), (1.0, 1.0)) for _ in range(2))
        with pytest.raises(DomainError, match="t0"):
            TaskNetwork(tasks, frozenset(), frozenset({(0, 1)}))

    def test_cycle_detection(self):
        tasks = tuple(TaskSpec(f"t{i}", 1.0, (0.0, 0.0), (1.0, 1.0)) for i in range(3))
        cyclic = TaskNetwork(tasks, frozenset({(0, 1), (1, 2), (2, 0)}), frozenset())
        acyclic = TaskNetwork(tasks, frozenset({(0, 1), (1, 2)}), frozenset())
        assert precedence_has_cycle(cyclic)
        assert not precedence_has_cycle(acyclic)


class TestValidateProblem:
    def test_clean_domain_passes(self, desk_domain):
        assert validate_problem(desk_domain).ok

    def test_issue_codes(self):
        domain = build_domain([[1.0]], [[1.0]])
        bad_world = WorldModel(
            domain.world.bounds,
            domain.world.obstacles,
            {"r0": (-5.0, -5.0)},  # outside the bounds
            {"r0": 0.0},  # non-positive speed
        )
        bad = type(domain)(
            iteration=0,
            network=domain.network,
            team=domain.team,
            requirements=domain.requirements,
            world=bad_world,
        )
        codes = validate_problem(bad).codes()
        assert "START_OUT_OF_BOUNDS" in codes
        assert "BAD_SPEED" in codes

    def test_negative_duration_flagged(self):
        domain = build_domain([[1.0]], [[1.0]], durations=[-1.0])
        assert "NEGATIVE_DURATION" in validate_problem(domain).codes()

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["duration", "speed"])
    def test_non_finite_numbers_flagged(self, field, value):
        if field == "duration":
            domain = build_domain([[1.0]], [[1.0]], durations=[value])
            assert "NONFINITE_DURATION" in validate_problem(domain).codes()
        else:
            domain = build_domain([[1.0]], [[1.0]], speeds={"r0": value})
            assert "BAD_SPEED" in validate_problem(domain).codes()

    @pytest.mark.parametrize(
        "change, code",
        [
            ({"initial": (-50.0, 1.0)}, "SITE_OUT_OF_BOUNDS"),
            ({"terminal": (1.0, 25.0)}, "SITE_OUT_OF_BOUNDS"),
            ({"initial": (math.nan, 1.0)}, "SITE_NOT_FINITE"),
            ({"terminal": (1.0, math.inf)}, "SITE_NOT_FINITE"),
            ({"obstacles": [Circle((2.0, 5.0), 1.0)]}, "SITE_IN_OBSTACLE"),
            ({"obstacles": [Rect((1.0, 7.0), (3.0, 9.0))]}, "SITE_IN_OBSTACLE"),
            ({"obstacles": [Circle((15.0, 15.0), -1.0)]}, "BAD_OBSTACLE"),
            ({"obstacles": [Circle((15.0, 15.0), 0.0)]}, "BAD_OBSTACLE"),
            ({"obstacles": [Circle((15.0, 15.0), math.inf)]}, "BAD_OBSTACLE"),
            ({"obstacles": [Circle((15.0, 15.0), math.nan)]}, "BAD_OBSTACLE"),
            ({"obstacles": [Circle((math.nan, 15.0), 1.0)]}, "BAD_OBSTACLE"),
            ({"obstacles": [Rect((16.0, 15.0), (14.0, 17.0))]}, "BAD_OBSTACLE"),
            ({"obstacles": [Rect((15.0, 15.0), (17.0, math.inf))]}, "BAD_OBSTACLE"),
            ({"bounds": (0.0, 0.0, 0.0, 20.0)}, "BAD_BOUNDS"),
            ({"bounds": (0.0, 20.0, 20.0, 0.0)}, "BAD_BOUNDS"),
            ({"bounds": (0.0, 0.0, math.inf, 20.0)}, "BAD_BOUNDS"),
            ({"bounds": (math.nan, 0.0, 20.0, 20.0)}, "BAD_BOUNDS"),
        ],
        ids=["initial-outside", "terminal-outside", "initial-nan", "terminal-inf",
             "initial-in-circle", "terminal-in-rect", "radius-negative", "radius-zero",
             "radius-inf", "radius-nan", "centre-nan", "rect-inverted", "rect-inf",
             "bounds-flat", "bounds-inverted", "bounds-inf", "bounds-nan"],
    )
    def test_sites_obstacles_and_bounds_flagged(self, change, code):
        """Each would solve on a world the file does not describe: a site
        off the map or inside an obstacle, an obstacle that blocks nothing,
        or bounds that hold no point."""
        domain = build_domain(
            [[1.0]],
            [[1.0]],
            obstacles=change.get("obstacles", ()),
            bounds=change.get("bounds", (0.0, 0.0, 20.0, 20.0)),
        )
        (t,) = domain.network.tasks
        task = dataclasses.replace(
            t,
            initial_config=change.get("initial", t.initial_config),
            terminal_config=change.get("terminal", t.terminal_config),
        )
        domain = dataclasses.replace(
            domain, network=TaskNetwork((task,), frozenset(), frozenset())
        )
        assert code in validate_problem(domain).codes()

    @pytest.mark.parametrize(
        "obstacle",
        [
            Circle((15.0, 15.0), 0.5),
            Rect((15.0, 15.0), (15.0, 17.0)),
            Rect((15.0, 15.0), (16.0, 16.0)),
        ],
        ids=["circle", "flat-rect", "rect"],
    )
    def test_well_formed_obstacles_pass(self, obstacle):
        assert validate_problem(build_domain([[1.0]], [[1.0]], obstacles=[obstacle])).ok
