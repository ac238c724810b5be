"""Collision primitives checked against a dense-sampling oracle."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dynalloc.geometry import (
    Circle,
    Rect,
    point_in_any,
    points_in_any,
    segment_collides,
    segment_hits_circle,
    segment_hits_rect,
    segments_collide,
)
from dynalloc.motion import MotionPlan
from dynalloc.validation import COLLISION_SAMPLE_STEP, plan_collision_samples


def _dense_hits(a, b, shape, step=0.002):
    """Oracle: walk the segment in tiny steps and test containment."""
    n = max(2, int(math.dist(a, b) / step) + 1)
    for t in np.linspace(0.0, 1.0, n):
        p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        if point_in_any(p, (shape,)):
            return True
    return False


def _points(limit):
    """Points with coordinates in [-limit, limit], never subnormal: in that
    range the oracle's interpolation ``a + t * (b - a)`` rounds onto the
    shape's edge, where the exact checks rightly see no hit."""
    coordinate = st.floats(-limit, limit, allow_subnormal=False)
    return st.tuples(coordinate, coordinate)


class TestContainment:
    def test_circle_boundary_is_inside(self):
        c = Circle((0.0, 0.0), 1.0)
        assert c.contains((1.0, 0.0))
        assert not c.contains((1.0 + 1e-9, 0.0))

    def test_rect_boundary_is_inside(self):
        r = Rect((0.0, 0.0), (2.0, 1.0))
        assert r.contains((2.0, 1.0))
        assert not r.contains((2.0001, 1.0))


class TestSegments:
    def test_tangent_segment_collides(self):
        # the segment grazes the circle at exactly one point
        assert segment_hits_circle((-2.0, 1.0), (2.0, 1.0), Circle((0.0, 0.0), 1.0))

    def test_clear_segment_does_not(self):
        assert not segment_hits_circle((-2.0, 1.5), (2.0, 1.5), Circle((0.0, 0.0), 1.0))

    def test_segment_through_rect(self):
        r = Rect((1.0, 1.0), (2.0, 2.0))
        assert segment_hits_rect((0.0, 1.5), (3.0, 1.5), r)
        assert not segment_hits_rect((0.0, 2.5), (3.0, 2.5), r)

    def test_segment_fully_inside_shape(self):
        assert segment_hits_circle((0.1, 0.0), (0.2, 0.0), Circle((0.0, 0.0), 1.0))
        assert segment_hits_rect((1.2, 1.2), (1.8, 1.8), Rect((1.0, 1.0), (2.0, 2.0)))

    @settings(max_examples=150, deadline=None)
    @given(
        _points(5),
        _points(5),
        _points(3),
        st.floats(0.2, 2.0),
    )
    def test_circle_check_matches_dense_oracle(self, a, b, center, radius):
        shape = Circle(center, radius)
        fast = segment_hits_circle(a, b, shape)
        slow = _dense_hits(a, b, shape)
        if fast != slow:
            # the oracle's finite step can miss shallow grazes; the exact
            # check may only be *more* conservative, never less
            assert fast and not slow
            dist_margin = 1e-3
            assert _dense_hits(a, b, Circle(center, radius + dist_margin))

    @settings(max_examples=150, deadline=None)
    @given(
        _points(5),
        _points(5),
        _points(3),
        st.floats(0.2, 2.0),
        st.floats(0.2, 2.0),
    )
    def test_rect_check_matches_dense_oracle(self, a, b, corner, w, h):
        shape = Rect(corner, (corner[0] + w, corner[1] + h))
        fast = segment_hits_rect(a, b, shape)
        slow = _dense_hits(a, b, shape)
        if fast != slow:
            assert fast and not slow
            grown = Rect(
                (corner[0] - 1e-3, corner[1] - 1e-3),
                (corner[0] + w + 1e-3, corner[1] + h + 1e-3),
            )
            assert _dense_hits(a, b, grown)

    def test_subnormal_graze_is_not_a_hit(self):
        """The segment reaches x = 5e-324, the rect's left edge, only at its
        end, where y = 2 is above the rect."""
        rect = Rect((5e-324, 0.0), (1.0, 1.0))
        assert not segment_hits_rect((0.0, -1.0), (5e-324, 2.0), rect)

    def test_segment_collides_checks_all_obstacles(self):
        obstacles = (Circle((0.0, 0.0), 0.5), Rect((3.0, -0.5), (4.0, 0.5)))
        assert segment_collides((-2.0, 0.0), (5.0, 0.0), obstacles)
        assert not segment_collides((-2.0, 2.0), (5.0, 2.0), obstacles)


def _per_point_clear(plan, obstacles):
    """The sampling oracle one point at a time: True when no sample of the
    plan lies in an obstacle."""
    for a, b in zip(plan.waypoints, plan.waypoints[1:]):
        n = max(2, int(math.dist(a, b) / COLLISION_SAMPLE_STEP) + 1)
        xs = np.linspace(a[0], b[0], n).tolist()
        ys = np.linspace(a[1], b[1], n).tolist()
        if any(point_in_any(p, obstacles) for p in zip(xs, ys)):
            return False
    return True


# ordinary coordinates, and zero, subnormal and smallest-normal ones
_COORDINATE = st.one_of(
    st.floats(-5.0, 5.0),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)
_POINT = st.tuples(_COORDINATE, _COORDINATE)
_OBSTACLE = st.one_of(
    st.builds(Circle, _POINT, st.floats(0.01, 3.0)),
    st.builds(
        lambda corner, w, h: Rect(corner, (corner[0] + w, corner[1] + h)),
        _POINT,
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
    ),
)


def _on_edge(ob, t):
    """A point on the obstacle's boundary, up to rounding: at angle ``t``
    on a circle, or at fraction ``t / 2pi`` of the way round a rect."""
    if isinstance(ob, Circle):
        return (ob.center[0] + ob.radius * math.cos(t), ob.center[1] + ob.radius * math.sin(t))
    (x0, y0), (x1, y1) = ob.min_corner, ob.max_corner
    side, f = divmod(4.0 * t / (2.0 * math.pi), 1.0)
    return [
        (x0 + f * (x1 - x0), y0),
        (x1, y0 + f * (y1 - y0)),
        (x1 - f * (x1 - x0), y1),
        (x0, y1 - f * (y1 - y0)),
    ][min(int(side), 3)]


@st.composite
def _plans(draw):
    """Obstacles and a plan whose waypoints are drawn points or points on
    an obstacle's boundary, so that samples graze the edges."""
    obstacles = tuple(draw(st.lists(_OBSTACLE, min_size=1, max_size=3)))
    edge = st.builds(_on_edge, st.sampled_from(obstacles), st.floats(0.0, 2.0 * math.pi))
    waypoints = draw(st.lists(st.one_of(_POINT, edge), min_size=2, max_size=4))
    return MotionPlan(tuple(waypoints), 0.0, 0.0), obstacles


class TestSampleOracle:
    """``validation.plan_collision_samples`` tests samples as arrays; its
    verdicts are those of testing each sample on its own."""

    @settings(max_examples=120, deadline=None)
    @given(_plans())
    def test_array_verdicts_match_per_point_verdicts(self, case):
        plan, obstacles = case
        assert plan_collision_samples(plan, obstacles) == _per_point_clear(plan, obstacles)

    def test_a_sample_on_a_circle_edge_is_a_hit(self):
        """The middle sample is (0, 1), at distance exactly 1 from the
        centre; the circle's edge counts as inside."""
        circle = Circle((0.0, 0.0), 1.0)
        plan = MotionPlan(((-1.0, 1.0), (1.0, 1.0)), 2.0, 2.0)
        assert not plan_collision_samples(plan, (circle,))
        assert plan_collision_samples(plan, (Circle((0.0, 0.0), 1.0 - 1e-12),))

    def test_a_sample_on_a_subnormal_rect_edge_is_a_hit(self):
        rect = Rect((5e-324, 0.0), (1.0, 1.0))
        on_edge = MotionPlan(((5e-324, 2.0), (5e-324, -1.0)), 3.0, 3.0)
        beside = MotionPlan(((0.0, 2.0), (0.0, -1.0)), 3.0, 3.0)
        assert not plan_collision_samples(on_edge, (rect,))
        assert plan_collision_samples(beside, (rect,))


@st.composite
def _segments(draw):
    """Obstacles and segments whose ends are drawn points or points on an
    obstacle's boundary, so that segments graze, touch and clip edges."""
    obstacles = tuple(draw(st.lists(_OBSTACLE, min_size=1, max_size=3)))
    edge = st.builds(_on_edge, st.sampled_from(obstacles), st.floats(0.0, 2.0 * math.pi))
    end = st.one_of(_POINT, edge)
    return draw(st.lists(st.tuples(end, end), min_size=1, max_size=8)), obstacles


class TestSegmentArrays:
    """``segments_collide`` gives ``segment_collides``'s verdict on every
    segment of an array."""

    @settings(max_examples=200, deadline=None)
    @given(_segments())
    def test_array_verdicts_match_per_segment_verdicts(self, case):
        segments, obstacles = case
        (ax, ay), (bx, by) = (np.array([s[e] for s in segments]).T for e in (0, 1))
        want = [segment_collides(a, b, obstacles) for a, b in segments]
        assert segments_collide(ax, ay, bx, by, obstacles).tolist() == want

    def test_tangents_and_points_on_a_circle_edge(self):
        """A tangent touches the circle, as does a zero-length segment on
        its edge; moved 1e-9 outward, neither does."""
        circle = (Circle((0.0, 0.0), 1.0),)
        ax, ay = np.array([-2.0, -2.0, 1.0, 1.0 + 1e-9]), np.array([1.0, 1.0 + 1e-9, 0.0, 0.0])
        bx, by = np.array([2.0, 2.0, 1.0, 1.0 + 1e-9]), ay
        assert segments_collide(ax, ay, bx, by, circle).tolist() == [True, False, True, False]

    def test_a_point_where_hypot_and_dist_round_apart(self):
        """``np.hypot`` puts this point one ulp outside a circle whose radius
        is its ``math.dist`` from the centre; the circle contains it, and
        both array tests say so."""
        x, y = -5.549862681074551, 9.547166560662529
        circle = Circle((0.0, 0.0), math.dist((x, y), (0.0, 0.0)))
        assert np.hypot(x, y) > circle.radius and circle.contains((x, y))
        xs, ys = np.array([x]), np.array([y])
        assert points_in_any(xs, ys, (circle,)).tolist() == [True]
        assert segments_collide(xs, ys, xs, ys, (circle,)).tolist() == [True]
