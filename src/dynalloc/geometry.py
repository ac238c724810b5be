"""2-D geometry: axis-aligned world bounds, obstacle shapes, collision tests.

Points are plain (x, y) tuples so they can key dictionaries (plan cache,
roadmap vertices). Boundary contact counts as collision everywhere: a
segment grazing an obstacle is rejected. ``points_in_any`` and
``segments_collide`` give the verdicts of ``point_in_any`` and
``segment_collides`` for whole arrays of points or segments at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Point = tuple[float, float]

# the array tests decide a circle by ``np.hypot``, except within this
# relative distance of the radius, where it and ``math.dist`` may round
# apart; there they ask the scalar test
CIRCLE_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def contains(self, p: Point) -> bool:
        return math.dist(p, self.center) <= self.radius


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by min/max corners."""

    min_corner: Point
    max_corner: Point

    def contains(self, p: Point) -> bool:
        return (
            self.min_corner[0] <= p[0] <= self.max_corner[0]
            and self.min_corner[1] <= p[1] <= self.max_corner[1]
        )


Shape = Circle | Rect


def point_in_any(p: Point, obstacles: tuple[Shape, ...]) -> bool:
    return any(ob.contains(p) for ob in obstacles)


def _seg_point_dist(a: Point, b: Point, p: Point) -> float:
    """Distance from point p to segment ab."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0.0:
        return math.dist(a, p)
    t = ((px - ax) * dx + (py - ay) * dy) / den
    t = min(1.0, max(0.0, t))
    return math.dist((ax + t * dx, ay + t * dy), p)


def segment_hits_circle(a: Point, b: Point, c: Circle) -> bool:
    return _seg_point_dist(a, b, c.center) <= c.radius


def segment_hits_rect(a: Point, b: Point, r: Rect) -> bool:
    """Liang-Barsky clip; any overlap (including touching) collides."""
    x0, y0 = a
    x1, y1 = b
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x0 - r.min_corner[0]),
        (dx, r.max_corner[0] - x0),
        (-dy, y0 - r.min_corner[1]),
        (dy, r.max_corner[1] - y0),
    ):
        if p == 0.0:
            if q < 0.0:
                return False
            continue
        t = q / p
        if p < 0.0:
            if t > t1:
                return False
            t0 = max(t0, t)
        else:
            if t < t0:
                return False
            t1 = min(t1, t)
    return t0 <= t1


def segment_collides(a: Point, b: Point, obstacles: tuple[Shape, ...]) -> bool:
    for ob in obstacles:
        if isinstance(ob, Circle):
            if segment_hits_circle(a, b, ob):
                return True
        else:
            if segment_hits_rect(a, b, ob):
                return True
    return False


def _near_edge(dist: np.ndarray, c: Circle) -> np.ndarray:
    return np.abs(dist - c.radius) <= CIRCLE_EDGE_TOL * c.radius


def points_in_any(xs: np.ndarray, ys: np.ndarray, obstacles: tuple[Shape, ...]) -> np.ndarray:
    """``point_in_any`` of each point ``(xs[i], ys[i])``, as a bool array."""
    hit = np.zeros(len(xs), dtype=bool)
    for ob in obstacles:
        if isinstance(ob, Circle):
            dist = np.hypot(xs - ob.center[0], ys - ob.center[1])
            edge = _near_edge(dist, ob)
            hit |= (dist <= ob.radius) & ~edge
            for i in np.flatnonzero(edge).tolist():
                hit[i] |= ob.contains((float(xs[i]), float(ys[i])))
        else:
            (x0, y0), (x1, y1) = ob.min_corner, ob.max_corner
            hit |= (x0 <= xs) & (xs <= x1) & (y0 <= ys) & (ys <= y1)
    return hit


def segments_collide(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray, obstacles: tuple[Shape, ...]
) -> np.ndarray:
    """``segment_collides`` of each segment from ``(ax[i], ay[i])`` to
    ``(bx[i], by[i])``, as a bool array.

    A circle repeats ``_seg_point_dist``'s arithmetic elementwise, so only
    the final distance may round apart from the scalar one (see
    ``CIRCLE_EDGE_TOL``); a rect runs the Liang-Barsky clip of
    ``segment_hits_rect`` on every segment, where an early ``return False``
    becomes a cleared ``alive`` flag.
    """
    hit = np.zeros(len(ax), dtype=bool)
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    flat = den == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for ob in obstacles:
            if isinstance(ob, Circle):
                px, py = ob.center
                t = ((px - ax) * dx + (py - ay) * dy) / den
                # t = 0 puts the nearest point at a, as the scalar test does
                t = np.where(flat, 0.0, np.minimum(1.0, np.maximum(0.0, t)))
                dist = np.hypot(ax + t * dx - px, ay + t * dy - py)
                edge = _near_edge(dist, ob)
                hit |= (dist <= ob.radius) & ~edge
                for i in np.flatnonzero(edge).tolist():
                    a = (float(ax[i]), float(ay[i]))
                    hit[i] |= segment_hits_circle(a, (float(bx[i]), float(by[i])), ob)
            else:
                t0, t1 = np.zeros(len(ax)), np.ones(len(ax))
                alive = np.ones(len(ax), dtype=bool)
                for p, q in (
                    (-dx, ax - ob.min_corner[0]),
                    (dx, ob.max_corner[0] - ax),
                    (-dy, ay - ob.min_corner[1]),
                    (dy, ob.max_corner[1] - ay),
                ):
                    t = q / p
                    neg, pos = p < 0.0, p > 0.0
                    alive &= ~(((p == 0.0) & (q < 0.0)) | (neg & (t > t1)) | (pos & (t < t0)))
                    t0 = np.where(neg, np.maximum(t0, t), t0)
                    t1 = np.where(pos, np.minimum(t1, t), t1)
                hit |= alive & (t0 <= t1)
    return hit
