"""2D primitives for oriented rectangles and convex polygons.

Closed-set semantics throughout: touching shapes count as overlapping and a
contact gap is exactly 0. All types are immutable and every operation is a
pure function, so values are safe to share across threads.

Conventions: headings are radians CCW from the +x axis; polygons are CCW.

The frame metrics do not run on these types: metrics.ContactRegion computes
them from the rectangles' half-planes in relative coordinates. The general
polygon operations here are the reference path the tests and the oracles
check that kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

# Cross-product tolerance below which consecutive polygon edges are treated
# as collinear and the shared vertex is merged away.
COLLINEAR_EPS = 1e-12


@dataclass(frozen=True)
class Vec2:
    """Immutable 2D vector with finite components."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x!r}, {self.y!r})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def perp(self) -> "Vec2":
        """Rotate 90 degrees counterclockwise."""
        return Vec2(-self.y, self.x)

    def rotated(self, angle: float) -> "Vec2":
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)


def cross2(a: Vec2, b: Vec2) -> float:
    """Signed 2D cross product a.x*b.y - a.y*b.x."""
    return a.x * b.y - a.y * b.x


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle given by center, heading and side extents.

    Zero length or width is tolerated so degenerate probes (segments, points)
    can reuse the same operations; trajectory-level types enforce strictly
    positive footprints.
    """

    center: Vec2
    heading: float
    length: float
    width: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.heading):
            raise ValueError("box heading must be finite")
        if not (math.isfinite(self.length) and math.isfinite(self.width)):
            raise ValueError("box extents must be finite")
        if self.length < 0 or self.width < 0:
            raise ValueError("box extents must be non-negative")

    def axis(self) -> Vec2:
        """Unit vector along the heading."""
        return Vec2(math.cos(self.heading), math.sin(self.heading))

    def circumradius(self) -> float:
        return 0.5 * math.hypot(self.length, self.width)

    def polygon(self) -> "ConvexPolygon":
        """Corner rectangle as a CCW convex polygon (extents must be > 0)."""
        c = corners(self)
        return ConvexPolygon((c[0], c[1], c[3], c[2]))


def corners(box: OrientedBox) -> tuple[Vec2, Vec2, Vec2, Vec2]:
    """Four corner points: center +/- half-length along the heading axis,
    -/+ half-width along its CCW perpendicular."""
    u = box.axis()
    w = u.perp()
    lx, ly = 0.5 * box.length * u.x, 0.5 * box.length * u.y
    wx, wy = 0.5 * box.width * w.x, 0.5 * box.width * w.y
    cx, cy = box.center.x, box.center.y
    return (
        Vec2(cx + lx - wx, cy + ly - wy),
        Vec2(cx + lx + wx, cy + ly + wy),
        Vec2(cx - lx - wx, cy - ly - wy),
        Vec2(cx - lx + wx, cy - ly + wy),
    )


def _project(points: Sequence[Vec2], axis: Vec2) -> tuple[float, float]:
    lo = hi = points[0].dot(axis)
    for p in points[1:]:
        d = p.dot(axis)
        if d < lo:
            lo = d
        elif d > hi:
            hi = d
    return lo, hi


def sat_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    """True when the closed rectangles intersect (touching counts).

    Tests the four candidate separating axes (each box's heading axis and its
    perpendicular); for rectangles these are exhaustive.
    """
    ca = corners(a)
    cb = corners(b)
    ua, ub = a.axis(), b.axis()
    for axis in (ua, ua.perp(), ub, ub.perp()):
        amin, amax = _project(ca, axis)
        bmin, bmax = _project(cb, axis)
        if amax < bmin or bmax < amin:
            return False
    return True


def _merge_collinear(verts: Sequence[Vec2]) -> tuple[Vec2, ...]:
    pts = [p for i, p in enumerate(verts) if (p - verts[i - 1]).norm() > COLLINEAR_EPS]
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        kept = []
        n = len(pts)
        for i in range(n):
            c = cross2(pts[i] - pts[i - 1], pts[(i + 1) % n] - pts[i])
            if abs(c) <= COLLINEAR_EPS:
                changed = True
            else:
                kept.append(pts[i])
        pts = kept
    return tuple(pts)


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, vertices in CCW order.

    Collinear vertices are merged at construction; inputs must already be
    CCW-ordered and convex.
    """

    vertices: tuple[Vec2, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        merged = _merge_collinear(tuple(self.vertices))
        if len(merged) < 3:
            raise ValueError("polygon degenerates to fewer than 3 vertices after collinear merge")
        n = len(merged)
        for i in range(n):
            turn = cross2(merged[(i + 1) % n] - merged[i], merged[(i + 2) % n] - merged[(i + 1) % n])
            if turn <= 0:
                raise ValueError("vertices must be strictly convex in CCW order")
        object.__setattr__(self, "vertices", merged)

    def contains(self, p: Vec2) -> bool:
        """Closed containment test (boundary points count as inside)."""
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            if cross2(verts[(i + 1) % n] - verts[i], p - verts[i]) < 0:
                return False
        return True

    def translated(self, offset: Vec2) -> "ConvexPolygon":
        return ConvexPolygon(tuple(v + offset for v in self.vertices))

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def edges(self) -> list[tuple[Vec2, Vec2]]:
        verts = self.vertices
        return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def reflected(poly: ConvexPolygon) -> ConvexPolygon:
    """Point reflection through the origin (a 180-degree rotation, so the
    vertex order stays CCW)."""
    return ConvexPolygon(tuple(-v for v in poly.vertices))


PolygonLike = Union[ConvexPolygon, Sequence[Vec2]]


def _poly_vertices(p: PolygonLike) -> tuple[Vec2, ...]:
    if isinstance(p, ConvexPolygon):
        return p.vertices
    return tuple(p)


def _start_lowest(verts: list[Vec2]) -> list[Vec2]:
    k = min(range(len(verts)), key=lambda i: (verts[i].y, verts[i].x))
    return verts[k:] + verts[:k]


def minkowski_sum(a: PolygonLike, b: PolygonLike) -> ConvexPolygon:
    """Minkowski sum of two convex CCW polygons via the edge-angle merge.

    A single-point operand acts as a translation of the other polygon. The
    result's vertex count is at most |a| + |b|; collinear output vertices
    (parallel input edges) are merged.
    """
    va = list(_poly_vertices(a))
    vb = list(_poly_vertices(b))
    if len(va) == 1 and len(vb) >= 3:
        return ConvexPolygon(tuple(vb)).translated(va[0])
    if len(vb) == 1 and len(va) >= 3:
        return ConvexPolygon(tuple(va)).translated(vb[0])
    if len(va) < 3 or len(vb) < 3:
        raise ValueError("operands must be convex polygons or single points")
    va = _start_lowest(va)
    vb = _start_lowest(vb)
    n, m = len(va), len(vb)
    out: list[Vec2] = []
    i = j = 0
    while i < n or j < m:
        out.append(va[i % n] + vb[j % m])
        if i >= n:
            j += 1
        elif j >= m:
            i += 1
        else:
            c = cross2(va[(i + 1) % n] - va[i % n], vb[(j + 1) % m] - vb[j % m])
            if c > COLLINEAR_EPS:
                i += 1
            elif c < -COLLINEAR_EPS:
                j += 1
            else:
                i += 1
                j += 1
    return ConvexPolygon(tuple(out))


def ray_polygon_span(origin: Vec2, direction: Vec2, poly: ConvexPolygon) -> tuple[float, float] | None:
    """Parameter interval [t_enter, t_exit] of the forward ray inside poly.

    Returns None when the ray misses the polygon entirely; t_enter is 0 when
    the origin starts inside. Clips the ray against each edge half-plane.
    """
    if direction.norm() <= 0.0:
        raise ValueError("ray direction must be nonzero")
    t_lo, t_hi = 0.0, math.inf
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        v = verts[i]
        e = verts[(i + 1) % n] - v
        nrm = Vec2(e.y, -e.x)  # outward normal of a CCW edge
        num = nrm.dot(origin - v)  # > 0 means outside this half-plane
        den = nrm.dot(direction)
        if den == 0.0:
            if num > 0.0:
                return None
        elif den > 0.0:
            t_hi = min(t_hi, -num / den)
        else:
            t_lo = max(t_lo, -num / den)
        if t_lo > t_hi:
            return None
    return t_lo, t_hi


def ray_polygon_entry(origin: Vec2, direction: Vec2, poly: ConvexPolygon) -> float | None:
    """Smallest t >= 0 with origin + t*direction inside-or-on poly, else None."""
    span = ray_polygon_span(origin, direction, poly)
    return None if span is None else span[0]


def convex_overlap(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    """Closed SAT overlap test over both polygons' edge normals."""
    for poly in (a, b):
        verts = poly.vertices
        n = len(verts)
        for i in range(n):
            e = verts[(i + 1) % n] - verts[i]
            axis = Vec2(e.y, -e.x)
            amin, amax = _project(a.vertices, axis)
            bmin, bmax = _project(b.vertices, axis)
            if amax < bmin or bmax < amin:
                return False
    return True


def _closest_on_segment(p: Vec2, a: Vec2, b: Vec2) -> Vec2:
    ab = b - a
    denom = ab.dot(ab)
    if denom == 0.0:
        return a
    t = (p - a).dot(ab) / denom
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return Vec2(a.x + t * ab.x, a.y + t * ab.y)


def _segment_intersection_point(a1: Vec2, a2: Vec2, b1: Vec2, b2: Vec2) -> Vec2 | None:
    d1 = a2 - a1
    d2 = b2 - b1
    denom = cross2(d1, d2)
    if denom == 0.0:
        return None
    t = cross2(b1 - a1, d2) / denom
    u = cross2(b1 - a1, d1) / denom
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return Vec2(a1.x + t * d1.x, a1.y + t * d1.y)
    return None


def _overlap_witness(a: ConvexPolygon, b: ConvexPolygon) -> Vec2:
    for v in a.vertices:
        if b.contains(v):
            return v
    for v in b.vertices:
        if a.contains(v):
            return v
    for ea1, ea2 in a.edges():
        for eb1, eb2 in b.edges():
            w = _segment_intersection_point(ea1, ea2, eb1, eb2)
            if w is not None:
                return w
    # Unreachable for genuinely overlapping polygons; fall back to the closest
    # vertex pair midpoint so callers still get a sensible point.
    pa, pb = min(
        ((va, vb) for va in a.vertices for vb in b.vertices),
        key=lambda pair: (pair[0] - pair[1]).norm(),
    )
    return Vec2(0.5 * (pa.x + pb.x), 0.5 * (pa.y + pb.y))


def nearest_points(a: ConvexPolygon, b: ConvexPolygon) -> tuple[Vec2, Vec2, float]:
    """Closest point pair between two convex polygons and their Euclidean gap.

    When the polygons overlap (closed test) the returned points coincide on a
    common point and the gap is exactly 0.
    """
    if convex_overlap(a, b):
        w = _overlap_witness(a, b)
        return w, w, 0.0
    best: tuple[Vec2, Vec2, float] | None = None
    for ea1, ea2 in a.edges():
        for eb1, eb2 in b.edges():
            for p, seg in ((ea1, (eb1, eb2)), (ea2, (eb1, eb2))):
                q = _closest_on_segment(p, *seg)
                d = (p - q).norm()
                if best is None or d < best[2]:
                    best = (p, q, d)
            for p, seg in ((eb1, (ea1, ea2)), (eb2, (ea1, ea2))):
                q = _closest_on_segment(p, *seg)
                d = (q - p).norm()
                if best is None or d < best[2]:
                    best = (q, p, d)
    assert best is not None
    return best
