"""Per-frame conflict metrics for two-agent interactions.

Implements the interaction-depth / evasive-time family: InDepth (mutual
intrusion depth of the safety regions under straight-line extrapolation),
TEM realized as the exact first-contact time of the two footprints under
the constant-velocity model, their ratio MEI, plus the comparison metrics
ACT (nearest-point collision time) and PET (post-encroachment time over a
rasterized conflict zone).

Every frame metric is a view of one object, the relative contact region
B0 ⊕ (−A0) (ContactRegion), evaluated over all common frames of a pair at
once on the struct-of-arrays form of the tracks (TrackArrays). The scalar
functions are the one-frame case of the same computation.

Metrics that have no defined value for a frame (no relative motion, no
collision course) are reported as None, never as sentinel numbers.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .geometry import ConvexPolygon, OrientedBox, Vec2

AGENT_TYPES = ("vehicle", "pedestrian", "cyclist", "other")

# Footprint assumed for pedestrians when the data source carries no dimensions.
PEDESTRIAN_DEFAULT_LENGTH = 0.6
PEDESTRIAN_DEFAULT_WIDTH = 0.6

# Below this relative speed the relative direction (and every metric built on
# it) is undefined for the frame.
ZERO_RELATIVE_SPEED = 1e-9

Q_PREDICATES = ("approach_distance", "always_true")

# Slack, in meters, of the test that a ray entering the D_safe-offset region
# does so along a straight edge rather than past a rounded corner.
FACE_TOL = 1e-9

# Timestamps are held as int64 tenths of a millisecond (t_dms); |t| must stay
# below this many seconds for them to fit.
MAX_T_S = 1e14

# Grid cells evaluated per batch of boxes in PET, and window pairs compared
# per batch of its window-meet test: a batch holds less than this plus its
# last box, so its float temporaries stay near 64 kB whatever the track
# length. A batch takes boxes of every pair of a chunk. Until the chunk's
# values are known, PET keeps each pair's two swept masks, cut to where both
# agents' windows lie, and, packed to bits, the inside-the-box cells of the
# agent with fewer window cells.
PET_BATCH_CELLS = 1 << 13

# Frames of the a tracks per chunk of joined pairs (joined_pairs), which
# bounds the common frames of one kernel pass. The widest temporaries of a
# pass are the (8, N) float64 corner arrays of ContactRegion.nearest, so this
# keeps each at most at the 64 kB of a PET batch and a corpus of any size
# peaks like one chunk.
KERNEL_BATCH_FRAMES = PET_BATCH_CELLS // 8


@dataclass(frozen=True)
class AgentState:
    """One agent's pose, speed and footprint at one timestamp."""

    agent_id: str
    t: float
    x: float
    y: float
    v: float
    heading: float
    length: float
    width: float
    agent_type: str = "vehicle"

    def __post_init__(self) -> None:
        for name in ("t", "x", "y", "v", "heading", "length", "width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite for agent {self.agent_id!r}")
        if self.v < 0:
            raise ValueError(f"speed must be >= 0, got {self.v}")
        if self.length <= 0 or self.width <= 0:
            raise ValueError("footprint dimensions must be > 0")
        if self.agent_type not in AGENT_TYPES:
            raise ValueError(f"unknown agent_type {self.agent_type!r}")

    @property
    def t_dms(self) -> int:
        """Timestamp in integer tenths of a millisecond (exact clock key)."""
        return round(self.t * 1e4)

    @property
    def position(self) -> Vec2:
        return Vec2(self.x, self.y)

    @property
    def velocity(self) -> Vec2:
        return Vec2(self.v * math.cos(self.heading), self.v * math.sin(self.heading))

    @property
    def box(self) -> OrientedBox:
        return OrientedBox(self.position, self.heading, self.length, self.width)

    @property
    def footprint(self) -> ConvexPolygon:
        return self.box.polygon()


@dataclass(frozen=True)
class MetricsConfig:
    """Analysis configuration; defaults reproduce the reference analysis
    (no safety buffer, 3 s evasive-time threshold)."""

    d_safe: float = 0.0
    tem_star: float = 3.0
    q_predicate: str = "approach_distance"
    mei_cap: float | None = None
    pet_grid: float = 0.1

    def __post_init__(self) -> None:
        if self.d_safe < 0:
            raise ValueError("d_safe must be >= 0")
        if not self.tem_star > 0:
            raise ValueError("tem_star must be > 0")
        if self.pet_grid <= 0:
            raise ValueError("pet_grid must be > 0")
        if self.mei_cap is not None and self.mei_cap <= 0:
            raise ValueError("mei_cap must be > 0")
        for name in ("d_safe", "pet_grid", "mei_cap"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.q_predicate not in Q_PREDICATES:
            raise ValueError(f"unknown q_predicate {self.q_predicate!r}")


@dataclass(frozen=True)
class FrameMetrics:
    """All per-frame metric values for one agent pair at one timestep.

    Undefined values are None. mei is defined iff in_depth and tem are both
    defined with tem > 0; an overlapping frame has tem == 0 and undefined mei
    (the crash flag carries the information downstream).
    """

    t: float
    in_depth: float | None
    tem: float | None
    mei: float | None
    act: float | None
    q_active: bool
    overlap: bool
    d_ct: float | None
    d_a: float | None
    d_b: float | None


_FRAME_FIELDS = tuple(FrameMetrics.__dataclass_fields__)
# positions in _FRAME_FIELDS of the fields that can be undefined
_OPTIONAL_FIELDS = tuple(k for k, name in enumerate(_FRAME_FIELDS) if name not in ("t", "q_active", "overlap"))


class PetGridError(ValueError):
    """The PET raster would be too large for the swept-footprint window."""


# ---------------------------------------------------------------------------
# struct-of-arrays tracks
# ---------------------------------------------------------------------------

_FLOAT_COLUMNS = ("t", "x", "y", "v", "heading", "length", "width")
_TRACK_COLUMNS = ("t_dms", *_FLOAT_COLUMNS, "agent_type", "cos_h", "sin_h")


@dataclass(frozen=True, eq=False)
class TrackArrays(abc.Sequence):
    """One agent's track as columns, one entry per frame: t_dms (int64),
    float64 t, x, y, v, heading, length, width, the per-frame agent_type (an
    object array of str), and the heading's cosine and sine.

    It reads as a read-only sequence of AgentState: len, indexing (an
    AgentState is built on demand), iteration, and == against any sequence
    of AgentStates."""

    agent_id: str
    t_dms: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    heading: np.ndarray
    length: np.ndarray
    width: np.ndarray
    agent_type: np.ndarray
    cos_h: np.ndarray
    sin_h: np.ndarray

    @classmethod
    def from_columns(cls, agent_id: str, t, x, y, v, heading, length, width, agent_type) -> TrackArrays:
        """A track from its columns; t_dms and the heading's cosine and sine
        are derived here. Raises ValueError when |t| reaches MAX_T_S; the
        other columns are not validated: see check()."""
        t = np.asarray(t, dtype=np.float64)
        if (np.abs(t) >= MAX_T_S).any():
            raise ValueError(f"t must be within ±{MAX_T_S:g} s for agent {agent_id!r}")
        heading = np.asarray(heading, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # a non-finite value is left for check() to name
            # rint rounds half to even like round() in AgentState.t_dms
            t_dms = np.rint(t * 1e4).astype(np.int64)
            cos_h, sin_h = np.cos(heading), np.sin(heading)
        floats = (np.asarray(c, dtype=np.float64) for c in (x, y, v, heading, length, width))
        return cls(agent_id, t_dms, t, *floats, np.asarray(agent_type, dtype=object), cos_h, sin_h)

    @classmethod
    def from_states(cls, states: Sequence[AgentState]) -> TrackArrays:
        """A track from AgentStates; its agent_id is the first state's."""
        cols = np.array(
            [(s.t, s.x, s.y, s.v, s.heading, s.length, s.width) for s in states], dtype=np.float64
        ).reshape(-1, 7).T.copy()
        agent_type = np.array([s.agent_type for s in states], dtype=object)
        return cls.from_columns(states[0].agent_id if len(states) else "", *cols, agent_type)

    def __reduce__(self):
        # ships the float columns as one array; the derived ones are rebuilt
        floats = np.stack([getattr(self, name) for name in _FLOAT_COLUMNS])
        return (_unpickle_track, (self.agent_id, floats, self.agent_type))

    def __len__(self) -> int:
        return len(self.t_dms)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        i = range(len(self))[index]
        return AgentState(self.agent_id, *(float(getattr(self, name)[i]) for name in _FLOAT_COLUMNS),
                          agent_type=self.agent_type[i])

    def __iter__(self):
        columns = [getattr(self, name).tolist() for name in _FLOAT_COLUMNS]
        for *values, agent_type in zip(*columns, self.agent_type.tolist()):
            yield AgentState(self.agent_id, *values, agent_type=agent_type)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TrackArrays):
            if len(self) != len(other):
                return False
            return not len(self) or self.agent_id == other.agent_id and all(
                np.array_equal(getattr(self, name), getattr(other, name)) for name in (*_FLOAT_COLUMNS, "agent_type"))
        if isinstance(other, abc.Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def check(self) -> TrackArrays:
        """The track itself when every frame would make a valid AgentState;
        otherwise the ValueError AgentState raises for the first invalid frame."""
        floats = np.array([getattr(self, name) for name in _FLOAT_COLUMNS]).reshape(7, -1)
        known = np.array([agent_type in AGENT_TYPES for agent_type in self.agent_type.tolist()], dtype=bool)
        # AgentState's conditions, in the order it tests them
        fails = np.vstack([~np.isfinite(floats), floats[3] < 0, (floats[5] <= 0) | (floats[6] <= 0), ~known])
        frames = np.flatnonzero(fails.any(axis=0))
        if not frames.size:
            return self
        i = frames[0]
        reasons = [*(f"{name} must be finite for agent {self.agent_id!r}" for name in _FLOAT_COLUMNS),
                   f"speed must be >= 0, got {floats[3, i].item()}",
                   "footprint dimensions must be > 0",
                   f"unknown agent_type {self.agent_type[i]!r}"]
        raise ValueError(reasons[int(np.argmax(fails[:, i]))])

    def take(self, idx) -> TrackArrays:
        return TrackArrays(self.agent_id, *(getattr(self, name)[idx] for name in _TRACK_COLUMNS))

    def split(self, agent_ids: Sequence[str], bounds: Sequence[int]) -> list[TrackArrays]:
        """Runs of consecutive frames as tracks of their own: frames
        bounds[k] to bounds[k + 1] become the track of agent_ids[k]. The
        tracks are views of this one, so nothing is computed again."""
        columns = [getattr(self, name) for name in _TRACK_COLUMNS]
        return [TrackArrays(agent_id, *(column[lo:hi] for column in columns))
                for agent_id, lo, hi in zip(agent_ids, bounds, bounds[1:])]


def _unpickle_track(agent_id: str, floats: np.ndarray, agent_type: np.ndarray) -> TrackArrays:
    return TrackArrays.from_columns(agent_id, *floats, agent_type)


# An agent's frames; TrackArrays is the form the kernels run on.
Track = Sequence[AgentState]

K = TypeVar("K")


def as_arrays(track: Track) -> TrackArrays:
    """The track as TrackArrays, frames as given. The kernels read every
    track by the track rule: frames stably sorted by time, a repeated
    timestamp keeping its first frame, as the parsers build them (_stack)."""
    return track if isinstance(track, TrackArrays) else TrackArrays.from_states(track)


# ---------------------------------------------------------------------------
# the contact-region kernel
# ---------------------------------------------------------------------------


def _corner_signs() -> tuple[np.ndarray, np.ndarray]:
    """Signs along the length and the width of a rectangle's four corners, as (4, 1) columns."""
    return np.array([[1.0], [1.0], [-1.0], [-1.0]]), np.array([[1.0], [-1.0], [1.0], [-1.0]])


def _slab_clip(s0: np.ndarray, ds: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cyrus–Beck clip of the rays s0 + t·ds against the slabs |s| <= reach,
    row by row. Returns the entry parameter (>= 0), the exit parameter and
    the per-row entering parameters; the ray meets the intersection of the
    slabs iff entry <= exit."""
    still = ds == 0.0
    step = np.where(still, 1.0, ds)
    with np.errstate(over="ignore"):  # a near-parallel row clips at ±inf
        t1 = (-reach - s0) / step
        t2 = (reach - s0) / step
    inside = np.abs(s0) <= reach
    lo = np.where(still, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    hi = np.where(still, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    return np.maximum(lo.max(axis=0), 0.0), hi.min(axis=0), lo


class ContactRegion:
    """The relative contact region R = B0 ⊕ (−A0) of two frame-aligned
    tracks, over all their frames at once.

    Everything is taken in relative coordinates, p_ab = P_a − P_b, so no
    absolute footprint coordinate enters a metric. R is the set of p_ab at
    which the footprints touch: the intersection of the 8 half-planes
    n·p <= h_A(n) + h_B(n), n in {±u_a, ±u_a⊥, ±u_b, ±u_b⊥}, with the
    rectangle support h(n) = |n·u|·L/2 + |n·u⊥|·W/2. Rectangles are centrally
    symmetric, so the half-planes pair into 4 slabs |n·p| <= reach(n); row k
    of every (4, N) array belongs to axis k = u_a, u_a⊥, u_b, u_b⊥. Rows 2-3
    of a projection are coordinates in B's body frame, rows 0-1 in A's.
    """

    def __init__(self, a: TrackArrays, b: TrackArrays) -> None:
        self.a, self.b = a, b
        self.hla, self.hwa = 0.5 * a.length, 0.5 * a.width
        self.hlb, self.hwb = 0.5 * b.length, 0.5 * b.width
        # u_a·u_b = u_a⊥·u_b⊥ and u_a·u_b⊥ = −u_a⊥·u_b
        self.cd = a.cos_h * b.cos_h + a.sin_h * b.sin_h
        self.sd = a.sin_h * b.cos_h - a.cos_h * b.sin_h
        self.px, self.py = a.x - b.x, a.y - b.y
        self.s0 = self._project(self.px, self.py)
        cabs, sabs = np.abs(self.cd), np.abs(self.sd)
        self.reach = np.stack([
            self.hla + self.hlb * cabs + self.hwb * sabs,
            self.hwa + self.hlb * sabs + self.hwb * cabs,
            self.hla * cabs + self.hwa * sabs + self.hlb,
            self.hla * sabs + self.hwa * cabs + self.hwb,
        ])
        # closed test: touching footprints overlap
        self.overlap = (np.abs(self.s0) <= self.reach).all(axis=0)
        self._motion: tuple | None = None
        self._nearest: tuple | None = None

    def _project(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        a, b = self.a, self.b
        return np.stack([
            a.cos_h * x + a.sin_h * y,
            a.cos_h * y - a.sin_h * x,
            b.cos_h * x + b.sin_h * y,
            b.cos_h * y - b.sin_h * x,
        ])

    def motion(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(vx, vy, speed, moving, ds): the relative velocity v_ab, its norm,
        whether it exceeds ZERO_RELATIVE_SPEED, and its (4, N) projections."""
        if self._motion is None:
            a, b = self.a, self.b
            vx = a.v * a.cos_h - b.v * b.cos_h
            vy = a.v * a.sin_h - b.v * b.sin_h
            speed = np.hypot(vx, vy)
            self._motion = (vx, vy, speed, speed >= ZERO_RELATIVE_SPEED, self._project(vx, vy))
        return self._motion

    def in_depth_parts(self, d_safe: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(in_depth, d_ct, d_a, d_b), NaN without relative motion. d_a and
        d_b are the footprints' half extents across θ = v_ab/|v_ab|, so d_a + d_b
        is the region's support orthogonal to θ; d_ct = |p_ab × θ|."""
        vx, vy, speed, moving, ds = self.motion()
        safe = np.where(moving, speed, 1.0)
        tx, ty = vx / safe, vy / safe
        d_ct = np.abs(self.px * ty - self.py * tx)
        d_a = (self.hla * np.abs(ds[1]) + self.hwa * np.abs(ds[0])) / safe
        d_b = (self.hlb * np.abs(ds[3]) + self.hwb * np.abs(ds[2])) / safe
        depth = d_a + d_b - d_ct + d_safe
        return tuple(np.where(moving, x, np.nan) for x in (depth, d_ct, d_a, d_b))

    def nearest(self) -> tuple[np.ndarray, np.ndarray]:
        """(gap, closing): the distance from p_ab to R, which is the gap
        between the footprints (0 at overlap), and the rate at which v_ab
        closes it along the line of the nearest points.

        The nearest pair of two disjoint rectangles has a corner of one of
        them, so the gap is the least of the 8 corner-to-rectangle distances,
        each taken in the body frame of the other rectangle."""
        if self._nearest is None:
            _, _, _, _, ds = self.motion()
            s0, cd, sd = self.s0, self.cd, self.sd
            sig_l, sig_w = _corner_signs()

            def corner_gaps(px, py, hl, hw, c, s, box_l, box_w, sign):
                qx = px + sig_l * (hl * c) - sig_w * (hw * s)
                qy = py + sig_l * (hl * s) + sig_w * (hw * c)
                ex = np.maximum(np.abs(qx) - box_l, 0.0)
                ey = np.maximum(np.abs(qy) - box_w, 0.0)
                return ex, ey, sign * np.copysign(ex, qx), sign * np.copysign(ey, qy)

            # A's corners in B's frame (vector from A's corner to B), then B's
            # corners in A's frame (vector from A to B's corner)
            ga = corner_gaps(s0[2], s0[3], self.hla, self.hwa, cd, sd, self.hlb, self.hwb, -1.0)
            gb = corner_gaps(-s0[0], -s0[1], self.hlb, self.hwb, cd, -sd, self.hla, self.hwa, 1.0)
            ex, ey, dx, dy = (np.concatenate(pair) for pair in zip(ga, gb))
            dist = np.hypot(ex, ey)
            k = dist.argmin(axis=0)[None]
            gap = np.take_along_axis(dist, k, 0)[0]
            dx = np.take_along_axis(dx, k, 0)[0]
            dy = np.take_along_axis(dy, k, 0)[0]
            in_b = k[0] < 4
            vx = np.where(in_b, ds[2], ds[0])
            vy = np.where(in_b, ds[3], ds[1])
            safe = np.where(gap > 0.0, gap, 1.0)
            closing = vx * (dx / safe) + vy * (dy / safe)
            self._nearest = (np.where(self.overlap, 0.0, gap), closing)
        return self._nearest

    def act(self) -> np.ndarray:
        """Gap over closing rate; 0 at contact, NaN when the gap is not closing."""
        gap, closing = self.nearest()
        ok = closing > ZERO_RELATIVE_SPEED
        value = np.where(ok, gap / np.where(ok, closing, 1.0), np.nan)
        return np.where(gap == 0.0, 0.0, value)

    def tem(self, d_safe: float) -> np.ndarray:
        """First-contact time: entry of the ray p_ab + t·v_ab into R, or into R
        rounded by a disc of radius d_safe. 0 at contact, NaN without relative
        motion or collision course."""
        _, _, _, moving, ds = self.motion()
        if d_safe > 0.0:
            entry = self._rounded_entry(d_safe)
        else:
            enter, leave, _ = _slab_clip(self.s0, ds, self.reach)
            entry = np.where(enter <= leave, enter, np.nan)
        return np.where(self.overlap, 0.0, np.where(moving, entry, np.nan))

    def _rounded_entry(self, d: float) -> np.ndarray:
        """Entry into R ⊕ disc(d). The offset octagon (reach + d) contains
        it and differs from it only in the corner pockets outside the vertex
        discs. A ray that enters the octagon where the foot of the entry
        point, d back along the face normal, lies on R enters the rounded
        region there; any other ray can only enter it through a vertex disc
        (R's vertices are among the 16 corner differences b0 − a0)."""
        _, _, _, moving, ds = self.motion()
        gap, _ = self.nearest()
        enter, leave, lo = _slab_clip(self.s0, ds, self.reach + d)
        hit = enter <= leave
        out = np.where(gap <= d, 0.0, np.where(hit, enter, np.nan))
        todo = np.flatnonzero(hit & moving & ~self.overlap & (gap > d))
        if todo.size:
            cols = np.arange(todo.size)
            k = lo[:, todo].argmax(axis=0)
            entering = lo[k, todo]
            side = -np.sign(ds[k, todo])  # the entry face's outward normal is side·n_k
            cd, sd = self.cd[todo], self.sd[todo]
            one, zero = np.ones_like(cd), np.zeros_like(cd)
            gram = np.array([[one, zero, cd, sd], [zero, one, -sd, cd], [cd, -sd, one, zero], [sd, cd, zero, one]])
            foot = self.s0[:, todo] + enter[todo] * ds[:, todo] - (d * side) * gram[:, k, cols]
            on_face = (entering >= 0.0) & (np.abs(foot) <= self.reach[:, todo] + FACE_TOL).all(axis=0)
            corner = todo[~on_face]
            if corner.size:
                out[corner] = self._disc_entry(corner, d)
        return out

    def _disc_entry(self, idx: np.ndarray, d: float) -> np.ndarray:
        """Earliest entry of the ray into the discs of radius d about the
        corner differences b0 − a0, in A's body frame; NaN when it misses all."""
        _, _, _, _, ds = self.motion()
        sig_l, sig_w = _corner_signs()
        hla, hwa, hlb, hwb = self.hla[idx], self.hwa[idx], self.hlb[idx], self.hwb[idx]
        cd, sd = self.cd[idx], self.sd[idx]
        bx = sig_l * (hlb * cd) + sig_w * (hwb * sd)
        by = sig_w * (hwb * cd) - sig_l * (hlb * sd)
        ocx = (self.s0[0, idx] - (bx[:, None] - sig_l[None] * hla)).reshape(16, -1)
        ocy = (self.s0[1, idx] - (by[:, None] - sig_w[None] * hwa)).reshape(16, -1)
        vx, vy = ds[0, idx], ds[1, idx]
        c0 = ocx * ocx + ocy * ocy - d * d
        qa = vx * vx + vy * vy
        qb = 2.0 * (ocx * vx + ocy * vy)
        disc = qb * qb - 4.0 * qa * c0
        t = (-qb - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * qa)
        t = np.where(c0 <= 0.0, 0.0, np.where((disc >= 0.0) & (t >= 0.0), t, np.inf))
        best = t.min(axis=0)
        return np.where(np.isfinite(best), best, np.nan)

    def approaching(self) -> np.ndarray:
        """The center distance is strictly decreasing: p_ab·v_ab < 0."""
        vx, vy, _, _, _ = self.motion()
        return self.px * vx + self.py * vy < 0.0


def _mei_values(depth: np.ndarray, tem: np.ndarray, cfg: MetricsConfig) -> np.ndarray:
    ok = (tem > 0.0) & ~np.isnan(depth)
    value = depth / np.where(ok, tem, 1.0)
    if cfg.mei_cap is not None:
        value = np.where(value > cfg.mei_cap, cfg.mei_cap, value)
    return np.where(ok, value, np.nan)


def frame_columns(a: TrackArrays, b: TrackArrays, cfg: MetricsConfig) -> dict[str, np.ndarray]:
    """Every FrameMetrics field of frame-aligned tracks as a column, NaN
    where a value is undefined, each quantity computed once per frame on one
    ContactRegion. Frames are independent of each other, so the pairs of a
    corpus laid end to end (joined_pairs) run in one call."""
    region = ContactRegion(a, b)
    depth, d_ct, d_a, d_b = region.in_depth_parts(cfg.d_safe)
    tem = region.tem(cfg.d_safe)
    if cfg.q_predicate == "always_true":
        q = np.ones(len(a), dtype=bool)
    else:
        q = region.approaching()
    return {"t": a.t, "in_depth": depth, "tem": tem, "mei": _mei_values(depth, tem, cfg), "act": region.act(),
            "q_active": q, "overlap": region.overlap, "d_ct": d_ct, "d_a": d_a, "d_b": d_b}


def _frames(a: TrackArrays, b: TrackArrays, cfg: MetricsConfig) -> list[FrameMetrics]:
    """FrameMetrics of frame-aligned tracks, from their frame_columns."""
    columns = frame_columns(a, b, cfg)
    values = [columns[name].tolist() for name in _FRAME_FIELDS]
    for k in _OPTIONAL_FIELDS:
        values[k] = [None if v != v else v for v in values[k]]
    return [FrameMetrics(*row) for row in zip(*values)]


# ---------------------------------------------------------------------------
# scalar API: the one-frame case of the kernel
# ---------------------------------------------------------------------------


def _one_frame(a: AgentState, b: AgentState) -> tuple[TrackArrays, TrackArrays]:
    if a.t_dms != b.t_dms:
        raise ValueError(f"timestamps differ: {a.t} vs {b.t}")
    return TrackArrays.from_states((a,)), TrackArrays.from_states((b,))


def _region(a: AgentState, b: AgentState) -> ContactRegion:
    return ContactRegion(*_one_frame(a, b))


def _scalar(values: np.ndarray) -> float | None:
    value = float(values[0])
    return None if math.isnan(value) else value


def relative_kinematics(a: AgentState, b: AgentState) -> tuple[Vec2, Vec2, Vec2 | None]:
    """Relative position p_ab = P_a - P_b, relative velocity v_ab = v_a - v_b,
    and the unit direction of v_ab (None when there is no relative motion)."""
    if a.t_dms != b.t_dms:
        raise ValueError(f"timestamps differ: {a.t} vs {b.t}")
    p_ab = a.position - b.position
    v_ab = a.velocity - b.velocity
    speed = v_ab.norm()
    if speed < ZERO_RELATIVE_SPEED:
        return p_ab, v_ab, None
    return p_ab, v_ab, Vec2(v_ab.x / speed, v_ab.y / speed)


def in_depth(a: AgentState, b: AgentState, cfg: MetricsConfig = MetricsConfig()) -> float | None:
    """Mutual intrusion depth: d_a + d_b - d_ct + d_safe.

    d_a/d_b are the agents' projection radii orthogonal to the relative
    velocity and d_ct is the tangential center-to-center distance (the miss
    distance of the centers under constant-velocity motion). Positive means
    the bodies collide unless someone evades; None when there is no relative
    motion.
    """
    parts = in_depth_parts(a, b, cfg)
    return None if parts is None else parts[0]


def in_depth_parts(
    a: AgentState, b: AgentState, cfg: MetricsConfig = MetricsConfig()
) -> tuple[float, float, float, float] | None:
    """(in_depth, d_ct, d_a, d_b) or None when the relative direction is undefined."""
    parts = [_scalar(x) for x in _region(a, b).in_depth_parts(cfg.d_safe)]
    return None if parts[0] is None else tuple(parts)


def tem_ttc2d(a: AgentState, b: AgentState, cfg: MetricsConfig = MetricsConfig()) -> float | None:
    """Time for evasive maneuver: exact first-contact time of the two
    footprints under the constant-velocity model (headings frozen).

    Computed as the entry parameter of the relative-position ray (origin
    p_ab, direction v_ab) into the relative contact region; d_safe > 0
    inflates the region by a disc of that radius. Returns 0 for frames
    already in contact and None when the straight-line motion never collides.
    """
    return _scalar(_region(a, b).tem(cfg.d_safe))


def mei(a: AgentState, b: AgentState, cfg: MetricsConfig = MetricsConfig()) -> float | None:
    """Required conflict-reduction rate: in_depth / tem.

    None when either part is undefined or at contact (tem == 0, where the
    ratio diverges; the overlap flag reports that case). cfg.mei_cap, when
    set, clamps the reported value for plotting-friendly output.
    """
    region = _region(a, b)
    depth = region.in_depth_parts(cfg.d_safe)[0]
    return _scalar(_mei_values(depth, region.tem(cfg.d_safe), cfg))


def act(a: AgentState, b: AgentState) -> float | None:
    """Anticipated collision time from the nearest boundary point pair.

    The gap between the closest points divided by the closing rate along the
    line joining them, with the pair frozen at the current frame. 0 when the
    footprints already touch; None when the gap is not closing.
    """
    return _scalar(_region(a, b).act())


def condition_q(a: AgentState, b: AgentState, cfg: MetricsConfig = MetricsConfig()) -> bool:
    """Conflict-detection gate.

    Default predicate: the center distance is strictly decreasing
    (p_ab . v_ab < 0). The always_true variant exists for sensitivity runs.
    """
    if cfg.q_predicate == "always_true":
        return True
    return bool(_region(a, b).approaching()[0])


def compute_frame(a: AgentState, b: AgentState, cfg: MetricsConfig = MetricsConfig()) -> FrameMetrics:
    """All per-frame metrics for one agent pair at one shared timestamp."""
    return _frames(*_one_frame(a, b), cfg)[0]


def compute_pair_frames(
    track_a: Track,
    track_b: Track,
    cfg: MetricsConfig = MetricsConfig(),
) -> list[FrameMetrics]:
    """Frame metrics over the common clock of two tracks, given as AgentState
    sequences or as TrackArrays and read by the track rule (as_arrays): the
    one-pair case of joined_pairs."""
    _, _, a, b = _join(_stack([(track_a, track_b)]))
    return _frames(a, b, cfg)


def joined_pairs(pairs: Iterable[tuple[K, Track, Track]]) -> Iterator[tuple[list[K], TrackArrays, TrackArrays, np.ndarray]]:
    """The common frames of keyed pairs (key, track_a, track_b) laid end to
    end, in chunks of pairs whose a tracks hold at most KERNEL_BATCH_FRAMES
    frames together (a pair with more is a chunk of its own). Yields per
    chunk the keys of its pairs with common frames, one frame-aligned
    TrackArrays per side, and the segment bounds: pair k holds frames
    bounds[k]:bounds[k + 1]. By the track rule (as_arrays), a pair's common
    frames are its a track's frames whose timestamp b holds, in time order,
    a repeated timestamp taking its first frame in either track."""
    for keys, chunk in _chunks(pairs):
        joined, starts, a, b = _join(chunk)
        if joined.size:
            yield [keys[k] for k in joined.tolist()], a, b, np.append(starts, len(a))


def _chunks(pairs: Iterable[tuple[K, Track, Track]]) -> Iterator[tuple[list[K], tuple]]:
    """The chunks of joined_pairs: per chunk, its keys and its pairs'
    tracks stacked once (_stack), for the join and PET alike."""
    keys, chunk, width = [], [], 0
    for key, track_a, track_b in pairs:
        if chunk and width + len(track_a) > KERNEL_BATCH_FRAMES:
            yield keys, _stack(chunk)
            keys, chunk, width = [], [], 0
        keys.append(key)
        chunk.append((track_a, track_b))
        width += len(track_a)
    if chunk:
        yield keys, _stack(chunk)


def _stack(pairs: Sequence[tuple[Track, Track]]) -> tuple[TrackArrays, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct tracks of pairs (by identity) laid end to end by the track
    rule: their frames, each track's first frame and size, and per pair the
    indices of its a and b tracks. One test over the stacked timestamps finds
    the tracks whose t_dms do not strictly increase, which no parsed track
    is, and only those are normalized."""
    slot: dict[int, int] = {}
    tracks: list[TrackArrays] = []
    for track in (track for pair in pairs for track in pair):
        if slot.setdefault(id(track), len(tracks)) == len(tracks):
            tracks.append(as_arrays(track))
    owner = np.repeat(np.arange(len(tracks)), [len(track) for track in tracks])
    t_dms = np.concatenate([track.t_dms for track in tracks])
    for k in set(owner[1:][(t_dms[1:] <= t_dms[:-1]) & (owner[1:] == owner[:-1])].tolist()):
        # np.unique's index is the first frame of each timestamp, in time order
        tracks[k] = tracks[k].take(np.unique(tracks[k].t_dms, return_index=True)[1])
    size = np.array([len(track) for track in tracks], dtype=np.int64)
    frames = TrackArrays("", *(np.concatenate([getattr(track, name) for track in tracks]) for name in _TRACK_COLUMNS))
    ka, kb = np.array([[slot[id(a)], slot[id(b)]] for a, b in pairs], dtype=np.int64).T
    return frames, np.cumsum(size) - size, size, ka, kb


def _join(chunk: tuple) -> tuple[np.ndarray, np.ndarray, TrackArrays, TrackArrays]:
    """The common frames of every pair of a stacked chunk at once: the pairs
    that have any, where their segments start, and the frame-aligned
    TrackArrays of each side."""
    frames, start, size, ka, kb = chunk
    # a (track, timestamp) code per frame, by the track rule strictly increasing
    times, rank = np.unique(frames.t_dms, return_inverse=True)
    code = np.repeat(np.arange(len(size)), size) * len(times) + rank
    # every frame of each pair's a track, in time order, looked up among b's
    length = size[ka]
    segment = np.repeat(np.arange(len(ka)), length)
    ia = np.arange(length.sum()) + np.repeat(start[ka] - (np.cumsum(length) - length), length)
    query = kb[segment] * len(times) + rank[ia]
    ib = np.minimum(np.searchsorted(code, query), len(code) - 1)
    found = code[ib] == query
    count = np.bincount(segment[found], minlength=len(ka))
    joined = np.flatnonzero(count)
    return joined, (np.cumsum(count) - count)[joined], frames.take(ia[found]), frames.take(ib[found])


# ---------------------------------------------------------------------------
# PET
# ---------------------------------------------------------------------------


def _box_bounds(frames: TrackArrays) -> tuple[np.ndarray, np.ndarray]:
    """(2, N) lower and upper (x, y) corner bounds of every box, from the
    corners by the expressions of geometry.corners, so the raster windows
    match it to the bit."""
    x, y, cos_h, sin_h = frames.x, frames.y, frames.cos_h, frames.sin_h
    lx, ly = 0.5 * frames.length * cos_h, 0.5 * frames.length * sin_h
    wx, wy = 0.5 * frames.width * -sin_h, 0.5 * frames.width * cos_h
    xs = np.stack([x + lx - wx, x + lx + wx, x - lx - wx, x - lx + wx])
    ys = np.stack([y + ly - wy, y + ly + wy, y - ly - wy, y - ly + wy])
    return np.stack([xs.min(axis=0), ys.min(axis=0)]), np.stack([xs.max(axis=0), ys.max(axis=0)])


def _batches(sizes: np.ndarray) -> list[slice]:
    """Runs of consecutive items for batches of about PET_BATCH_CELLS: an
    item joins the run of the PET_BATCH_CELLS-wide stretch of the summed
    sizes that it starts in, so a run holds less than PET_BATCH_CELLS plus
    its last item."""
    if not sizes.size:
        return []
    stretch = (np.cumsum(sizes) - sizes) // PET_BATCH_CELLS
    edges = [0, *(np.flatnonzero(stretch[1:] != stretch[:-1]) + 1).tolist(), len(sizes)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _meeting_windows(seg: np.ndarray, lo: np.ndarray, hi: np.ndarray, pairs: int) -> np.ndarray:
    """Per window (cells lo to hi, as (2, n) arrays; seg is pair * 2 + side),
    whether it meets a window of the other side of its pair. Each a window
    is compared only with the b windows of its pair whose first cell on one
    axis lies within reach of it: b windows sorted by (pair, first cell) on
    each axis, and per a window the axis with fewer of them; in batches of
    about PET_BATCH_CELLS comparisons."""
    meets = np.zeros(len(seg), dtype=bool)
    if not len(seg):
        return meets
    pair = seg >> 1
    a, b = np.flatnonzero(seg & 1 == 0), np.flatnonzero(seg & 1)
    span = int(hi.max()) + 1
    ranges = []
    for axis in range(2):
        # a b window meets an a window on this axis only if its first cell
        # lies after the a window's first minus the pair's widest b window
        key = pair[b] * span + lo[axis, b]
        order = np.argsort(key, kind="stable")
        reach = np.zeros(pairs, dtype=np.int64)
        np.maximum.at(reach, pair[b], hi[axis, b] - lo[axis, b])
        first = np.searchsorted(key[order], pair[a] * span + np.maximum(lo[axis, a] - reach[pair[a]] + 1, 0))
        last = np.searchsorted(key[order], pair[a] * span + hi[axis, a])
        ranges.append((b[order], first, last - first))
    (by_i, first_i, count_i), (by_j, first_j, count_j) = ranges
    on_j = (count_j < count_i).astype(np.int64)
    first, count = np.where(on_j, first_j, first_i), np.minimum(count_i, count_j)
    candidates = np.stack([by_i, by_j])
    for run in _batches(count):
        n = count[run]
        ca = np.repeat(a[run], n)
        cb = candidates[np.repeat(on_j[run], n), np.arange(n.sum()) + np.repeat(first[run] - (np.cumsum(n) - n), n)]
        hit = ((lo[:, ca] < hi[:, cb]) & (lo[:, cb] < hi[:, ca])).all(axis=0)
        meets[ca[hit]] = True
        meets[cb[hit]] = True
    return meets


def _occupied(frames: TrackArrays, box: np.ndarray, seg: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              origin: np.ndarray, grid: float, pairs: int) -> np.ndarray:
    """Per box (frame box of the stacked frames, of pair seg >> 1 and side
    seg & 1, with window lo to hi of the raster at origin), whether one of
    its cells lies in the other side's swept mask: whether a cell centre
    lies inside the box and inside a box of the other side (closed tests).

    The cells go in batches of boxes of like window shape, a window padded
    to its batch's shape by repeating its last row and column. The side of
    a pair with fewer window cells goes first and keeps its inside masks,
    packed to bits, until the other side's swept mask is known; the other
    side is tested as soon as its cells are."""
    pair = seg >> 1
    # each pair's raster, and each window, is cut to where both sides'
    # windows lie, and the swept masks of every pair and side are one
    # array: cell (i, j) of a box is swept[i * stride + own + j] of its own
    # side, swept[i * stride + other + j] of the other
    side_lo = np.full((2, 2 * pairs), np.iinfo(np.int64).max)
    side_hi = np.zeros((2, 2 * pairs), dtype=np.int64)
    for axis in range(2):
        np.minimum.at(side_lo[axis], seg, lo[axis])
        np.maximum.at(side_hi[axis], seg, hi[axis])
    rect_lo = np.maximum(side_lo[:, 0::2], side_lo[:, 1::2])
    rect = np.maximum(np.minimum(side_hi[:, 0::2], side_hi[:, 1::2]) - rect_lo, 0)
    lo, hi = np.maximum(lo, rect_lo[:, pair]), np.minimum(hi, (rect_lo + rect)[:, pair])
    cells = rect[0] * rect[1]
    swept = np.zeros(2 * int(cells.sum()), dtype=bool)
    stride = rect[1, pair]
    base = 2 * (np.cumsum(cells) - cells)[pair] - rect_lo[0, pair] * stride - rect_lo[1, pair]
    own, other = base + (seg & 1) * cells[pair], base + (1 - (seg & 1)) * cells[pair]

    dims = hi - lo
    size = dims[0] * dims[1]
    side_size = np.bincount(seg, weights=size, minlength=2 * pairs).reshape(-1, 2)
    later = (seg & 1) ^ (side_size[:, 1] < side_size[:, 0])[pair]
    order = np.lexsort((dims[1], dims[0], later))
    first = int(np.count_nonzero(later == 0))
    ox, oy = origin[:, order]
    x, y, cos_h, sin_h, length, width = (getattr(frames, name)[box[order]]
                                         for name in ("x", "y", "cos_h", "sin_h", "length", "width"))
    half_l, half_w = 0.5 * length, 0.5 * width
    lo, dims, size, stride, own, other = lo[:, order], dims[:, order], size[order], stride[order], own[order], other[order]
    steps = np.arange(dims.max(initial=0))

    def window(run):
        wi, wj = dims[:, run].max(axis=1).tolist()
        i = lo[0, run, None] + np.minimum(steps[:wi], dims[0, run, None] - 1)
        j = lo[1, run, None] + np.minimum(steps[:wj], dims[1, run, None] - 1)
        return i, j

    def inside(run, i, j):
        dx = (ox[run, None] + (i + 0.5) * grid) - x[run, None]
        dy = (oy[run, None] + (j + 0.5) * grid) - y[run, None]
        c, s = cos_h[run, None], sin_h[run, None]
        # the box frame coordinates u = dx c + dy s and v = -dx s + dy c of
        # every cell centre, from the products per row and per column
        uv = np.add((dx * c)[:, :, None], (dy * s)[:, None, :])
        mask = np.abs(uv, out=uv) <= half_l[run, None, None]
        np.add((-dx * s)[:, :, None], (dy * c)[:, None, :], out=uv)
        mask &= np.abs(uv, out=uv) <= half_w[run, None, None]
        return mask

    def index(run, i, j, side_base):
        return np.add((i * stride[run, None] + side_base[run, None])[:, :, None], j[:, None, :])

    occupied = np.zeros(len(box), dtype=bool)
    kept = []
    for run in _batches(size[:first]):
        i, j = window(run)
        mask = inside(run, i, j)
        swept[index(run, i, j, own)[mask]] = True
        kept.append((run, mask.shape, np.packbits(mask)))
    for run in _batches(size[first:]):
        run = slice(run.start + first, run.stop + first)
        i, j = window(run)
        mask = inside(run, i, j)
        swept[index(run, i, j, own)[mask]] = True
        occupied[run] = (mask & swept[index(run, i, j, other)]).any(axis=(1, 2))
    for run, shape, bits in kept:
        i, j = window(run)
        mask = np.unpackbits(bits, count=math.prod(shape)).reshape(shape).view(bool)
        occupied[run] = (mask & swept[index(run, i, j, other)]).any(axis=(1, 2))
    result = np.empty_like(occupied)
    result[order] = occupied
    return result


def pets(pairs: Sequence[tuple[Track, Track]], cfg: MetricsConfig = MetricsConfig()) -> list[float | PetGridError | None]:
    """pet() of many pairs in one pass: per pair its PET, or the PetGridError
    pet() raises for it; None for a pair with a track of fewer than 2 frames
    by the track rule (as_arrays)."""
    return _pets(_stack(pairs), np.arange(len(pairs)), cfg) if pairs else []


def _pets(chunk: tuple, which: np.ndarray, cfg: MetricsConfig) -> list[float | PetGridError | None]:
    """pets() of the pairs which of a stacked chunk (_stack). Box bounds are
    computed once per frame of the chunk, and the swept bounding boxes of
    all pairs are tested at once. A pair whose boxes meet gets pet()'s
    raster, but only on the boxes whose window meets one of the other
    agent's (_meeting_windows), where both agents' windows lie (_occupied):
    no other cell can be in the conflict zone."""
    frames, start, size, ka, kb = chunk
    result: list[float | PetGridError | None] = [None] * len(which)
    index = np.flatnonzero((size[ka[which]] >= 2) & (size[kb[which]] >= 2)).tolist()
    if not index:
        return result
    ka, kb = ka[which[index]], kb[which[index]]
    grid = cfg.pet_grid
    box_lo, box_hi = _box_bounds(frames)
    # reduceat takes no empty segment, and no pair here has an empty track
    track_lo, track_hi = np.zeros((2, 2, len(size)))
    filled = size > 0
    track_lo[:, filled] = np.minimum.reduceat(box_lo, start[filled], axis=1)
    track_hi[:, filled] = np.maximum.reduceat(box_hi, start[filled], axis=1)

    # the window where the swept bounding boxes meet, and its raster
    zone_lo, zone_hi = np.maximum(track_lo[:, ka], track_lo[:, kb]), np.minimum(track_hi[:, ka], track_hi[:, kb])
    origin = np.floor(zone_lo / grid) * grid - grid
    shape = np.ceil((zone_hi - origin) / grid) + 2
    meet = (zone_lo <= zone_hi).all(axis=0)
    too_fine = meet & (shape[0] * shape[1] > 100_000_000)
    for k in np.flatnonzero(too_fine).tolist():
        width, height = (zone_hi[:, k] - zone_lo[:, k]).tolist()
        result[index[k]] = PetGridError(
            f"pet_grid={grid} is too fine for a {width:.0f} x {height:.0f} m "
            "swept-footprint window; raise pet_grid"
        )
    live = np.flatnonzero(meet & ~too_fine)
    if not live.size:
        return result
    origin, shape = origin[:, live], shape[:, live].astype(np.int64)

    # every box of each live pair, a's before b's; seg is pair * 2 + side
    track = np.stack([ka[live], kb[live]], axis=1).ravel()
    count = size[track]
    seg = np.repeat(np.arange(len(track)), count)
    box = np.arange(count.sum()) + np.repeat(start[track] - (np.cumsum(count) - count), count)
    pair = seg >> 1
    # a box's window is its corner bounds padded by more than a cell and
    # clipped to the raster, so no cell outside it can pass the inside test
    lo = np.maximum(0, np.trunc((box_lo[:, box] - origin[:, pair]) / grid).astype(np.int64) - 1)
    hi = np.minimum(shape[:, pair], np.trunc((box_hi[:, box] - origin[:, pair]) / grid).astype(np.int64) + 2)
    keep = np.flatnonzero((lo < hi).all(axis=0))
    keep = keep[_meeting_windows(seg[keep], lo[:, keep], hi[:, keep], len(live))]
    seg, box, pair, lo, hi = seg[keep], box[keep], pair[keep], lo[:, keep], hi[:, keep]
    occupied = _occupied(frames, box, seg, lo, hi, origin[:, pair], grid, len(live))

    # the least gap between an occupancy time of a and one of b is the least
    # gap between neighbours of different sides among the pair's sorted times
    pair, side, t = pair[occupied], seg[occupied] & 1, frames.t_dms[box[occupied]]
    order = np.lexsort((t, pair))
    pair, side, t = pair[order], side[order], t[order]
    cross = (pair[1:] == pair[:-1]) & (side[1:] != side[:-1])
    gap = np.full(len(live), np.iinfo(np.int64).max)
    np.minimum.at(gap, pair[1:][cross], (t[1:] - t[:-1])[cross])
    for k, value in zip(live.tolist(), gap.tolist()):
        if value < np.iinfo(np.int64).max:
            result[index[k]] = value / 1e4
    return result


def pet(
    track_a: Track,
    track_b: Track,
    cfg: MetricsConfig = MetricsConfig(),
) -> float | None:
    """Post-encroachment time over the shared conflict zone: the one-pair
    call of pets().

    The zone is the intersection of the two swept footprints, rasterized at
    cfg.pet_grid; a box occupies it when one of its cells does. PET is the
    least gap |t_a - t_b| between an occupancy time of each agent: 0 when
    both agents occupy the zone at the same frame, and otherwise the gap
    between the earlier agent's last exit and the later agent's first entry
    when their occupancy does not interleave. None when the zone is empty.
    Raises PetGridError when the raster would exceed 1e8 cells.
    """
    chunk = _stack([(track_a, track_b)])
    if (chunk[2] < 2).any():
        raise ValueError("PET needs at least 2 frames per track")
    (value,) = _pets(chunk, np.arange(1), cfg)
    if isinstance(value, PetGridError):
        raise value
    return value
