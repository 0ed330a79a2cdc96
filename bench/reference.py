"""Independent numpy reference computations used by the output checks.

Nothing here imports conflictmetrics: the checks compare the program's
tables against these closed forms, computed over all frames of a pair at
once. Frame arrays follow one convention throughout: a track is a dict of
equal-length numpy arrays ``t_dms`` (int64 tenths of a millisecond), ``x``,
``y``, ``v``, ``h`` (heading, rad), ``L`` and ``W`` (footprint, m).
"""

from __future__ import annotations

import csv
import math

import numpy as np

TEM_STAR = 3.0
ZERO_RELATIVE_SPEED = 1e-9
NEAR_ZERO_SPEED = 1e-3
PEDESTRIAN_SIZE = 0.6

CATEGORY_MAP = {
    "vehicle": "vehicle", "car": "vehicle", "truck": "vehicle", "bus": "vehicle", "av": "vehicle",
    "motorcyclist": "cyclist", "cyclist": "cyclist", "bicycle": "cyclist",
    "pedestrian": "pedestrian",
}


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _track(rows: list[tuple]) -> dict:
    rows.sort(key=lambda r: r[0])
    cols = list(zip(*rows))
    return {
        "t_dms": np.array(cols[0], dtype=np.int64),
        "x": np.array(cols[1]), "y": np.array(cols[2]),
        "v": np.array(cols[3]), "h": np.array(cols[4]),
        "L": np.array(cols[5]), "W": np.array(cols[6]),
        "type": cols[7][0],
    }


def _wrap(h: np.ndarray) -> np.ndarray:
    r = np.remainder(h + np.pi, 2 * np.pi) - np.pi
    return np.where(r == -np.pi, np.pi, r)


def read_canonical(path: str) -> dict[str, dict[str, dict]]:
    """scenario -> agent -> track, read with the csv module."""
    raw: dict[str, dict[str, list]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            ped = rec["agent_type"] == "pedestrian"
            L = float(rec["length"]) if rec["length"] else PEDESTRIAN_SIZE if ped else math.nan
            W = float(rec["width"]) if rec["width"] else PEDESTRIAN_SIZE if ped else math.nan
            raw.setdefault(rec["scenario_id"], {}).setdefault(rec["agent_id"], []).append(
                (round(float(rec["t"]) * 1e4), float(rec["x"]), float(rec["y"]),
                 float(rec["speed"]), float(rec["heading"]), L, W, rec["agent_type"])
            )
    return {sid: {aid: _track(rows) for aid, rows in agents.items()} for sid, agents in raw.items()}


def read_dataset(paths: list[str]) -> dict[str, dict[str, dict]]:
    """The dataset export layout mapped to tracks by the rules of its format
    document: psi_rad wins, else atan2(vy, vx), else central differences."""
    raw: dict[str, dict[str, list]] = {}
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            kind = "psi" if "psi_rad" in reader.fieldnames else "vel" if "vx" in reader.fieldnames else "pos"
            for rec in reader:
                raw.setdefault(rec["case_id"], {}).setdefault(rec["track_id"], []).append((kind, rec))
    out: dict[str, dict[str, dict]] = {}
    for sid, tracks in raw.items():
        out[sid] = {}
        for aid, recs in tracks.items():
            recs.sort(key=lambda kr: int(kr[1]["timestep"]))
            kind = recs[0][0]
            first = recs[0][1]
            agent_type = CATEGORY_MAP.get(first["object_category"].strip().lower(), "other")
            if first.get("length"):
                L, W = float(first["length"]), float(first["width"])
            else:
                L = W = PEDESTRIAN_SIZE
            step = np.array([int(r["timestep"]) for _, r in recs], dtype=np.int64)
            x = np.array([float(r["x"]) for _, r in recs])
            y = np.array([float(r["y"]) for _, r in recs])
            if kind == "pos":
                t = step * 0.1
                lo = np.maximum(np.arange(len(x)) - 1, 0)
                hi = np.minimum(np.arange(len(x)) + 1, len(x) - 1)
                vx = (x[hi] - x[lo]) / (t[hi] - t[lo])
                vy = (y[hi] - y[lo]) / (t[hi] - t[lo])
                h = np.arctan2(vy, vx)
            else:
                vx = np.array([float(r["vx"]) for _, r in recs])
                vy = np.array([float(r["vy"]) for _, r in recs])
                if kind == "psi":
                    h = _wrap(np.array([float(r["psi_rad"]) for _, r in recs]))
                else:
                    h = np.arctan2(vy, vx)
            v = np.hypot(vx, vy)
            if np.any(v < NEAR_ZERO_SPEED):
                raise ValueError(f"{sid}/{aid}: near-zero speed; the generator keeps speeds above it")
            out[sid][aid] = {
                "t_dms": step * 1000, "x": x, "y": y, "v": v, "h": h,
                "L": np.full(len(x), L), "W": np.full(len(x), W), "type": agent_type,
            }
    return out


def common(a: dict, b: dict) -> tuple[dict, dict]:
    """Both tracks restricted to their shared timestamps."""
    _, ia, ib = np.intersect1d(a["t_dms"], b["t_dms"], assume_unique=True, return_indices=True)
    keys = ("t_dms", "x", "y", "v", "h", "L", "W")
    return ({k: a[k][ia] for k in keys} | {"type": a["type"]},
            {k: b[k][ib] for k in keys} | {"type": b["type"]})


# ---------------------------------------------------------------------------
# frame kernels, vectorised over the frames of one pair
# ---------------------------------------------------------------------------

def _axes(s: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    c, sn = np.cos(s["h"]), np.sin(s["h"])
    return c, sn, -sn, c  # heading axis (ux, uy) and its CCW normal


def _half_extent(s: dict, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    ux, uy, wx, wy = _axes(s)
    return 0.5 * s["L"] * np.abs(nx * ux + ny * uy) + 0.5 * s["W"] * np.abs(nx * wx + ny * wy)


def _sat_axes(a: dict, b: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    ax, ay, awx, awy = _axes(a)
    bx, by, bwx, bwy = _axes(b)
    return [(ax, ay), (awx, awy), (bx, by), (bwx, bwy)]


def relative(a: dict, b: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    px, py = a["x"] - b["x"], a["y"] - b["y"]
    vx = a["v"] * np.cos(a["h"]) - b["v"] * np.cos(b["h"])
    vy = a["v"] * np.sin(a["h"]) - b["v"] * np.sin(b["h"])
    return px, py, vx, vy


def separation(a: dict, b: dict) -> np.ndarray:
    """Largest gap over the four box axes: > 0 apart, <= 0 overlapping
    (touching counts as overlap), its size the distance from grazing."""
    px, py, _, _ = relative(a, b)
    gaps = [np.abs(nx * px + ny * py) - _half_extent(a, nx, ny) - _half_extent(b, nx, ny)
            for nx, ny in _sat_axes(a, b)]
    return np.max(gaps, axis=0)


def in_depth(a: dict, b: dict, d_safe: float = 0.0) -> np.ndarray:
    """d_A + d_B - D_cT + D_safe; NaN without relative motion."""
    px, py, vx, vy = relative(a, b)
    speed = np.hypot(vx, vy)
    ok = speed >= ZERO_RELATIVE_SPEED
    safe = np.where(ok, speed, 1.0)
    tx, ty = vx / safe, vy / safe
    d_ct = np.abs(px * ty - py * tx)
    # projection radius orthogonal to theta is the half extent along theta's normal
    d_a = _half_extent(a, -ty, tx)
    d_b = _half_extent(b, -ty, tx)
    return np.where(ok, d_a + d_b - d_ct + d_safe, np.nan)


def tem(a: dict, b: dict) -> np.ndarray:
    """First-contact time under constant velocity as a slab clip on the four
    box axes (the relative contact region is their intersection); 0 when
    already overlapping, NaN when the motion never makes contact."""
    px, py, vx, vy = relative(a, b)
    n = len(px)
    enter = np.full(n, -np.inf)
    leave = np.full(n, np.inf)
    for nx, ny in _sat_axes(a, b):
        reach = _half_extent(a, nx, ny) + _half_extent(b, nx, ny)
        s0 = nx * px + ny * py
        ds = nx * vx + ny * vy
        moving = ds != 0.0
        dsafe = np.where(moving, ds, 1.0)
        t1 = (-reach - s0) / dsafe
        t2 = (reach - s0) / dsafe
        lo = np.where(moving, np.minimum(t1, t2), np.where(np.abs(s0) <= reach, -np.inf, np.inf))
        hi = np.where(moving, np.maximum(t1, t2), np.where(np.abs(s0) <= reach, np.inf, -np.inf))
        enter = np.maximum(enter, lo)
        leave = np.minimum(leave, hi)
    still = np.hypot(vx, vy) < ZERO_RELATIVE_SPEED
    hit = (enter <= leave) & (leave >= 0.0) & ~still
    out = np.where(hit, np.maximum(enter, 0.0), np.nan)
    return np.where(separation(a, b) <= 0.0, 0.0, out)


SEARCH_STEPS = 64


def tem_rounded(a: dict, b: dict, d_safe: float) -> np.ndarray:
    """First-contact time of the footprints grown by D_safe: the first
    tau >= 0 at which they come within d_safe of each other under constant
    velocity. Their distance along the relative motion is convex in tau, so
    the entry is its first crossing of d_safe before the minimiser, found by
    golden-section search for the minimiser, then bisection. Only frames
    whose line of relative motion meets the grown region (InDepth >= 0) and
    that do not overlap yet need the search."""
    out = np.where(separation(a, b) <= 0.0, 0.0, np.nan)
    todo = np.flatnonzero((in_depth(a, b, d_safe) >= 0.0) & np.isnan(out))
    a = {k: v if k == "type" else v[todo] for k, v in a.items()}
    b = {k: v if k == "type" else v[todo] for k, v in b.items()}
    px, py, vx, vy = relative(a, b)
    speed = np.hypot(vx, vy)
    safe = np.where(speed > 0.0, speed, 1.0)

    def gap(tau):
        return nearest(a | {"x": a["x"] + vx * tau, "y": a["y"] + vy * tau}, b)[0]

    # Past hi the centre distance exceeds its minimum plus both circumradii
    # twice over, so the footprints are farther apart than at any earlier time.
    t_c = np.maximum(-(px * vx + py * vy) / (safe * safe), 0.0)
    radii = 0.5 * np.hypot(a["L"], a["W"]) + 0.5 * np.hypot(b["L"], b["W"])
    lo = np.zeros_like(px)
    hi = t_c + (np.hypot(px + vx * t_c, py + vy * t_c) + 2.0 * radii) / safe
    k = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - k * (hi - lo), lo + k * (hi - lo)
    f1, f2 = gap(x1), gap(x2)
    for _ in range(SEARCH_STEPS):
        left = f1 <= f2  # the minimiser lies in [lo, x2]
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        new = np.where(left, hi - k * (hi - lo), lo + k * (hi - lo))
        f_new = gap(new)
        x1, x2, f1, f2 = (np.where(left, new, x2), np.where(left, x1, new),
                          np.where(left, f_new, f2), np.where(left, f1, f_new))
    t_min = 0.5 * (lo + hi)
    hit = gap(t_min) <= d_safe
    lo, hi = np.zeros_like(px), t_min
    for _ in range(SEARCH_STEPS):
        mid = 0.5 * (lo + hi)
        inside = gap(mid) <= d_safe
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    out[todo] = np.where(gap(0.0) <= d_safe, 0.0, np.where(hit, hi, np.nan))
    return out


def concat(tracks: list[dict]) -> dict:
    """Frames of several pairs end to end, so one vectorised call covers them."""
    keys = ("t_dms", "x", "y", "v", "h", "L", "W")
    return {k: np.concatenate([t[k] for t in tracks]) for k in keys}


def _corners(s: dict) -> np.ndarray:
    """(n, 4, 2) corners in CCW order."""
    ux, uy, wx, wy = _axes(s)
    hl, hw = 0.5 * s["L"], 0.5 * s["W"]
    out = np.empty((len(ux), 4, 2))
    for k, (sl, sw) in enumerate(((1, -1), (1, 1), (-1, 1), (-1, -1))):
        out[:, k, 0] = s["x"] + sl * hl * ux + sw * hw * wx
        out[:, k, 1] = s["y"] + sl * hl * uy + sw * hw * wy
    return out


def _corner_to_edges(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each frame, closest points on q's edges to each of p's corners:
    returns (points on q, distances), both over (n, 16)."""
    s0 = q[:, None, :, :]
    s1 = np.roll(q, -1, axis=1)[:, None, :, :]
    pt = p[:, :, None, :]
    e = s1 - s0
    u = np.clip(np.sum((pt - s0) * e, axis=-1) / np.sum(e * e, axis=-1), 0.0, 1.0)
    foot = s0 + u[..., None] * e
    dist = np.hypot(*(pt - foot).transpose(3, 0, 1, 2))
    return foot.reshape(len(p), 16, 2), dist.reshape(len(p), 16)


def nearest(a: dict, b: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance between the footprints (0 when overlapping) and the vector
    from a's nearest boundary point to b's."""
    ca, cb = _corners(a), _corners(b)
    foot_b, d1 = _corner_to_edges(ca, cb)  # corner of a -> edge of b
    foot_a, d2 = _corner_to_edges(cb, ca)  # corner of b -> edge of a
    qa = np.concatenate([np.repeat(ca, 4, axis=1), foot_a], axis=1)
    qb = np.concatenate([foot_b, np.repeat(cb, 4, axis=1)], axis=1)
    dist = np.concatenate([d1, d2], axis=1)
    k = np.argmin(dist, axis=1)
    rows = np.arange(len(k))
    d = qb[rows, k] - qa[rows, k]
    return np.where(separation(a, b) <= 0.0, 0.0, dist[rows, k]), d[:, 0], d[:, 1]


def act(a: dict, b: dict) -> np.ndarray:
    """Gap between the nearest boundary points over its closing rate; 0 when
    overlapping, NaN when the gap is not closing."""
    gap, dx, dy = nearest(a, b)
    _, _, vx, vy = relative(a, b)
    safe = np.where(gap > 0, gap, 1.0)
    closing = (vx * dx + vy * dy) / safe
    out = np.where(closing > ZERO_RELATIVE_SPEED, gap / np.where(closing > 0, closing, 1.0), np.nan)
    return np.where(gap > 0.0, out, 0.0)


def approaching(a: dict, b: dict) -> np.ndarray:
    px, py, vx, vy = relative(a, b)
    return px * vx + py * vy < 0.0


def levels(a: dict, b: dict, tem_values: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Risk level per frame: 0 NonConflict, 1 Potential, 2 Critical, 3 Crash."""
    critical = (tem_values <= TEM_STAR) & (depth >= 0.0)
    lvl = np.where(approaching(a, b), np.where(critical, 2, 1), 0)
    return np.where(separation(a, b) <= 0.0, 3, lvl)


def extreme(values: np.ndarray, t_dms: np.ndarray, largest: bool) -> tuple[float | None, int | None]:
    """Max (or min) over defined values with the earliest timestamp on ties."""
    ok = ~np.isnan(values)
    if not ok.any():
        return None, None
    vals = values[ok]
    best = vals.max() if largest else vals.min()
    return float(best), int(t_dms[ok][np.flatnonzero(vals == best)[0]])
