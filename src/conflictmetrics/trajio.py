"""Trajectory ingestion, validation, resampling and dataset adaptation.

The canonical interchange format is flat comma-separated text, one row per
agent-frame, with header:

    scenario_id,agent_id,agent_type,t,x,y,speed,heading,length,width

t is in seconds with at most 3 decimal places, x/y/length/width in meters,
speed in m/s, heading in radians (normalized to (-pi, pi] at ingestion).
Lines starting with '#' are comments. length/width may be empty only for
pedestrians, in which case the default pedestrian footprint applies.

Timestamps are held internally as integer tenths of a millisecond so clock
alignment across agents is exact on the 10 Hz grid.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Sequence, TextIO

import numpy as np

from .metrics import (
    AGENT_TYPES,
    MAX_T_S,
    PEDESTRIAN_DEFAULT_LENGTH,
    PEDESTRIAN_DEFAULT_WIDTH,
    AgentState,
    Track,
    TrackArrays,
    as_arrays,
)

CANONICAL_COLUMNS = (
    "scenario_id",
    "agent_id",
    "agent_type",
    "t",
    "x",
    "y",
    "speed",
    "heading",
    "length",
    "width",
)

# The canonical agent types, so every frame of a type shares one str object.
_AGENT_TYPE = {name: name for name in AGENT_TYPES}

# Speeds below this make a velocity-derived heading meaningless; such frames
# inherit the last well-defined heading and are flagged in diagnostics.
NEAR_ZERO_SPEED = 1e-3


class SchemaError(ValueError):
    """Input file violates the canonical schema (e.g. a missing column)."""


class UnsupportedFormatError(ValueError):
    """Dataset export layout is not one this adapter understands."""


def normalize_heading(heading: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(heading, math.tau)
    return math.pi if r == -math.pi else r


@dataclass(frozen=True)
class ParseIssue:
    """One diagnostic: a rejected row or a flagged irregularity."""

    line: int | None
    scenario_id: str | None
    message: str


@dataclass
class Scenario:
    """One scenario: agent tracks on a shared clock."""

    scenario_id: str
    agents: dict[str, Track]
    dt: float = 0.1

    def pairs(self) -> list[tuple[str, str]]:
        """Every agent pair (a, b) with a < b, in sorted order."""
        ids = sorted(self.agents)
        return [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]


@dataclass
class ParseResult:
    scenarios: list[Scenario]
    issues: list[ParseIssue] = field(default_factory=list)


def _parse_float(raw: str, name: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name}: {raw!r}")
    return value


def _rows_from(stream: str | TextIO) -> Iterable[tuple[int, list[str]]]:
    """(line number, cells) of every line that is neither blank nor a '#'
    comment. Lines end at \n, \r or \r\n, whatever newline mode a stream
    was opened in (universal newlines, as open() reads by default). Each line
    is one record, never joined with the next one: a line whose quoted field
    is left open is parsed as if the text ended there. A line without a
    quote splits on its commas, which is what the csv module gives for it."""
    lines = io.StringIO(stream, newline=None) if isinstance(stream, str) else stream
    # a line of a stream read without universal newlines can hold a bare \r
    lines = (part for line in lines for part in (io.StringIO(line, newline=None) if "\r" in line else (line,)))
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        body = line.rstrip("\n")
        if '"' in body:
            yield lineno, next(csv.reader([line]))
        else:
            yield lineno, body.split(",")


def parse_canonical(stream: str | TextIO) -> ParseResult:
    """Parse canonical trajectory text into scenarios whose tracks are
    TrackArrays.

    Invalid rows are collected as diagnostics and excluded, never silently
    dropped; a malformed header raises SchemaError naming the column.
    """
    rows = _rows_from(stream)
    try:
        _, header = next(iter(rows))
    except StopIteration:
        raise SchemaError("empty input: header row required") from None
    colindex = {name.strip(): i for i, name in enumerate(header)}
    for required in CANONICAL_COLUMNS:
        if required not in colindex:
            raise SchemaError(f"missing required column: {required}")
    cols = tuple(colindex[name] for name in CANONICAL_COLUMNS)

    issues: list[ParseIssue] = []
    by_scenario: dict[str, list[tuple]] = {}
    for lineno, row in rows:
        try:
            parsed = _parse_row(row, cols)
        except (ValueError, IndexError) as exc:
            issues.append(ParseIssue(line=lineno, scenario_id=None, message=str(exc)))
            continue
        by_scenario.setdefault(parsed[0], []).append(parsed)

    scenarios = [_build_scenario(sid, by_scenario[sid], issues) for sid in sorted(by_scenario)]
    return ParseResult(scenarios=scenarios, issues=issues)


def _parse_row(row: list[str], cols: tuple[int, ...]) -> tuple:
    """One validated row as (scenario_id, agent_id, agent_type, t, x, y,
    speed, heading, length, width); cols are the row positions of
    CANONICAL_COLUMNS. Raises ValueError or IndexError naming the fault."""
    c_sid, c_aid, c_type, c_t, c_x, c_y, c_speed, c_heading, c_length, c_width = cols
    scenario_id = row[c_sid].strip()
    agent_id = row[c_aid].strip()
    if not scenario_id or not agent_id:
        raise ValueError("scenario_id and agent_id must be non-empty")
    agent_type = _AGENT_TYPE.get(row[c_type].strip())
    if agent_type is None:
        raise ValueError(f"unknown agent_type: {row[c_type].strip()!r}")

    t = _parse_float(row[c_t].strip(), "t")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t >= MAX_T_S:
        raise ValueError(f"t must be < {MAX_T_S:g}, got {t}")
    if abs(t * 1000 - round(t * 1000)) > 1e-6:
        raise ValueError(f"t has more than 3 decimal places: {t}")
    t = round(t * 1e4) / 1e4

    x = _parse_float(row[c_x].strip(), "x")
    y = _parse_float(row[c_y].strip(), "y")
    speed = _parse_float(row[c_speed].strip(), "speed")
    if speed < 0:
        raise ValueError(f"speed must be >= 0, got {speed}")
    heading = normalize_heading(_parse_float(row[c_heading].strip(), "heading"))

    length_raw, width_raw = row[c_length].strip(), row[c_width].strip()
    if not length_raw or not width_raw:
        if agent_type != "pedestrian":
            raise ValueError("length/width may be empty only for pedestrians")
        length = PEDESTRIAN_DEFAULT_LENGTH if not length_raw else _parse_float(length_raw, "length")
        width = PEDESTRIAN_DEFAULT_WIDTH if not width_raw else _parse_float(width_raw, "width")
    else:
        length = _parse_float(length_raw, "length")
        width = _parse_float(width_raw, "width")
    if length <= 0 or width <= 0:
        raise ValueError("length and width must be > 0")
    return scenario_id, agent_id, agent_type, t, x, y, speed, heading, length, width


def _build_scenario(scenario_id: str, rows: list[tuple], issues: list[ParseIssue]) -> Scenario:
    """The scenario of one scenario_id's parsed rows. Each agent's frames are
    sorted by time (stably: rows with one timestamp keep the file's order),
    and a repeated timestamp keeps its first row. The clock step dt is the
    smallest spacing of any track; a longer spacing is reported as a gap."""
    _, agent_ids, agent_types, *floats = zip(*rows)
    names = sorted(set(agent_ids))
    index = {agent_id: k for k, agent_id in enumerate(names)}
    track = np.array([index[agent_id] for agent_id in agent_ids], dtype=np.int64)
    floats = np.array(floats, dtype=np.float64)  # t, x, y, speed, heading, length, width
    t_dms = np.rint(floats[0] * 1e4).astype(np.int64)
    order = np.lexsort((t_dms, track))
    track, t_dms, floats = track[order], t_dms[order], floats[:, order]
    agent_types = np.array(agent_types, dtype=object)[order]

    repeat = np.flatnonzero((track[1:] == track[:-1]) & (t_dms[1:] == t_dms[:-1])) + 1
    t = floats[0].tolist()
    for i in repeat.tolist():
        issues.append(
            ParseIssue(
                line=None,
                scenario_id=scenario_id,
                message=f"duplicate timestamp t={t[i]} for agent {names[track[i]]}; later row dropped",
            )
        )
    track, t_dms, floats, agent_types = (np.delete(a, repeat, axis=-1) for a in (track, t_dms, floats, agent_types))

    within = track[1:] == track[:-1]
    step = t_dms[1:] - t_dms[:-1]
    dt = int(step[within].min()) / 1e4 if within.any() else 0.1
    dt_dms = round(dt * 1e4)
    t = floats[0].tolist()
    for i in np.flatnonzero(within & (step > dt_dms)).tolist():
        issues.append(
            ParseIssue(
                line=None,
                scenario_id=scenario_id,
                message=f"gap in agent {names[track[i]]} track between t={t[i]} and t={t[i + 1]}",
            )
        )

    bounds = np.searchsorted(track, np.arange(len(names) + 1)).tolist()
    agents = {
        agent_id: TrackArrays.from_columns(agent_id, *floats[:, lo:hi], agent_types[lo:hi])
        for agent_id, lo, hi in zip(names, bounds, bounds[1:])
    }
    return Scenario(scenario_id=scenario_id, agents=agents, dt=dt)


def format_time(t_dms: int) -> str:
    """Render an integer decimillisecond timestamp as trimmed decimal seconds."""
    text = f"{t_dms / 1e4:.4f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _reprs(values: np.ndarray) -> Iterable[str]:
    """repr of each value; a column holding one value throughout (bit for
    bit, so -0.0 and 0.0 stay apart) is rendered once."""
    bits = values.view(np.uint64)
    if len(bits) and (bits == bits[0]).all():
        return repeat(repr(values[0].item()), len(values))
    return map(repr, values.tolist())


def serialize_canonical(scenarios: Sequence[Scenario]) -> str:
    """Render scenarios back to canonical text (stable row order; floats use
    shortest round-trip repr so parse(serialize(s)) is exact)."""
    out = [",".join(CANONICAL_COLUMNS)]
    times: dict[int, str] = {}
    for scenario in sorted(scenarios, key=lambda s: s.scenario_id):
        for agent_id in sorted(scenario.agents):
            tr = as_arrays(scenario.agents[agent_id])
            head = f"{scenario.scenario_id},{tr.agent_id},"
            stamps = [times.get(k) or times.setdefault(k, format_time(k)) for k in tr.t_dms.tolist()]
            values = (_reprs(getattr(tr, name)) for name in ("x", "y", "v", "heading", "length", "width"))
            out.extend(head + ",".join(cells) for cells in zip(tr.agent_type.tolist(), stamps, *values))
    return "\n".join(out) + "\n"


def _interp_heading(h0: float, h1: float, frac: float) -> float:
    delta = math.remainder(h1 - h0, math.tau)
    return normalize_heading(h0 + frac * delta)


def resample(scenario: Scenario, dt: float) -> Scenario:
    """Resample every track onto the common clock of multiples of dt.

    Position and speed interpolate linearly, heading along the shorter arc;
    no extrapolation beyond each agent's own span. Timestamps equal to
    existing frames pass the original state through unchanged.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    dt_dms = round(dt * 1e4)
    if dt_dms <= 0:
        raise ValueError("dt below timestamp resolution (0.1 ms)")
    agents: dict[str, list[AgentState]] = {}
    for agent_id, track in scenario.agents.items():
        track = list(track)
        if len(track) < 2:
            raise ValueError(f"agent {agent_id} has fewer than 2 frames; cannot resample")
        t_first, t_last = track[0].t_dms, track[-1].t_dms
        start = -(-t_first // dt_dms) * dt_dms  # ceil to the grid
        out: list[AgentState] = []
        knots = {s.t_dms: s for s in track}
        idx = 0
        for t in range(start, t_last + 1, dt_dms):
            exact = knots.get(t)
            if exact is not None:
                out.append(exact)
                continue
            while track[idx + 1].t_dms < t:
                idx += 1
            s0, s1 = track[idx], track[idx + 1]
            frac = (t - s0.t_dms) / (s1.t_dms - s0.t_dms)
            out.append(
                AgentState(
                    agent_id=agent_id,
                    t=t / 1e4,
                    x=s0.x + frac * (s1.x - s0.x),
                    y=s0.y + frac * (s1.y - s0.y),
                    v=s0.v + frac * (s1.v - s0.v),
                    heading=_interp_heading(s0.heading, s1.heading, frac),
                    length=s0.length,
                    width=s0.width,
                    agent_type=s0.agent_type,
                )
            )
        agents[agent_id] = out
    return Scenario(scenario_id=scenario.scenario_id, agents=agents, dt=dt_dms / 1e4)


def derive_kinematics(
    positions: Sequence[tuple[float, float, float]],
) -> list[tuple[float, float]]:
    """(speed, heading) per frame from (t, x, y) samples.

    Central differences with one-sided endpoints; near-zero-speed frames
    inherit the previous well-defined heading (0.0 before any motion).
    """
    if len(positions) < 2:
        raise ValueError("need at least 2 frames to derive kinematics")
    t, x, y = np.array(positions, dtype=np.float64).T
    return list(zip(*_central_kinematics(t, x, y)))


def _central_kinematics(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[list[float], list[float]]:
    """derive_kinematics over columns of at least 2 frames."""
    frame = np.arange(len(t))
    lo, hi = np.maximum(frame - 1, 0), np.minimum(frame + 1, len(t) - 1)
    dt = t[hi] - t[lo]
    if (dt == 0).any():
        raise ValueError("a central difference spans no time: timestamps repeat")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite position gives NaN, as in floats
        vx = ((x[hi] - x[lo]) / dt).tolist()
        vy = ((y[hi] - y[lo]) / dt).tolist()
    speed = list(map(math.hypot, vx, vy))
    heading = []
    last_heading = 0.0
    for v, dx, dy in zip(speed, vx, vy):
        if v >= NEAR_ZERO_SPEED:
            last_heading = math.atan2(dy, dx)
        heading.append(last_heading)
    return speed, heading


# ---------------------------------------------------------------------------
# Dataset adapter
# ---------------------------------------------------------------------------

DATASET_LAYOUT = "lateral_conflict_csv_v1"

_DATASET_REQUIRED = ("case_id", "track_id", "object_category", "timestep", "x", "y")

_CATEGORY_MAP = {
    "vehicle": "vehicle",
    "car": "vehicle",
    "truck": "vehicle",
    "bus": "vehicle",
    "motorcyclist": "cyclist",
    "cyclist": "cyclist",
    "bicycle": "cyclist",
    "pedestrian": "pedestrian",
    "av": "vehicle",
}

AV_TRACK_ID = "AV"


# cells a record keeps of a dataset row; an absent column reads None
_DATASET_CELLS = ("case_id", "track_id", "timestep", "x", "y", "vx", "vy", "psi_rad",
                  "object_category", "length", "width")
# a record is (line, has_vel, has_psi, *_DATASET_CELLS); positions in it
_LINE, _CASE, _TRACK, _STEP = 0, 3, 4, 5

# |timestep| must stay below this, so its time stays below MAX_T_S.
_MAX_TIMESTEP = int(MAX_T_S * 10)


def adapt_external(
    paths: Sequence[str],
    layout: str = DATASET_LAYOUT,
) -> ParseResult:
    """Map lateral-conflict dataset CSV exports onto canonical scenarios
    whose tracks are TrackArrays.

    Expected columns: case_id, track_id, object_category, timestep (frame
    index on the 10 Hz clock), x, y, then either psi_rad plus vx/vy, vx/vy
    alone (speed and heading derived), or neither (kinematics derived from
    positions by central differences). length/width are optional for
    pedestrians only. Scenarios without an 'AV' track are skipped with a
    diagnostic. See docs/dataset_format.md for the field-by-field mapping.
    """
    if layout != DATASET_LAYOUT:
        raise UnsupportedFormatError(
            f"unsupported dataset layout {layout!r}; supported: {DATASET_LAYOUT}"
        )
    issues: list[ParseIssue] = []
    # case_id -> track_id -> records
    raw: dict[str, dict[str, list[tuple]]] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            rows = _rows_from(fh)
            _, header = next(rows, (None, None))
            if header is None:
                raise SchemaError(f"{path}: empty file")
            for required in _DATASET_REQUIRED:
                if required not in header:
                    raise SchemaError(f"{path}: missing required column: {required}")
            flags = ("vx" in header and "vy" in header, "psi_rad" in header)
            width = len(header)
            colindex = {name: i for i, name in enumerate(header)}
            picked = [colindex.get(name, width) for name in _DATASET_CELLS]
            pick = itemgetter(*picked)
            absent = width in picked  # an absent column reads the None appended to each row
            for line, row in rows:
                if len(row) != width:  # a short row reads None, extra cells are ignored
                    row = (row + [None] * width)[:width]
                if absent:
                    row.append(None)
                rec = (line, *flags, *pick(row))
                if rec[_CASE] is None or rec[_TRACK] is None:
                    issues.append(ParseIssue(line=line, scenario_id=rec[_CASE],
                                             message="row too short to hold case_id and track_id; row skipped"))
                    continue
                raw.setdefault(rec[_CASE], {}).setdefault(rec[_TRACK], []).append(rec)

    scenarios: list[Scenario] = []
    for case_id in sorted(raw):
        tracks = raw[case_id]
        if AV_TRACK_ID not in tracks:
            issues.append(
                ParseIssue(line=None, scenario_id=case_id, message="scenario has no AV track; skipped")
            )
            continue
        agents: dict[str, Track] = {}
        for track_id in sorted(tracks):
            try:
                track = _adapt_track(case_id, track_id, tracks[track_id], issues)
            except (ValueError, TypeError) as exc:
                issues.append(
                    ParseIssue(
                        line=None,
                        scenario_id=case_id,
                        message=f"track {track_id}: malformed data ({exc}); track skipped",
                    )
                )
                continue
            if track is not None:
                agents[track_id] = track
        if AV_TRACK_ID not in agents:
            issues.append(
                ParseIssue(
                    line=None,
                    scenario_id=case_id,
                    message="AV track did not survive adaptation; scenario skipped",
                )
            )
            continue
        scenarios.append(Scenario(scenario_id=case_id, agents=agents, dt=0.1))
    return ParseResult(scenarios=scenarios, issues=issues)


def _adapt_track(
    case_id: str,
    track_id: str,
    recs: list[tuple],
    issues: list[ParseIssue],
) -> TrackArrays | None:
    """One track's records as a validated TrackArrays, or None when the track
    is skipped with a diagnostic. A malformed cell or an invalid frame
    raises ValueError or TypeError, the first in record order."""
    steps = [int(rec[_STEP]) for rec in recs]
    if max(map(abs, steps)) >= _MAX_TIMESTEP:
        raise ValueError(f"timestep must be below {_MAX_TIMESTEP} in magnitude")
    order = np.argsort(steps, kind="stable")
    steps = np.array(steps, dtype=np.int64)[order]
    repeat = np.flatnonzero(steps[1:] == steps[:-1]) + 1
    for i in repeat.tolist():
        rec = recs[order[i]]
        issues.append(
            ParseIssue(
                line=rec[_LINE],
                scenario_id=case_id,
                message=f"track {track_id}: duplicate timestep {rec[_STEP]}; later row dropped",
            )
        )
    recs = [recs[i] for i in np.delete(order, repeat).tolist()]
    steps = np.delete(steps, repeat)
    lines, has_vel, has_psi, _, _, _, xs, ys, vxs, vys, psis, categories, lengths, widths = zip(*recs)
    agent_type = _CATEGORY_MAP.get(categories[0].strip().lower(), "other")

    length_raw = (lengths[0] or "").strip()
    width_raw = (widths[0] or "").strip()
    if length_raw and width_raw:
        length, width = float(length_raw), float(width_raw)
    elif agent_type == "pedestrian":
        length, width = PEDESTRIAN_DEFAULT_LENGTH, PEDESTRIAN_DEFAULT_WIDTH
    else:
        issues.append(
            ParseIssue(
                line=lines[0],
                scenario_id=case_id,
                message=f"track {track_id}: missing dimensions for non-pedestrian; track skipped",
            )
        )
        return None

    n = len(recs)
    t = steps * 0.1
    xy = np.fromiter(map(float, chain.from_iterable(zip(xs, ys))), dtype=np.float64, count=2 * n)
    x, y = xy[0::2], xy[1::2]
    if has_vel[0]:
        speed, heading = [], []
        last_heading = 0.0
        flagged = False
        for vx_raw, vy_raw, psi_raw, psi_given in zip(vxs, vys, psis, has_psi):
            vx, vy = float(vx_raw), float(vy_raw)
            speed.append(math.hypot(vx, vy))
            if psi_given:
                heading.append(normalize_heading(float(psi_raw)))
            elif speed[-1] >= NEAR_ZERO_SPEED:
                last_heading = normalize_heading(math.atan2(vy, vx))
                heading.append(last_heading)
            else:
                heading.append(last_heading)
                flagged = True
        if flagged:
            issues.append(
                ParseIssue(
                    line=None,
                    scenario_id=case_id,
                    message=f"track {track_id}: near-zero-speed frames inherit the previous heading",
                )
            )
    else:
        if n < 2:
            issues.append(
                ParseIssue(
                    line=lines[0],
                    scenario_id=case_id,
                    message=f"track {track_id}: single frame and no velocity columns; track skipped",
                )
            )
            return None
        speed, heading = _central_kinematics(t, x, y)
        heading = list(map(normalize_heading, heading))

    return TrackArrays.from_columns(
        track_id,
        np.rint(t * 1e4) / 1e4,
        x,
        y,
        speed,
        heading,
        np.full(n, length),
        np.full(n, width),
        [agent_type] * n,
    ).check()
