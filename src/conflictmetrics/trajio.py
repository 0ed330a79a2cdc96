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
from typing import Iterable, Sequence, TextIO

from .metrics import (
    AGENT_TYPES,
    PEDESTRIAN_DEFAULT_LENGTH,
    PEDESTRIAN_DEFAULT_WIDTH,
    AgentState,
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
    agents: dict[str, list[AgentState]]
    dt: float = 0.1


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
    text = stream if isinstance(stream, str) else stream.read()
    for lineno, line in enumerate(io.StringIO(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, next(csv.reader([line]))


def parse_canonical(stream: str | TextIO) -> ParseResult:
    """Parse canonical trajectory text into scenarios.

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

    issues: list[ParseIssue] = []
    states: dict[str, dict[str, list[AgentState]]] = {}
    for lineno, row in rows:
        try:
            state, scenario_id = _parse_row(row, colindex)
        except (ValueError, IndexError) as exc:
            issues.append(ParseIssue(line=lineno, scenario_id=None, message=str(exc)))
            continue
        states.setdefault(scenario_id, {}).setdefault(state.agent_id, []).append(state)

    scenarios = []
    for scenario_id in sorted(states):
        scenarios.append(_build_scenario(scenario_id, states[scenario_id], issues))
    return ParseResult(scenarios=scenarios, issues=issues)


def _parse_row(row: list[str], colindex: dict[str, int]) -> tuple[AgentState, str]:
    def cell(name: str) -> str:
        return row[colindex[name]].strip()

    scenario_id = cell("scenario_id")
    agent_id = cell("agent_id")
    if not scenario_id or not agent_id:
        raise ValueError("scenario_id and agent_id must be non-empty")
    agent_type = cell("agent_type")
    if agent_type not in AGENT_TYPES:
        raise ValueError(f"unknown agent_type: {agent_type!r}")

    t = _parse_float(cell("t"), "t")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if abs(t * 1000 - round(t * 1000)) > 1e-6:
        raise ValueError(f"t has more than 3 decimal places: {t}")
    t = round(t * 1e4) / 1e4

    x = _parse_float(cell("x"), "x")
    y = _parse_float(cell("y"), "y")
    speed = _parse_float(cell("speed"), "speed")
    if speed < 0:
        raise ValueError(f"speed must be >= 0, got {speed}")
    heading = normalize_heading(_parse_float(cell("heading"), "heading"))

    length_raw, width_raw = cell("length"), cell("width")
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

    state = AgentState(
        agent_id=agent_id,
        t=t,
        x=x,
        y=y,
        v=speed,
        heading=heading,
        length=length,
        width=width,
        agent_type=agent_type,
    )
    return state, scenario_id


def _build_scenario(
    scenario_id: str,
    tracks: dict[str, list[AgentState]],
    issues: list[ParseIssue],
) -> Scenario:
    clean: dict[str, list[AgentState]] = {}
    spacings: list[int] = []
    for agent_id in sorted(tracks):
        track = sorted(tracks[agent_id], key=lambda s: s.t_dms)
        deduped: list[AgentState] = []
        for state in track:
            if deduped and state.t_dms == deduped[-1].t_dms:
                issues.append(
                    ParseIssue(
                        line=None,
                        scenario_id=scenario_id,
                        message=f"duplicate timestamp t={state.t} for agent {agent_id}; later row dropped",
                    )
                )
                continue
            deduped.append(state)
        clean[agent_id] = deduped
        spacings.extend(
            deduped[i + 1].t_dms - deduped[i].t_dms for i in range(len(deduped) - 1)
        )
    dt = min(spacings) / 1e4 if spacings else 0.1
    dt_dms = round(dt * 1e4)
    for agent_id, track in clean.items():
        for i in range(len(track) - 1):
            if track[i + 1].t_dms - track[i].t_dms > dt_dms:
                issues.append(
                    ParseIssue(
                        line=None,
                        scenario_id=scenario_id,
                        message=f"gap in agent {agent_id} track between t={track[i].t} and t={track[i + 1].t}",
                    )
                )
    return Scenario(scenario_id=scenario_id, agents=clean, dt=dt)


def format_time(t_dms: int) -> str:
    """Render an integer decimillisecond timestamp as trimmed decimal seconds."""
    text = f"{t_dms / 1e4:.4f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _format_value(value: float) -> str:
    return repr(value)


def serialize_canonical(scenarios: Sequence[Scenario]) -> str:
    """Render scenarios back to canonical text (stable row order; floats use
    shortest round-trip repr so parse(serialize(s)) is exact)."""
    out = [",".join(CANONICAL_COLUMNS)]
    for scenario in sorted(scenarios, key=lambda s: s.scenario_id):
        for agent_id in sorted(scenario.agents):
            for s in scenario.agents[agent_id]:
                out.append(
                    ",".join(
                        (
                            scenario.scenario_id,
                            s.agent_id,
                            s.agent_type,
                            format_time(s.t_dms),
                            _format_value(s.x),
                            _format_value(s.y),
                            _format_value(s.v),
                            _format_value(s.heading),
                            _format_value(s.length),
                            _format_value(s.width),
                        )
                    )
                )
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
    n = len(positions)
    if n < 2:
        raise ValueError("need at least 2 frames to derive kinematics")
    out: list[tuple[float, float]] = []
    last_heading = 0.0
    for i in range(n):
        lo = max(0, i - 1)
        hi = min(n - 1, i + 1)
        t0, x0, y0 = positions[lo]
        t1, x1, y1 = positions[hi]
        dt = t1 - t0
        vx = (x1 - x0) / dt
        vy = (y1 - y0) / dt
        speed = math.hypot(vx, vy)
        if speed >= NEAR_ZERO_SPEED:
            last_heading = math.atan2(vy, vx)
        out.append((speed, last_heading))
    return out


# ---------------------------------------------------------------------------
# Dataset adapter
# ---------------------------------------------------------------------------

DATASET_LAYOUT = "lateral_conflict_csv_v1"

_DATASET_REQUIRED = ("case_id", "track_id", "object_category", "timestep", "x", "y")
_DATASET_FRAME_DT_DMS = 1000  # 10 Hz export

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


def adapt_external(
    paths: Sequence[str],
    layout: str = DATASET_LAYOUT,
) -> ParseResult:
    """Map lateral-conflict dataset CSV exports onto canonical scenarios.

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
    raw: dict[str, dict[str, list[dict]]] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file")
            for required in _DATASET_REQUIRED:
                if required not in reader.fieldnames:
                    raise SchemaError(f"{path}: missing required column: {required}")
            has_vel = "vx" in reader.fieldnames and "vy" in reader.fieldnames
            has_psi = "psi_rad" in reader.fieldnames
            for lineno, rec in enumerate(reader, start=2):
                rec["_line"] = lineno
                rec["_has_vel"] = has_vel
                rec["_has_psi"] = has_psi
                raw.setdefault(rec["case_id"], {}).setdefault(rec["track_id"], []).append(rec)

    scenarios: list[Scenario] = []
    for case_id in sorted(raw):
        tracks = raw[case_id]
        if AV_TRACK_ID not in tracks:
            issues.append(
                ParseIssue(line=None, scenario_id=case_id, message="scenario has no AV track; skipped")
            )
            continue
        agents: dict[str, list[AgentState]] = {}
        for track_id in sorted(tracks):
            try:
                states = _adapt_track(case_id, track_id, tracks[track_id], issues)
            except (ValueError, TypeError) as exc:
                issues.append(
                    ParseIssue(
                        line=None,
                        scenario_id=case_id,
                        message=f"track {track_id}: malformed data ({exc}); track skipped",
                    )
                )
                continue
            if states:
                agents[track_id] = states
        if AV_TRACK_ID not in agents:
            issues.append(
                ParseIssue(
                    line=None,
                    scenario_id=case_id,
                    message="AV track did not survive adaptation; scenario skipped",
                )
            )
            continue
        if agents:
            scenarios.append(Scenario(scenario_id=case_id, agents=agents, dt=0.1))
    return ParseResult(scenarios=scenarios, issues=issues)


def _adapt_track(
    case_id: str,
    track_id: str,
    recs: list[dict],
    issues: list[ParseIssue],
) -> list[AgentState]:
    recs = sorted(recs, key=lambda r: int(r["timestep"]))
    deduped: list[dict] = []
    for rec in recs:
        if deduped and int(rec["timestep"]) == int(deduped[-1]["timestep"]):
            issues.append(
                ParseIssue(
                    line=rec["_line"],
                    scenario_id=case_id,
                    message=f"track {track_id}: duplicate timestep {rec['timestep']}; later row dropped",
                )
            )
            continue
        deduped.append(rec)
    recs = deduped
    category = recs[0].get("object_category", "").strip().lower()
    agent_type = _CATEGORY_MAP.get(category, "other")

    length_raw = (recs[0].get("length") or "").strip()
    width_raw = (recs[0].get("width") or "").strip()
    if length_raw and width_raw:
        length, width = float(length_raw), float(width_raw)
    elif agent_type == "pedestrian":
        length, width = PEDESTRIAN_DEFAULT_LENGTH, PEDESTRIAN_DEFAULT_WIDTH
    else:
        issues.append(
            ParseIssue(
                line=recs[0]["_line"],
                scenario_id=case_id,
                message=f"track {track_id}: missing dimensions for non-pedestrian; track skipped",
            )
        )
        return []

    positions = [(int(r["timestep"]) * 0.1, float(r["x"]), float(r["y"])) for r in recs]
    if recs[0]["_has_vel"]:
        kin = []
        last_heading = 0.0
        flagged = False
        for r in recs:
            vx, vy = float(r["vx"]), float(r["vy"])
            speed = math.hypot(vx, vy)
            if r["_has_psi"]:
                heading = normalize_heading(float(r["psi_rad"]))
            elif speed >= NEAR_ZERO_SPEED:
                heading = math.atan2(vy, vx)
                last_heading = heading
            else:
                heading = last_heading
                flagged = True
            kin.append((speed, heading))
        if flagged:
            issues.append(
                ParseIssue(
                    line=None,
                    scenario_id=case_id,
                    message=f"track {track_id}: near-zero-speed frames inherit the previous heading",
                )
            )
    else:
        if len(positions) < 2:
            issues.append(
                ParseIssue(
                    line=recs[0]["_line"],
                    scenario_id=case_id,
                    message=f"track {track_id}: single frame and no velocity columns; track skipped",
                )
            )
            return []
        kin = derive_kinematics(positions)

    states = []
    for (t, x, y), (speed, heading) in zip(positions, kin):
        states.append(
            AgentState(
                agent_id=track_id,
                t=round(t * 1e4) / 1e4,
                x=x,
                y=y,
                v=speed,
                heading=normalize_heading(heading),
                length=length,
                width=width,
                agent_type=agent_type,
            )
        )
    return states
