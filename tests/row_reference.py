"""Row-by-row readers of canonical text and dataset exports: the reference
for the columnar readers in conflictmetrics.trajio.

Every row is tokenized, converted and validated on its own, every dataset
record is a tuple of its cells, and each track is built after its records
are grouped. The columnar readers must give the same ParseResult, bit for
bit, and the same diagnostics in the same order.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import chain
from operator import itemgetter
from typing import Iterable, TextIO

import numpy as np

from conflictmetrics.metrics import (
    AGENT_TYPES,
    MAX_T_S,
    PEDESTRIAN_DEFAULT_LENGTH,
    PEDESTRIAN_DEFAULT_WIDTH,
    TrackArrays,
)
from conflictmetrics.trajio import (
    _CATEGORY_MAP,
    _DATASET_REQUIRED,
    _MAX_TIMESTEP,
    AV_TRACK_ID,
    CANONICAL_COLUMNS,
    NEAR_ZERO_SPEED,
    ParseIssue,
    ParseResult,
    Scenario,
    SchemaError,
    normalize_heading,
)


def _parse_float(raw: str, name: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name}: {raw!r}")
    return value


def rows_from(stream: str | TextIO) -> Iterable[tuple[int, list[str]]]:
    """(line number, cells) of every line that is neither blank nor a '#'
    comment, lines ending at \\n, \\r or \\r\\n; a line with a quote is read
    by the csv module, any other splits on its commas."""
    lines = io.StringIO(stream, newline=None) if isinstance(stream, str) else stream
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
    rows = rows_from(stream)
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
            parsed = parse_row(row, cols)
        except (ValueError, IndexError) as exc:
            issues.append(ParseIssue(line=lineno, scenario_id=None, message=str(exc)))
            continue
        by_scenario.setdefault(parsed[0], []).append(parsed)

    scenarios = [_build_scenario(sid, by_scenario[sid], issues) for sid in sorted(by_scenario)]
    return ParseResult(scenarios=scenarios, issues=issues)


def parse_row(row: list[str], cols: tuple[int, ...]) -> tuple:
    c_sid, c_aid, c_type, c_t, c_x, c_y, c_speed, c_heading, c_length, c_width = cols
    scenario_id = row[c_sid].strip()
    agent_id = row[c_aid].strip()
    if not scenario_id or not agent_id:
        raise ValueError("scenario_id and agent_id must be non-empty")
    agent_type = row[c_type].strip()
    if agent_type not in AGENT_TYPES:
        raise ValueError(f"unknown agent_type: {agent_type!r}")

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
    _, agent_ids, agent_types, *floats = zip(*rows)
    names = sorted(set(agent_ids))
    index = {agent_id: k for k, agent_id in enumerate(names)}
    track = np.array([index[agent_id] for agent_id in agent_ids], dtype=np.int64)
    floats = np.array(floats, dtype=np.float64)
    t_dms = np.rint(floats[0] * 1e4).astype(np.int64)
    order = np.lexsort((t_dms, track))
    track, t_dms, floats = track[order], t_dms[order], floats[:, order]
    agent_types = np.array(agent_types, dtype=object)[order]

    repeat = np.flatnonzero((track[1:] == track[:-1]) & (t_dms[1:] == t_dms[:-1])) + 1
    t = floats[0].tolist()
    for i in repeat.tolist():
        issues.append(ParseIssue(None, scenario_id, f"duplicate timestamp t={t[i]} for agent {names[track[i]]}; later row dropped"))
    track, t_dms, floats, agent_types = (np.delete(a, repeat, axis=-1) for a in (track, t_dms, floats, agent_types))

    within = track[1:] == track[:-1]
    step = t_dms[1:] - t_dms[:-1]
    dt = int(step[within].min()) / 1e4 if within.any() else 0.1
    dt_dms = round(dt * 1e4)
    t = floats[0].tolist()
    for i in np.flatnonzero(within & (step > dt_dms)).tolist():
        issues.append(ParseIssue(None, scenario_id, f"gap in agent {names[track[i]]} track between t={t[i]} and t={t[i + 1]}"))

    bounds = np.searchsorted(track, np.arange(len(names) + 1)).tolist()
    agents = {
        agent_id: TrackArrays.from_columns(agent_id, *floats[:, lo:hi], agent_types[lo:hi])
        for agent_id, lo, hi in zip(names, bounds, bounds[1:])
    }
    return Scenario(scenario_id=scenario_id, agents=agents, dt=dt)


def central_kinematics(t, x, y) -> tuple[list[float], list[float]]:
    frame = np.arange(len(t))
    lo, hi = np.maximum(frame - 1, 0), np.minimum(frame + 1, len(t) - 1)
    dt = t[hi] - t[lo]
    if (dt == 0).any():
        raise ValueError("a central difference spans no time: timestamps repeat")
    with np.errstate(invalid="ignore", over="ignore"):
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


_DATASET_CELLS = ("case_id", "track_id", "timestep", "x", "y", "vx", "vy", "psi_rad",
                  "object_category", "length", "width")
_LINE, _CASE, _TRACK, _STEP = 0, 3, 4, 5


def adapt_external(paths) -> ParseResult:
    issues: list[ParseIssue] = []
    raw: dict[str, dict[str, list[tuple]]] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            rows = rows_from(fh)
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
            absent = width in picked
            for line, row in rows:
                if len(row) != width:
                    row = (row + [None] * width)[:width]
                if absent:
                    row.append(None)
                rec = (line, *flags, *pick(row))
                if rec[_CASE] is None or rec[_TRACK] is None:
                    issues.append(ParseIssue(line, rec[_CASE], "row too short to hold case_id and track_id; row skipped"))
                    continue
                raw.setdefault(rec[_CASE], {}).setdefault(rec[_TRACK], []).append(rec)

    scenarios: list[Scenario] = []
    for case_id in sorted(raw):
        tracks = raw[case_id]
        if AV_TRACK_ID not in tracks:
            issues.append(ParseIssue(None, case_id, "scenario has no AV track; skipped"))
            continue
        agents = {}
        for track_id in sorted(tracks):
            try:
                track = adapt_track(case_id, track_id, tracks[track_id], issues)
            except (ValueError, TypeError) as exc:
                issues.append(ParseIssue(None, case_id, f"track {track_id}: malformed data ({exc}); track skipped"))
                continue
            if track is not None:
                agents[track_id] = track
        if AV_TRACK_ID not in agents:
            issues.append(ParseIssue(None, case_id, "AV track did not survive adaptation; scenario skipped"))
            continue
        scenarios.append(Scenario(scenario_id=case_id, agents=agents, dt=0.1))
    return ParseResult(scenarios=scenarios, issues=issues)


def adapt_track(case_id, track_id, recs, issues):
    steps = [int(rec[_STEP]) for rec in recs]
    if max(map(abs, steps)) >= _MAX_TIMESTEP:
        raise ValueError(f"timestep must be below {_MAX_TIMESTEP} in magnitude")
    if min(steps) < 0:
        raise ValueError(f"timestep must be >= 0, got {next(step for step in steps if step < 0)}")
    order = np.argsort(steps, kind="stable")
    steps = np.array(steps, dtype=np.int64)[order]
    repeat = np.flatnonzero(steps[1:] == steps[:-1]) + 1
    for i in repeat.tolist():
        rec = recs[order[i]]
        issues.append(ParseIssue(rec[_LINE], case_id, f"track {track_id}: duplicate timestep {rec[_STEP]}; later row dropped"))
    recs = [recs[i] for i in np.delete(order, repeat).tolist()]
    steps = np.delete(steps, repeat)
    lines, has_vel, has_psi, _, _, _, xs, ys, vxs, vys, psis, categories, lengths, widths = zip(*recs)
    agent_type = _CATEGORY_MAP.get((categories[0] or "").strip().lower(), "other")

    length_raw = (lengths[0] or "").strip()
    width_raw = (widths[0] or "").strip()
    if length_raw and width_raw:
        length, width = float(length_raw), float(width_raw)
    elif agent_type == "pedestrian":
        length, width = PEDESTRIAN_DEFAULT_LENGTH, PEDESTRIAN_DEFAULT_WIDTH
    else:
        issues.append(ParseIssue(lines[0], case_id, f"track {track_id}: missing dimensions for non-pedestrian; track skipped"))
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
            issues.append(ParseIssue(None, case_id, f"track {track_id}: near-zero-speed frames inherit the previous heading"))
    else:
        if n < 2:
            issues.append(ParseIssue(lines[0], case_id, f"track {track_id}: single frame and no velocity columns; track skipped"))
            return None
        speed, heading = central_kinematics(t, x, y)
        heading = list(map(normalize_heading, heading))

    return TrackArrays.from_columns(
        track_id, np.rint(t * 1e4) / 1e4, x, y, speed, heading,
        np.full(n, length), np.full(n, width), [agent_type] * n,
    ).check()
