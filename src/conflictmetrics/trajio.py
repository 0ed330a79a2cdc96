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
import math
from dataclasses import dataclass, field
from itertools import chain, compress, groupby, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

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

# Speeds below this make a velocity-derived heading meaningless; such frames
# inherit the last well-defined heading and are flagged in diagnostics.
NEAR_ZERO_SPEED = 1e-3


class SchemaError(ValueError):
    """Input file violates the canonical schema (e.g. a missing column)."""


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


# ---------------------------------------------------------------------------
# Columnar CSV reader
# ---------------------------------------------------------------------------

# Characters of text split into cells at a time. This keeps a block's bytes
# and each mask over them at 64 kB, as PET_BATCH_CELLS keeps a PET batch's
# temporaries, and its split cells (some 60 bytes a cell of 15 characters)
# at about 256 kB. The cells do not outlive the block; the 8-byte numbers
# they become do. adapt_external also keeps each block's text until it knows
# which tracks the row path rebuilds, and from then on only the text of the
# blocks that hold their rows.
_BLOCK_CHARS = 1 << 16


def _cells(line: str) -> list[str] | None:
    """The cells of one line (with or without its \\n), or None for a blank
    line or a '#' comment. A line with a quote is read by the csv module, so
    a quoted field left open ends with its line; any other line splits on
    its commas, which is what the csv module gives for it."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if '"' in line:
        return next(csv.reader([line]))
    return line.rstrip("\n").split(",")


def _text_blocks(stream: str | TextIO) -> Iterator[str]:
    """The text of stream in blocks of whole lines of about _BLOCK_CHARS
    characters, with every line end made \\n. Lines end at \\n, \\r or \\r\\n,
    whatever newline mode a stream was opened in (universal newlines, as
    open() reads by default)."""
    if isinstance(stream, str):
        chunks = (stream[i:i + _BLOCK_CHARS] for i in range(0, len(stream), _BLOCK_CHARS))
    else:
        chunks = iter(lambda: stream.read(_BLOCK_CHARS), "")
    pending: list[str] = []
    for chunk in chunks:
        # a \r that ends the chunk may be the first half of a \r\n
        cut = max(chunk.rfind("\n"), chunk.rfind("\r", 0, -1)) + 1
        if cut:
            pending.append(chunk[:cut])
            yield _newlines("".join(pending))
            pending = []
        pending.append(chunk[cut:])
    if any(pending):
        yield _newlines("".join(pending))


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


class _Block(NamedTuple):
    """Consecutive lines of CSV text after its header. A plain row is a line
    with as many cells as the header and no quote or '#'; the other lines
    that are neither blank nor comments are tokenized one by one."""

    first: int  # line number of the first line
    stop: int  # line number after the last line
    text: str  # the lines, each ending in \n unless it ends the input
    lines: np.ndarray  # line numbers of the plain rows
    cells: list[str]  # cells of the plain rows, row after row
    others: list[tuple[int, list[str]]]  # (line number, cells) of the other rows

    def laid_out(self, width: int, others: list[tuple[int, list[str]]]) -> tuple[list[str], np.ndarray]:
        """The cells and line numbers of the plain rows, then of the rows of
        others laid out as plain rows of width cells: extra cells are cut,
        and missing ones read ""."""
        if not others:
            return self.cells, self.lines
        lines, rows = zip(*others)
        return self.cells + [cell for row in rows for cell in (row + [""] * width)[:width]], np.r_[self.lines, lines]


def _read_csv(stream: str | TextIO) -> tuple[list[str] | None, Iterator[_Block]]:
    """The header of CSV text, its first line that is neither blank nor a '#'
    comment (None when there is none), and the blocks of the lines after it.
    Line numbers count every line, the header being line 1 unless blank or
    comment lines precede it."""
    texts = _text_blocks(stream)
    lineno = 0
    for text in texts:
        start = 0
        while start < len(text):
            end = text.find("\n", start) + 1 or len(text)
            lineno += 1
            header = _cells(text[start:end])
            start = end
            if header is not None:
                return header, _blocks(chain([text[start:]], texts), lineno + 1, len(header))
    return None, iter(())


def _blocks(texts: Iterable[str], first: int, width: int) -> Iterator[_Block]:
    for text in texts:
        if text:
            block = _split_block(text, first, width)
            first = block.stop
            yield block


def _split_block(text: str, first: int, width: int) -> _Block:
    """Split a block's plain rows into cells with one str.split, after
    counting each line's commas, quotes and '#'s on the block's bytes (UTF-8
    encodes none of them inside another character)."""
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    terminated = text.endswith("\n")
    if not terminated:
        ends = np.append(ends, len(data))
    commas = np.diff(np.searchsorted(np.flatnonzero(data == ord(",")), ends), prepend=0)
    plain = commas == width - 1
    stop = first + len(plain)
    plain[np.searchsorted(ends, np.flatnonzero((data == ord('"')) | (data == ord("#"))))] = False
    body = text[:-1] if terminated else text
    if plain.all():
        return _Block(first, stop, text, np.arange(first, stop), body.replace("\n", ",").split(","), [])
    lines = body.split("\n")
    cells = ",".join(compress(lines, plain)).split(",") if plain.any() else []
    others = []
    for i in np.flatnonzero(~plain).tolist():
        row = _cells(lines[i] + "\n" if terminated or i < len(lines) - 1 else lines[i])
        if row is not None:
            others.append((first + i, row))
    return _Block(first, stop, text, first + np.flatnonzero(plain), cells, others)


def _floats(cells: Sequence) -> np.ndarray:
    """float() of each cell, NaN where float() raises."""
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except (TypeError, ValueError):
        return np.fromiter(map(_float_or_nan, cells), dtype=np.float64, count=len(cells))


def _float_or_nan(cell) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return math.nan


def _dimensions(cells: list[str], known: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """float() of each cell (NaN where it raises) and whether the cell is
    empty once stripped. A track repeats its footprint on every row, so each
    distinct cell is converted once, into known."""
    for cell in dict.fromkeys(cells):
        if cell not in known:
            known[cell] = _float_or_nan(cell)
    values = np.fromiter(map(known.__getitem__, cells), dtype=np.float64, count=len(cells))
    empty = np.isnan(values)  # float() raises for every empty cell
    empty[empty] = [not cells[i].strip() for i in np.flatnonzero(empty).tolist()]
    return values, empty


def _codes(cells: list[str], index: dict[str, int]) -> np.ndarray:
    """The code of each cell in index, a new value taking the next free code."""
    for value in dict.fromkeys(cells):
        index.setdefault(value, len(index))
    return np.fromiter(map(index.__getitem__, cells), dtype=np.int64, count=len(cells))


def _ranked(index: dict[str, int], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The values of index in sorted order, and codes as positions in it."""
    names = sorted(index)
    rank = np.empty(len(names), dtype=np.int64)
    rank[list(map(index.__getitem__, names))] = np.arange(len(names))
    return names, rank[codes]


def _wrapped(heading: np.ndarray) -> np.ndarray:
    """normalize_heading of each finite value. A value inside (-pi, pi) is
    its own remainder, so only the others are wrapped one by one."""
    wrap = np.flatnonzero((np.abs(heading) >= math.pi) & np.isfinite(heading))
    if wrap.size:
        heading = heading.copy()
        heading[wrap] = list(map(normalize_heading, heading[wrap].tolist()))
    return heading


# ---------------------------------------------------------------------------
# Canonical text
# ---------------------------------------------------------------------------

_TYPE_CODE = {name: k for k, name in enumerate(AGENT_TYPES)}


def parse_canonical(stream: str | TextIO) -> ParseResult:
    """Parse canonical trajectory text into scenarios whose tracks are
    TrackArrays.

    Invalid rows are collected as diagnostics and excluded, never silently
    dropped; a malformed header raises SchemaError naming the column.

    Columns are converted a block at a time and checked against one list of
    row rules, in the order a row's cells are read (_canonical_columns). A
    row that fails any rule is reported with the message of the first one.
    """
    header, blocks = _read_csv(stream)
    if header is None:
        raise SchemaError("empty input: header row required")
    colindex = {name.strip(): i for i, name in enumerate(header)}
    for required in CANONICAL_COLUMNS:
        if required not in colindex:
            raise SchemaError(f"missing required column: {required}")
    cols = tuple(colindex[name] for name in CANONICAL_COLUMNS)

    issues: list[ParseIssue] = []
    scenario_ids: dict[str, int] = {}
    agent_ids: dict[str, int] = {}
    dimensions: dict[str, float] = {}
    parts = [_canonical_columns(block, len(header), cols, scenario_ids, agent_ids, dimensions, issues)
             for block in blocks]
    if not any(len(part[0]) for part in parts):
        return ParseResult(scenarios=[], issues=issues)
    columns = [np.concatenate(column) for column in zip(*parts)]
    return ParseResult(scenarios=_canonical_scenarios(columns, scenario_ids, agent_ids, issues), issues=issues)


def _canonical_columns(
    block: _Block,
    ncells: int,
    cols: tuple[int, ...],
    scenario_ids: dict[str, int],
    agent_ids: dict[str, int],
    dimensions: dict[str, float],
    issues: list[ParseIssue],
) -> tuple[np.ndarray, ...]:
    """The columns (line, scenario code, agent code, agent type code, t, x,
    y, speed, heading, length, width) of a block's rows that pass every row
    rule; each other row goes to issues, in line order, with the message of
    the first rule it fails. cols are the row positions of
    CANONICAL_COLUMNS."""
    cells, lines = block.laid_out(ncells, block.others)
    sizes = np.full(len(lines), ncells)
    sizes[len(block.lines):] = [len(row) for _, row in block.others]
    c_sid, c_aid, c_type, c_t, c_x, c_y, c_speed, c_heading, c_length, c_width = cols
    s_sid, s_aid, s_type, s_t, s_x, s_y, s_speed, s_heading, s_length, s_width = (cells[c::ncells] for c in cols)
    n = len(s_t)
    sid, aid = list(map(str.strip, s_sid)), list(map(str.strip, s_aid))
    kind = np.fromiter(map(_TYPE_CODE.get, map(str.strip, s_type), repeat(-1)), dtype=np.int64, count=n)
    t, x, y, speed, heading = map(_floats, (s_t, s_x, s_y, s_speed, s_heading))
    pedestrian = kind == _TYPE_CODE["pedestrian"]
    (length, no_length), (width, no_width) = _dimensions(s_length, dimensions), _dimensions(s_width, dimensions)
    length = np.where(no_length & pedestrian, PEDESTRIAN_DEFAULT_LENGTH, length)
    width = np.where(no_width & pedestrian, PEDESTRIAN_DEFAULT_WIDTH, width)

    def number(name: str, column: list[str], values: np.ndarray) -> tuple:
        def message(i: int) -> str:  # float()'s own message on the stripped cell, or its value
            try:
                float(column[i].strip())
            except ValueError as exc:
                return str(exc)
            return f"non-finite {name}: {column[i].strip()!r}"
        return ~np.isfinite(values), message

    with np.errstate(invalid="ignore", over="ignore"):
        # A row's rules in the order its cells are read: the cells a rule
        # reads first (a row short of one fails there, as indexing it does),
        # the rows that fail it given they pass those before, and its message.
        rules = [
            ((c_sid, c_aid), ~np.fromiter(map(bool, sid), dtype=bool, count=n)
             | ~np.fromiter(map(bool, aid), dtype=bool, count=n),
             lambda i: "scenario_id and agent_id must be non-empty"),
            ((c_type,), kind < 0, lambda i: f"unknown agent_type: {s_type[i].strip()!r}"),
            ((c_t,), *number("t", s_t, t)),
            ((), t < 0, lambda i: f"t must be >= 0, got {t.item(i)}"),
            ((), t >= MAX_T_S, lambda i: f"t must be < {MAX_T_S:g}, got {t.item(i)}"),
            ((), np.abs(t * 1000 - np.rint(t * 1000)) > 1e-6,
             lambda i: f"t has more than 3 decimal places: {t.item(i)}"),
            ((c_x,), *number("x", s_x, x)),
            ((c_y,), *number("y", s_y, y)),
            ((c_speed,), *number("speed", s_speed, speed)),
            ((), speed < 0, lambda i: f"speed must be >= 0, got {speed.item(i)}"),
            ((c_heading,), *number("heading", s_heading, heading)),
            ((c_length, c_width), (no_length | no_width) & ~pedestrian,
             lambda i: "length/width may be empty only for pedestrians"),
            ((), *number("length", s_length, length)),
            ((), *number("width", s_width, width)),
            ((), (length <= 0) | (width <= 0), lambda i: "length and width must be > 0"),
        ]
        # round(t * 1e4) / 1e4, the time a row keeps; round() gives +0.0 for -0.0
        t_rounded = np.rint(t * 1e4) / 1e4 + 0.0
    bad = np.logical_or.reduce([mask for _, mask, _ in rules]) | (sizes <= max(cols))
    flagged = np.flatnonzero(bad).tolist()
    for i in sorted(flagged, key=lines.__getitem__):
        issues.append(ParseIssue(line=lines.item(i), scenario_id=None, message=_first_fault(rules, i, sizes[i])))
    if flagged:
        keep = ~bad
        sid, aid = list(compress(sid, keep)), list(compress(aid, keep))
        lines, kind, t_rounded, x, y, speed, heading, length, width = (
            a[keep] for a in (lines, kind, t_rounded, x, y, speed, heading, length, width)
        )
    return (lines, _codes(sid, scenario_ids), _codes(aid, agent_ids), kind,
            t_rounded, x, y, speed, _wrapped(heading), length, width)


def _first_fault(rules: list[tuple], i: int, size: int) -> str:
    """The message of the first rule that row i, of size cells, fails."""
    for reads, mask, message in rules:
        if any(c >= size for c in reads):
            return "list index out of range"
        if mask[i]:
            return message(i)


def _canonical_scenarios(
    columns: list[np.ndarray], scenario_ids: dict[str, int], agent_ids: dict[str, int], issues: list[ParseIssue]
) -> list[Scenario]:
    """The scenarios of the valid rows' columns, in scenario_id order. Each
    agent's frames are sorted by time (rows with one timestamp keep the
    file's order), and a repeated timestamp keeps its first row. A
    scenario's clock step dt is the smallest spacing of any of its tracks; a
    longer spacing is reported as a gap."""
    line, sid, aid, kind, t, *floats = columns
    scenario_names, sid = _ranked(scenario_ids, sid)
    agent_names, aid = _ranked(agent_ids, aid)
    t_dms = np.rint(t * 1e4).astype(np.int64)
    order = np.lexsort((line, t_dms, aid, sid))
    sid, aid, t_dms, kind, t, *floats = (a[order] for a in (sid, aid, t_dms, kind, t, *floats))

    repeats = np.flatnonzero((sid[1:] == sid[:-1]) & (aid[1:] == aid[:-1]) & (t_dms[1:] == t_dms[:-1])) + 1
    times, sids, aids = t.tolist(), sid.tolist(), aid.tolist()
    pending = [(sids[i], f"duplicate timestamp t={times[i]} for agent {agent_names[aids[i]]}; later row dropped")
               for i in repeats.tolist()]
    if repeats.size:
        sid, aid, t_dms, kind, t, *floats = (np.delete(a, repeats) for a in (sid, aid, t_dms, kind, t, *floats))
        times, sids, aids = t.tolist(), sid.tolist(), aid.tolist()

    within = (sid[1:] == sid[:-1]) & (aid[1:] == aid[:-1])
    step = t_dms[1:] - t_dms[:-1]
    new_scenario = np.r_[True, sid[1:] != sid[:-1]]
    never = np.iinfo(np.int64).max
    spacing = np.minimum.reduceat(np.append(np.where(within, step, never), never), np.flatnonzero(new_scenario))
    dts = [int(s) / 1e4 if s != never else 0.1 for s in spacing.tolist()]
    dt_dms = np.array([round(dt * 1e4) for dt in dts], dtype=np.int64)
    scenario = np.cumsum(new_scenario) - 1
    for i in np.flatnonzero(within & (step > dt_dms[scenario[1:]])).tolist():
        pending.append(
            (sids[i], f"gap in agent {agent_names[aids[i]]} track between t={times[i]} and t={times[i + 1]}")
        )
    pending.sort(key=itemgetter(0))  # stable: a scenario's repeats, then its gaps
    issues.extend(ParseIssue(line=None, scenario_id=scenario_names[s], message=m) for s, m in pending)

    starts = np.flatnonzero(np.r_[True, ~within]).tolist()
    whole = TrackArrays.from_columns("", t, *floats, np.array(AGENT_TYPES, dtype=object)[kind])
    tracks = iter(whole.split([agent_names[aids[lo]] for lo in starts], starts + [len(t)]))
    scenarios = []
    for dt, (s, group) in zip(dts, groupby(starts, key=sids.__getitem__)):
        agents = {track.agent_id: track for _, track in zip(group, tracks)}
        scenarios.append(Scenario(scenario_id=scenario_names[s], agents=agents, dt=dt))
    return scenarios


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


def _id_cell(value: str, leading_hash: bool = False) -> str:
    """An id as a CSV cell: quoted, with its quotes doubled, when it holds a
    comma or a quote, or when leading_hash and it would start a '#' comment
    line; as it is otherwise."""
    if "," in value or '"' in value or (leading_hash and value.lstrip().startswith("#")):
        return '"' + value.replace('"', '""') + '"'
    return value


def _canonical_chunks(scenarios: Sequence[Scenario]) -> Iterator[str]:
    """Canonical text of scenarios: the header line, then the lines of one
    track at a time."""
    yield ",".join(CANONICAL_COLUMNS) + "\n"
    times: dict[int, str] = {}
    for scenario in sorted(scenarios, key=lambda s: s.scenario_id):
        scenario_cell = _id_cell(scenario.scenario_id, leading_hash=True)
        for agent_id in sorted(scenario.agents):
            tr = as_arrays(scenario.agents[agent_id])
            head = f"{scenario_cell},{_id_cell(tr.agent_id)},"
            stamps = [times.get(k) or times.setdefault(k, format_time(k)) for k in tr.t_dms.tolist()]
            values = (_reprs(getattr(tr, name)) for name in ("x", "y", "v", "heading", "length", "width"))
            yield "".join(f"{head}{','.join(cells)}\n" for cells in zip(tr.agent_type.tolist(), stamps, *values))


def serialize_canonical(scenarios: Sequence[Scenario]) -> str:
    """Render scenarios back to canonical text (stable row order; floats use
    shortest round-trip repr so parse(serialize(s)) is exact)."""
    return "".join(_canonical_chunks(scenarios))


def write_canonical(scenarios: Sequence[Scenario], stream: TextIO) -> None:
    """Write serialize_canonical(scenarios) to stream a track at a time, so
    the text of no more than one track is held."""
    stream.writelines(_canonical_chunks(scenarios))


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
    speed, heading = _central_kinematics(t, x, y, 0, len(t) - 1)
    return list(zip(speed.tolist(), heading.tolist()))


def _central_kinematics(t: np.ndarray, x: np.ndarray, y: np.ndarray, first, last) -> tuple[np.ndarray, np.ndarray]:
    """derive_kinematics over the frames of tracks laid end to end: frame i's
    track runs from frame first[i] to frame last[i] (scalars for one track)
    and has at least 2 frames."""
    frame = np.arange(len(t))
    lo, hi = np.maximum(frame - 1, first), np.minimum(frame + 1, last)
    dt = t[hi] - t[lo]
    if (dt == 0).any():
        raise ValueError("a central difference spans no time: timestamps repeat")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite position gives NaN, as in floats
        vx = ((x[hi] - x[lo]) / dt).tolist()
        vy = ((y[hi] - y[lo]) / dt).tolist()
    speed = np.fromiter(map(math.hypot, vx, vy), dtype=np.float64, count=len(t))
    heading = np.fromiter(map(math.atan2, vy, vx), dtype=np.float64, count=len(t))
    return speed, _held_heading(heading, speed >= NEAR_ZERO_SPEED, first)


def _held_heading(heading: np.ndarray, moving: np.ndarray, first) -> np.ndarray:
    """heading where moving; elsewhere the heading of the last moving frame
    of the same track, or 0.0 before any. Frame i's track starts at frame
    first[i]."""
    frame = np.arange(len(heading))
    held = np.maximum.accumulate(np.where(moving, frame, -1))
    return np.where(held >= first, heading[held], 0.0)


# ---------------------------------------------------------------------------
# Dataset adapter
# ---------------------------------------------------------------------------

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

# A timestep lies in [0, _MAX_TIMESTEP), so its time is a canonical t: at
# least 0 and below MAX_T_S.
_MAX_TIMESTEP = int(MAX_T_S * 10)


def _bad_timesteps(step):
    """Whether a timestep, or each of an array of them, is out of range."""
    return (step < 0) | (step >= _MAX_TIMESTEP)


class _Layout:
    """The columns of one dataset file, from its header."""

    def __init__(self, header: list[str]):
        self.has_vel, self.has_psi = "vx" in header and "vy" in header, "psi_rad" in header
        self.width = len(header)
        self.colindex = {name: i for i, name in enumerate(header)}

    def record(self, line: int, row: list[str]) -> tuple:
        """The record of a row; a short row reads None, extra cells are ignored."""
        row = (row + [None] * self.width)[:self.width] + [None]  # an absent column reads the last None
        cells = (row[self.colindex.get(name, self.width)] for name in _DATASET_CELLS)
        return (line, self.has_vel, self.has_psi, *cells)

    def column(self, cells: list[str], name: str) -> list[str] | None:
        i = self.colindex.get(name)
        return None if i is None else cells[i::self.width]


def adapt_external(paths: Sequence[str]) -> ParseResult:
    """Map lateral-conflict dataset CSV exports onto canonical scenarios
    whose tracks are TrackArrays.

    Expected columns: case_id, track_id, object_category, timestep (frame
    index on the 10 Hz clock), x, y, then either psi_rad plus vx/vy, vx/vy
    alone (speed and heading derived), or neither (kinematics derived from
    positions by central differences). length/width are optional for
    pedestrians only. Scenarios without an 'AV' track are skipped with a
    diagnostic. See docs/dataset_format.md for the field-by-field mapping.

    Columns are converted a block at a time and every track is built from
    them. A track that any check flags (an invalid cell, a repeated or
    out-of-range timestep, files of different layouts, dimensions it cannot
    take) is read again by _adapt_track, which applies the same rules record
    by record to report the first fault in record order.
    """
    issues: list[ParseIssue] = []
    case_ids: dict[str, int] = {}
    track_ids: dict[str, int] = {}
    categories: dict[str, int] = {}
    dimensions: dict[str, float] = {}
    blocks: list[tuple[_Layout, int, str | None]] = []  # the layout, first line and text of each
    parts = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            header, file_blocks = _read_csv(fh)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            for required in _DATASET_REQUIRED:
                if required not in header:
                    raise SchemaError(f"{path}: missing required column: {required}")
            file_layout = _Layout(header)
            for block in file_blocks:
                parts.append(_dataset_columns(len(blocks), file_layout, block, case_ids, track_ids, categories,
                                              dimensions, issues))
                blocks.append((file_layout, block.first, block.text))  # the cells go
    if not any(len(part[0]) for part in parts):
        return ParseResult(scenarios=[], issues=issues)
    scenarios = _dataset_scenarios(_concatenated(parts), blocks, case_ids, track_ids, categories, issues)
    return ParseResult(scenarios=scenarios, issues=issues)


def _concatenated(parts: list[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """The columns of parts laid end to end, emptying parts. Each column's
    pieces are dropped once it is built, so one copy of the data is held
    at a time, plus one column."""
    columns = [list(pieces) for pieces in zip(*parts)]
    parts.clear()
    for k, pieces in enumerate(columns):
        columns[k] = np.concatenate(pieces)
        pieces.clear()
    return columns


def _dataset_columns(
    b: int,
    layout: _Layout,
    block: _Block,
    case_ids: dict[str, int],
    track_ids: dict[str, int],
    categories: dict[str, int],
    dimensions: dict[str, float],
    issues: list[ParseIssue],
) -> tuple[np.ndarray, ...]:
    """The columns (block b, line, case code, track code, category code,
    timestep, x, y, vx, vy, psi, length, width, no dimensions) of the
    records of a block, the rows that are not plain rows laid out as plain
    ones. A cell that does not convert reads NaN, a timestep _MAX_TIMESTEP."""
    others = []
    for line, row in block.others:
        rec = layout.record(line, row)
        if rec[_CASE] is None or rec[_TRACK] is None:
            issues.append(ParseIssue(line=line, scenario_id=rec[_CASE],
                                     message="row too short to hold case_id and track_id; row skipped"))
        else:
            others.append((line, row))
    cells, lines = block.laid_out(layout.width, others)
    n = len(lines)
    nan = np.full(n, math.nan)
    vx, vy = (_floats(layout.column(cells, name)) if layout.has_vel else nan for name in ("vx", "vy"))
    psi = _floats(layout.column(cells, "psi_rad")) if layout.has_vel and layout.has_psi else nan
    no_dims = np.zeros(n, dtype=bool)
    dims = []
    for name in ("length", "width"):
        column = layout.column(cells, name)
        value, empty = (nan, ~no_dims) if column is None else _dimensions(column, dimensions)
        dims.append(value)
        no_dims = no_dims | empty
    return (
        np.full(n, b),
        lines,
        _codes(layout.column(cells, "case_id"), case_ids),
        _codes(layout.column(cells, "track_id"), track_ids),
        _codes(layout.column(cells, "object_category"), categories),
        _ints(layout.column(cells, "timestep")),
        *(_floats(layout.column(cells, name)) for name in ("x", "y")),
        vx, vy, psi, *dims, no_dims,
    )


def _ints(cells: list[str]) -> np.ndarray:
    """int() of each cell; _MAX_TIMESTEP where int() raises or, when a value
    does not fit in int64, where the value is out of range."""
    try:
        return np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))
    except (TypeError, ValueError, OverflowError):
        return np.fromiter(map(_timestep_or_bound, cells), dtype=np.int64, count=len(cells))


def _timestep_or_bound(cell: str) -> int:
    try:
        step = int(cell)
    except (TypeError, ValueError):
        return _MAX_TIMESTEP
    return _MAX_TIMESTEP if _bad_timesteps(step) else step


def _dataset_scenarios(
    columns: list[np.ndarray],
    blocks: list[tuple[_Layout, int, str | None]],
    case_ids: dict[str, int],
    track_ids: dict[str, int],
    categories: dict[str, int],
    issues: list[ParseIssue],
) -> list[Scenario]:
    """The scenarios of the records' columns, in case_id order, each with its
    tracks in track_id order. A track's records are sorted by timestep
    (stably, so files and lines keep their order). Empties columns, and
    drops the text of each block that holds no row of a track the row path
    rebuilds."""
    case_names, columns[2] = _ranked(case_ids, columns[2])
    track_names, columns[3] = _ranked(track_ids, columns[3])
    order = np.lexsort((columns[5], columns[3], columns[2]))
    for k, column in enumerate(columns):  # in place, so each unsorted column goes as its sorted one comes
        columns[k] = column[order]
    del column, order
    block, line, case, track, category, step, x, y, vx, vy, psi, length, width, no_dims = columns
    columns.clear()
    n = len(step)
    # 2 * has_vel + has_psi of each row's file: 3 psi_rad given, 2 heading
    # from vx/vy, 0 or 1 kinematics from positions
    layout = np.array([2 * lay.has_vel + lay.has_psi for lay, _, _ in blocks], dtype=np.int8)[block]
    new = np.r_[True, (case[1:] != case[:-1]) | (track[1:] != track[:-1])]
    starts = np.flatnonzero(new)
    bounds = np.append(starts, n)

    # tracks for the row path: a malformed or out-of-range timestep, a
    # repeated one, files of different layouts, a single frame with no
    # velocity columns, then a value that is not finite and dimensions
    # that are neither missing nor finite and positive
    flag = _bad_timesteps(step)
    flag[1:] |= ~new[1:] & ((step[1:] == step[:-1]) | (layout[1:] != layout[:-1]))
    flagged = np.logical_or.reduceat(flag, starts) | ((layout[starts] < 2) & (np.diff(bounds) < 2))

    t = step * 0.1
    speed, heading, held = _dataset_kinematics(layout, ~flagged, bounds, t, x, y, vx, vy, psi)
    del vx, vy, psi
    with np.errstate(invalid="ignore", over="ignore"):
        flagged |= np.logical_or.reduceat(~np.isfinite(x + y + speed + heading), starts)
        dims = ((length > 0) & (width > 0) & np.isfinite(length + width))[starts]
    flagged |= ~(no_dims[starts] | dims)

    agent_types = [_CATEGORY_MAP.get(name.strip().lower(), "other") for name in categories]
    shapes = [
        None if skip else _shape(agent_types[category_k], no_dims_k, length_k, width_k)
        for skip, category_k, no_dims_k, length_k, width_k in zip(
            flagged.tolist(), *(column[starts].tolist() for column in (category, no_dims, length, width))
        )
    ]
    rows = np.repeat([shape is not None for shape in shapes], np.diff(bounds))
    # the row path reads its tracks' lines from the text of their blocks;
    # every other block's text goes
    read = set(block[~rows].tolist())
    for b, (block_layout, block_first, _) in enumerate(blocks):
        if b not in read:
            blocks[b] = (block_layout, block_first, None)
    track_of = track[starts].tolist()
    built = [k for k, shape in enumerate(shapes) if shape]
    tracks: dict[int, TrackArrays] = {}
    if built:
        sizes = np.diff(bounds)[built]
        agent_type, length, width = zip(*(shapes[k] for k in built))
        rows = slice(None) if len(built) == len(shapes) else rows  # then the tracks are views of the columns
        whole = TrackArrays.from_columns(
            "", np.rint(t[rows] * 1e4) / 1e4, x[rows], y[rows], speed[rows], heading[rows],
            np.repeat(length, sizes), np.repeat(width, sizes), np.repeat(np.array(agent_type, dtype=object), sizes),
        )
        tracks = dict(zip(built, whole.split([track_names[track_of[k]] for k in built],
                                             np.r_[0, np.cumsum(sizes)].tolist())))

    bounds = bounds.tolist()
    near_zero = np.logical_or.reduceat(held, starts).tolist()
    lines_of: dict[int, list[str]] = {}
    scenarios: list[Scenario] = []
    for case_code, group in groupby(range(len(starts)), key=case[starts].tolist().__getitem__):
        case_id = case_names[case_code]
        group = list(group)
        if AV_TRACK_ID not in (track_names[track_of[k]] for k in group):
            issues.append(
                ParseIssue(line=None, scenario_id=case_id, message="scenario has no AV track; skipped")
            )
            continue
        agents: dict[str, Track] = {}
        for k in group:
            track_id = track_names[track_of[k]]
            try:
                if shapes[k] is None:  # the row path reports the first fault of a flagged track
                    lo, hi = bounds[k], bounds[k + 1]
                    recs = _records(blocks, zip(block[lo:hi].tolist(), line[lo:hi].tolist()), lines_of)
                    tracks[k], near_zero[k] = _adapt_track(case_id, track_id, recs, issues)
                    if tracks[k] is None:
                        continue
                if near_zero[k]:
                    issues.append(
                        ParseIssue(
                            line=None,
                            scenario_id=case_id,
                            message=f"track {track_id}: near-zero-speed frames inherit the previous heading",
                        )
                    )
                agents[track_id] = tracks[k] if shapes[k] else tracks[k].check()
            except (ValueError, TypeError) as exc:
                issues.append(
                    ParseIssue(
                        line=None,
                        scenario_id=case_id,
                        message=f"track {track_id}: malformed data ({exc}); track skipped",
                    )
                )
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
    return scenarios


# Rows of whole tracks that _dataset_kinematics derives at a time. The per-row
# math runs on Python floats, 32 bytes a value in a list, so a slice's lists
# stay near 256 kB a column however long the input.
_ROWS_PER_SLICE = 1 << 13


def _dataset_kinematics(layout, kept, bounds, t, x, y, vx, vy, psi) -> tuple[np.ndarray, ...]:
    """Speed, heading and whether the heading is held from an earlier frame,
    for the rows of the kept tracks; NaN, NaN and False in the other rows.
    Track k holds rows bounds[k] to bounds[k + 1] - 1 and is kept when
    kept[k]; a slice of whole tracks is derived at a time."""
    n = len(t)
    out = np.full(n, math.nan), np.full(n, math.nan), np.zeros(n, dtype=bool)
    # a slice starts at the track that holds a multiple of _ROWS_PER_SLICE
    at = np.searchsorted(bounds, np.arange(0, n, _ROWS_PER_SLICE), side="right") - 1
    cuts = [*dict.fromkeys(at.tolist()), len(bounds) - 1]
    for k0, k1 in zip(cuts, cuts[1:]):
        ends = bounds[k0:k1 + 1] - bounds[k0]
        sizes = np.diff(ends)
        lo, hi = bounds[k0], bounds[k1]
        derived = _slice_kinematics(layout[lo:hi], np.repeat(kept[k0:k1], sizes), np.repeat(ends[:-1], sizes),
                                    np.repeat(ends[1:] - 1, sizes), *(c[lo:hi] for c in (t, x, y, vx, vy, psi)))
        for column, values in zip(out, derived):
            column[lo:hi] = values
    return out


def _slice_kinematics(layout, kept, first, last, t, x, y, vx, vy, psi) -> tuple[np.ndarray, ...]:
    """_dataset_kinematics of the kept rows of tracks laid end to end: frame
    i's track runs from frame first[i] to frame last[i]."""
    n = len(t)
    speed, heading, held = np.full(n, math.nan), np.full(n, math.nan), np.zeros(n, dtype=bool)
    rows = np.flatnonzero(kept & (layout >= 2))
    speed[rows] = np.fromiter(map(math.hypot, vx[rows].tolist(), vy[rows].tolist()), dtype=np.float64, count=len(rows))
    rows = np.flatnonzero(kept & (layout == 3))
    heading[rows] = _wrapped(psi[rows])
    rows = np.flatnonzero(kept & (layout == 2))
    angle = np.fromiter(map(math.atan2, vy[rows].tolist(), vx[rows].tolist()), dtype=np.float64, count=len(rows))
    held[rows] = ~(speed[rows] >= NEAR_ZERO_SPEED)
    heading[rows] = _held_heading(angle, ~held[rows], np.searchsorted(rows, first[rows]))
    rows = np.flatnonzero(kept & (layout < 2))
    speed[rows], heading[rows] = _central_kinematics(
        t[rows], x[rows], y[rows], np.searchsorted(rows, first[rows]), np.searchsorted(rows, last[rows])
    )
    heading[heading == -math.pi] = math.pi  # all normalize_heading does to an angle of atan2
    return speed, heading, held


def _shape(agent_type: str, no_dims: bool, length: float, width: float) -> tuple[str, float, float] | None:
    """(agent type, length, width) of a track from its first row. Missing
    dimensions are a pedestrian's default footprint, and skip (None) a track
    of any other type."""
    if no_dims:
        return (agent_type, PEDESTRIAN_DEFAULT_LENGTH, PEDESTRIAN_DEFAULT_WIDTH) if agent_type == "pedestrian" else None
    return agent_type, length, width


def _records(blocks: list[tuple[_Layout, int, str]], rows: Iterable[tuple[int, int]], lines_of: dict) -> list[tuple]:
    """The records of (block, line) rows in file order, read from the blocks'
    text as the row path reads them; lines_of caches each block's lines."""
    recs = []
    for b, line in sorted(rows):
        layout, first, text = blocks[b]
        if b not in lines_of:
            lines_of[b] = text.split("\n")
        lines, i = lines_of[b], line - first
        recs.append(layout.record(line, _cells(lines[i] + "\n" if i < len(lines) - 1 else lines[i])))
    return recs


def _adapt_track(
    case_id: str,
    track_id: str,
    recs: list[tuple],
    issues: list[ParseIssue],
) -> tuple[TrackArrays | None, bool]:
    """One track's records as an unchecked TrackArrays (see
    TrackArrays.check), or None when the track is skipped with a diagnostic,
    and whether a heading is held from an earlier frame. A malformed cell or
    an out-of-range timestep raises ValueError or TypeError, the first in
    record order."""
    steps = [int(rec[_STEP]) for rec in recs]
    bad = [step for step in steps if _bad_timesteps(step)]
    if bad:
        raise ValueError(f"timestep must be below {_MAX_TIMESTEP} in magnitude" if max(map(abs, bad)) >= _MAX_TIMESTEP
                         else f"timestep must be >= 0, got {bad[0]}")
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
    dims = [(cell or "").strip() for cell in (lengths[0], widths[0])]
    shape = _shape(_CATEGORY_MAP.get((categories[0] or "").strip().lower(), "other"), not all(dims),
                   *(map(float, dims) if all(dims) else (math.nan, math.nan)))
    if shape is None:
        issues.append(
            ParseIssue(
                line=lines[0],
                scenario_id=case_id,
                message=f"track {track_id}: missing dimensions for non-pedestrian; track skipped",
            )
        )
        return None, False

    n = len(recs)
    xy = np.fromiter(map(float, chain.from_iterable(zip(xs, ys))), dtype=np.float64, count=2 * n)
    if not has_vel[0] and n < 2:
        issues.append(
            ParseIssue(
                line=lines[0],
                scenario_id=case_id,
                message=f"track {track_id}: single frame and no velocity columns; track skipped",
            )
        )
        return None, False
    # the cells in record order, so the first malformed one raises
    vel = [(float(vx), float(vy), normalize_heading(float(psi)) if given else math.nan) if has_vel[0]
           else (math.nan,) * 3 for vx, vy, psi, given in zip(vxs, vys, psis, has_psi)]
    t = steps * 0.1
    speed, heading, held = _dataset_kinematics(has_vel[0] * (2 + np.array(has_psi, dtype=np.int8)), [True],
                                               np.array([0, n]), t, *xy.reshape(n, 2).T, *np.array(vel).reshape(n, 3).T)
    return TrackArrays.from_columns(track_id, np.rint(t * 1e4) / 1e4, *xy.reshape(n, 2).T, speed, heading,
                                    np.full(n, shape[1]), np.full(n, shape[2]), [shape[0]] * n), bool(held.any())
