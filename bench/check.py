"""Output checks for the benchmark workloads.

Each check compares the program's tables with a computation made apart from
the program (the numpy closed forms in reference.py, the package's
brute-force oracle) or with a property the method must have. None of them
compares against a stored copy of earlier output. A check that fails marks
the operation it belongs to as failed:

    corpus_events    one (scenario, pair) event, plus the threshold table
    dataset_filter   one scenario
    sweep_parallel   one (scenario, pair) event

The checks that call the package (oracle agreement, D_safe properties,
in-process recomputation) need ``src`` on ``sys.path``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import tempfile
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
import workloads

LEVELS = {"NonConflict": 0, "PotentialConflict": 1, "CriticalConflict": 2, "Crash": 3}
SAMPLE_FRAMES = 24      # frames per run checked against the oracle and closed forms
SAMPLE_SCENARIOS = 12   # sweep_parallel scenarios recomputed in-process at --jobs 1


@dataclass
class Verdict:
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def fail(self, op, message: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(f"{op}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def _close(got: float | None, want: float | None, rel: float = 1e-6) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-9)


def _num(cell: str) -> float | None:
    return float(cell) if cell else None


def _dms(cell: str) -> int | None:
    return round(float(cell) * 1e4) if cell else None


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _event_key(row: dict) -> tuple[str, str, str]:
    return row["scenario_id"], row["agent_a"], row["agent_b"]


def _expected_events(truth: dict) -> list[tuple[str, str, str]]:
    return sorted(
        (sid, *pair.split(","))
        for sid, s in truth.items() for pair, p in s["pairs"].items() if p["frames"] > 0
    )


def _agent_state(track: dict, aid: str, idx: int):
    from conflictmetrics.metrics import AgentState

    return AgentState(
        agent_id=aid, t=int(track["t_dms"][idx]) / 1e4, x=float(track["x"][idx]), y=float(track["y"][idx]),
        v=float(track["v"][idx]), heading=float(track["h"][idx]), length=float(track["L"][idx]),
        width=float(track["W"][idx]), agent_type=track["type"],
    )


def _sample_frames(tracks: dict, keys: list, seed: int) -> list[tuple]:
    """Seeded (event key, frame index) sample over the common clock."""
    rng = np.random.default_rng([seed, 7])
    out = []
    for k in rng.choice(len(keys), size=min(SAMPLE_FRAMES, len(keys)), replace=len(keys) < SAMPLE_FRAMES):
        sid, a, b = keys[k]
        ca, cb = ref.common(tracks[sid][a], tracks[sid][b])
        out.append((keys[k], int(rng.integers(len(ca["t_dms"])))))
    return out


def _check_event_rows(v: Verdict, rows: dict, tracks: dict, truth: dict, d_safe: float) -> None:
    """Per-event checks against the reference closed forms: frame_count,
    mei_max and act_min with their times, the peak level, act_min == 0
    exactly at a Crash, and PET on the 0.1 s clock."""
    expected = _expected_events(truth)
    for key in sorted(set(rows) - set(expected)):
        v.attempted += 1
        v.fail(key, "event row for a pair without common frames")
    # all pairs' common frames end to end, so each closed form runs once
    pairs = [ref.common(tracks[sid][a], tracks[sid][b]) for sid, a, b in expected]
    ca, cb = ref.concat([p[0] for p in pairs]), ref.concat([p[1] for p in pairs])
    depth = ref.in_depth(ca, cb, d_safe)
    tem = ref.tem(ca, cb) if d_safe == 0.0 else ref.tem_rounded(ca, cb, d_safe)
    mei = np.where(tem > 0, depth / np.where(tem > 0, tem, 1.0), np.nan)
    act = ref.act(ca, cb)
    level = ref.levels(ca, cb, tem, depth)
    ends = np.cumsum([len(p[0]["t_dms"]) for p in pairs])
    for key, stop, (pa, _) in zip(expected, ends, pairs):
        row = rows.get(key)
        if row is None:
            v.fail(key, "event row missing")
            continue
        frames = slice(stop - len(pa["t_dms"]), stop)
        t_dms = pa["t_dms"]
        sid, a, b = key
        if int(row["frame_count"]) != truth[sid]["pairs"][f"{a},{b}"]["frames"]:
            v.fail(key, f"frame_count {row['frame_count']} != generated common frames")
        want, want_t = ref.extreme(mei[frames], t_dms, largest=True)
        if not _close(_num(row["mei_max"]), want) or _dms(row["t_mei_max"]) != want_t:
            v.fail(key, f"mei_max {row['mei_max']} at {row['t_mei_max']} != reference {want} at {None if want_t is None else want_t / 1e4}")
        want, want_t = ref.extreme(act[frames], t_dms, largest=False)
        if not _close(_num(row["act_min"]), want) or _dms(row["t_act_min"]) != want_t:
            v.fail(key, f"act_min {row['act_min']} at {row['t_act_min']} != reference {want} at {None if want_t is None else want_t / 1e4}")
        peak = int(level[frames].max())
        if LEVELS.get(row["peak_level"]) != peak:
            v.fail(key, f"peak_level {row['peak_level']} != reference level {peak}")
        if (row["act_min"] != "" and float(row["act_min"]) == 0.0) != (row["peak_level"] == "Crash"):
            v.fail(key, f"act_min {row['act_min']!r} == 0 must hold exactly when peak_level is Crash")
        pet = _num(row["pet"])
        if pet is not None and (pet < 0 or abs(pet * 10 - round(pet * 10)) > 1e-9):
            v.fail(key, f"pet {row['pet']} is not a non-negative multiple of 0.1 s")


def _check_sampled_frames(v: Verdict, tracks: dict, keys: list, seed: int, d_safe: float) -> None:
    """The program's per-frame values on a seeded sample: TEM against the
    time-stepping oracle (1e-3 s) and the slab clip (1e-9 s), InDepth against
    the closed form, MEI as closed-form InDepth over TEM; at D_safe > 0,
    InDepth shifted by exactly D_safe and TEM no larger than at D_safe 0."""
    from conflictmetrics.metrics import MetricsConfig, compute_frame, in_depth, tem_ttc2d
    from conflictmetrics.oracles import oracle_first_contact

    cfg0 = MetricsConfig()
    cfg = MetricsConfig(d_safe=d_safe)
    for key, i in _sample_frames(tracks, keys, seed):
        sid, a, b = key
        ca, cb = ref.common(tracks[sid][a], tracks[sid][b])
        sa, sb = _agent_state(ca, a, i), _agent_state(cb, b, i)
        one_a = {k: ca[k] if k == "type" else ca[k][i:i + 1] for k in ca}
        one_b = {k: cb[k] if k == "type" else cb[k][i:i + 1] for k in cb}
        depth0 = float(ref.in_depth(one_a, one_b)[0])
        slab = float(ref.tem(one_a, one_b)[0])
        slab = None if math.isnan(slab) else slab
        fm0 = compute_frame(sa, sb, cfg0)
        oracle = oracle_first_contact(sa, sb)
        where = f"frame t={int(ca['t_dms'][i]) / 1e4}"
        if oracle is None:
            if fm0.tem is not None and fm0.tem < 29.9:
                v.fail(key, f"{where}: TEM {fm0.tem} but the oracle finds no contact within 30 s")
        elif fm0.tem is None or abs(fm0.tem - oracle) > 1e-3:
            v.fail(key, f"{where}: TEM {fm0.tem} != oracle {oracle}")
        if not _close(fm0.tem, slab, rel=1e-9):
            v.fail(key, f"{where}: TEM {fm0.tem} != slab clip {slab}")
        if not _close(fm0.in_depth, depth0, rel=1e-9):
            v.fail(key, f"{where}: InDepth {fm0.in_depth} != closed form {depth0}")
        want_mei = depth0 / fm0.tem if fm0.tem else None
        if not _close(fm0.mei, want_mei, rel=1e-9):
            v.fail(key, f"{where}: MEI {fm0.mei} != closed-form InDepth / TEM {want_mei}")
        if d_safe > 0.0:
            depth = in_depth(sa, sb, cfg)
            if not _close(depth, depth0 + d_safe, rel=1e-9):
                v.fail(key, f"{where}: InDepth at D_safe {d_safe} is {depth}, not {depth0} + {d_safe}")
            tem = tem_ttc2d(sa, sb, cfg)
            if fm0.tem is not None and (tem is None or tem > fm0.tem + 1e-12):
                v.fail(key, f"{where}: TEM at D_safe {d_safe} is {tem}, above {fm0.tem} at D_safe 0")


def check_events(inputs: Path, out: Path, truth: dict, seed: int, d_safe: float = 0.0) -> Verdict:
    tracks = ref.read_canonical(str(inputs / "corpus.csv"))
    expected = _expected_events(truth)
    v = Verdict(attempted=len(expected))
    rows = {_event_key(r): r for r in _read_rows(out / "events.csv")}
    _check_event_rows(v, rows, tracks, truth, d_safe)
    _check_sampled_frames(v, tracks, expected, seed, d_safe)
    return v


def check_thresholds(v: Verdict, out: Path) -> None:
    """thresholds.csv against numpy.percentile (linear) over the event table's
    conflict corpus (mei_max > 0); counts as one operation."""
    from_table = {row["risk_share"]: row for row in _read_rows(out / "thresholds.csv")}
    events = [r for r in _read_rows(out / "events.csv") if r["mei_max"] and float(r["mei_max"]) > 0]
    v.attempted += 1
    op = ("thresholds",)
    shares = (1, 5, 10, 25, 50, 75, 90, 95, 99)
    if sorted(from_table) != sorted(f"Top {s}%" for s in shares):
        v.fail(op, f"risk shares {sorted(from_table)}")
        return
    for metric, invert in (("mei_max", False), ("act_min", True), ("pet", True)):
        values = np.array([float(r[metric]) for r in events if r[metric]])
        for share in shares:
            rank = share if invert else 100 - share
            cell = from_table[f"Top {share}%"][metric]
            want = float(np.percentile(values, rank, method="linear")) if len(values) else None
            if not _close(_num(cell), want, rel=1e-9):
                v.fail(op, f"Top {share}% {metric} {cell!r} != numpy percentile {want}")


def check_corpus_events(inputs: Path, out: Path, truth: dict, seed: int) -> Verdict:
    v = check_events(inputs, out, truth, seed)
    check_thresholds(v, out)
    return v


def check_sweep_parallel(inputs: Path, out: Path, truth: dict, seed: int) -> Verdict:
    """Event checks at D_safe 0.5, then a seeded sample of scenarios is
    recomputed in this process at --jobs 1: its rows must be byte-identical
    to the --jobs 2 table."""
    from conflictmetrics import cli

    d_safe = workloads.D_SAFE["sweep_parallel"]
    v = check_events(inputs, out, truth, seed, d_safe)
    rng = np.random.default_rng([seed, 11])
    sample = sorted(rng.choice(sorted(truth), size=min(SAMPLE_SCENARIOS, len(truth)), replace=False))
    text = (inputs / "corpus.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    keep = set(sample)
    subset = [text[0]] + [line for line in text[1:] if line.split(",", 1)[0] in keep]
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        sub_in = Path(tmp) / "sample.csv"
        sub_in.write_text("".join(subset), encoding="utf-8")
        with redirect_stderr(io.StringIO()):
            code = cli.main(["events", "--input", str(sub_in), "--out", tmp, "--jobs", "1",
                             "--d-safe", str(d_safe)])
        lines = (Path(tmp) / "events.csv").read_text(encoding="utf-8").splitlines()
    if code != 0:
        for key in _expected_events(truth):
            if key[0] in keep:
                v.fail(key, f"in-process --jobs 1 recomputation exited {code}")
        return v
    ours = {tuple(line.split(",", 3)[:3]): line for line in lines[1:]}
    theirs = {}
    for line in (out / "events.csv").read_text(encoding="utf-8").splitlines()[1:]:
        key = tuple(line.split(",", 3)[:3])
        if key[0] in keep:
            theirs[key] = line
    for key in sorted(set(ours) | set(theirs)):
        if ours.get(key) != theirs.get(key):
            v.fail(key, f"--jobs 2 row {theirs.get(key)!r} != --jobs 1 row {ours.get(key)!r}")
    return v


def _tracks_from_states(states: list) -> dict:
    return {
        "t_dms": np.array([s.t_dms for s in states], dtype=np.int64),
        "x": np.array([s.x for s in states]), "y": np.array([s.y for s in states]),
        "v": np.array([s.v for s in states]), "h": np.array([s.heading for s in states]),
        "L": np.array([s.length for s in states]), "W": np.array([s.width for s in states]),
        "type": states[0].agent_type,
    }


def _overlaps(agents: dict) -> set[tuple[str, str, int]]:
    """(a, b, first overlapping t_dms) per overlapping pair, by the numpy SAT."""
    ids = sorted(agents)
    out = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            ca, cb = ref.common(agents[a], agents[b])
            hit = np.flatnonzero(ref.separation(ca, cb) <= 0.0)
            if len(hit):
                out.add((a, b, int(ca["t_dms"][hit[0]])))
    return out


def _same_track(got: dict, want: dict) -> bool:
    if got["type"] != want["type"] or not np.array_equal(got["t_dms"], want["t_dms"]):
        return False
    exact = all(np.array_equal(got[k], want[k]) for k in ("x", "y", "L", "W"))
    turn = np.abs(np.remainder(got["h"] - want["h"] + np.pi, 2 * np.pi) - np.pi)
    return exact and np.allclose(got["v"], want["v"], rtol=1e-12, atol=1e-12) and bool(np.all(turn < 1e-12))


def check_dataset_filter(inputs: Path, out: Path, truth: dict, seed: int) -> Verdict:
    """removals.csv against an independent numpy SAT over the adapted export;
    no pair left in cleaned.csv overlaps; every scenario without an
    overlapping pair comes back unchanged from parse_canonical(cleaned.csv).
    These hold whether the filter drops whole scenarios or single pairs."""
    from conflictmetrics.trajio import parse_canonical

    tracks = ref.read_dataset([str(inputs / f"export_{k}.csv") for k in ("psi", "vel", "pos")])
    v = Verdict(attempted=len(truth))
    expected = {sid: _overlaps(agents) for sid, agents in tracks.items()}
    for sid, hits in expected.items():
        planted = {(*p.split(","), t["first_overlap_dms"]) for p, t in truth[sid]["pairs"].items()
                   if t["first_overlap_dms"] is not None}
        if hits != planted:
            raise RuntimeError(f"{sid}: reference SAT {hits} disagrees with the generator's truth {planted}")
    removed: dict[str, set] = {}
    for row in _read_rows(out / "removals.csv"):
        removed.setdefault(row["scenario_id"], set()).add((row["agent_a"], row["agent_b"], _dms(row["first_overlap_t"])))
    for sid in sorted(set(removed) - set(expected)):
        v.attempted += 1
        v.fail((sid,), "removal row for a scenario not in the input")
    for sid, hits in expected.items():
        if removed.get(sid, set()) != hits:
            v.fail((sid,), f"removals {sorted(removed.get(sid, set()))} != numpy SAT {sorted(hits)}")

    with open(out / "cleaned.csv", encoding="utf-8") as fh:
        cleaned = {s.scenario_id: s for s in parse_canonical(fh).scenarios}
    for sid in sorted(set(cleaned) - set(expected)):
        v.attempted += 1
        v.fail((sid,), "cleaned.csv holds a scenario not in the input")
    for sid, hits in expected.items():
        kept = cleaned.get(sid)
        if kept is None:
            if not hits:
                v.fail((sid,), "scenario without overlap missing from cleaned.csv")
            continue
        agents = {aid: _tracks_from_states(states) for aid, states in kept.agents.items()}
        if _overlaps(agents):
            v.fail((sid,), f"cleaned.csv keeps overlapping pairs {sorted(_overlaps(agents))}")
        if not hits and (set(agents) != set(tracks[sid])
                         or not all(_same_track(agents[a], tracks[sid][a]) for a in agents)):
            v.fail((sid,), "scenario without overlap changed on its way through cleaned.csv")
    return v


CHECKS = {
    "corpus_events": check_corpus_events,
    "dataset_filter": check_dataset_filter,
    "sweep_parallel": check_sweep_parallel,
}


def operations(workload: str, truth: dict) -> int:
    """Operations one command of the workload attempts."""
    if workload == "dataset_filter":
        return len(truth)
    return len(_expected_events(truth)) + (workload == "corpus_events")


def check(workload: str, inputs: Path, out: Path, seed: int) -> Verdict:
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    return CHECKS[workload](inputs, out, truth, seed)
