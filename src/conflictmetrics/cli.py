"""Batch command-line front end.

Subcommands:
    frames             per-frame metric timeseries for one scenario/pair
    events             per-(scenario, pair) aggregates over a corpus
    thresholds         percentile risk thresholds from an event table
    filter-collisions  drop scenarios containing footprint overlap

Every run writes its data tables plus a manifest.json echoing the full
configuration. Data tables are byte-deterministic for identical inputs and
flags (rows are sorted by scenario, agent ids and time; parallelism does not
change output bytes). The manifest records wall-clock timestamps and is the
only non-reproducible output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .classify import ConflictEvent, RiskLevel, classify_frames, corpus_events, filter_collision_scenarios
from .metrics import MetricsConfig, frame_columns, joined_pairs
from .stats import build_threshold_table, threshold_table_csv
from .trajio import (
    ParseIssue,
    ParseResult,
    Scenario,
    SchemaError,
    adapt_external,
    format_time,
    parse_canonical,
    write_canonical,
)

EXIT_OK = 0
EXIT_SCHEMA = 3
EXIT_NOT_FOUND = 4
EXIT_EMPTY = 5


class NotFoundError(ValueError):
    pass


class EmptyInputError(ValueError):
    pass


@dataclass
class RunManifest:
    tool: str
    version: str
    command: list[str]
    inputs: list[str]
    config: dict
    started_utc: str
    finished_utc: str
    counts: dict
    outputs: list[str]


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _config_from_args(args: argparse.Namespace) -> MetricsConfig:
    return MetricsConfig(
        d_safe=args.d_safe,
        tem_star=args.tem_star,
        q_predicate=args.q,
        mei_cap=args.mei_cap,
        pet_grid=args.pet_grid,
    )


def _load_scenarios(args: argparse.Namespace) -> tuple[list[Scenario], ParseResult]:
    if args.format == "canonical":
        merged = ParseResult(scenarios=[], issues=[])
        for path in args.input:
            with open(path, "r", encoding="utf-8") as fh:
                result = parse_canonical(fh)
            merged.scenarios.extend(result.scenarios)
            merged.issues.extend(result.issues)
        result = merged
    else:
        result = adapt_external(args.input)
    for issue in result.issues:
        print(f"warning: {_where(issue)}{issue.message}", file=sys.stderr)
    return result.scenarios, result


def _where(issue: ParseIssue) -> str:
    """The scenario and line an issue names, as "s1 line 6: ", omitting
    what it does not name."""
    parts = [issue.scenario_id or "", "" if issue.line is None else f"line {issue.line}"]
    where = " ".join(part for part in parts if part)
    return f"{where}: " if where else ""


def _fmt(value: float | None) -> str:
    """Undefined values serialize as empty fields, never sentinel numbers."""
    return "" if value is None else repr(value)


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _write_manifest(
    out_dir: Path,
    args: argparse.Namespace,
    cfg: MetricsConfig,
    started: str,
    counts: dict,
    outputs: list[str],
) -> None:
    manifest = RunManifest(
        tool="conflictmetrics",
        version=__version__,
        command=list(getattr(args, "argv", sys.argv[1:])),
        inputs=[str(p) for p in args.input],
        config=asdict(cfg),
        started_utc=started,
        finished_utc=_utcnow(),
        counts=counts,
        outputs=outputs,
    )
    (out_dir / "manifest.json").write_text(
        json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

FRAME_COLUMNS = ["t", "in_depth", "tem", "mei", "act", "q_active", "overlap", "risk_level"]


def _frame_rows(columns: dict[str, np.ndarray], cfg: MetricsConfig) -> list[list[str]]:
    """Rows of frames.csv from the metric columns of one pair."""
    values = [columns[name].tolist() for name in ("t", "in_depth", "tem", "mei", "act", "q_active", "overlap")]
    labels = [RiskLevel(level).label for level in classify_frames(columns, cfg).tolist()]
    return [
        [format_time(round(t * 1e4)), *(_fmt(None if v != v else v) for v in numbers),
         _fmt_bool(q), _fmt_bool(overlap), label]
        for t, *numbers, q, overlap, label in zip(*values, labels)
    ]


def cmd_frames(args: argparse.Namespace) -> int:
    started = _utcnow()
    cfg = _config_from_args(args)
    scenarios, _ = _load_scenarios(args)
    by_id = {s.scenario_id: s for s in scenarios}

    if args.scenario is not None:
        scenario = by_id.get(args.scenario)
        if scenario is None:
            raise NotFoundError(f"scenario {args.scenario!r} not found")
    elif len(by_id) == 1:
        scenario = next(iter(by_id.values()))
    else:
        raise NotFoundError("--scenario is required when the input holds several scenarios")

    if args.pair is not None:
        pair = tuple(args.pair.split(","))
        if len(pair) != 2:
            raise NotFoundError("--pair must be two agent ids separated by a comma")
        if pair[0] == pair[1]:
            raise NotFoundError("--pair must name two different agents")
        for agent_id in pair:
            if agent_id not in scenario.agents:
                raise NotFoundError(f"agent {agent_id!r} not in scenario {scenario.scenario_id!r}")
    else:
        pairs = scenario.pairs()
        if len(pairs) != 1:
            raise NotFoundError(
                f"scenario {scenario.scenario_id!r} holds {len(scenario.agents)} agents; "
                "select one pair with --pair A,B"
            )
        pair = pairs[0]

    rows = []
    for _, a, b, _ in joined_pairs([(pair, scenario.agents[pair[0]], scenario.agents[pair[1]])]):
        rows.extend(_frame_rows(frame_columns(a, b, cfg), cfg))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "frames.csv", FRAME_COLUMNS, rows)
    _write_manifest(
        out_dir,
        args,
        cfg,
        started,
        counts={"scenarios": len(scenarios), "frames": len(rows)},
        outputs=["frames.csv"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

EVENT_COLUMNS = [
    "scenario_id",
    "agent_a",
    "agent_b",
    "mei_max",
    "t_mei_max",
    "act_min",
    "t_act_min",
    "pet",
    "peak_level",
    "frame_count",
]


def _runs(scenarios: list[Scenario], jobs: int) -> list[list[Scenario]]:
    """At most `jobs` contiguous runs of the scenarios, balanced by the
    frames their pairs span (each track counts once per pair it is in)."""
    weight = np.cumsum([sum(map(len, s.agents.values())) * (len(s.agents) - 1) for s in scenarios])
    cuts = np.searchsorted(weight, weight[-1] * np.arange(1, jobs) / jobs) + 1
    edges = [0, *sorted(set(np.minimum(cuts, len(scenarios)).tolist())), len(scenarios)]
    return [scenarios[lo:hi] for lo, hi in zip(edges, edges[1:]) if lo < hi]


def _events_of(run: list[Scenario], cfg: MetricsConfig) -> tuple[list[ConflictEvent], list[tuple[str, str, str, str]]]:
    skipped: list[tuple[str, str, str, str]] = []
    return corpus_events(run, cfg, skipped), skipped


def _events_worker(send, run: list[Scenario], cfg: MetricsConfig) -> None:
    """A forked worker: sends back _events_of its run, or the exception
    that raised."""
    try:
        result = _events_of(run, cfg)
    except Exception as exc:  # raised again in the parent
        result = exc
    send.send(result)


def _collect_events(
    scenarios: list[Scenario], cfg: MetricsConfig, jobs: int
) -> tuple[list[ConflictEvent], list[tuple[str, str, str, str]]]:
    """Events of every scenario, sorted, and the pairs left without PET
    because the grid was too fine for them. With jobs > 1 the scenarios
    split into contiguous runs, one per process: this process takes the
    last, and jobs - 1 forked workers the others. A forked worker inherits
    its run, so no scenario is pickled."""
    *others, own = _runs(scenarios, jobs) if jobs > 1 and len(scenarios) > 1 else [scenarios]
    workers = []
    if others:
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        for run in others:
            receive, send = fork.Pipe(duplex=False)
            worker = fork.Process(target=_events_worker, args=(send, run, cfg))
            worker.start()
            send.close()
            workers.append((worker, receive))
    results = []
    try:
        results.append(_events_of(own, cfg))
        # read every result before joining: a worker exits only once its result is read
        results.extend(receive.recv() for _, receive in workers)
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, _ in workers:
            worker.join()
    for result in results:
        if isinstance(result, Exception):
            raise result
    events = [event for chunk, _ in results for event in chunk]
    events.sort(key=lambda e: (e.scenario_id, e.agent_pair))
    pet_skipped = sorted(entry for _, skipped in results for entry in skipped)
    return events, pet_skipped


def _event_row(event: ConflictEvent) -> list[str]:
    return [
        event.scenario_id,
        event.agent_pair[0],
        event.agent_pair[1],
        _fmt(event.mei_max),
        "" if event.t_mei_max is None else format_time(round(event.t_mei_max * 1e4)),
        _fmt(event.act_min),
        "" if event.t_act_min is None else format_time(round(event.t_act_min * 1e4)),
        _fmt(event.pet),
        event.peak_level.label,
        str(event.frame_count),
    ]


def cmd_events(args: argparse.Namespace) -> int:
    started = _utcnow()
    cfg = _config_from_args(args)
    scenarios, _ = _load_scenarios(args)
    if not scenarios:
        print("warning: no scenarios in input; writing an empty event table", file=sys.stderr)
    events, pet_skipped = _collect_events(scenarios, cfg, args.jobs)
    for scenario_id, agent_a, agent_b, message in pet_skipped:
        print(f"warning: scenario {scenario_id} pair {agent_a},{agent_b}: {message}; pet left empty",
              file=sys.stderr)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "events.csv", EVENT_COLUMNS, [_event_row(e) for e in events])
    _write_manifest(
        out_dir,
        args,
        cfg,
        started,
        counts={"scenarios": len(scenarios), "events": len(events), "pet_grid_too_fine": len(pet_skipped)},
        outputs=["events.csv"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def _event_number(rec: dict, column: str, where: str) -> float | None:
    """An optional numeric event cell; anything but empty or a finite number
    raises SchemaError."""
    cell = rec[column]
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SchemaError(f"{where}: {column} is not a finite number: {cell!r}")
    return value


def _read_events_csv(path: str) -> list[ConflictEvent]:
    """Event rows of an events.csv; a bad cell raises SchemaError naming path:line."""
    label_to_level = {level.label: level for level in RiskLevel}
    events = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty event table")
        for required in EVENT_COLUMNS[:9]:
            if required not in reader.fieldnames:
                raise SchemaError(f"{path}: missing required column: {required}")
        for rec in reader:
            where = f"{path}:{reader.line_num}"
            level = label_to_level.get(rec["peak_level"])
            if level is None:
                raise SchemaError(f"{where}: unknown peak_level {rec['peak_level']!r}")
            try:
                frame_count = int(rec.get("frame_count") or 0)
            except ValueError:
                frame_count = -1
            if frame_count < 0:
                raise SchemaError(f"{where}: frame_count is not a count: {rec['frame_count']!r}")
            events.append(
                ConflictEvent(
                    scenario_id=rec["scenario_id"],
                    agent_pair=(rec["agent_a"], rec["agent_b"]),
                    mei_max=_event_number(rec, "mei_max", where),
                    t_mei_max=_event_number(rec, "t_mei_max", where),
                    act_min=_event_number(rec, "act_min", where),
                    t_act_min=_event_number(rec, "t_act_min", where),
                    pet=_event_number(rec, "pet", where),
                    peak_level=level,
                    frame_count=frame_count,
                )
            )
    return events


def cmd_thresholds(args: argparse.Namespace) -> int:
    started = _utcnow()
    cfg = _config_from_args(args)
    all_events = []
    for path in args.input:
        all_events.extend(_read_events_csv(path))
    # The threshold corpus is the set of conflict events: maximum MEI > 0.
    corpus = [e for e in all_events if e.mei_max is not None and e.mei_max > 0]
    if not corpus:
        raise EmptyInputError("no events with mei_max > 0; nothing to rank")
    table = build_threshold_table(corpus)
    if table.low_sample:
        print(
            f"warning: only {table.counts['events']} events; percentile thresholds are low-confidence",
            file=sys.stderr,
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "thresholds.csv").write_text(threshold_table_csv(table), encoding="utf-8")
    report = {
        "counts": table.counts,
        "low_sample": table.low_sample,
        "risk_levels": {
            "critical": sum(1 for e in corpus if e.peak_level >= RiskLevel.CRITICAL_CONFLICT),
            "potential": sum(1 for e in corpus if e.peak_level == RiskLevel.POTENTIAL_CONFLICT),
            "crash": sum(1 for e in corpus if e.peak_level == RiskLevel.CRASH),
            "non_conflict": sum(1 for e in corpus if e.peak_level == RiskLevel.NON_CONFLICT),
        },
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(
        out_dir,
        args,
        cfg,
        started,
        counts={"events_in": len(all_events), "conflict_corpus": len(corpus)},
        outputs=["thresholds.csv", "report.json"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# filter-collisions
# ---------------------------------------------------------------------------


def cmd_filter_collisions(args: argparse.Namespace) -> int:
    started = _utcnow()
    cfg = _config_from_args(args)
    scenarios, _ = _load_scenarios(args)
    if not scenarios:
        raise EmptyInputError("no scenarios in input")

    kept, removals = filter_collision_scenarios(scenarios)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "cleaned.csv", "w", encoding="utf-8") as fh:
        write_canonical(kept, fh)
    _write_csv(
        out_dir / "removals.csv",
        ["scenario_id", "agent_a", "agent_b", "first_overlap_t"],
        [[r.scenario_id, *r.agent_pair, format_time(round(r.first_overlap_t * 1e4))] for r in removals],
    )
    _write_manifest(
        out_dir,
        args,
        cfg,
        started,
        counts={"scenarios": len(scenarios), "kept": len(kept), "removed": len(removals)},
        outputs=["cleaned.csv", "removals.csv"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------


def _checked(kind: type, valid, requirement: str):
    """argparse type that also rejects values outside the flag's domain."""

    def parse(text: str):
        value = kind(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid <type> value"
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", action="append", required=True, metavar="PATH",
                        help="input file (repeatable)")
    parser.add_argument("--format", choices=["canonical", "dataset"], default="canonical")
    parser.add_argument("--d-safe", dest="d_safe", default=0.0,
                        type=_checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0"),
                        help="safety-region corner radius in meters (default 0)")
    parser.add_argument("--tem-star", dest="tem_star", default=3.0,
                        type=_checked(float, lambda v: v > 0.0, "> 0"),
                        help="critical-conflict TEM threshold in seconds (default 3)")
    parser.add_argument("--q", choices=["approach_distance", "always_true"],
                        default="approach_distance", help="conflict predicate")
    parser.add_argument("--mei-cap", dest="mei_cap", default=None,
                        type=_checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0"),
                        help="optional clamp on reported MEI values")
    parser.add_argument("--pet-grid", dest="pet_grid", default=0.1,
                        type=_checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0"),
                        help="conflict-zone raster resolution in meters (default 0.1)")
    parser.add_argument("--out", required=True, metavar="DIR", help="output directory")
    parser.add_argument("--jobs", default=1, type=_checked(int, lambda v: v >= 1, ">= 1"),
                        help="worker processes for events, each taking one contiguous run of "
                             "scenarios; the other commands run in one process")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conflictmetrics",
        description="Two-agent conflict criticality metrics and risk classification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_frames = sub.add_parser("frames", help="per-frame metric timeseries for one pair")
    _add_common(p_frames)
    p_frames.add_argument("--scenario", default=None, metavar="ID")
    p_frames.add_argument("--pair", default=None, metavar="A,B")
    p_frames.set_defaults(func=cmd_frames)

    p_events = sub.add_parser("events", help="per-(scenario, pair) aggregates")
    _add_common(p_events)
    p_events.set_defaults(func=cmd_events)

    p_thresh = sub.add_parser("thresholds", help="percentile thresholds from an event table")
    _add_common(p_thresh)
    p_thresh.set_defaults(func=cmd_thresholds)

    p_filter = sub.add_parser("filter-collisions", help="drop scenarios containing footprint overlap")
    _add_common(p_filter)
    p_filter.set_defaults(func=cmd_filter_collisions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except EmptyInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND


if __name__ == "__main__":
    sys.exit(main())
