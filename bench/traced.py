"""Traced run: times each layer of a workload from outside the package, in
the fresh interpreter that executes this file.

The layer functions (parse_canonical, compute_pair_frames, tem_ttc2d,
sat_overlap, ...) are replaced, in every module of the package that holds
them, by wrappers that record one span per call: name, start, end, parent
span, self time, scenario id, pass, process id and phase. The package's
source is untouched. The run then calls cli.main(argv) in-process with the
workload's argv, so the spans follow exactly what the command does; --jobs
workers, forked from this process, inherit the wrappers and hand their spans
back, one file per worker, when they exit. Spans stay in memory and are
written, as gzipped CSV, when the run ends.

Each pass is three runs of the workload's commands on the same inputs:
  1. untraced, in a fresh interpreter (bench/cmd.py): the baseline wall,
     and outputs kept for the checks;
  2. phase "layers": every layer wrapped, for latencies and self times;
  3. phase "roots": only the outermost layers wrapped, so no span nests in
     another and their recording cost stays outside the layers' work. Its
     cli.main wall minus the spans on its critical path is cli.residual_s,
     the CLI's own work: CSV rows, manifest, box construction in the
     collision loop and the pool.
Passes repeat until the "layers" runs have taken --seconds.

A layer the workload's commands never call reports 0 for every metric of
that layer (and is listed as not called in the details).

Run: python3 bench/traced.py --workload W --inputs DIR --work DIR --seconds S --spans FILE
Prints one JSON line: the per-layer metrics, the details behind them and
the untraced commands' results.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import gzip
import json
import multiprocessing.util
import os
import pickle
import pstats
import shutil
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import run
import workloads

PROFILE_FRAMES = 200     # fixed sample for Vec2 constructions per frame

# (module, function) of each layer; the span name is module.function, except
# where SPAN_NAMES says otherwise
LAYERS = (
    ("trajio", "parse_canonical"), ("trajio", "adapt_external"), ("trajio", "serialize_canonical"),
    ("geometry", "sat_overlap"), ("geometry", "minkowski_sum"), ("geometry", "ray_polygon_entry"),
    ("geometry", "nearest_points"), ("metrics", "compute_pair_frames"), ("metrics", "compute_frame"),
    ("metrics", "tem_ttc2d"), ("metrics", "in_depth_parts"), ("metrics", "act"),
    ("metrics", "condition_q"), ("metrics", "pet"), ("classify", "extract_event"),
    ("stats", "build_threshold_table"),
)
SPAN_NAMES = {"in_depth_parts": "metrics.in_depth"}
# the outermost layers each workload's commands call
EVENTS_ROOTS = ("parse_canonical", "compute_pair_frames", "pet", "extract_event", "build_threshold_table")
ROOTS = {"corpus_events": EVENTS_ROOTS, "sweep_parallel": EVENTS_ROOTS,
         "dataset_filter": ("adapt_external", "sat_overlap", "serialize_canonical")}
# CLI functions that take one scenario: they only set the scenario id of spans
SCENARIO_SCOPES = ("_scenario_events", "_scenario_overlaps")


class Tracer:
    """Span recorder. A span's self time is its duration minus the time its
    child spans took."""

    def __init__(self, hand_back: Path) -> None:
        self.spans: list = []
        self.stack: list[list[int]] = []   # [span index, child ns] per open span
        self.scenario = ""
        self.pass_no = 0
        self.phase = ""
        self.pid = os.getpid()
        self.hand_back = hand_back
        self.patched: list = []            # (module, attribute, original)
        multiprocessing.util.register_after_fork(self, Tracer._forked)

    def _forked(self) -> None:
        """In a worker forked by multiprocessing: record only the worker's
        own spans, and write them out when the worker exits."""
        self.spans, self.stack, self.pid = [], [], os.getpid()
        multiprocessing.util.Finalize(None, self._write_back, exitpriority=10)

    def _write_back(self) -> None:
        with open(self.hand_back / f"{self.pid}.pickle", "wb") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def take_workers(self) -> None:
        """Append the spans the workers wrote back, renumbering their parents."""
        for path in sorted(self.hand_back.glob("*.pickle")):
            base = len(self.spans)
            spans = pickle.loads(path.read_bytes())
            self.spans.extend(s if s[3] < 0 else (*s[:3], s[3] + base, *s[4:]) for s in spans)
            path.unlink()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1][0] if self.stack else -1
            entry = [sid, 0]
            self.stack.append(entry)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += t1 - t0
                self.spans[sid] = (name(args) if callable(name) else name, t0, t1, parent,
                                   t1 - t0 - entry[1], self.scenario, self.pass_no, self.pid, self.phase)
        return traced

    def scoped(self, fn):
        @functools.wraps(fn)
        def scoped(scenario, *args, **kwargs):
            self.scenario = scenario.scenario_id
            try:
                return fn(scenario, *args, **kwargs)
            finally:
                self.scenario = ""
        return scoped

    def install(self, functions) -> None:
        """Wrap each named layer function wherever the package looks it up."""
        import conflictmetrics.cli
        from conflictmetrics import metrics

        modules = [m for n, m in sys.modules.items() if n.startswith("conflictmetrics.")]

        def tem_name(args):
            cfg = args[2] if len(args) > 2 else metrics.MetricsConfig()
            return "metrics.tem_ttc2d_dsafe" if cfg.d_safe > 0 else "metrics.tem_ttc2d"

        for home, attr in LAYERS:
            if attr not in functions:
                continue
            original = getattr(sys.modules[f"conflictmetrics.{home}"], attr)
            name = tem_name if attr == "tem_ttc2d" else SPAN_NAMES.get(attr, f"{home}.{attr}")
            self._patch(modules, attr, original, self.wrap(original, name))
        for attr in SCENARIO_SCOPES:
            original = getattr(conflictmetrics.cli, attr, None)
            if original is not None:
                self._patch(modules, attr, original, self.scoped(original))

    def _patch(self, modules, attr, original, replacement) -> None:
        for module in modules:
            if module.__dict__.get(attr) is original:
                setattr(module, attr, replacement)
                self.patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched = []

    def run_commands(self, argvs: list, phase: str, functions) -> tuple[float, list]:
        """cli.main over the argvs with the given layers wrapped: its wall and spans."""
        import conflictmetrics.cli as cli

        self.spans, self.stack, self.phase = [], [], phase
        gc.freeze()   # forked workers then leave the spans of earlier runs untouched
        self.install(functions)
        try:
            wall = 0.0
            for argv in argvs:
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall += time.perf_counter() - t0
                if code:
                    raise SystemExit(f"{argv[0]} exited {code} in the traced run")
        finally:
            self.uninstall()
        self.take_workers()
        return wall, self.spans


def critical_ns(spans: list, main_pid: int) -> int:
    """The spans on a run's critical path: the main process's outermost
    spans plus those of its busiest worker."""
    per_pid: dict = defaultdict(int)
    for _, t0, t1, parent, *_rest, pid, _phase in spans:
        if parent < 0:
            per_pid[pid] += t1 - t0
    return per_pid.pop(main_pid, 0) + max(per_pid.values(), default=0)


# ---------------------------------------------------------------------------
# counts measured outside the spans
# ---------------------------------------------------------------------------

def _frame_sample(scenarios, count: int) -> list:
    frames = []
    for scenario in scenarios:
        ids = sorted(scenario.agents)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                by_t = {s.t_dms: s for s in scenario.agents[b]}
                frames.extend((sa, by_t[sa.t_dms]) for sa in scenario.agents[a] if sa.t_dms in by_t)
                if len(frames) >= count:
                    return frames[:count]
    return frames


def vec2_per_frame(workload: str, cfg, gen_dir: Path) -> float:
    """Vec2 constructions per compute_frame, counted by cProfile on a fixed
    sample (seed 0 of this workload's generator), so it repeats exactly."""
    import gen
    from conflictmetrics import geometry
    from conflictmetrics.metrics import compute_frame
    from conflictmetrics.trajio import parse_canonical

    gen.write(gen_dir, *gen.generate(workload, 0))
    with open(gen_dir / "corpus.csv", encoding="utf-8") as fh:
        frames = _frame_sample(parse_canonical(fh).scenarios, PROFILE_FRAMES)
    code = geometry.Vec2.__post_init__.__code__
    profiler = cProfile.Profile()
    profiler.enable()
    for sa, sb in frames:
        compute_frame(sa, sb, cfg)
    profiler.disable()
    calls = pstats.Stats(profiler).stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
    return calls / len(frames)


def load(workload: str, inputs: Path) -> tuple[str, object]:
    """The ingest layer the workload's command calls, and a call of it."""
    from conflictmetrics import trajio

    if workload == "dataset_filter":
        return "adapt_external", lambda: trajio.adapt_external([str(inputs / n) for n in workloads.EXPORTS])
    return "parse_canonical", lambda: trajio.parse_canonical((inputs / "corpus.csv").read_text(encoding="utf-8"))


def memory_peak_mb(call) -> float:
    """tracemalloc peak of one call."""
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True, help="directory for the runs' outputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    inputs, work = Path(args.inputs), Path(args.work)

    from conflictmetrics.metrics import MetricsConfig

    cfg = MetricsConfig(d_safe=workloads.D_SAFE[args.workload])
    ingest, read = load(args.workload, inputs)
    scenarios = read().scenarios
    jobs = workloads.JOBS[args.workload]
    extra = {
        "trajio.rows": sum(len(track) for s in scenarios for track in s.agents.values()),
        f"trajio.{ingest}.mb": memory_peak_mb(read),
        # what the pool pickles to ship one scenario to a worker
        "cli.pickled_kb_per_scenario": (sum(len(pickle.dumps((s, cfg))) for s in scenarios)
                                        / len(scenarios) / 1024 if jobs > 1 else 0.0),
    }
    del scenarios

    hand_back = work / "worker-spans"
    hand_back.mkdir(parents=True)
    tracer = Tracer(hand_back)
    all_layers = {attr for _, attr in LAYERS}
    untraced, layer_runs, root_runs, spans = [], [], [], []
    while sum(wall for wall, _ in layer_runs) < args.seconds:
        tracer.pass_no = len(untraced)
        out = work / f"out{tracer.pass_no}"
        untraced.append(run.fresh_command(workloads.argvs(args.workload, inputs, out)))
        for phase, functions, runs in (("layers", all_layers, layer_runs),
                                       ("roots", ROOTS[args.workload], root_runs)):
            scratch = work / phase
            wall, run_spans = tracer.run_commands(workloads.argvs(args.workload, inputs, scratch), phase, functions)
            shutil.rmtree(scratch)
            runs.append((wall, critical_ns(run_spans, tracer.pid)))
            spans.extend(run_spans)
    gc.unfreeze()

    with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
        fh.write("name,start_ns,end_ns,parent,self_ns,scenario,pass,pid,phase\n")
        for span in spans:
            fh.write(",".join(map(str, span)) + "\n")
    if any(s[0] == "metrics.compute_frame" for s in spans):
        extra["geometry.vec2_per_frame"] = vec2_per_frame(args.workload, cfg, work / "profile")
    walls = [sum(rep["walls"]) for rep in untraced]
    summary = summarize(spans, walls, layer_runs, root_runs, extra)
    print(json.dumps(summary | {"untraced": untraced}))


def _pct(values: list, q: float) -> float:
    return float(np.percentile(values, q, method="linear")) if values else 0.0


def summarize(spans: list, untraced_walls: list, layer_runs: list, root_runs: list, extra: dict) -> dict:
    """Per-layer metrics from the "layers" spans; a layer's .s is its summed
    span time per pass (median over passes). cli.residual_s is the "roots"
    cli.main wall minus the spans on its critical path, median over passes."""
    durations: dict = defaultdict(list)                        # name -> ns per call
    per_pass: dict = defaultdict(lambda: defaultdict(int))     # name -> pass -> ns
    self_ns: dict = defaultdict(lambda: defaultdict(int))      # name -> pass -> ns
    for name, t0, t1, _, own, _, pass_no, _, phase in spans:
        if phase == "layers":
            durations[name].append(t1 - t0)
            per_pass[name][pass_no] += t1 - t0
            self_ns[name][pass_no] += own
    passes = len(untraced_walls)

    def per_pass_s(name):
        return float(np.median([per_pass[name][p] for p in range(passes)])) / 1e9

    metrics = {name: 0.0 for name in MEASURED_WHERE_CALLED}
    metrics.update({
        "trajio.parse_canonical.s": per_pass_s("trajio.parse_canonical"),
        "trajio.adapt_external.s": per_pass_s("trajio.adapt_external"),
        "trajio.serialize_canonical.s": per_pass_s("trajio.serialize_canonical"),
        "geometry.sat_overlap.calls": len(durations["geometry.sat_overlap"]) // passes,
        "metrics.compute_frame.calls": len(durations["metrics.compute_frame"]) // passes,
        "metrics.pet.s": per_pass_s("metrics.pet"),
        "classify.extract_event.s": per_pass_s("classify.extract_event"),
        "stats.build_threshold_table.s": per_pass_s("stats.build_threshold_table"),
    })
    for name, unit, scale, quantiles in LATENCIES:
        for q in quantiles:
            metrics[f"{name}.{unit}_p{q}"] = _pct(durations[name], q) / scale
    metrics.update(extra)
    residuals = [wall - ns / 1e9 for wall, ns in root_runs]
    metrics["cli.residual_s"] = float(np.median(residuals))

    def ratio(runs, baseline):
        return float(np.median([wall / base for (wall, _), base in zip(runs, baseline)])) - 1.0

    not_called = [name for name in LAYER_NAMES if not durations[name]]

    details = {
        "passes": passes,
        "untraced_wall_s": float(np.median(untraced_walls)),
        "layers_wall_s": float(np.median([wall for wall, _ in layer_runs])),
        "roots_wall_s": float(np.median([wall for wall, _ in root_runs])),
        "roots_critical_spans_s": float(np.median([ns for _, ns in root_runs])) / 1e9,
        "residual_s_per_pass": residuals,
        # the traced runs' cli.main wall against the untraced command's
        "tracing_overhead": ratio(layer_runs, untraced_walls),
        "roots_overhead": ratio(root_runs, untraced_walls),
        "spans_per_pass": {"layers": sum(len(v) for v in durations.values()) // passes,
                           "roots": sum(1 for s in spans if s[8] == "roots") // passes},
        "layers": {
            name: {
                "calls": len(durations[name]),
                "self_s_per_pass": float(np.median([self_ns[name][p] for p in range(passes)])) / 1e9,
            }
            for name in LAYER_NAMES if durations[name]
        },
        "not_called": not_called,
        "not_applicable": [m for m in metrics if any(m.startswith(f"{name}.") for name in not_called)
                           or (m in extra or m in MEASURED_WHERE_CALLED) and not metrics[m]],
    }
    return {"metrics": metrics, "details": details}


LATENCIES = (
    ("geometry.sat_overlap", "us", 1e3, (50,)),
    ("geometry.minkowski_sum", "us", 1e3, (50,)),
    ("geometry.ray_polygon_entry", "us", 1e3, (50,)),
    ("geometry.nearest_points", "us", 1e3, (50,)),
    ("metrics.compute_frame", "us", 1e3, (50, 99)),
    ("metrics.tem_ttc2d", "us", 1e3, (50,)),
    ("metrics.tem_ttc2d_dsafe", "us", 1e3, (50,)),
    ("metrics.act", "us", 1e3, (50,)),
    ("metrics.in_depth", "us", 1e3, (50,)),
    ("metrics.condition_q", "us", 1e3, (50,)),
    ("metrics.compute_pair_frames", "ms", 1e6, (50, 99)),
    ("metrics.pet", "ms", 1e6, (50, 99)),
)

LAYER_NAMES = (
    "trajio.parse_canonical", "trajio.adapt_external", "trajio.serialize_canonical",
    "geometry.sat_overlap", "geometry.minkowski_sum", "geometry.ray_polygon_entry",
    "geometry.nearest_points", "metrics.compute_pair_frames", "metrics.compute_frame",
    "metrics.tem_ttc2d", "metrics.tem_ttc2d_dsafe", "metrics.in_depth", "metrics.act",
    "metrics.condition_q", "metrics.pet", "classify.extract_event", "stats.build_threshold_table",
)

# metrics measured only where their layer runs; 0 on the other workloads
MEASURED_WHERE_CALLED = ("trajio.parse_canonical.mb", "trajio.adapt_external.mb", "geometry.vec2_per_frame")

if __name__ == "__main__":
    main()
