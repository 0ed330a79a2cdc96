"""Benchmark of the conflictmetrics corpus pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

--workload is one of corpus_events, dataset_filter, sweep_parallel, or
all (each in turn). The inputs are generated from --seed into .bench_work/
and removed afterwards; result files go to .bench_results/.

--trace 0 measures the end-to-end metrics with tracing off. Every command
run is a fresh interpreter (bench/cmd.py) that imports conflictmetrics.cli
and calls cli.main(argv) with the argv a user would type; nothing else from
the benchmark runs meanwhile. Commands repeat until --seconds have gone by
(at least MIN_REPS times) and each metric is the median over them:

    pair_frames_per_s  common-clock pair-frames of the generated input over
                       the wall time of cli.main (set-up excluded)
    setup_s            CPU time of the thread that imports
                       conflictmetrics.cli in a fresh interpreter: the lower
                       quartile over every command's import and SETUP_RUNS
                       import-only interpreters run after each command, so
                       the samples span the window (bench/README.md says
                       why CPU time and not wall time)
    peak_rss_mb        peak resident set of the command process or of its
                       largest --jobs worker

--trace 1 runs the traced run (bench/traced.py): the workload's commands
run in-process with the layers wrapped, for --seconds, each pass after an
untraced command, and it reports the per-layer metrics.

Outputs of every command are checked (bench/check.py, untimed, after the
measurement). The last line of stdout is one JSON object with correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_REPS = 3
SETUP_RUNS = 3
COMMAND_TIMEOUT_S = 170

def _child(args: list[str]) -> dict:
    """Run a benchmark script in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(args[0]).name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_command(argvs: list[list[str]]) -> dict:
    return _child([str(BENCH / "cmd.py"), str(SRC), json.dumps(argvs)])


def measure(workload: str, inputs: Path, work: Path, seconds: float, seed: int, truth: dict) -> dict:
    """Untraced commands for `seconds`, then their evaluation."""
    import workloads

    setups, reps = [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        out = work / f"out{len(reps)}"
        reps.append((out, fresh_command(workloads.argvs(workload, inputs, out))))
        setups.extend(fresh_command([]) for _ in range(SETUP_RUNS))
    return evaluate(workload, inputs, seed, truth, reps, setups)


def evaluate(workload: str, inputs: Path, seed: int, truth: dict, reps: list, setups: list) -> dict:
    """Checks of every command's outputs (a command whose tables match an
    already-checked command's byte for byte shares its verdict) and the
    end-to-end metrics as medians over the commands."""
    import check
    import gen
    import workloads

    verdicts: list[tuple[dict, check.Verdict]] = []
    attempted = failed = 0
    problems: list[str] = []
    for out, rep in reps:
        if any(rep["codes"]):
            # the command failed as a whole: every operation of this round failed
            ops = check.operations(workload, truth)
            attempted += ops
            failed += ops
            problems.append(f"{out.name}: exit codes {rep['codes']}")
            continue
        tables = {name: (out / name).read_bytes() for name in workloads.TABLES[workload]}
        verdict = next((v for t, v in verdicts if t == tables), None)
        if verdict is None:
            verdict = check.check(workload, inputs, out, seed)
            verdicts.append((tables, verdict))
            problems.extend(f"{out.name}: {p}" for p in verdict.problems)
        attempted += verdict.attempted
        failed += verdict.failed
        shutil.rmtree(out)

    pair_frames = gen.pair_frames(truth)
    walls = [sum(rep["walls"]) for _, rep in reps]
    imports = setups + [rep for _, rep in reps]
    import_cpu = [rep["import_cpu_s"] for rep in imports]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "metrics": {
            "pair_frames_per_s": statistics.median(pair_frames / w for w in walls),
            "setup_s": statistics.quantiles(import_cpu, n=4)[0] if len(import_cpu) > 1 else import_cpu[0],
            "peak_rss_mb": statistics.median(rep["peak_mb"] for _, rep in reps),
        },
        "details": {"reps": len(reps), "pair_frames": pair_frames, "wall_s": walls,
                    "import_cpu_s": import_cpu, "import_wall_s": [rep["import_s"] for rep in imports]},
    }


def traced(workload: str, inputs: Path, work: Path, seconds: float, seed: int, truth: dict,
           results: Path) -> dict:
    """The traced run; the untraced commands it alternates with are checked."""
    run = _child([str(BENCH / "traced.py"), "--workload", workload, "--inputs", str(inputs),
                  "--work", str(work), "--seconds", str(seconds),
                  "--spans", str(results / f"spans-{workload}-seed{seed}.csv.gz")])
    reps = [(work / f"out{i}", rep) for i, rep in enumerate(run["untraced"])]
    checked = evaluate(workload, inputs, seed, truth, reps, [])
    return checked | {"metrics": run["metrics"], "details": run["details"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import gen

    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    try:
        inputs = work / "inputs"
        scenarios, truth = gen.generate(workload, seed)
        gen.write(inputs, scenarios, truth)
        if trace:
            result = traced(workload, inputs, work, seconds, seed, truth, results)
        else:
            result = measure(workload, inputs, work, seconds, seed, truth)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description="conflictmetrics corpus-pipeline benchmark")
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "conflictmetrics" / "cli.py").is_file():
        print(f"error: no conflictmetrics package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: attempted {result['attempted']} operations, failed {result['failed']}, "
              f"outputs {'correct' if result['correct'] else 'WRONG'}")
        for problem in result["problems"][:20]:
            print(f"  {problem}")
        not_applicable = set(result["details"].get("not_applicable", ()))
        for metric in (m for m in units if m in result["metrics"]):
            value, unit = result["metrics"][metric], units[metric]
            shown = "not called" if metric in not_applicable else f"{value:.6g}"
            print(f"  {metric:36s} {shown:>14s} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            summary["metrics"][key] = {"value": value, "unit": unit}
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
