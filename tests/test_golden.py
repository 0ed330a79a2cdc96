"""Byte digests of what the benchmark workloads' commands write.

The seed-1 and seed-777 inputs of every benchmark workload are written by
the benchmark's generator (bench/gen.py) in its own interpreter. Each
workload's commands (bench/workloads.argvs) then run on them as a user would
type them, each in a fresh interpreter, followed by `frames` on a few pairs
named by the events table. Every command's exit code, and the sha256 of its
stderr and of every file it writes but the manifest (which holds wall-clock
times), must equal tests/golden.json. Paths in stderr are written relative
to the run's directory first.

A change that means to change these bytes rewrites the file with
`python tests/rewrite_golden.py` and says which rows changed and why.
"""

import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (1, 777)


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], run_dir: Path) -> dict[str, object]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "conflictmetrics", *argv], capture_output=True, env=env)
    stderr = proc.stderr.replace(os.fsencode(run_dir), b"<run>")
    return {"exit": proc.returncode, "stderr": _sha(stderr)}


def _frame_argvs(workload, inputs: Path, out: Path, d_safe: float) -> list[list[str]]:
    """frames on the first pair of events.csv and, for corpus_events, on
    its first Crash pair as well."""
    with open(out / "events.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    picked = rows[:1]
    if workload == "corpus_events":
        picked += [row for row in rows if row["peak_level"] == "Crash"][:1]
    return [["frames", "--input", str(inputs / "corpus.csv"), "--scenario", row["scenario_id"],
             "--pair", f"{row['agent_a']},{row['agent_b']}", "--d-safe", str(d_safe), "--out", str(out / f"frames{k}")]
            for k, row in enumerate(picked)]


def digests(tmp: Path) -> dict[str, dict[str, object]]:
    """Per workload and seed, each command's exit code and stderr digest
    (keyed by its position and subcommand) and each written file's digest
    (keyed by its path under the output directory)."""
    workloads = _workloads()
    result = {}
    for workload in workloads.NAMES:
        for seed in SEEDS:
            run_dir = tmp / f"{workload}-{seed}"
            inputs, out = run_dir / "inputs", run_dir / "out"
            subprocess.run([sys.executable, str(ROOT / "bench" / "gen.py"), "--workload", workload, "--seed", str(seed),
                            "--out", str(inputs)], check=True, capture_output=True)
            argvs = workloads.argvs(workload, inputs, out)
            entry = {f"{k} {argv[0]}": _run(argv, run_dir) for k, argv in enumerate(argvs)}
            if workload != "dataset_filter":
                frames = _frame_argvs(workload, inputs, out, workloads.D_SAFE[workload])
                entry.update({f"{k} {argv[0]}": _run(argv, run_dir) for k, argv in enumerate(frames, len(argvs))})
            entry.update({path.relative_to(out).as_posix(): _sha(path.read_bytes())
                          for path in sorted(out.rglob("*")) if path.is_file() and path.name != "manifest.json"})
            result[f"{workload}-{seed}"] = entry
    return result


def test_benchmark_outputs_match_the_golden_digests(tmp_path):
    assert digests(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))
