"""Checker self-test: shows that the output checks are not vacuous.

For each workload, runs its command once on the seed-1 inputs and checks the
outputs, which must pass. Then it corrupts one value at a time and checks
again; the operation the value belongs to must be counted as failed:

    corpus_events   one mei_max in events.csv, one cell of thresholds.csv
    dataset_filter  one row dropped from removals.csv, one x moved by 1 mm
                    in cleaned.csv
    sweep_parallel  one mei_max and one act_min in events.csv

Run from the root of a checkout: python3 bench/selftest.py
Exits 0 when the clean outputs pass and every corruption is caught.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import check
import gen
import run
import workloads

SEED = 1


def _scale_cell(path: Path, column: str, factor: float, pick=lambda cells: True) -> tuple:
    """Multiply the first non-empty `column` cell of a row that `pick`
    accepts; returns the row's leading cells, which name its operation."""
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(column)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[col] and pick(cells):
            cells[col] = repr(float(cells[col]) * factor)
            lines[i] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return tuple(cells)
    raise RuntimeError(f"no {column} cell to corrupt in {path.name}")


def _events_cell(column: str, factor: float):
    def corrupt(out: Path):
        return _scale_cell(out / "events.csv", column, factor)[:3]
    return f"{column} x {factor} in events.csv", corrupt


def _threshold_cell(out: Path):
    _scale_cell(out / "thresholds.csv", "mei_max", 1.01, pick=lambda cells: cells[0] == "Top 50%")
    return ("thresholds",)


def _drop_removal(out: Path):
    path = out / "removals.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")
    return (lines[1].split(",")[0],)


def _nudge_x(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("x")
    cells = lines[1].split(",")
    cells[col] = repr(float(cells[col]) + 1e-3)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cells[0]


CASES = {
    "corpus_events": [_events_cell("mei_max", 1.001), ("one threshold cell x 1.01", _threshold_cell)],
    "dataset_filter": [("first removals.csv row dropped", _drop_removal),
                       ("one x in cleaned.csv moved by 1 mm", lambda out: (_nudge_x(out / "cleaned.csv"),))],
    "sweep_parallel": [_events_cell("mei_max", 1.001), _events_cell("act_min", 0.999)],
}


def main() -> int:
    if not (run.SRC / "conflictmetrics" / "cli.py").is_file():
        print(f"error: no conflictmetrics package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    ok = True
    base = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        for workload in workloads.NAMES:
            inputs, out = base / workload / "inputs", base / workload / "out"
            gen.write(inputs, *gen.generate(workload, SEED))
            run.fresh_command(workloads.argvs(workload, inputs, out))
            clean = check.check(workload, inputs, out, SEED)
            print(f"{workload}: clean outputs, {clean.attempted} operations, {clean.failed} failed")
            ok &= clean.failed == 0
            pristine = base / workload / "pristine"
            shutil.copytree(out, pristine)
            for label, corrupt in CASES[workload]:
                op = corrupt(out)
                verdict = check.check(workload, inputs, out, SEED)
                caught = op in verdict.failed_ops
                ok &= caught
                print(f"  {label}: operation {op} {'counted as failed' if caught else 'NOT caught'}"
                      f" ({verdict.failed} of {verdict.attempted} failed)")
                for problem in verdict.problems[:3]:
                    print(f"    {problem}")
                shutil.rmtree(out)
                shutil.copytree(pristine, out)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
