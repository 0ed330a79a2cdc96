"""The commands each workload runs, as a user would type them.

    corpus_events   events --jobs 1 on a canonical corpus, then thresholds on
                    its events.csv: the paper's analysis pipeline
    dataset_filter  filter-collisions --format dataset --jobs 1 on a larger
                    export split over the three kinematics layouts: corpus
                    construction, never calling TEM, ACT or PET
    sweep_parallel  events --jobs 2 --d-safe 0.5 on many short scenarios: a
                    D_safe sensitivity run over a process pool
"""

from __future__ import annotations

from pathlib import Path

NAMES = ("corpus_events", "dataset_filter", "sweep_parallel")
D_SAFE = {"corpus_events": 0.0, "dataset_filter": 0.0, "sweep_parallel": 0.5}
JOBS = {"corpus_events": 1, "dataset_filter": 1, "sweep_parallel": 2}
# data tables a rerun must reproduce byte for byte
TABLES = {
    "corpus_events": ("events.csv", "thresholds.csv"),
    "dataset_filter": ("removals.csv", "cleaned.csv"),
    "sweep_parallel": ("events.csv",),
}
EXPORTS = ("export_psi.csv", "export_vel.csv", "export_pos.csv")


def argvs(workload: str, inputs: Path, out: Path) -> list[list[str]]:
    jobs = ["--jobs", str(JOBS[workload])]
    if workload == "corpus_events":
        return [
            ["events", "--input", str(inputs / "corpus.csv"), "--out", str(out)] + jobs,
            ["thresholds", "--input", str(out / "events.csv"), "--out", str(out)],
        ]
    if workload == "dataset_filter":
        files = [arg for name in EXPORTS for arg in ("--input", str(inputs / name))]
        return [["filter-collisions", "--format", "dataset", *files, "--out", str(out)] + jobs]
    return [["events", "--input", str(inputs / "corpus.csv"), "--out", str(out),
             "--d-safe", str(D_SAFE[workload])] + jobs]
