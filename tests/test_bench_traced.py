"""One pass of the traced benchmark run (bench/traced.py) on each workload.

The traced run wraps the package's layer functions (bench/traced.py,
LAYERS), reads the inputs with trajio.parse_canonical or adapt_external,
walks Scenario.agents and calls cli.main several times in one process, so
a change to any of these interfaces ends it with a non-zero exit. The
seed-1 inputs are written by the benchmark's generator (bench/gen.py) in its
own interpreter; --seconds 0.001 makes the run stop after its first pass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_traced_pass_runs_every_command(tmp_path, workload):
    inputs = tmp_path / "inputs"
    subprocess.run([sys.executable, str(ROOT / "bench" / "gen.py"), "--workload", workload, "--seed", "1",
                    "--out", str(inputs)], check=True, capture_output=True, timeout=120)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), "--workload", workload, "--inputs", str(inputs),
         "--work", str(tmp_path / "work"), "--seconds", "0.001", "--spans", str(tmp_path / "spans.csv.gz")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    untraced = json.loads(proc.stdout.splitlines()[-1])["untraced"]
    assert untraced and all(code == 0 for run in untraced for code in run["codes"]), untraced
