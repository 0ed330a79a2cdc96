import csv
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import conflictmetrics
from conflictmetrics.cli import EXIT_EMPTY, EXIT_NOT_FOUND, EXIT_OK, EXIT_SCHEMA, _runs, main
from conflictmetrics.metrics import MetricsConfig
from conflictmetrics.trajio import parse_canonical

HEADER = "scenario_id,agent_id,agent_type,t,x,y,speed,heading,length,width"


def _head_on_rows(scenario="head_on", frames=21):
    rows = []
    for i in range(frames):
        t = f"{0.1 * i:.1f}"
        rows.append(f"{scenario},A,vehicle,{t},{1.0 * i},0.0,10.0,0.0,4.0,2.0")
        rows.append(f"{scenario},B,vehicle,{t},{50.0 - 1.0 * i},0.0,10.0,{math.pi},4.0,2.0")
    return rows


def _crossing_rows(scenario="crossing", frames=81):
    rows = []
    for i in range(frames):
        t = f"{0.1 * i:.1f}"
        rows.append(f"{scenario},AV,vehicle,{t},{-10.0 + 0.5 * i},0.0,5.0,0.0,4.0,2.0")
        rows.append(f"{scenario},P,pedestrian,{t},0.0,{-30.0 + 0.5 * i},5.0,{math.pi / 2},,")
    return rows


def _crash_rows(scenario="crash", frames=30):
    # Fronts touch exactly at frame 25 (centers 4 m apart), then interpenetrate.
    rows = []
    for i in range(frames):
        t = f"{0.1 * i:.1f}"
        rows.append(f"{scenario},A,vehicle,{t},{1.0 * i},0.0,10.0,0.0,4.0,2.0")
        rows.append(f"{scenario},B,vehicle,{t},{54.0 - 1.0 * i},0.0,10.0,{math.pi},4.0,2.0")
    return rows


def _grazing_rows(scenario="grazing", frames=11):
    # Boxes touch laterally (gap exactly 0) at every frame while driving
    # parallel; never interpenetrate.
    rows = []
    for i in range(frames):
        t = f"{0.1 * i:.1f}"
        rows.append(f"{scenario},A,vehicle,{t},{1.0 * i},0.0,10.0,0.0,4.0,2.0")
        rows.append(f"{scenario},B,vehicle,{t},{1.0 * i},2.0,10.0,0.0,4.0,2.0")
    return rows


@pytest.fixture
def corpus_file(tmp_path):
    rows = _head_on_rows() + _crossing_rows()
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def dirty_corpus_file(tmp_path):
    rows = _head_on_rows() + _crossing_rows() + _crash_rows() + _grazing_rows()
    path = tmp_path / "dirty.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


def _run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Runs code in a fresh interpreter that imports this package's source,
    so the modules loaded are exactly those the code loads."""
    src = str(Path(conflictmetrics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)


class TestFrames:
    def test_head_on_first_row_values(self, tmp_path, corpus_file):
        out = tmp_path / "out"
        rc = main(["frames", "--input", str(corpus_file), "--scenario", "head_on", "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "frames.csv").read_text().splitlines()
        assert lines[0] == "t,in_depth,tem,mei,act,q_active,overlap,risk_level"
        first = lines[1].split(",")
        assert first[0] == "0.0"
        assert float(first[1]) == pytest.approx(2.0, abs=1e-12)
        assert float(first[2]) == pytest.approx(2.3, rel=1e-12)
        assert float(first[3]) == pytest.approx(2 / 2.3, rel=1e-9)
        assert first[7] == "CriticalConflict"

    def test_explicit_pair_selector(self, tmp_path, corpus_file):
        out = tmp_path / "out"
        rc = main(
            ["frames", "--input", str(corpus_file), "--scenario", "crossing",
             "--pair", "AV,P", "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert len((out / "frames.csv").read_text().splitlines()) == 82

    def test_vacuous_pair_header_only(self, tmp_path):
        # No shared timestamps: table has just the header, exit is success.
        rows = [
            "s1,A,vehicle,0.0,0,0,5,0,4,2",
            "s1,A,vehicle,0.2,1,0,5,0,4,2",
            "s1,B,vehicle,0.1,9,0,5,0,4,2",
            "s1,B,vehicle,0.3,8,0,5,0,4,2",
        ]
        src = tmp_path / "sparse.csv"
        src.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["frames", "--input", str(src), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "frames.csv").read_text().splitlines() == [
            "t,in_depth,tem,mei,act,q_active,overlap,risk_level"
        ]

    def test_unknown_scenario_not_found(self, tmp_path, corpus_file):
        rc = main(["frames", "--input", str(corpus_file), "--scenario", "nope", "--out", str(tmp_path / "o")])
        assert rc == EXIT_NOT_FOUND

    def test_unknown_pair_not_found(self, tmp_path, corpus_file):
        rc = main(
            ["frames", "--input", str(corpus_file), "--scenario", "head_on",
             "--pair", "A,Z", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_NOT_FOUND

    def test_pair_of_one_agent_not_found(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "o"
        rc = main(["frames", "--input", str(corpus_file), "--scenario", "crossing",
                   "--pair", "AV,AV", "--out", str(out)])
        assert rc == EXIT_NOT_FOUND
        assert "--pair must name two different agents" in capsys.readouterr().err
        assert not (out / "frames.csv").exists()


class TestEvents:
    def test_event_rows(self, tmp_path, corpus_file):
        out = tmp_path / "out"
        rc = main(["events", "--input", str(corpus_file), "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0].startswith("scenario_id,agent_a,agent_b,mei_max")
        assert len(lines) == 3
        crossing = lines[1].split(",")
        assert crossing[0] == "crossing"
        # Hand-derived for the 0.6 m pedestrian fixture: the AV's box last
        # covers a zone cell at t=2.4, the pedestrian first reaches one at 5.8.
        assert float(crossing[7]) == pytest.approx(3.4, abs=1e-9)

    def test_empty_corpus_warns_but_succeeds(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text(HEADER + "\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["events", "--input", str(src), "--out", str(out)])
        assert rc == EXIT_OK
        assert len((out / "events.csv").read_text().splitlines()) == 1
        assert "empty" in capsys.readouterr().err

    def test_manifest_written(self, tmp_path, corpus_file):
        out = tmp_path / "out"
        main(["events", "--input", str(corpus_file), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "conflictmetrics"
        assert manifest["config"]["d_safe"] == 0.0
        assert manifest["config"]["tem_star"] == 3.0
        assert manifest["counts"]["events"] == 2
        assert manifest["outputs"] == ["events.csv"]

    def test_events_leaves_numpy_ma_unimported(self, tmp_path, corpus_file):
        """numpy's intersect1d, isin and unique without index outputs import
        numpy.ma on first use; events, PET included, calls none of them."""
        run = ("import sys\n"
               "import conflictmetrics.cli as cli\n"
               "code = cli.main(['events', '--input', sys.argv[1], '--out', sys.argv[2]])\n"
               "print(code, 'numpy.ma' in sys.modules)\n")
        out = tmp_path / "out"
        proc = _run_fresh(run, str(corpus_file), str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(EXIT_OK), "False"]
        pets = [line.split(",")[7] for line in (out / "events.csv").read_text().splitlines()[1:]]
        assert any(pets)


class TestThresholds:
    def test_low_sample_warning_path(self, tmp_path, corpus_file, capsys):
        events_dir = tmp_path / "events"
        main(["events", "--input", str(corpus_file), "--out", str(events_dir)])
        out = tmp_path / "thresholds"
        rc = main(["thresholds", "--input", str(events_dir / "events.csv"), "--out", str(out)])
        assert rc == EXIT_OK
        assert "low-confidence" in capsys.readouterr().err
        lines = (out / "thresholds.csv").read_text().splitlines()
        assert len(lines) == 10
        report = json.loads((out / "report.json").read_text())
        assert report["low_sample"] is True

    def test_no_positive_mei_is_empty_input(self, tmp_path):
        src = tmp_path / "events.csv"
        src.write_text(
            "scenario_id,agent_a,agent_b,mei_max,t_mei_max,act_min,t_act_min,pet,peak_level,frame_count\n"
            "s1,A,B,,,,,,NonConflict,10\n",
            encoding="utf-8",
        )
        rc = main(["thresholds", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == EXIT_EMPTY


class TestFilterCollisions:
    def test_overlapping_and_grazing_removed(self, tmp_path, dirty_corpus_file):
        out = tmp_path / "out"
        rc = main(["filter-collisions", "--input", str(dirty_corpus_file), "--out", str(out)])
        assert rc == EXIT_OK
        removals = (out / "removals.csv").read_text().splitlines()
        assert len(removals) == 3  # header + crash + grazing
        assert removals[1].split(",")[0] == "crash"
        assert removals[1].split(",")[3] == "2.5"
        assert removals[2].split(",")[0] == "grazing"
        assert removals[2].split(",")[3] == "0.0"
        cleaned = (out / "cleaned.csv").read_text()
        assert "crash" not in cleaned
        assert "grazing" not in cleaned
        assert "head_on" in cleaned and "crossing" in cleaned

    def test_clean_corpus_noop(self, tmp_path, corpus_file):
        out = tmp_path / "out"
        main(["filter-collisions", "--input", str(corpus_file), "--out", str(out)])
        assert len((out / "removals.csv").read_text().splitlines()) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {"scenarios": 2, "kept": 2, "removed": 0}

    def test_cleaned_corpus_reparses(self, tmp_path, dirty_corpus_file):
        out = tmp_path / "out"
        main(["filter-collisions", "--input", str(dirty_corpus_file), "--out", str(out)])
        rc = main(["events", "--input", str(out / "cleaned.csv"), "--out", str(tmp_path / "ev")])
        assert rc == EXIT_OK


class TestExitCodes:
    def test_schema_error(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("scenario_id,agent_id\ns1,A\n", encoding="utf-8")
        rc = main(["events", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA

    def test_missing_input_file(self, tmp_path):
        rc = main(["events", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NOT_FOUND

    def test_filter_on_empty_corpus(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text(HEADER + "\n", encoding="utf-8")
        rc = main(["filter-collisions", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == EXIT_EMPTY


class TestDatasetFormat:
    def test_events_over_dataset_export(self, tmp_path):
        header = "case_id,track_id,object_category,timestep,x,y,vx,vy,psi_rad,length,width"
        rows = []
        for i in range(110):
            rows.append(f"c1,AV,vehicle,{i},{-10.0 + 0.5 * i},0.0,5.0,0.0,0.0,4.0,2.0")
            rows.append(f"c1,9,pedestrian,{i},0.0,{-30.0 + 0.5 * i},0.0,5.0,1.5707963267948966,,")
        src = tmp_path / "export.csv"
        src.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["events", "--input", str(src), "--format", "dataset", "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "events.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("c1,9,AV,")

    def test_quoted_ids_survive_filter_collisions_then_events(self, tmp_path, capsys):
        """A case id or track id holding a comma or a quote, and a case id
        that starts with '#', reach events unchanged through cleaned.csv."""
        header = "case_id,track_id,object_category,timestep,x,y,vx,vy,psi_rad,length,width"
        rows = []
        for case in ('"c,1"', '"#c"'):
            for i in range(110):
                rows.append(f"{case},AV,vehicle,{i},{-10.0 + 0.5 * i},0.0,5.0,0.0,0.0,4.0,2.0")
                rows.append(f'{case},"B""x",pedestrian,{i},0.0,{-30.0 + 0.5 * i},0.0,5.0,1.5707963267948966,,')
        src = tmp_path / "export.csv"
        src.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["filter-collisions", "--format", "dataset", "--input", str(src), "--out", str(out)]) == EXIT_OK
        assert main(["events", "--input", str(out / "cleaned.csv"), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        with open(out / "events.csv", encoding="utf-8", newline="") as fh:
            events = list(csv.reader(fh))
        assert [row[:3] for row in events[1:]] == [["#c", "AV", 'B"x'], ["c,1", "AV", 'B"x']]


    def test_negative_timesteps_are_skipped_before_cleaned_csv(self, tmp_path, capsys):
        """A timestep below 0 gives a time that canonical text cannot hold, so
        filter-collisions skips its track, naming the first such timestep,
        and events reads cleaned.csv without a diagnostic."""
        header = "case_id,track_id,object_category,timestep,x,y,vx,vy,psi_rad,length,width"
        row = "c1,{},vehicle,{},{},{},5.0,0.0,0.0,4.0,2.0"
        rows = [row.format("AV", i, 0.5 * i, 0.0) for i in range(5)]
        rows += [row.format("B", i, 0.5 * i, 9.0) for i in (0, -2, -1, 1)]
        rows += [row.format("C", i, 0.5 * i, -9.0) for i in range(5)]
        src = tmp_path / "export.csv"
        src.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["filter-collisions", "--format", "dataset", "--input", str(src), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "warning: c1: track B: malformed data (timestep must be >= 0, got -2); track skipped",
        ]
        assert main(["events", "--input", str(out / "cleaned.csv"), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert sorted(parse_canonical((out / "cleaned.csv").read_text()).scenarios[0].agents) == ["AV", "C"]


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--jobs", "0"),
        ("--jobs", "-2"),
        ("--tem-star", "0"),
        ("--tem-star", "-1.5"),
        ("--d-safe", "-0.5"),
        ("--pet-grid", "0"),
        ("--pet-grid", "-0.1"),
        ("--mei-cap", "nan"),
        ("--mei-cap", "0"),
    ],
)
def test_out_of_range_flag_is_a_usage_error(tmp_path, corpus_file, capsys, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["events", "--input", str(corpus_file), "--out", str(out), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err
    assert not out.exists()


EVENTS_HEADER = "scenario_id,agent_a,agent_b,mei_max,t_mei_max,act_min,t_act_min,pet,peak_level,frame_count"


@pytest.mark.parametrize(
    "column,bad",
    [
        ("peak_level", "Severe"),
        ("mei_max", "high"),
        ("act_min", "1.2.3"),
        ("pet", "n/a"),
        ("frame_count", "ten"),
    ],
)
def test_bad_event_cell_is_a_schema_error(tmp_path, capsys, column, bad):
    good = {"scenario_id": "s1", "agent_a": "A", "agent_b": "B", "mei_max": "0.8", "t_mei_max": "1.0",
            "act_min": "2.5", "t_act_min": "1.2", "pet": "1.1", "peak_level": "CriticalConflict",
            "frame_count": "30"}
    broken = dict(good, scenario_id="s2", **{column: bad})
    src = tmp_path / "events.csv"
    src.write_text(
        "\n".join([EVENTS_HEADER] + [",".join(rec[c] for c in EVENTS_HEADER.split(",")) for rec in (good, broken)])
        + "\n",
        encoding="utf-8",
    )
    rc = main(["thresholds", "--input", str(src), "--out", str(tmp_path / "o")])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert f"{src}:3" in err and column in err


def _diagonal_rows(scenario="diagonal", frames=30):
    # AV from (0, 0) heading pi/4, V from (100, 0) heading 3*pi/4: the swept
    # footprints share a window of about 100 m x 100 m.
    speed = 100.0 * math.sqrt(2.0) / (0.1 * (frames - 1))
    step = 0.1 * speed * math.sqrt(0.5)
    rows = []
    for i in range(frames):
        t = f"{0.1 * i:.1f}"
        rows.append(f"{scenario},AV,vehicle,{t},{step * i!r},{step * i!r},{speed!r},{math.pi / 4!r},4.5,2.0")
        rows.append(f"{scenario},V,vehicle,{t},{100.0 - step * i!r},{step * i!r},{speed!r},{3 * math.pi / 4!r},4.5,2.0")
    return rows


def test_too_fine_pet_grid_leaves_pet_empty_and_continues(tmp_path, capsys):
    src = tmp_path / "diagonal.csv"
    src.write_text("\n".join([HEADER] + _diagonal_rows() + _head_on_rows()) + "\n", encoding="utf-8")
    coarse, fine = tmp_path / "coarse", tmp_path / "fine"
    assert main(["events", "--input", str(src), "--out", str(coarse)]) == EXIT_OK
    capsys.readouterr()
    assert main(["events", "--input", str(src), "--out", str(fine), "--pet-grid", "0.005"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "diagonal" in err and "AV,V" in err and "pet_grid=0.005" in err
    assert err.count("warning:") == 1

    def table(out):
        lines = (out / "events.csv").read_text().splitlines()
        return [line.split(",") for line in lines]

    pet_col = table(coarse)[0].index("pet")
    for row_coarse, row_fine in zip(table(coarse), table(fine)):
        assert row_fine[:pet_col] + row_fine[pet_col + 1:] == row_coarse[:pet_col] + row_coarse[pet_col + 1:]
    diagonal = [row for row in table(fine) if row[0] == "diagonal"]
    assert diagonal[0][pet_col] == ""
    assert [row for row in table(coarse) if row[0] == "diagonal"][0][pet_col] != ""
    counts = json.loads((fine / "manifest.json").read_text())["counts"]
    assert counts["pet_grid_too_fine"] == 1
    assert json.loads((coarse / "manifest.json").read_text())["counts"]["pet_grid_too_fine"] == 0


def test_filter_collisions_help_names_whole_scenarios(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "filter-collisions drop scenarios containing footprint overlap" in text
    assert "drop events" not in text


def test_jobs_give_each_worker_one_contiguous_run(tmp_path):
    equal = [f"s{i}" for i in range(4)]
    rows = [row for sid in equal for row in _head_on_rows(sid)] + _crossing_rows() + _crash_rows()
    src = tmp_path / "corpus.csv"
    src.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    with open(src, encoding="utf-8") as fh:
        scenarios = parse_canonical(fh).scenarios
    for jobs in range(1, 9):
        runs = _runs(scenarios, jobs)
        assert 1 <= len(runs) <= jobs and all(runs)
        assert [s for run in runs for s in run] == scenarios
    assert [[s.scenario_id for s in run] for run in _runs(scenarios[2:], 2)] == [["s0", "s1"], ["s2", "s3"]]
    tables = set()
    for jobs in (1, 2, 3):
        assert main(["events", "--input", str(src), "--out", str(tmp_path / f"j{jobs}"), "--jobs", str(jobs)]) == EXIT_OK
        tables.add((tmp_path / f"j{jobs}" / "events.csv").read_text())
    assert len(tables) == 1


def test_jobs_worker_error_is_raised_in_the_parent(tmp_path, monkeypatch):
    import conflictmetrics.cli as cli

    src = tmp_path / "corpus.csv"
    src.write_text("\n".join([HEADER] + _head_on_rows("s0") + _head_on_rows("s1")) + "\n", encoding="utf-8")
    with open(src, encoding="utf-8") as fh:
        scenarios = parse_canonical(fh).scenarios
    real = cli.corpus_events

    def failing(run, cfg, skipped):
        if run[0].scenario_id == "s0":  # the first run, which a forked worker takes
            raise ValueError("scenario s0 failed")
        return real(run, cfg, skipped)

    monkeypatch.setattr(cli, "corpus_events", failing)
    with pytest.raises(ValueError, match="scenario s0 failed"):
        cli._collect_events(scenarios, MetricsConfig(), 2)


def _three_runs(tmp_path):
    src = tmp_path / "corpus.csv"
    src.write_text("\n".join([HEADER] + [row for sid in ("s0", "s1", "s2") for row in _head_on_rows(sid)]) + "\n",
                   encoding="utf-8")
    with open(src, encoding="utf-8") as fh:
        scenarios = parse_canonical(fh).scenarios
    assert len(_runs(scenarios, 3)) == 3
    return src, scenarios


@pytest.mark.parametrize("die,message", [
    (lambda: os._exit(3), r"events worker \d+ exited with code 3 without sending its result"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), r"events worker \d+ was killed by signal 9 without sending its result"),
], ids=["exit", "signal"])
def test_jobs_worker_that_dies_is_named_and_every_worker_reaped(tmp_path, monkeypatch, die, message):
    import conflictmetrics.cli as cli

    _, scenarios = _three_runs(tmp_path)
    real = cli.corpus_events

    def dying(run, cfg, skipped):
        if run[0].scenario_id == "s0":  # the first worker's run
            die()
        return real(run, cfg, skipped)

    monkeypatch.setattr(cli, "corpus_events", dying)
    with pytest.raises(RuntimeError, match=message):
        cli._collect_events(scenarios, MetricsConfig(), 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_error_in_the_own_run_propagates_and_reaps_every_worker(tmp_path, monkeypatch):
    import conflictmetrics.cli as cli

    _, scenarios = _three_runs(tmp_path)
    real = cli.corpus_events

    def failing(run, cfg, skipped):
        if run[0].scenario_id == "s2":  # the last run, which this process takes
            raise ValueError("scenario s2 failed")
        return real(run, cfg, skipped)

    monkeypatch.setattr(cli, "corpus_events", failing)
    with pytest.raises(ValueError, match="scenario s2 failed"):
        cli._collect_events(scenarios, MetricsConfig(), 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_above_1_without_fork_is_a_usage_error(tmp_path, corpus_file, capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(SystemExit) as exc:
        main(["events", "--input", str(corpus_file), "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("argument --jobs: must be 1 where os.fork is unavailable, got '2'")
    assert "Traceback" not in err
    assert main(["events", "--input", str(corpus_file), "--out", str(tmp_path / "out"), "--jobs", "1"]) == EXIT_OK


def test_parallel_events_import_no_multiprocessing(tmp_path, corpus_file):
    run = ("import sys\n"
           "import conflictmetrics.cli as cli\n"
           "code = cli.main(['events', '--input', sys.argv[1], '--out', sys.argv[2], '--jobs', '2'])\n"
           "print(code, *(name in sys.modules for name in ('multiprocessing', 'socket', 'subprocess')))\n")
    with open(corpus_file, encoding="utf-8") as fh:
        assert len(_runs(parse_canonical(fh).scenarios, 2)) == 2
    proc = _run_fresh(run, str(corpus_file), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(EXIT_OK), "False", "False", "False"]


def test_parallel_events_write_what_was_buffered_before_once(tmp_path, monkeypatch):
    """Text buffered before the workers start is written by this process
    alone, though each worker writes and flushes text of its own."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)  # so stdout and stderr buffer
    src, _ = _three_runs(tmp_path)
    run = ("import sys\n"
           "import conflictmetrics.cli as cli\n"
           "real = cli.corpus_events\n"
           "def noisy(run, cfg, skipped):\n"
           "    print('run', run[0].scenario_id, flush=True)\n"
           "    print('run', run[0].scenario_id, file=sys.stderr, flush=True)\n"
           "    return real(run, cfg, skipped)\n"
           "cli.corpus_events = noisy\n"
           "print('buffered')\n"
           "sys.stderr.write('partial ')\n"
           "sys.exit(cli.main(['events', '--input', sys.argv[1], '--out', sys.argv[2], '--jobs', '3']))\n")
    proc = _run_fresh(run, str(src), str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.count("buffered") == 1 and proc.stderr.count("partial") == 1
    assert sorted(proc.stdout.splitlines()) == ["buffered", "run s0", "run s1", "run s2"]


def test_parallel_events_stderr_does_not_depend_on_jobs(tmp_path):
    """Diagnostics of the parse and of PET in a worker's run read the same
    at every --jobs."""
    src = tmp_path / "corpus.csv"
    rows = _diagonal_rows() + _head_on_rows("s1") + _head_on_rows("s2") + ["s2,A,vehicle,9.9,x,0.0,10.0,0.0,4.0,2.0"]
    src.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    with open(src, encoding="utf-8") as fh:
        assert len(_runs(parse_canonical(fh).scenarios, 3)) == 3
    run = "import sys\nimport conflictmetrics.cli as cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    errs = set()
    for jobs in ("1", "2", "3"):
        proc = _run_fresh(run, "events", "--input", str(src), "--out", str(tmp_path / jobs), "--pet-grid", "0.005",
                          "--jobs", jobs)
        assert proc.returncode == EXIT_OK, proc.stderr
        errs.add(proc.stderr)
    (err,) = errs
    assert "could not convert string to float: 'x'" in err and "pet_grid=0.005" in err


def test_diagnostics_name_only_the_scenario_and_line_they_know(tmp_path, capsys):
    """A row diagnostic names its line, a scenario-level one its scenario, a
    dataset track's repeated timestep both; nothing absent is printed."""
    src = tmp_path / "in.csv"
    rows = _head_on_rows(frames=5) + ["head_on,A,vehicle,0.5,x,0.0,10.0,0.0,4.0,2.0",
                                      "head_on,A,vehicle,0.9,9.0,0.0,10.0,0.0,4.0,2.0"]
    src.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    assert main(["events", "--input", str(src), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        "warning: line 12: could not convert string to float: 'x'",
        "warning: head_on: gap in agent A track between t=0.4 and t=0.9",
    ]

    export = tmp_path / "export.csv"
    rows = [f"c1,AV,av,{i},{0.5 * i},0.0,5.0,0.0,0.0,4.5,2.0" for i in range(3)] + ["c1,AV,av,1,9.0,0.0,5.0,0.0,0.0,4.5,2.0"]
    export.write_text("\n".join(["case_id,track_id,object_category,timestep,x,y,vx,vy,psi_rad,length,width"] + rows) + "\n",
                      encoding="utf-8")
    main(["events", "--input", str(export), "--format", "dataset", "--out", str(tmp_path / "d")])
    assert capsys.readouterr().err.splitlines()[0] == "warning: c1 line 5: track AV: duplicate timestep 1; later row dropped"


def test_every_traced_layer_resolves_after_importing_the_cli():
    """The traced benchmark (bench/traced.py) imports conflictmetrics.cli and
    then looks up each of its LAYERS in the package's modules with no
    default; a layer function renamed away or a module the CLI no longer
    imports would end its run. Checked in a fresh interpreter, so the
    modules loaded are exactly those the CLI loads."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    check = ("import sys\n"
             "import conflictmetrics.cli, conflictmetrics.metrics\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import traced\n"
             "for home, attr in traced.LAYERS:\n"
             "    assert callable(getattr(sys.modules[f'conflictmetrics.{home}'], attr)), (home, attr)\n"
             "print(len(traced.LAYERS))\n")
    proc = _run_fresh(check, bench)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
