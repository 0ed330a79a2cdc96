import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictmetrics.metrics import AgentState
from conflictmetrics.trajio import (
    SchemaError,
    adapt_external,
    derive_kinematics,
    format_time,
    normalize_heading,
    parse_canonical,
    resample,
    serialize_canonical,
    Scenario,
    write_canonical,
)

HEADER = "scenario_id,agent_id,agent_type,t,x,y,speed,heading,length,width"


class TestNormalizeHeading:
    def test_wraps_above(self):
        assert normalize_heading(7.0) == pytest.approx(7.0 - 2 * math.pi)

    def test_pi_maps_to_pi(self):
        assert normalize_heading(math.pi) == math.pi
        assert normalize_heading(-math.pi) == math.pi

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_range_and_idempotence(self, h):
        r = normalize_heading(h)
        assert -math.pi < r <= math.pi
        assert normalize_heading(r) == r


class TestParseCanonical:
    def test_minimal_file(self):
        text = f"{HEADER}\ns1,A,vehicle,0.0,0,0,5,0,4,2\ns1,A,vehicle,0.1,0.5,0,5,0,4,2\n"
        result = parse_canonical(text)
        assert result.issues == []
        assert len(result.scenarios) == 1
        scenario = result.scenarios[0]
        assert list(scenario.agents) == ["A"]
        assert len(scenario.agents["A"]) == 2
        assert scenario.dt == pytest.approx(0.1)

    def test_heading_normalized(self):
        text = f"{HEADER}\ns1,A,vehicle,0.0,0,0,5,7.0,4,2\n"
        state = parse_canonical(text).scenarios[0].agents["A"][0]
        assert state.heading == pytest.approx(7.0 - 2 * math.pi)

    def test_negative_speed_is_row_error(self):
        text = f"{HEADER}\ns1,A,vehicle,0.0,0,0,-1,0,4,2\n"
        result = parse_canonical(text)
        assert result.scenarios == []
        assert len(result.issues) == 1
        assert "speed" in result.issues[0].message

    def test_non_finite_value_reports_line_number(self):
        text = f"{HEADER}\n# comment\ns1,A,vehicle,0.0,nan,0,5,0,4,2\n"
        result = parse_canonical(text)
        assert result.issues[0].line == 3
        assert "x" in result.issues[0].message

    def test_missing_column_raises_schema_error(self):
        text = "scenario_id,agent_id,agent_type,t,x,y,speed,heading,length\ns1,A,vehicle,0,0,0,5,0,4\n"
        with pytest.raises(SchemaError, match="width"):
            parse_canonical(text)

    def test_pedestrian_dimensions_default(self):
        text = f"{HEADER}\ns1,P,pedestrian,0.0,0,0,1.2,0,,\n"
        state = parse_canonical(text).scenarios[0].agents["P"][0]
        assert (state.length, state.width) == (0.6, 0.6)

    def test_vehicle_missing_dimensions_is_row_error(self):
        text = f"{HEADER}\ns1,A,vehicle,0.0,0,0,5,0,,\n"
        result = parse_canonical(text)
        assert result.scenarios == []
        assert "pedestrian" in result.issues[0].message

    def test_excess_time_precision_rejected(self):
        text = f"{HEADER}\ns1,A,vehicle,0.00005,0,0,5,0,4,2\n"
        result = parse_canonical(text)
        assert "decimal" in result.issues[0].message

    def test_comments_and_blank_lines_skipped(self):
        text = f"# top comment\n{HEADER}\n\n# mid comment\ns1,A,vehicle,0.0,0,0,5,0,4,2\n"
        assert len(parse_canonical(text).scenarios) == 1

    def test_duplicate_timestamp_flagged_and_dropped(self):
        text = (
            f"{HEADER}\ns1,A,vehicle,0.0,0,0,5,0,4,2\n"
            "s1,A,vehicle,0.0,1,0,5,0,4,2\ns1,A,vehicle,0.1,2,0,5,0,4,2\n"
        )
        result = parse_canonical(text)
        assert len(result.scenarios[0].agents["A"]) == 2
        assert any("duplicate" in issue.message for issue in result.issues)

    def test_gap_flagged(self):
        text = (
            f"{HEADER}\ns1,A,vehicle,0.0,0,0,5,0,4,2\n"
            "s1,A,vehicle,0.1,1,0,5,0,4,2\ns1,A,vehicle,0.5,2,0,5,0,4,2\n"
        )
        result = parse_canonical(text)
        assert any("gap" in issue.message for issue in result.issues)


# ids as the readers keep them (not empty, no surrounding whitespace, no line
# end), with the commas, quotes and leading '#' that the writer must quote
_IDS = st.text(alphabet='ab1 ,"#', min_size=1, max_size=5).filter(lambda s: s == s.strip())


@st.composite
def scenarios(draw):
    n_agents = draw(st.integers(min_value=1, max_value=3))
    n_frames = draw(st.integers(min_value=1, max_value=6))
    coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    agents = {}
    for agent_id in draw(st.lists(_IDS, min_size=n_agents, max_size=n_agents, unique=True)):
        states = []
        for i in range(n_frames):
            states.append(
                AgentState(
                    agent_id=agent_id,
                    t=round(i * 0.1, 1),
                    x=draw(coord),
                    y=draw(coord),
                    v=draw(st.floats(min_value=0, max_value=40, allow_nan=False)),
                    heading=normalize_heading(draw(st.floats(min_value=-10, max_value=10, allow_nan=False))),
                    length=draw(st.floats(min_value=0.1, max_value=20, allow_nan=False)),
                    width=draw(st.floats(min_value=0.1, max_value=20, allow_nan=False)),
                    agent_type=draw(st.sampled_from(["vehicle", "pedestrian", "cyclist", "other"])),
                )
            )
        agents[agent_id] = states
    return Scenario(scenario_id=draw(_IDS), agents=agents, dt=0.1)


class TestRoundTrip:
    @settings(max_examples=100)
    @given(scenarios())
    def test_parse_serialize_is_exact(self, scenario):
        text = serialize_canonical([scenario])
        stream = io.StringIO()
        write_canonical([scenario], stream)
        assert stream.getvalue() == text
        result = parse_canonical(text)
        assert result.scenarios[0].scenario_id == scenario.scenario_id
        assert result.scenarios[0].agents == scenario.agents

    def test_format_time_trims(self):
        assert format_time(1000) == "0.1"
        assert format_time(54000) == "5.4"
        assert format_time(0) == "0.0"
        assert format_time(333) == "0.0333"


def _track(n, dt_s=0.1, x_step=1.0):
    return [
        AgentState("A", round(i * dt_s * 1e4) / 1e4, i * x_step, 0.0, 5.0, 0.0, 4.0, 2.0)
        for i in range(n)
    ]


class TestResample:
    def test_linear_midpoint(self):
        track = [
            AgentState("A", 0.0, 0.0, 0.0, 5.0, 0.0, 4, 2),
            AgentState("A", 1.0, 10.0, 0.0, 5.0, 0.0, 4, 2),
        ]
        scenario = Scenario("s1", {"A": track}, dt=1.0)
        out = resample(scenario, 0.5)
        assert [s.t for s in out.agents["A"]] == [0.0, 0.5, 1.0]
        assert out.agents["A"][1].x == pytest.approx(5.0)

    def test_heading_wraps_through_pi(self):
        track = [
            AgentState("A", 0.0, 0.0, 0.0, 5.0, 3.0, 4, 2),
            AgentState("A", 0.1, 1.0, 0.0, 5.0, -3.0, 4, 2),
        ]
        scenario = Scenario("s1", {"A": track}, dt=0.1)
        mid = resample(scenario, 0.05).agents["A"][1]
        assert abs(mid.heading) == pytest.approx(math.pi, abs=1e-9)

    def test_native_spacing_is_identity(self):
        scenario = Scenario("s1", {"A": _track(5)}, dt=0.1)
        out = resample(scenario, 0.1)
        assert out.agents == scenario.agents

    def test_idempotent(self):
        track = [
            AgentState("A", 0.0, 0.0, 0.0, 5.0, 0.1, 4, 2),
            AgentState("A", 0.13, 1.0, 0.4, 5.5, 0.2, 4, 2),
            AgentState("A", 0.31, 2.0, 0.9, 6.0, 0.3, 4, 2),
        ]
        scenario = Scenario("s1", {"A": track}, dt=0.1)
        once = resample(scenario, 0.1)
        twice = resample(once, 0.1)
        assert once.agents == twice.agents

    def test_no_extrapolation(self):
        track = [
            AgentState("A", 0.05, 0.0, 0.0, 5.0, 0.0, 4, 2),
            AgentState("A", 0.25, 2.0, 0.0, 5.0, 0.0, 4, 2),
        ]
        scenario = Scenario("s1", {"A": track}, dt=0.1)
        out = resample(scenario, 0.1)
        assert [s.t for s in out.agents["A"]] == [0.1, 0.2]

    def test_single_frame_rejected(self):
        scenario = Scenario("s1", {"A": _track(1)}, dt=0.1)
        with pytest.raises(ValueError):
            resample(scenario, 0.1)


class TestDeriveKinematics:
    def test_constant_velocity(self):
        positions = [(0.0, 0.0, 0.0), (0.1, 1.0, 0.0), (0.2, 2.0, 0.0)]
        kin = derive_kinematics(positions)
        assert all(s == pytest.approx(10.0) for s, _ in kin)
        assert all(h == pytest.approx(0.0) for _, h in kin)

    def test_stationary_inherits_heading(self):
        positions = [(0.0, 0.0, 0.0), (0.1, 1.0, 1.0), (0.2, 1.0, 1.0), (0.3, 1.0, 1.0)]
        kin = derive_kinematics(positions)
        assert kin[3][0] == pytest.approx(0.0)
        assert kin[3][1] == pytest.approx(math.pi / 4)


DATASET_HEADER = "case_id,track_id,object_category,timestep,x,y,vx,vy,psi_rad,length,width"


def _dataset_csv(tmp_path, rows, header=DATASET_HEADER, name="export.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return str(path)


class TestAdaptExternal:
    def _scenario_rows(self, case="c1", frames=110):
        rows = []
        for i in range(frames):
            rows.append(f"{case},AV,vehicle,{i},{0.5 * i},0.0,5.0,0.0,0.0,4.5,2.0")
            rows.append(f"{case},1,pedestrian,{i},10.0,{-5.0 + 0.1 * i},0.0,1.0,1.5708,,")
        return rows

    def test_scenario_with_av_and_agent(self, tmp_path):
        path = _dataset_csv(tmp_path, self._scenario_rows())
        result = adapt_external([path])
        assert len(result.scenarios) == 1
        scenario = result.scenarios[0]
        assert sorted(scenario.agents) == ["1", "AV"]
        assert len(scenario.agents["AV"]) == 110
        assert scenario.agents["AV"][-1].t == pytest.approx(10.9)
        ped = scenario.agents["1"][0]
        assert (ped.length, ped.width) == (0.6, 0.6)
        assert ped.agent_type == "pedestrian"
        assert ped.v == pytest.approx(1.0)

    def test_missing_av_skipped_with_diagnostic(self, tmp_path):
        rows = [r for r in self._scenario_rows() if ",AV," not in r]
        path = _dataset_csv(tmp_path, rows)
        result = adapt_external([path])
        assert result.scenarios == []
        assert any("no AV track" in issue.message for issue in result.issues)

    def test_missing_column_rejected(self, tmp_path):
        path = _dataset_csv(
            tmp_path,
            ["c1,AV,vehicle,0,0.0,0.0"],
            header="case_id,track_id,object_category,timestep,x,y"[: -2] + ",x",
        )
        with pytest.raises(SchemaError):
            adapt_external([path])

    def test_velocity_derived_heading_without_psi(self, tmp_path):
        header = "case_id,track_id,object_category,timestep,x,y,vx,vy"
        rows = [
            "c1,AV,vehicle,0,0.0,0.0,3.0,3.0",
            "c1,AV,vehicle,1,0.3,0.3,3.0,3.0",
            "c1,2,vehicle,0,9.0,9.0,0.0,0.0",
            "c1,2,vehicle,1,9.0,9.0,0.0,0.0",
        ]
        # track 2 must come with dimensions to survive; append columns
        header += ",length,width"
        rows = [r + ",4.0,2.0" for r in rows]
        path = _dataset_csv(tmp_path, rows, header=header)
        result = adapt_external([path])
        av = result.scenarios[0].agents["AV"][0]
        assert av.heading == pytest.approx(math.pi / 4)
        assert av.v == pytest.approx(math.hypot(3, 3))
        assert any("near-zero-speed" in issue.message for issue in result.issues)

    def test_positions_only_uses_central_differences(self, tmp_path):
        header = "case_id,track_id,object_category,timestep,x,y,length,width"
        rows = [f"c1,AV,vehicle,{i},{1.0 * i},0.0,4.0,2.0" for i in range(5)]
        path = _dataset_csv(tmp_path, rows, header=header)
        av_track = adapt_external([path]).scenarios[0].agents["AV"]
        assert av_track[2].v == pytest.approx(10.0)
        assert av_track[2].heading == pytest.approx(0.0)

    def test_duplicate_timestep_dropped_with_diagnostic(self, tmp_path):
        rows = self._scenario_rows(frames=5)
        rows.append("c1,AV,vehicle,2,99.0,99.0,5.0,0.0,0.0,4.5,2.0")
        path = _dataset_csv(tmp_path, rows)
        result = adapt_external([path])
        track = result.scenarios[0].agents["AV"]
        assert [s.t_dms for s in track] == sorted({s.t_dms for s in track})
        assert any("duplicate timestep" in issue.message for issue in result.issues)

    def test_non_pedestrian_without_dims_skipped(self, tmp_path):
        header = "case_id,track_id,object_category,timestep,x,y,vx,vy,psi_rad,length,width"
        rows = [
            "c1,AV,vehicle,0,0,0,5,0,0,4.0,2.0",
            "c1,AV,vehicle,1,0.5,0,5,0,0,4.0,2.0",
            "c1,7,vehicle,0,5,0,5,0,0,,",
            "c1,7,vehicle,1,5.5,0,5,0,0,,",
        ]
        path = _dataset_csv(tmp_path, rows)
        result = adapt_external([path])
        assert sorted(result.scenarios[0].agents) == ["AV"]
        assert any("missing dimensions" in issue.message for issue in result.issues)


EVERY_ROW_ERROR = [
    "# every row error, then a repeated timestamp and a gap",
    HEADER,
    "s1,A,vehicle,0.0,0,0,5,0,4,2",
    "s1,A,vehicle,0.1,0.5,0,5,0,4,2",
    "",
    " ,A,vehicle,0.2,1,0,5,0,4,2",
    "s1,A,truck,0.2,1,0,5,0,4,2",
    "s1,A,vehicle,abc,1,0,5,0,4,2",
    "s1,A,vehicle,nan,1,0,5,0,4,2",
    "s1,A,vehicle,-0.1,1,0,5,0,4,2",
    "s1,A,vehicle,0.1234,1,0,5,0,4,2",
    "s1,A,vehicle,0.2,inf,0,5,0,4,2",
    "s1,A,vehicle,0.2,1,-inf,5,0,4,2",
    "s1,A,vehicle,0.2,1,0,nan,0,4,2",
    "s1,A,vehicle,0.2,1,0,-1,0,4,2",
    "s1,A,vehicle,0.2,1,0,5,NaN,4,2",
    "s1,A,vehicle,0.2,1,0,5,0,,2",
    "s1,A,vehicle,0.2,1,0,5,0,inf,2",
    "s1,A,vehicle,0.2,1,0,5,0,4,nan",
    "s1,A,vehicle,0.2,1,0,5,0,0,2",
    "s1,A,vehicle,0.2,1,0,5",
    's1,A,vehicle,0.2,"1,0,5,0,4,2',
    "   # indented comment",
    "s1,A,vehicle,0.1,9,9,5,0,4,2",
    "s1,A,vehicle,0.5,2.5,0,5,0,4,2",
    "s1,B,pedestrian,0.0,3,3,1,0,,",
    "s1,B,pedestrian,0.3,3,3.3,1,0,,",
    "s1,B,pedestrian,0.3,3,3.6,1,0,,",
]


def test_parse_diagnostics_are_pinned():
    """Every row-error kind, in file order with its line (blank and comment
    lines count; a quote left open ends with its line), then the
    scenario-level repeated timestamps and gaps."""
    result = parse_canonical("\n".join(EVERY_ROW_ERROR) + "\n")
    assert [(i.line, i.scenario_id, i.message) for i in result.issues] == [
        (6, None, "scenario_id and agent_id must be non-empty"),
        (7, None, "unknown agent_type: 'truck'"),
        (8, None, "could not convert string to float: 'abc'"),
        (9, None, "non-finite t: 'nan'"),
        (10, None, "t must be >= 0, got -0.1"),
        (11, None, "t has more than 3 decimal places: 0.1234"),
        (12, None, "non-finite x: 'inf'"),
        (13, None, "non-finite y: '-inf'"),
        (14, None, "non-finite speed: 'nan'"),
        (15, None, "speed must be >= 0, got -1.0"),
        (16, None, "non-finite heading: 'NaN'"),
        (17, None, "length/width may be empty only for pedestrians"),
        (18, None, "non-finite length: 'inf'"),
        (19, None, "non-finite width: 'nan'"),
        (20, None, "length and width must be > 0"),
        (21, None, "list index out of range"),
        (22, None, "could not convert string to float: '1,0,5,0,4,2'"),
        (None, "s1", "duplicate timestamp t=0.1 for agent A; later row dropped"),
        (None, "s1", "duplicate timestamp t=0.3 for agent B; later row dropped"),
        (None, "s1", "gap in agent A track between t=0.1 and t=0.5"),
        (None, "s1", "gap in agent B track between t=0.0 and t=0.3"),
    ]
    (scenario,) = result.scenarios
    assert scenario.dt == 0.1
    assert [(s.t, s.x) for s in scenario.agents["A"]] == [(0.0, 0.0), (0.1, 0.5), (0.5, 2.5)]
    assert [(s.t, s.y) for s in scenario.agents["B"]] == [(0.0, 3.0), (0.3, 3.3)]


@pytest.mark.parametrize(
    "row,message",
    [
        ("s1,,vehicle,-1,0,0,5,0,4,2", "scenario_id and agent_id must be non-empty"),
        ("s1,A,vehicle,-1,0,0,-5,0,4,2", "t must be >= 0, got -1.0"),
        ("s1,A,vehicle,0.0, abc ,0,-5,0,4,2", "could not convert string to float: 'abc'"),
        ("s1,A,pedestrian,0.0,0,0,-5,0", "speed must be >= 0, got -5.0"),
        ("s1,A,pedestrian,0.0,0,0,5,0", "list index out of range"),
        ("s1,A,vehicle,0.0,0,0,5,0, ,nan", "length/width may be empty only for pedestrians"),
        ("s1,A,bike,inf,0,0,5,0,4,2", "unknown agent_type: 'bike'"),
    ],
)
def test_a_row_with_two_faults_reports_the_first_it_reads(row, message):
    """A row's cells are read in column order, each checked as it is read,
    so the first fault wins; a row short of a cell fails where that cell is
    read, as indexing it does, even a pedestrian's length."""
    result = parse_canonical(f"{HEADER}\n{row}\n")
    assert [(i.line, i.message) for i in result.issues] == [(2, message)]
    assert result.scenarios == []


def test_adapt_skips_only_the_track_with_a_malformed_cell(tmp_path):
    good = "{case},{track},{cat},{i},{x},0.0,5.0,0.0,{psi},{length},2.0"
    rows = []
    for i in range(5):
        rows.append(good.format(case="c1", track="AV", cat="av", i=i, x=0.5 * i, psi=0.0, length=4.5))
        rows.append(good.format(case="c1", track="ok", cat="car", i=i, x=20 + 0.5 * i, psi=0.0, length=4.5))
        bad = {
            "6": dict(x="abc" if i == 2 else 40.0),
            "7": dict(x="nan" if i == 3 else 50.0),
            "8": dict(psi="inf" if i == 1 else 0.0),
            "9": dict(length=0.0),
            "10": dict(i="1.5" if i == 4 else i),
        }
        for track, cells in bad.items():
            fields = dict(case="c1", track=track, cat="car", i=i, x=60.0, psi=0.0, length=4.5) | cells
            rows.append(good.format(**fields))
    result = adapt_external([_dataset_csv(tmp_path, rows)])
    (scenario,) = result.scenarios
    assert sorted(scenario.agents) == ["AV", "ok"]
    assert [s.x for s in scenario.agents["AV"]] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert len(scenario.agents["ok"]) == 5
    assert [(i.line, i.scenario_id, i.message) for i in result.issues] == [
        (None, "c1", f"track {track}: malformed data ({reason}); track skipped")
        for track, reason in (
            ("10", "invalid literal for int() with base 10: '1.5'"),
            ("6", "could not convert string to float: 'abc'"),
            ("7", "x must be finite for agent '7'"),
            ("8", "math domain error"),
            ("9", "footprint dimensions must be > 0"),
        )
    ]


def test_timestamps_beyond_the_clock_range_are_row_errors():
    text = f"{HEADER}\ns1,A,vehicle,0.0,0,0,5,0,4,2\ns1,A,vehicle,1e15,0,0,5,0,4,2\ns1,A,vehicle,1e306,0,0,5,0,4,2\n"
    result = parse_canonical(text)
    assert [(i.line, i.message) for i in result.issues] == [
        (3, "t must be < 1e+14, got 1000000000000000.0"),
        (4, "t must be < 1e+14, got 1e+306"),
    ]
    assert len(result.scenarios[0].agents["A"]) == 1


def test_open_quote_ends_with_its_line_however_much_text_follows():
    """A quote left open never swallows later lines, so the csv module's
    field size limit (131,072 characters) cannot be reached."""
    rows = [f"s1,A,vehicle,{i / 10:.1f},{i},0,5,0,4,2" for i in range(1, 6001)]
    assert sum(len(row) + 1 for row in rows) > 131_072
    text = "\n".join([HEADER, 's1,A,vehicle,0.0,"1,0,5,0,4,2', *rows]) + "\n"
    result = parse_canonical(text)
    assert [(i.line, i.message) for i in result.issues] == [
        (2, "could not convert string to float: '1,0,5,0,4,2'"),
    ]
    assert [s.x for s in result.scenarios[0].agents["A"]] == list(map(float, range(1, 6001)))


def test_adapt_timestep_bound_is_exclusive(tmp_path):
    """|timestep| must stay below 1e15, so its time stays below the 1e14 s
    clock limit; a track at the bound is skipped with one message."""
    row = "c1,{track},car,{step},0.0,0.0,5.0,0.0,0.0,4.5,2.0"
    steps = {"AV": (0, 1), "near": (10**15 - 2, 10**15 - 1), "at": (0, 10**15), "neg": (-(10**15), 0)}
    rows = [row.format(track=track, step=step) for track, pair in steps.items() for step in pair]
    result = adapt_external([_dataset_csv(tmp_path, rows)])
    (scenario,) = result.scenarios
    assert sorted(scenario.agents) == ["AV", "near"]
    assert [i.message for i in result.issues] == [
        f"track {track}: malformed data (timestep must be below 1000000000000000 in magnitude); track skipped"
        for track in ("at", "neg")
    ]


def test_adapt_single_frame_without_velocity_columns_is_skipped(tmp_path):
    """Central differences need two frames, so in a positions-only export a
    track of one frame is skipped, naming its line."""
    header = "case_id,track_id,object_category,timestep,x,y,length,width"
    rows = ["c1,AV,car,0,0.0,0.0,4.5,2.0", "c1,AV,car,1,0.5,0.0,4.5,2.0", "c1,B,car,0,9.0,0.0,4.5,2.0"]
    result = adapt_external([_dataset_csv(tmp_path, rows, header=header)])
    assert [(i.line, i.scenario_id, i.message) for i in result.issues] == [
        (4, "c1", "track B: single frame and no velocity columns; track skipped"),
    ]
    assert sorted(result.scenarios[0].agents) == ["AV"]


def test_adapt_psi_rad_without_velocity_columns_is_not_read(tmp_path):
    """psi_rad is read only beside vx and vy; without them speed and heading
    both come from positions, with no diagnostic."""
    header = "case_id,track_id,object_category,timestep,x,y,psi_rad,length,width"
    rows = [f"c1,AV,car,{i},0.0,{0.5 * i},1.0,4.5,2.0" for i in range(3)]
    result = adapt_external([_dataset_csv(tmp_path, rows, header=header)])
    assert result.issues == []
    track = result.scenarios[0].agents["AV"]
    assert [s.heading for s in track] == [math.pi / 2] * 3
    assert [s.v for s in track] == pytest.approx([5.0] * 3)


def test_adapt_track_across_exports_with_and_without_velocity_is_skipped(tmp_path):
    """A track whose records come from an export with vx/vy and one without
    is skipped, naming the line of its first record (by timestep) whose
    layout differs from its first record's, whichever export comes first."""
    vel = [f"{case},AV,car,{i},{0.5 * i},0.0,5.0,0.0,0.0,4.5,2.0" for case in ("c1", "c2") for i in range(4)]
    vel[4:4] = [f"c1,B,car,{i},{0.5 * i},9.0,5.0,0.0,0.0,4.5,2.0" for i in (0, 1)]  # lines 6-7
    vel += [f"c2,B,car,{i},{0.5 * i},9.0,5.0,0.0,0.0,4.5,2.0" for i in (2, 3)]  # lines 12-13
    pos = [f"{case},B,car,{i},{0.5 * i},9.0,4.5,2.0" for case, steps in (("c1", (2, 3)), ("c2", (0, 1))) for i in steps]
    paths = [_dataset_csv(tmp_path, vel, name="vel.csv"),
             _dataset_csv(tmp_path, pos, header="case_id,track_id,object_category,timestep,x,y,length,width",
                          name="pos.csv")]
    result = adapt_external(paths)
    assert [(i.line, i.scenario_id, i.message) for i in result.issues] == [
        (2, "c1", "track B: records mix layouts with and without vx/vy; track skipped"),
        (12, "c2", "track B: records mix layouts with and without vx/vy; track skipped"),
    ]
    assert [sorted(s.agents) for s in result.scenarios] == [["AV"], ["AV"]]


def test_adapt_short_row_is_a_row_diagnostic(tmp_path):
    """A row too short to reach its case_id or track_id cell is reported by
    line and skipped; the rest of the file still parses."""
    rows = [f"c1,AV,av,{i},{0.5 * i},0.0,5.0,0.0,0.0,4.5,2.0" for i in range(3)]
    rows += ["c1", f"c1,V,car,0,20.0,0.0,5.0,0.0,{math.pi},4.5,2.0"]
    result = adapt_external([_dataset_csv(tmp_path, rows)])
    assert [(i.line, i.scenario_id, i.message) for i in result.issues] == [
        (5, "c1", "row too short to hold case_id and track_id; row skipped"),
    ]
    (scenario,) = result.scenarios
    assert sorted(scenario.agents) == ["AV", "V"]
    assert [s.x for s in scenario.agents["AV"]] == [0.0, 0.5, 1.0]


def test_adapt_row_short_of_its_category_reads_it_empty(tmp_path):
    """A track's first row too short to reach object_category reads the
    category as empty, as a short row reads its dimensions, so the track is
    skipped with a diagnostic instead of ending the run."""
    path = _dataset_csv(tmp_path, ["c1,AV,0,0,0"], header="case_id,track_id,timestep,x,y,object_category,length,width")
    result = adapt_external([path])
    assert [(i.line, i.scenario_id, i.message) for i in result.issues] == [
        (2, "c1", "track AV: missing dimensions for non-pedestrian; track skipped"),
        (None, "c1", "AV track did not survive adaptation; scenario skipped"),
    ]
    assert result.scenarios == []


def test_adapt_open_quote_ends_with_its_line(tmp_path):
    """A dataset row whose quote is never closed ends with its line (one
    record per line, as in the canonical parser), so the 3,000 rows after it
    parse instead of running into the csv field size limit."""
    rows = [f"c1,AV,av,{i},{0.5 * i},0.0,5.0,0.0,0.0,4.5,2.0" for i in range(1, 3001)]
    assert sum(len(row) + 1 for row in rows) > 131_072
    rows.insert(0, 'c1,V,car,0,"0.0,0,5,0,0,4.5,2')
    result = adapt_external([_dataset_csv(tmp_path, rows)])
    assert [(i.line, i.scenario_id, i.message) for i in result.issues] == [
        (2, "c1", "track V: missing dimensions for non-pedestrian; track skipped"),
    ]
    (scenario,) = result.scenarios
    assert [s.t for s in scenario.agents["AV"]] == [round(0.1 * i, 1) for i in range(1, 3001)]


def test_bare_carriage_returns_end_lines_as_in_the_cli(tmp_path):
    """Text with old Mac line ends (bare \\r) gives the rows and line numbers
    that the CLI's universal-newline read gives, however it is passed."""
    lines = [HEADER, "s1,A,vehicle,0.0,0,0,5,0,4,2", "s1,A,vehicle,0.1,x,0,5,0,4,2", "", "s1,A,vehicle,0.2,1,0,5,0,4,2"]
    path = tmp_path / "mac.csv"
    path.write_bytes("\r".join(lines).encode() + b"\r")

    def summary(result):
        return [(i.line, i.message) for i in result.issues], [[s.x for s in t] for t in result.scenarios[0].agents.values()]

    with open(path, encoding="utf-8") as fh:
        expected = summary(parse_canonical(fh))
    assert expected == ([(3, "could not convert string to float: 'x'")], [[0.0, 1.0]])
    with open(path, encoding="utf-8", newline="") as fh:
        assert summary(parse_canonical(fh.read())) == expected
    for newline in ("", "\n"):
        with open(path, encoding="utf-8", newline=newline) as fh:
            assert summary(parse_canonical(fh)) == expected


def _derive_kinematics_loop(positions):
    """Frame-by-frame central differences: the reference for derive_kinematics."""
    out, last_heading, n = [], 0.0, len(positions)
    for i in range(n):
        (t0, x0, y0), (t1, x1, y1) = positions[max(0, i - 1)], positions[min(n - 1, i + 1)]
        vx, vy = (x1 - x0) / (t1 - t0), (y1 - y0) / (t1 - t0)
        speed = math.hypot(vx, vy)
        if speed >= 1e-3:
            last_heading = math.atan2(vy, vx)
        out.append((speed, last_heading))
    return out


_COORD = st.one_of(st.sampled_from([0.0, 1e-5]), st.floats(-1e4, 1e4))  # repeats give near-zero speeds


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=30))
def test_derive_kinematics_matches_the_loop_exactly(points):
    positions = [(0.1 * i, x, y) for i, (x, y) in enumerate(points)]
    assert derive_kinematics(positions) == _derive_kinematics_loop(positions)


def test_derive_kinematics_rejects_repeated_timestamps():
    with pytest.raises(ValueError, match="timestamps repeat"):
        derive_kinematics([(0.0, 0.0, 0.0), (0.1, 1.0, 0.0), (0.0, 2.0, 0.0)])
