"""TrackArrays as the track type: the columns read as a sequence of AgentState."""

import math
import pickle
import re

import numpy as np
import pytest

from conflictmetrics.metrics import AGENT_TYPES, AgentState, TrackArrays
from conflictmetrics.trajio import Scenario, parse_canonical, serialize_canonical

HEADER = "scenario_id,agent_id,agent_type,t,x,y,speed,heading,length,width"


def _states(rng: np.random.Generator, n: int = 12) -> list[AgentState]:
    return [
        AgentState("a7", round(0.1 * i, 1), *rng.uniform(-50, 50, 2).tolist(), float(rng.uniform(0, 20)),
                   float(rng.uniform(-math.pi, math.pi)), *rng.uniform(0.5, 5, 2).tolist(),
                   agent_type=AGENT_TYPES[int(rng.integers(len(AGENT_TYPES)))])
        for i in range(n)
    ]


def test_sequence_view_gives_the_source_states():
    states = _states(np.random.default_rng(3))
    track = TrackArrays.from_states(states)
    assert len(track) == len(states)
    assert all(track[i] == states[i] for i in range(len(states)))
    assert track[-1] == states[-1] and track[-len(states)] == states[0]
    assert list(track) == states
    assert track[2:5] == states[2:5] and isinstance(track[2:5], TrackArrays)
    with pytest.raises(IndexError):
        track[len(states)]


def test_equality_against_lists_from_both_sides():
    states = _states(np.random.default_rng(4))
    track = TrackArrays.from_states(states)
    assert track == states and states == track
    assert track == tuple(states) and track != states[:-1]
    assert track == TrackArrays.from_states(states)
    assert TrackArrays.from_states([]) == []


def test_one_ulp_or_one_agent_type_breaks_equality():
    states = _states(np.random.default_rng(5))
    track = TrackArrays.from_states(states)
    s = states[6]
    nudged = states[:6] + [AgentState(s.agent_id, s.t, math.nextafter(s.x, math.inf), s.y, s.v, s.heading,
                                      s.length, s.width, s.agent_type)] + states[7:]
    other_type = next(t for t in AGENT_TYPES if t != s.agent_type)
    retyped = states[:6] + [AgentState(s.agent_id, s.t, s.x, s.y, s.v, s.heading, s.length, s.width,
                                       other_type)] + states[7:]
    for changed in (nudged, retyped):
        assert track != changed and changed != track
        assert track != TrackArrays.from_states(changed)


def test_parsed_scenario_pickles_smaller_than_its_state_lists():
    rng = np.random.default_rng(6)
    rows = []
    for agent in ("AV", "1", "2"):
        for i in range(60):
            x, y, v, h = rng.uniform(-1, 1, 2).tolist() + rng.uniform(0, 1, 2).tolist()
            rows.append(f"s1,{agent},vehicle,{0.1 * i:.1f},{x!r},{y!r},{v!r},{h!r},4.5,1.9")
    rows += [f"s1,P,pedestrian,{0.1 * i:.1f},{0.5 * i},1.0,0.8,0.3,," for i in range(60)]
    (scenario,) = parse_canonical("\n".join([HEADER] + rows) + "\n").scenarios
    assert all(isinstance(track, TrackArrays) for track in scenario.agents.values())
    as_lists = Scenario(scenario.scenario_id, {a: list(t) for a, t in scenario.agents.items()}, scenario.dt)
    shipped = pickle.dumps(scenario)
    assert len(shipped) < len(pickle.dumps(as_lists))
    back = pickle.loads(shipped)
    assert back.agents == as_lists.agents
    assert all(np.array_equal(back.agents[a].cos_h, t.cos_h) for a, t in scenario.agents.items())
    assert serialize_canonical([back]) == serialize_canonical([as_lists])


@pytest.mark.parametrize("column, value", [
    ("x", math.nan), ("heading", math.inf), ("v", -0.5), ("length", 0.0), ("width", -1.0),
])
def test_check_raises_what_agent_state_raises(column, value):
    states = _states(np.random.default_rng(8))
    columns = {name: [getattr(s, name) for s in states] for name in
               ("t", "x", "y", "v", "heading", "length", "width", "agent_type")}
    columns[column][4] = value
    track = TrackArrays.from_columns("a7", *columns.values())
    with pytest.raises(ValueError) as expected:
        AgentState("a7", *(columns[name][4] for name in columns))
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        track.check()
    assert TrackArrays.from_states(states).check() == states


def test_timestamps_beyond_the_int64_clock_are_rejected():
    states = [AgentState("a", 1e15, 0.0, 0.0, 1.0, 0.0, 4.0, 2.0)]
    with pytest.raises(ValueError, match="t must be within"):
        TrackArrays.from_states(states)
