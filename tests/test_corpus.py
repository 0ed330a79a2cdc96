"""The corpus pass against the one-pair reference.

corpus_events joins the common frames of many pairs into one kernel pass
and reduces the events on arrays; the reference walks the FrameMetrics of
compute_pair_frames one pair at a time (event_reference.extract_event). The
two must give the same ConflictEvents bit for bit, and classify_frames the
same level as event_reference.classify_frame on every frame.
filter_collision_scenarios must agree with the overlap flags of
compute_pair_frames.
"""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictmetrics import metrics
from conflictmetrics.classify import CollisionRemoval, classify_frames, corpus_events, filter_collision_scenarios
from conflictmetrics.metrics import (MAX_T_S, AgentState, MetricsConfig, compute_pair_frames, frame_columns,
                                    joined_pairs, pet)
from conflictmetrics.trajio import Scenario, parse_canonical, serialize_canonical
from event_reference import by_time, classify_frame, common_frames, extract_event

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"

CONFIGS = (
    MetricsConfig(),
    MetricsConfig(d_safe=0.5),
    MetricsConfig(q_predicate="always_true"),
    MetricsConfig(mei_cap=0.5),
    MetricsConfig(d_safe=0.5, q_predicate="always_true", mei_cap=0.2),
)


def reference_events(scenarios, cfg):
    events = []
    for scenario in scenarios:
        for pair in scenario.pairs():
            track_a, track_b = scenario.agents[pair[0]], scenario.agents[pair[1]]
            frames = compute_pair_frames(track_a, track_b, cfg)
            if frames:
                two = len(by_time(track_a)) >= 2 and len(by_time(track_b)) >= 2
                value = pet(track_a, track_b, cfg) if two else None
                events.append(extract_event(scenario.scenario_id, pair, frames, value, cfg))
    return events


def bits(events):
    """Events with every float as its hex form, so -0.0 and 0.0 differ."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(e)) for e in events]


def keyed_pairs(scenarios):
    return [((s.scenario_id, pair), s.agents[pair[0]], s.agents[pair[1]]) for s in scenarios for pair in s.pairs()]


def _fields(state):
    """Every field of a frame but the agent id, which joined tracks drop."""
    return (state.t, state.x, state.y, state.v, state.heading, state.length, state.width, state.agent_type)


def assert_join_matches_walk(scenarios):
    """joined_pairs gives each pair with common frames, in order, with the
    frames of event_reference.common_frames on both sides."""
    pairs = [(k, a, b) for k, (_, a, b) in enumerate(keyed_pairs(scenarios))]
    expected = [(k, [(_fields(sa), _fields(sb)) for sa, sb in common_frames(a, b)]) for k, a, b in pairs]
    got = []
    for keys, a, b, bounds in joined_pairs(pairs):
        assert bounds[0] == 0 and bounds[-1] == len(a) == len(b) and len(bounds) == len(keys) + 1
        for k, lo, hi in zip(keys, bounds.tolist(), bounds[1:].tolist()):
            got.append((k, [(_fields(sa), _fields(sb)) for sa, sb in zip(a[lo:hi], b[lo:hi])]))
    assert got == [(k, frames) for k, frames in expected if frames]


def assert_corpus_matches_reference(scenarios, cfg):
    assert bits(corpus_events(scenarios, cfg)) == bits(reference_events(scenarios, cfg))
    expected = [classify_frame(fm, cfg) for _, a, b in keyed_pairs(scenarios) for fm in compute_pair_frames(a, b, cfg)]
    got = [level for _, a, b, _ in joined_pairs(keyed_pairs(scenarios))
           for level in classify_frames(frame_columns(a, b, cfg), cfg).tolist()]
    assert got == expected


# ---------------------------------------------------------------------------
# hypothesis: small scenarios with every degenerate case the reduction meets
# ---------------------------------------------------------------------------

poses = st.tuples(
    st.integers(-20, 20).map(lambda k: 0.5 * k),   # x
    st.integers(-20, 20).map(lambda k: 0.5 * k),   # y
    st.sampled_from([0.0, 1.0, 5.0, 10.0]),        # speed
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, 0.3, -2.5]),
)


@st.composite
def scenarios(draw):
    """2-4 agents whose frames repeat poses (ties in MEI and ACT), may share
    one velocity (no relative motion: every value undefined), repeat
    timestamps, come in any order, or hold one frame."""
    shared = draw(st.none() | st.tuples(st.sampled_from([1.0, 5.0]), st.sampled_from([0.0, 0.3])))
    agents = {}
    for k in range(draw(st.integers(2, 4))):
        agent_id = f"a{k}"
        pool = draw(st.lists(poses, min_size=1, max_size=3))
        steps = draw(st.lists(st.integers(0, 6), min_size=1, max_size=8))
        length, width = draw(st.sampled_from([(4.0, 2.0), (0.6, 0.6), (12.0, 2.5)]))
        track = []
        for step in steps:
            x, y, v, h = draw(st.sampled_from(pool))
            if shared is not None:
                v, h = shared
            track.append(AgentState(agent_id, step / 10, x, y, v, h, length, width))
        agents[agent_id] = track
    return Scenario(scenario_id=draw(st.sampled_from(["s1", "s2"])), agents=agents)


@settings(max_examples=150, deadline=None)
@given(st.lists(scenarios(), min_size=1, max_size=3), st.sampled_from(CONFIGS), st.sampled_from([1, 3, 1024]))
def test_corpus_events_equal_the_one_pair_reference(corpus, cfg, batch_frames):
    with mock.patch.object(metrics, "KERNEL_BATCH_FRAMES", batch_frames):
        assert_corpus_matches_reference(corpus, cfg)


@settings(max_examples=150, deadline=None)
@given(st.lists(scenarios(), min_size=1, max_size=3), st.sampled_from([1, 3, 1024]))
def test_joined_pairs_equal_the_common_frames_walk(corpus, batch_frames):
    with mock.patch.object(metrics, "KERNEL_BATCH_FRAMES", batch_frames):
        assert_join_matches_walk(corpus)


@settings(max_examples=100, deadline=None)
@given(st.lists(scenarios(), min_size=1, max_size=3), st.sampled_from(CONFIGS))
def test_library_and_cli_read_hand_built_tracks_alike(corpus, cfg):
    """The library normalizes a hand-built track by the rule the canonical
    parser applies to the rows it is written as."""
    corpus = [dataclasses.replace(s, scenario_id=f"s{k}") for k, s in enumerate(corpus)]
    parsed = parse_canonical(serialize_canonical(corpus)).scenarios

    def by_key(events):
        return bits(sorted(events, key=lambda e: (e.scenario_id, e.agent_pair)))

    assert by_key(corpus_events(corpus, cfg)) == by_key(corpus_events(parsed, cfg))
    assert filter_collision_scenarios(corpus)[1] == filter_collision_scenarios(parsed)[1]


@settings(max_examples=100, deadline=None)
@given(st.lists(scenarios(), min_size=1, max_size=3), st.sampled_from([1, 5, 1024]))
def test_collision_filter_equals_the_one_pair_overlap_view(corpus, batch_frames):
    expected = []
    for (scenario_id, pair), a, b in keyed_pairs(corpus):
        hits = [fm.t for fm in compute_pair_frames(a, b) if fm.overlap]
        if hits:
            expected.append(CollisionRemoval(scenario_id, pair, min(hits)))
    with mock.patch.object(metrics, "KERNEL_BATCH_FRAMES", batch_frames):
        kept, removals = filter_collision_scenarios(corpus)
    assert removals == sorted(expected)
    removed = {r.scenario_id for r in expected}
    assert kept == sorted((s for s in corpus if s.scenario_id not in removed), key=lambda s: s.scenario_id)


def _still(agent_id, times, x, y, v=5.0, heading=0.0):
    return [AgentState(agent_id, t, x, y, v, heading, 4.0, 2.0) for t in times]


def test_ties_undefined_values_single_frames_and_repeated_timestamps():
    ties = Scenario("ties", {"A": _still("A", [0.0, 0.1, 0.2], 0.0, 0.0),
                             "B": _still("B", [0.0, 0.1, 0.2], 30.0, 0.0, heading=math.pi)})
    undefined = Scenario("undefined", {"A": _still("A", [0.0, 0.1], 0.0, 0.0),
                                       "B": _still("B", [0.0, 0.1], 30.0, 5.0)})
    single = Scenario("single", {"A": _still("A", [0.0, 0.1], 0.0, 0.0),
                                 "B": _still("B", [0.1, 0.2], 20.0, 0.0, heading=math.pi)})
    repeated = Scenario("repeated", {
        "A": [*_still("A", [0.1], 2.0, 0.0), *_still("A", [0.0, 0.1], 0.0, 0.0)],
        "B": _still("B", [0.1, 0.1, 0.0], 30.0, 0.0, heading=math.pi),
    })
    corpus = [ties, undefined, single, repeated]
    for cfg in CONFIGS:
        assert_corpus_matches_reference(corpus, cfg)
    by_id = {e.scenario_id: e for e in corpus_events(corpus)}
    assert by_id["ties"].t_mei_max == by_id["ties"].t_act_min == 0.0 and by_id["ties"].frame_count == 3
    assert (by_id["undefined"].mei_max, by_id["undefined"].act_min) == (None, None)
    assert by_id["single"].frame_count == 1
    assert by_id["repeated"].frame_count == 2


# a step of 2^40 in t_dms, in seconds
T40 = 2**40 / 1e4


def test_negative_and_large_timestamps_join_exactly():
    """Timestamps on which a (track, t_dms) code of track * 2^40 + t_dms
    would collide: A holds T40 where B does not but C holds 0, and the
    negative ones and those near MAX_T_S overlap any such code. Each track
    is given unsorted and with a repeat."""
    far = MAX_T_S - 1.0
    base = [-far, -T40, -1.5, 0.0, 0.1, T40, far]
    scenario = Scenario("far", {
        "A": _still("A", [T40, *base[::-1], 0.1], 0.0, 0.0),
        "B": _still("B", [0.1, 0.0, -far, 0.0, -1.5], 30.0, 0.0, heading=math.pi),
        "C": _still("C", [far, 0.1, 0.0, far, -T40], 0.0, -30.0, heading=math.pi / 2),
    })
    for cfg in CONFIGS:
        assert_corpus_matches_reference([scenario], cfg)
    assert_join_matches_walk([scenario])
    counts = {e.agent_pair: e.frame_count for e in corpus_events([scenario])}
    assert counts == {("A", "B"): 4, ("A", "C"): 4, ("B", "C"): 2}


def test_canonical_file_far_from_the_epoch_joins_exactly():
    """A file just below MAX_T_S = 1e11 s parses to t_dms near 1e15, far
    above 2^40."""
    rows = [f"s,{agent},vehicle,{MAX_T_S - 2.0 + 0.5 * k!r},{x + v * 0.5 * k},{y},{abs(v)},{h},4.0,2.0"
            for agent, ks, x, y, v, h in (("A", range(4), 0.0, 0.0, 10.0, 0.0),
                                          ("B", range(4), 40.0, 0.5, -10.0, math.pi),
                                          ("C", (1, 3), 20.0, -30.0, 0.0, math.pi / 2))
            for k in ks]
    result = parse_canonical("\n".join(["scenario_id,agent_id,agent_type,t,x,y,speed,heading,length,width", *rows]))
    (scenario,) = result.scenarios
    assert int(scenario.agents["A"].t_dms[0]) > 2**49
    for cfg in CONFIGS:
        assert_corpus_matches_reference([scenario], cfg)
    assert_join_matches_walk([scenario])
    assert [e.frame_count for e in corpus_events([scenario])] == [4, 2, 2]


# ---------------------------------------------------------------------------
# the seed-1 benchmark corpora
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_corpus(tmp_path_factory):
    """The canonical corpus of a benchmark workload at seed 1, written by the
    benchmark's generator in its own interpreter."""

    def load(workload):
        out = tmp_path_factory.mktemp(workload)
        subprocess.run([sys.executable, str(GEN), "--workload", workload, "--seed", "1", "--out", str(out)],
                       check=True, capture_output=True)
        with open(out / "corpus.csv", encoding="utf-8") as fh:
            return parse_canonical(fh).scenarios

    return load


@pytest.mark.parametrize("workload,d_safe", [("corpus_events", 0.0), ("sweep_parallel", 0.5)])
def test_benchmark_corpus_events_equal_the_one_pair_reference(bench_corpus, workload, d_safe):
    corpus = bench_corpus(workload)
    for cfg in (MetricsConfig(d_safe=d_safe), MetricsConfig(d_safe=0.5 - d_safe, q_predicate="always_true"),
                MetricsConfig(d_safe=d_safe, mei_cap=0.5)):
        assert_corpus_matches_reference(corpus, cfg)


def test_benchmark_collision_filter_equals_the_one_pair_overlap_view(bench_corpus):
    corpus = bench_corpus("dataset_filter")
    expected = []
    for (scenario_id, pair), a, b in keyed_pairs(corpus):
        hits = [fm.t for fm in compute_pair_frames(a, b) if fm.overlap]
        if hits:
            expected.append(CollisionRemoval(scenario_id, pair, min(hits)))
    kept, removals = filter_collision_scenarios(corpus)
    assert removals == expected and len(removals) > 10
    assert [s.scenario_id for s in kept] == sorted({s.scenario_id for s in corpus} - {r.scenario_id for r in removals})
