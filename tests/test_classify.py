import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictmetrics.classify import (
    CollisionRemoval,
    RiskLevel,
    classify_frame,
    extract_event,
    filter_collision_scenarios,
)
from conflictmetrics.metrics import AgentState, FrameMetrics, MetricsConfig
from conflictmetrics.trajio import Scenario
import event_reference


def frame(t=0.0, in_depth=None, tem=None, mei=None, act=None, q=True, overlap=False):
    return FrameMetrics(
        t=t,
        in_depth=in_depth,
        tem=tem,
        mei=mei,
        act=act,
        q_active=q,
        overlap=overlap,
        d_ct=None,
        d_a=None,
        d_b=None,
    )


class TestClassifyFrame:
    def test_q_false_is_non_conflict(self, cfg):
        fm = frame(q=False, tem=0.5, in_depth=3.0)
        assert classify_frame(fm, cfg) == RiskLevel.NON_CONFLICT

    def test_critical_conditions(self, cfg):
        fm = frame(q=True, tem=2.0, in_depth=1.0)
        assert classify_frame(fm, cfg) == RiskLevel.CRITICAL_CONFLICT

    def test_overlap_is_crash(self, cfg):
        fm = frame(overlap=True, tem=0.0)
        assert classify_frame(fm, cfg) == RiskLevel.CRASH

    def test_q_without_critical_geometry_is_potential(self, cfg):
        assert classify_frame(frame(q=True, tem=5.0, in_depth=1.0), cfg) == RiskLevel.POTENTIAL_CONFLICT
        assert classify_frame(frame(q=True, tem=2.0, in_depth=-0.5), cfg) == RiskLevel.POTENTIAL_CONFLICT
        assert classify_frame(frame(q=True), cfg) == RiskLevel.POTENTIAL_CONFLICT

    def test_tem_threshold_is_closed(self, cfg):
        assert classify_frame(frame(q=True, tem=3.0, in_depth=0.0), cfg) == RiskLevel.CRITICAL_CONFLICT

    def test_monotone_in_tem(self, cfg):
        # With Q held and non-negative depth, decreasing tem never lowers risk.
        tems = [6.0, 3.5, 3.0, 1.0, 0.25]
        levels = [classify_frame(frame(q=True, tem=t, in_depth=0.5), cfg) for t in tems]
        assert levels == sorted(levels)

    def test_level_ordering(self):
        assert (
            RiskLevel.NON_CONFLICT
            < RiskLevel.POTENTIAL_CONFLICT
            < RiskLevel.CRITICAL_CONFLICT
            < RiskLevel.CRASH
        )


class TestExtractEvent:
    def test_argmax_with_timestamps(self, cfg):
        frames = [
            frame(t=0.0, mei=0.1, act=2.0, tem=2.5, in_depth=0.2),
            frame(t=1.0, mei=0.5, act=1.0, tem=2.0, in_depth=1.0),
            frame(t=2.0, mei=0.3, act=1.5, tem=2.2, in_depth=0.6),
        ]
        event = extract_event("s1", ("A", "B"), frames, pet=None, cfg=cfg)
        assert event.mei_max == 0.5
        assert event.t_mei_max == 1.0
        assert event.act_min == 1.0
        assert event.t_act_min == 1.0
        assert event.peak_level == RiskLevel.CRITICAL_CONFLICT
        assert event.frame_count == 3

    def test_ties_break_earliest(self, cfg):
        frames = [frame(t=0.0, mei=0.5), frame(t=1.0, mei=0.5)]
        event = extract_event("s1", ("A", "B"), frames, pet=None, cfg=cfg)
        assert event.t_mei_max == 0.0

    def test_all_undefined_aggregates(self, cfg):
        frames = [frame(t=0.0, q=False), frame(t=1.0, q=False)]
        event = extract_event("s1", ("A", "B"), frames, pet=None, cfg=cfg)
        assert event.mei_max is None
        assert event.t_mei_max is None
        assert event.act_min is None
        assert event.peak_level == RiskLevel.NON_CONFLICT

    def test_empty_rejected(self, cfg):
        with pytest.raises(ValueError):
            extract_event("s1", ("A", "B"), [], pet=None, cfg=cfg)

    def test_frame_order_irrelevant(self, cfg):
        frames = [
            frame(t=2.0, mei=0.3, act=1.5),
            frame(t=0.0, mei=0.1, act=2.0),
            frame(t=1.0, mei=0.5, act=1.0),
        ]
        forward = extract_event("s1", ("A", "B"), frames, None, cfg)
        backward = extract_event("s1", ("A", "B"), list(reversed(frames)), None, cfg)
        assert forward == backward

    def test_peak_critical_iff_some_critical_frame_and_no_crash(self, cfg):
        critical = frame(t=0.0, tem=1.0, in_depth=0.5)
        benign = frame(t=1.0, tem=9.0, in_depth=-1.0)
        crash = frame(t=2.0, overlap=True)
        event = extract_event("s", ("A", "B"), [benign, critical], None, cfg)
        assert event.peak_level == RiskLevel.CRITICAL_CONFLICT
        event = extract_event("s", ("A", "B"), [benign, critical, crash], None, cfg)
        assert event.peak_level == RiskLevel.CRASH
        event = extract_event("s", ("A", "B"), [benign], None, cfg)
        assert event.peak_level == RiskLevel.POTENTIAL_CONFLICT


# values on both sides of the two tem_star values drawn, signed zeros for
# ties, undefined values and any other float
TEM_STARS = (0.5, 3.0)
edges = [x for star in TEM_STARS for x in (math.nextafter(star, 0.0), star, math.nextafter(star, math.inf))]
values = st.none() | st.sampled_from([0.0, -0.0, 1.0, -1.0, *edges]) | st.floats(allow_nan=False)
frame_metrics = st.builds(
    FrameMetrics,
    t=st.sampled_from([0.0, -0.0, 0.1, 0.2, 1.5]) | st.floats(allow_nan=False, allow_infinity=False),
    in_depth=values, tem=values, mei=values, act=values,
    q_active=st.booleans(), overlap=st.booleans(),
    d_ct=values, d_a=values, d_b=values,
)


def bits(value):
    """A float as its hex form, so -0.0 and 0.0 differ."""
    return value.hex() if isinstance(value, float) else value


@settings(max_examples=400, deadline=None)
@given(st.lists(frame_metrics, min_size=1, max_size=8), st.sampled_from(TEM_STARS), st.none() | st.floats())
def test_one_pair_calls_equal_the_frame_walk(frames, tem_star, pet):
    cfg = MetricsConfig(tem_star=tem_star)
    for fm in frames:
        level = classify_frame(fm, cfg)
        assert type(level) is RiskLevel and level == event_reference.classify_frame(fm, cfg)
    got = extract_event("s", ("A", "B"), frames, pet, cfg)
    expected = event_reference.extract_event("s", ("A", "B"), frames, pet, cfg)
    assert [bits(v) for v in dataclasses.astuple(got)] == [bits(v) for v in dataclasses.astuple(expected)]
    assert type(got.peak_level) is RiskLevel


def pair_scenario(scenario_id, b_positions):
    """A at the origin, B at each (t, x, y) in turn; both 4 x 2 m, heading east."""
    return Scenario(scenario_id, {
        "A": [AgentState("A", t, 0.0, 0.0, 5.0, 0.0, 4.0, 2.0) for t, _, _ in b_positions],
        "B": [AgentState("B", t, x, y, 5.0, 0.0, 4.0, 2.0) for t, x, y in b_positions],
    })


class TestFilterCollisionScenarios:
    def test_scenario_with_overlap_removed_at_first_overlap(self):
        colliding = pair_scenario("s1", [(0.0, 10.0, 0.0), (1.0, 3.0, 0.0), (2.0, 1.0, 0.0)])
        clean = pair_scenario("s2", [(0.0, 10.0, 0.0), (1.0, 9.0, 0.0)])
        kept, removed = filter_collision_scenarios([colliding, clean])
        assert kept == [clean]
        assert removed == [CollisionRemoval("s1", ("A", "B"), 1.0)]

    def test_grazing_contact_counts(self):
        # B alongside A with the long sides touching: the gap is exactly 0
        kept, removed = filter_collision_scenarios([pair_scenario("s1", [(0.0, 0.0, 5.0), (0.5, 0.0, 2.0)])])
        assert kept == []
        assert removed == [CollisionRemoval("s1", ("A", "B"), 0.5)]

    def test_near_miss_retained(self):
        scenario = pair_scenario("s1", [(0.0, 4.05, 0.0)])
        assert filter_collision_scenarios([scenario]) == ([scenario], [])

    def test_clean_corpus_is_noop_and_sorted(self):
        corpus = [pair_scenario(f"s{i}", [(0.0, 10.0 + i, 0.0)]) for i in (3, 1, 4, 0, 2)]
        kept, removed = filter_collision_scenarios(corpus)
        assert [s.scenario_id for s in kept] == ["s0", "s1", "s2", "s3", "s4"]
        assert removed == []
