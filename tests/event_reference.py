"""Frame-by-frame walks of the track rule, the common-frames rule, the risk
classification and the event reduction: the reference for the join of
metrics.joined_pairs, for classify.classify_frames and for the segment
reduction that classify.corpus_events and classify.extract_event share.

A track is read by the track rule as a dict from timestamp to its first
frame, sorted by timestamp; a pair's common frames are a's frames in time
order whose timestamp b holds. Each frame is classified on its own
FrameMetrics, and an event is one strict-comparison walk over the frames in
time order, so an undefined (None) value is skipped and the earliest frame
wins a tie. The array path must give the same frames, the same levels and
the same ConflictEvents, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from conflictmetrics.classify import ConflictEvent, RiskLevel
from conflictmetrics.metrics import AgentState, FrameMetrics, MetricsConfig


def by_time(track: Sequence[AgentState]) -> list[AgentState]:
    """The track by the track rule: the first frame of each timestamp, in
    time order."""
    first: dict[int, AgentState] = {}
    for state in track:
        first.setdefault(state.t_dms, state)
    return [first[t_dms] for t_dms in sorted(first)]


def common_frames(track_a: Sequence[AgentState], track_b: Sequence[AgentState]
                  ) -> list[tuple[AgentState, AgentState]]:
    """The common frames of a pair: each frame of a, by the track rule, whose
    timestamp b holds, with b's frame there."""
    at = {state.t_dms: state for state in by_time(track_b)}
    return [(state, at[state.t_dms]) for state in by_time(track_a) if state.t_dms in at]


def classify_frame(fm: FrameMetrics, cfg: MetricsConfig = MetricsConfig()) -> RiskLevel:
    if fm.overlap:
        return RiskLevel.CRASH
    if not fm.q_active:
        return RiskLevel.NON_CONFLICT
    if (
        fm.tem is not None
        and fm.tem <= cfg.tem_star
        and fm.in_depth is not None
        and fm.in_depth >= 0.0
    ):
        return RiskLevel.CRITICAL_CONFLICT
    return RiskLevel.POTENTIAL_CONFLICT


def extract_event(
    scenario_id: str,
    agent_pair: tuple[str, str],
    frames: Sequence[FrameMetrics],
    pet: float | None,
    cfg: MetricsConfig = MetricsConfig(),
) -> ConflictEvent:
    if not frames:
        raise ValueError("cannot extract an event from an empty frame list")
    ordered = sorted(frames, key=lambda fm: fm.t)
    mei_max = t_mei_max = None
    act_min = t_act_min = None
    peak = RiskLevel.NON_CONFLICT
    for fm in ordered:
        if fm.mei is not None and (mei_max is None or fm.mei > mei_max):
            mei_max, t_mei_max = fm.mei, fm.t
        if fm.act is not None and (act_min is None or fm.act < act_min):
            act_min, t_act_min = fm.act, fm.t
        level = classify_frame(fm, cfg)
        if level > peak:
            peak = level
    return ConflictEvent(
        scenario_id=scenario_id,
        agent_pair=agent_pair,
        mei_max=mei_max,
        t_mei_max=t_mei_max,
        act_min=act_min,
        t_act_min=t_act_min,
        pet=pet,
        peak_level=peak,
        frame_count=len(ordered),
    )
