"""Risk-level classification, per-event aggregation and the collision filter.

The four-level frame classification gates everything on the conflict
predicate Q: frames failing Q are Non-Conflict regardless of geometry, a
frame with footprint contact is a Crash, and the remaining frames split into
Critical (evasive time at most tem_star with non-negative intrusion depth)
versus Potential conflicts.

classify_frame and extract_event are the one-pair reference on FrameMetrics;
corpus_events and filter_collision_scenarios compute the same results for a
whole corpus on metric columns, one kernel pass per chunk of joined pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .metrics import ContactRegion, FrameMetrics, MetricsConfig, PetGridError, frame_columns, joined_pairs, pets

if TYPE_CHECKING:
    from .trajio import Scenario


class RiskLevel(IntEnum):
    NON_CONFLICT = 0
    POTENTIAL_CONFLICT = 1
    CRITICAL_CONFLICT = 2
    CRASH = 3

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    RiskLevel.NON_CONFLICT: "NonConflict",
    RiskLevel.POTENTIAL_CONFLICT: "PotentialConflict",
    RiskLevel.CRITICAL_CONFLICT: "CriticalConflict",
    RiskLevel.CRASH: "Crash",
}


def classify_frame(fm: FrameMetrics, cfg: MetricsConfig = MetricsConfig()) -> RiskLevel:
    """Risk level of one frame.

    Crash detection is geometric (footprint overlap) rather than the limit
    conditions tem -> 0 / mei -> inf, which are its analytic shadows.
    """
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


@dataclass(frozen=True)
class ConflictEvent:
    """Per-(scenario, agent-pair) aggregate of a frame stream."""

    scenario_id: str
    agent_pair: tuple[str, str]
    mei_max: float | None
    t_mei_max: float | None
    act_min: float | None
    t_act_min: float | None
    pet: float | None
    peak_level: RiskLevel
    frame_count: int


def extract_event(
    scenario_id: str,
    agent_pair: tuple[str, str],
    frames: Sequence[FrameMetrics],
    pet: float | None,
    cfg: MetricsConfig = MetricsConfig(),
) -> ConflictEvent:
    """Aggregate frame metrics into one event.

    Undefined per-frame values are skipped, not treated as zero; ties in the
    max/min are broken by the earliest timestamp. Raises on an empty stream.
    """
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


def classify_frames(columns: dict[str, np.ndarray], cfg: MetricsConfig = MetricsConfig()) -> np.ndarray:
    """classify_frame over the metric columns of many frames (frame_columns):
    one RiskLevel value per frame, as integers."""
    return np.select(
        [columns["overlap"], ~columns["q_active"], (columns["tem"] <= cfg.tem_star) & (columns["in_depth"] >= 0.0)],
        [RiskLevel.CRASH, RiskLevel.NON_CONFLICT, RiskLevel.CRITICAL_CONFLICT],
        RiskLevel.POTENTIAL_CONFLICT,
    )


def _first_extreme(values: np.ndarray, starts: np.ndarray, reduce: np.ufunc) -> list[int]:
    """Per segment of values (segments begin at starts), the index of the
    first defined value equal to the segment's extreme under reduce
    (np.maximum or np.minimum), NaN being undefined; len(values) for a
    segment without a defined value. This is extract_event's strict
    comparison walk: the earliest frame wins a tie."""
    defined = ~np.isnan(values)
    filled = np.where(defined, values, -np.inf if reduce is np.maximum else np.inf)
    extreme = np.repeat(reduce.reduceat(filled, starts), np.diff(starts, append=len(values)))
    index = np.where(defined & (filled == extreme), np.arange(len(values)), len(values))
    return np.minimum.reduceat(index, starts).tolist()


def corpus_events(
    scenarios: Iterable[Scenario],
    cfg: MetricsConfig = MetricsConfig(),
    pet_skipped: list[tuple[str, str, str, str]] | None = None,
) -> list[ConflictEvent]:
    """The event of every pair with common frames, scenario by scenario in
    Scenario.pairs order: bit for bit extract_event of compute_pair_frames
    with the pair's pet, computed as one kernel pass (frame_columns), a few
    segment reductions and one PET pass (pets) per chunk of joined pairs. A
    pair whose PET raster would be too fine gets pet None and, when
    pet_skipped is given, an entry (scenario_id, agent_a, agent_b, message)
    there."""
    events = []
    pairs = (((s, pair), s.agents[pair[0]], s.agents[pair[1]]) for s in scenarios for pair in s.pairs())
    for keys, a, b, bounds in joined_pairs(pairs):
        columns = frame_columns(a, b, cfg)
        pet_values = pets([(s.agents[pair[0]], s.agents[pair[1]]) for s, pair in keys], cfg)
        starts = bounds[:-1]
        at_mei = _first_extreme(columns["mei"], starts, np.maximum)
        at_act = _first_extreme(columns["act"], starts, np.minimum)
        peaks = np.maximum.reduceat(classify_frames(columns, cfg), starts).tolist()
        # one trailing None stands for "no defined value" (index len(a))
        t, mei, act = ([*columns[name].tolist(), None] for name in ("t", "mei", "act"))
        for (scenario, pair), i_mei, i_act, peak, count, pet in zip(
                keys, at_mei, at_act, peaks, np.diff(bounds).tolist(), pet_values):
            if isinstance(pet, PetGridError):
                if pet_skipped is not None:
                    pet_skipped.append((scenario.scenario_id, *pair, str(pet)))
                pet = None
            events.append(ConflictEvent(
                scenario_id=scenario.scenario_id,
                agent_pair=pair,
                mei_max=mei[i_mei],
                t_mei_max=t[i_mei],
                act_min=act[i_act],
                t_act_min=t[i_act],
                pet=pet,
                peak_level=RiskLevel(peak),
                frame_count=count,
            ))
    return events


@dataclass(frozen=True, order=True)
class CollisionRemoval:
    """One pair with footprint overlap and its first overlapping frame time."""

    scenario_id: str
    agent_pair: tuple[str, str]
    first_overlap_t: float


def filter_collision_scenarios(scenarios: Sequence[Scenario]) -> tuple[list[Scenario], list[CollisionRemoval]]:
    """Drop every scenario in which the footprints of some pair overlap at a
    common frame; grazing contact counts (closed test). Returns the kept
    scenarios, sorted by id, and one sorted CollisionRemoval per overlapping
    pair. The overlap test is one ContactRegion pass per chunk of joined
    pairs."""
    removals = []
    pairs = (((s.scenario_id, pair), s.agents[pair[0]], s.agents[pair[1]]) for s in scenarios for pair in s.pairs())
    for keys, a, b, bounds in joined_pairs(pairs):
        overlap = ContactRegion(a, b).overlap
        starts = bounds[:-1]
        hit = np.logical_or.reduceat(overlap, starts).tolist()
        first = np.minimum.reduceat(np.where(overlap, a.t, np.inf), starts).tolist()
        removals.extend(CollisionRemoval(*key, t) for key, h, t in zip(keys, hit, first) if h)
    removals.sort()
    removed = {r.scenario_id for r in removals}
    kept = sorted((s for s in scenarios if s.scenario_id not in removed), key=lambda s: s.scenario_id)
    return kept, removals
