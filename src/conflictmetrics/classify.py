"""Risk-level classification, per-event aggregation and the collision filter.

The four-level frame classification gates everything on the conflict
predicate Q: frames failing Q are Non-Conflict regardless of geometry, a
frame with footprint contact is a Crash, and the remaining frames split into
Critical (evasive time at most tem_star with non-negative intrusion depth)
versus Potential conflicts.

The rule is stated once on metric columns (classify_frames) and the event
reduction once on segments of them (_reduce). corpus_events and
filter_collision_scenarios run them for a whole corpus, one kernel pass per
chunk of joined pairs; classify_frame and extract_event are their one-frame
and one-pair calls on FrameMetrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .metrics import (ContactRegion, FrameMetrics, MetricsConfig, PetGridError, _chunks, _join, _pets, frame_columns,
                      joined_pairs)

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
    """Risk level of one frame: classify_frames of its columns."""
    return RiskLevel(classify_frames(_columns([fm]), cfg).item())


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
    """Aggregate frame metrics into one event: the frames, stably sorted by
    time, as one segment of _reduce. Raises on an empty stream."""
    if not frames:
        raise ValueError("cannot extract an event from an empty frame list")
    ordered = sorted(frames, key=lambda fm: fm.t)
    ((mei_max, t_mei_max, act_min, t_act_min, peak, count),) = _reduce(_columns(ordered), np.zeros(1, np.int64), cfg)
    return ConflictEvent(scenario_id, agent_pair, mei_max, t_mei_max, act_min, t_act_min, pet, peak, count)


def _columns(frames: Sequence[FrameMetrics]) -> dict[str, np.ndarray]:
    """The fields of frames that classify_frames and _reduce read, as
    columns; an undefined (None) value becomes NaN."""
    columns = {name: np.array([getattr(fm, name) for fm in frames], dtype=np.float64)
               for name in ("t", "in_depth", "tem", "mei", "act")}
    columns.update({name: np.array([getattr(fm, name) for fm in frames], dtype=bool)
                    for name in ("q_active", "overlap")})
    return columns


def classify_frames(columns: dict[str, np.ndarray], cfg: MetricsConfig = MetricsConfig()) -> np.ndarray:
    """The risk level of each frame of metric columns (frame_columns), as
    integers. Crash detection is geometric (footprint overlap) rather than
    the limit conditions tem -> 0 / mei -> inf, which are its analytic
    shadows; an undefined (NaN) tem or in_depth is never critical."""
    return np.select(
        [columns["overlap"], ~columns["q_active"], (columns["tem"] <= cfg.tem_star) & (columns["in_depth"] >= 0.0)],
        [RiskLevel.CRASH, RiskLevel.NON_CONFLICT, RiskLevel.CRITICAL_CONFLICT],
        RiskLevel.POTENTIAL_CONFLICT,
    )


def _first_extreme(values: np.ndarray, starts: np.ndarray, reduce: np.ufunc) -> list[int]:
    """Per segment of values (segments begin at starts), the index of the
    first defined value equal to the segment's extreme under reduce
    (np.maximum or np.minimum), NaN being undefined; len(values) for a
    segment without a defined value. The earliest frame wins a tie."""
    defined = ~np.isnan(values)
    filled = np.where(defined, values, -np.inf if reduce is np.maximum else np.inf)
    extreme = np.repeat(reduce.reduceat(filled, starts), np.diff(starts, append=len(values)))
    index = np.where(defined & (filled == extreme), np.arange(len(values)), len(values))
    return np.minimum.reduceat(index, starts).tolist()


def _reduce(columns: dict[str, np.ndarray], starts: np.ndarray, cfg: MetricsConfig
            ) -> list[tuple[float | None, float | None, float | None, float | None, RiskLevel, int]]:
    """Per segment of time-ordered metric columns (segments begin at starts):
    (mei_max, t_mei_max, act_min, t_act_min, peak level, frame count).
    Undefined values are skipped, not treated as zero; ties in the max/min
    go to the earliest frame, and a segment without a defined value gives
    None and None."""
    at_mei = _first_extreme(columns["mei"], starts, np.maximum)
    at_act = _first_extreme(columns["act"], starts, np.minimum)
    peaks = np.maximum.reduceat(classify_frames(columns, cfg), starts).tolist()
    counts = np.diff(starts, append=len(columns["t"])).tolist()
    # one trailing None stands for "no defined value" (index len(t))
    t, mei, act = ([*columns[name].tolist(), None] for name in ("t", "mei", "act"))
    return [(mei[i], t[i], act[j], t[j], RiskLevel(peak), count)
            for i, j, peak, count in zip(at_mei, at_act, peaks, counts)]


def corpus_events(
    scenarios: Iterable[Scenario],
    cfg: MetricsConfig = MetricsConfig(),
    pet_skipped: list[tuple[str, str, str, str]] | None = None,
) -> list[ConflictEvent]:
    """The event of every pair with common frames, scenario by scenario in
    Scenario.pairs order: per chunk of joined pairs, one stack of its tracks
    for one kernel pass (frame_columns), one _reduce and one PET pass. A
    pair whose PET raster would be too fine gets pet None and, when
    pet_skipped is given, an entry (scenario_id, agent_a, agent_b, message)
    there."""
    events = []
    pairs = (((s.scenario_id, pair), s.agents[pair[0]], s.agents[pair[1]]) for s in scenarios for pair in s.pairs())
    for keys, chunk in _chunks(pairs):
        joined, starts, a, b = _join(chunk)
        reduced = _reduce(frame_columns(a, b, cfg), starts, cfg)
        for k, (mei_max, t_mei_max, act_min, t_act_min, peak, count), pet in zip(
                joined.tolist(), reduced, _pets(chunk, joined, cfg)):
            scenario_id, pair = keys[k]
            if isinstance(pet, PetGridError):
                if pet_skipped is not None:
                    pet_skipped.append((scenario_id, *pair, str(pet)))
                pet = None
            events.append(ConflictEvent(scenario_id, pair, mei_max, t_mei_max, act_min, t_act_min, pet, peak, count))
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
