"""The batched contact-region kernel against the reference geometry path.

The reference path is the general-polygon code in geometry: TEM as the ray
entry into minkowski_sum(B0, reflected(A0)) by ray_polygon_span, ACT from
nearest_points on the absolute footprints, overlap by sat_overlap. The
kernel evaluates many frames in one call, so every property here runs a
whole batch of unrelated pairs through compute_pair_frames as the frames of
one pair track.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictmetrics import classify, metrics
from conflictmetrics.classify import corpus_events
from conflictmetrics.geometry import (
    OrientedBox,
    Vec2,
    corners,
    minkowski_sum,
    nearest_points,
    ray_polygon_span,
    reflected,
    sat_overlap,
)
from conflictmetrics.metrics import (
    AgentState,
    MetricsConfig,
    TrackArrays,
    act,
    compute_frame,
    compute_pair_frames,
    in_depth,
    pet,
    relative_kinematics,
    tem_ttc2d,
)
from conflictmetrics.trajio import Scenario
from helpers import close, random_agent

TOL = 1e-9
UTM_OFFSET = (5e5, 4.5e6)

angles = st.one_of(
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.sampled_from([math.pi, -math.pi, 0.0, math.pi / 2, -math.pi / 2]),
)
extents = st.floats(min_value=0.5, max_value=6.0)
speeds = st.floats(min_value=0.0, max_value=20.0)
coords = st.floats(min_value=-30.0, max_value=30.0)


def _state(agent_id, x, y, v, heading, length, width, t=0.0):
    return AgentState(agent_id, t, x, y, v, heading, length, width)


@st.composite
def pairs(draw):
    """A random pair, or one with parallel, anti-parallel or ±π headings, or
    with no relative motion at all."""
    kind = draw(st.sampled_from(["free", "parallel", "antiparallel", "plus_minus_pi", "same_velocity"]))
    hb = draw(angles)
    ha = {
        "free": draw(angles),
        "parallel": hb,
        "antiparallel": math.remainder(hb + math.pi, math.tau),
        "plus_minus_pi": math.pi,
        "same_velocity": hb,
    }[kind]
    if kind == "plus_minus_pi":
        hb = -math.pi
    vb = draw(speeds)
    va = vb if kind == "same_velocity" else draw(speeds)
    b = _state("b", draw(coords), draw(coords), vb, hb, draw(extents), draw(extents))
    a = _state("a", draw(coords), draw(coords), va, ha, draw(extents), draw(extents))
    return a, b


def _region_polygon(a, b):
    return minkowski_sum(
        OrientedBox(Vec2(0.0, 0.0), b.heading, b.length, b.width).polygon(),
        reflected(OrientedBox(Vec2(0.0, 0.0), a.heading, a.length, a.width).polygon()),
    )


@st.composite
def grazing_pairs(draw):
    """Pairs whose relative ray passes a vertex of the contact region at a
    lateral distance of 1e-7 to 1e-3 m, on either side, at least 3 degrees
    off both edges at that vertex: the collision course is decided by a
    hair, but the entry time is well conditioned."""
    # the ray's direction is drawn first and the speeds solved for it; a box
    # turned by pi has the same footprint, so a negative speed turns its
    # heading. Headings at least 4 degrees from parallel make every direction
    # reachable, and 4 degrees keep the 3 degree test clear of rounding.
    margin = math.radians(4.0)
    ha = draw(angles)
    hb = math.remainder(ha + draw(st.floats(min_value=margin, max_value=math.pi - margin)), math.tau)
    la, wa, lb, wb = (draw(extents) for _ in range(4))
    verts = _region_polygon(_state("a", 0.0, 0.0, 0.0, ha, la, wa), _state("b", 0.0, 0.0, 0.0, hb, lb, wb)).vertices
    k = draw(st.integers(min_value=0, max_value=len(verts) - 1))
    e1, e2 = verts[k] - verts[k - 1], verts[(k + 1) % len(verts)] - verts[k]
    # angle from e1, kept at least margin off both edge lines
    c = (math.atan2(e2.y, e2.x) - math.atan2(e1.y, e1.x)) % math.pi
    lo, hi = max(margin, c - margin), min(math.pi - margin, c + margin)
    off = draw(st.floats(min_value=margin, max_value=math.pi - margin - (hi - lo)))
    if off >= lo:
        off += hi - lo
    phi = math.atan2(e1.y, e1.x) + off + draw(st.sampled_from([0.0, math.pi]))
    # va * u_a - vb * u_b along phi, the faster agent at 1 to 20 m/s
    cross = math.sin(hb - ha)
    va = (math.cos(phi) * math.sin(hb) - math.sin(phi) * math.cos(hb)) / cross
    vb = (math.cos(phi) * math.sin(ha) - math.sin(phi) * math.cos(ha)) / cross
    scale = draw(st.floats(min_value=1.0, max_value=20.0)) / max(abs(va), abs(vb))
    va, vb = scale * va, scale * vb
    if va < 0.0:
        va, ha = -va, math.remainder(ha + math.pi, math.tau)
    if vb < 0.0:
        vb, hb = -vb, math.remainder(hb + math.pi, math.tau)
    _, v, theta = relative_kinematics(_state("a", 0.0, 0.0, va, ha, la, wa), _state("b", 0.0, 0.0, vb, hb, lb, wb))
    vertex = verts[k]
    offset = draw(st.sampled_from([1e-7, 1e-5, 1e-3])) * draw(st.sampled_from([-1.0, 1.0]))
    lead = draw(st.floats(min_value=0.5, max_value=4.0))
    px = vertex.x - theta.y * offset - lead * v.x
    py = vertex.y + theta.x * offset - lead * v.y
    bx, by = draw(coords), draw(coords)
    return (
        _state("a", bx + px, by + py, va, ha, la, wa),
        _state("b", bx, by, vb, hb, lb, wb),
    )


def reference_tem(a, b):
    if sat_overlap(a.box, b.box):
        return 0.0
    p_ab, v_ab, theta = relative_kinematics(a, b)
    if theta is None:
        return None
    span = ray_polygon_span(p_ab, v_ab, _region_polygon(a, b))
    return None if span is None else span[0]


def reference_act(a, b):
    qa, qb, gap = nearest_points(a.footprint, b.footprint)
    if gap == 0.0:
        return 0.0
    _, v_ab, _ = relative_kinematics(a, b)
    closing = v_ab.dot(Vec2((qb.x - qa.x) / gap, (qb.y - qa.y) / gap))
    return None if closing <= 1e-9 else gap / closing


def _as_tracks(frame_pairs):
    """Unrelated pairs as the consecutive frames of one pair of tracks."""
    track_a, track_b = [], []
    for i, (a, b) in enumerate(frame_pairs):
        t = round(0.1 * i, 1)
        track_a.append(AgentState(a.agent_id, t, a.x, a.y, a.v, a.heading, a.length, a.width))
        track_b.append(AgentState(b.agent_id, t, b.x, b.y, b.v, b.heading, b.length, b.width))
    return track_a, track_b


def _agree(got, want):
    return (got is None and want is None) or (got is not None and want is not None and close(got, want, TOL))


def _check_against_reference(batch):
    frames = compute_pair_frames(*_as_tracks(batch))
    assert len(frames) == len(batch)
    for (a, b), fm in zip(batch, frames):
        assert fm.overlap == sat_overlap(a.box, b.box), (a, b)
        want = reference_tem(a, b)
        assert _agree(fm.tem, want), ("tem", a, b, fm.tem, want)
        want = reference_act(a, b)
        assert _agree(fm.act, want), ("act", a, b, fm.act, want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(pairs(), min_size=1, max_size=12))
def test_batched_kernel_matches_reference_geometry(batch):
    _check_against_reference(batch)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(grazing_pairs(), min_size=1, max_size=8))
def test_batched_kernel_matches_reference_when_grazing(batch):
    _check_against_reference(batch)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(pairs(), min_size=1, max_size=8), st.floats(min_value=0.05, max_value=3.0))
def test_rounded_tem_is_first_approach_to_d_safe(batch, d_safe):
    """With d_safe > 0, TEM is never later than at d_safe 0, and at a positive
    TEM the footprints (advanced at constant velocity) are d_safe apart."""
    track_a, track_b = _as_tracks(batch)
    plain = compute_pair_frames(track_a, track_b)
    rounded = compute_pair_frames(track_a, track_b, MetricsConfig(d_safe=d_safe))
    for (a, b), fm0, fm in zip(batch, plain, rounded):
        if fm0.tem is not None:
            assert fm.tem is not None and fm.tem <= fm0.tem + 1e-12, (a, b)
        if fm.tem:
            va, vb = a.velocity, b.velocity
            ahead = [
                AgentState(s.agent_id, 0.0, s.x + fm.tem * vel.x, s.y + fm.tem * vel.y, s.v, s.heading,
                           s.length, s.width)
                for s, vel in ((a, va), (b, vb))
            ]
            gap = nearest_points(ahead[0].footprint, ahead[1].footprint)[2]
            assert gap == pytest.approx(d_safe, abs=1e-6), (a, b, fm.tem)


@st.composite
def grid_pairs(draw):
    """Pairs with positions on a 1/1024 m grid, so that adding UTM_OFFSET is
    exact and any change after the shift comes from the metric code."""
    a, b = draw(pairs())
    q = 1024.0
    return tuple(
        _state(s.agent_id, round(s.x * q) / q, round(s.y * q) / q, s.v, s.heading, s.length, s.width)
        for s in (a, b)
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(grid_pairs(), min_size=1, max_size=12))
def test_utm_scale_origin_offset_does_not_move_metrics(batch):
    dx, dy = UTM_OFFSET
    shifted = [
        tuple(_state(s.agent_id, s.x + dx, s.y + dy, s.v, s.heading, s.length, s.width) for s in pair)
        for pair in batch
    ]
    local = compute_pair_frames(*_as_tracks(batch))
    far = compute_pair_frames(*_as_tracks(shifted))
    for (a, b), fm0, fm1 in zip(batch, local, far):
        for name in ("tem", "in_depth", "act"):
            v0, v1 = getattr(fm0, name), getattr(fm1, name)
            assert (v0 is None) == (v1 is None), (name, a, b)
            if v0 is not None:
                assert abs(v0 - v1) <= 1e-9, (name, a, b, v0, v1)
        assert fm0.overlap == fm1.overlap


def _random_track(rng, agent_id, n, t0):
    x, y = rng.uniform(-20.0, 20.0, size=2)
    heading, speed = rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 15.0)
    length, width = rng.uniform(0.5, 6.0), rng.uniform(0.5, 3.0)
    out = []
    for i in range(n):
        heading += rng.normal(0.0, 0.05)
        speed = max(0.0, speed + rng.normal(0.0, 0.3))
        x += 0.1 * speed * math.cos(heading)
        y += 0.1 * speed * math.sin(heading)
        out.append(AgentState(agent_id, round(t0 + 0.1 * i, 1), x, y, speed,
                              math.remainder(heading, math.tau), length, width))
    return out


def test_pair_frames_equal_frame_by_frame_exactly():
    rng = np.random.default_rng(41)
    for cfg in (MetricsConfig(), MetricsConfig(d_safe=0.7, mei_cap=2.0), MetricsConfig(q_predicate="always_true")):
        for _ in range(60):
            track_a = _random_track(rng, "a", int(rng.integers(1, 60)), float(rng.integers(0, 20)) / 10)
            track_b = _random_track(rng, "b", int(rng.integers(1, 60)), float(rng.integers(0, 20)) / 10)
            by_t = {s.t_dms: s for s in track_b}
            expected = [compute_frame(sa, by_t[sa.t_dms], cfg) for sa in track_a if sa.t_dms in by_t]
            assert compute_pair_frames(track_a, track_b, cfg) == expected
            arrays = TrackArrays.from_states(track_a), TrackArrays.from_states(track_b)
            assert compute_pair_frames(*arrays, cfg) == expected


def test_scalar_functions_are_the_one_frame_kernel():
    rng = np.random.default_rng(42)
    for cfg in (MetricsConfig(), MetricsConfig(d_safe=1.2)):
        for _ in range(300):
            a, b = random_agent(rng, "a", pos_range=10.0), random_agent(rng, "b", pos_range=10.0)
            fm = compute_frame(a, b, cfg)
            assert (fm.tem, fm.in_depth, fm.act) == (tem_ttc2d(a, b, cfg), in_depth(a, b, cfg), act(a, b))


def test_overlap_view_matches_sat():
    rng = np.random.default_rng(43)
    batch = [(random_agent(rng, "a", pos_range=4.0), random_agent(rng, "b", pos_range=4.0)) for _ in range(2000)]
    frames = compute_pair_frames(*_as_tracks(batch))
    assert [fm.t for fm in frames] == [round(0.1 * i, 1) for i in range(len(batch))]
    overlap = [fm.overlap for fm in frames]
    assert overlap == [sat_overlap(a.box, b.box) for a, b in batch]
    assert 100 < sum(overlap) < 1900


def _swept_bounds(track):
    """(minx, miny, maxx, maxy) of all boxes of a track, by the geometry module's corners."""
    pts = [c for s in track for c in corners(s.box)]
    return min(p.x for p in pts), min(p.y for p in pts), max(p.x for p in pts), max(p.y for p in pts)


def _reference_occupancy(track_a, track_b, grid):
    """Each agent's zone-occupancy timestamps (t_dms), by one box at a time
    with the geometry module's corners; empty when the swept bounding boxes
    do not meet."""
    (aminx, aminy, amaxx, amaxy), (bminx, bminy, bmaxx, bmaxy) = _swept_bounds(track_a), _swept_bounds(track_b)
    minx, maxx, miny, maxy = max(aminx, bminx), min(amaxx, bmaxx), max(aminy, bminy), min(amaxy, bmaxy)
    if minx > maxx or miny > maxy:
        return [], []
    x0 = math.floor(minx / grid) * grid - grid
    y0 = math.floor(miny / grid) * grid - grid
    nx = int(math.ceil((maxx - x0) / grid)) + 2
    ny = int(math.ceil((maxy - y0) / grid)) + 2
    xs = x0 + (np.arange(nx) + 0.5) * grid
    ys = y0 + (np.arange(ny) + 0.5) * grid

    def inside(s, px, py):
        c, sn = math.cos(s.heading), math.sin(s.heading)
        dx, dy = px - s.x, py - s.y
        return (np.abs(dx * c + dy * sn) <= 0.5 * s.length) & (np.abs(-dx * sn + dy * c) <= 0.5 * s.width)

    def swept(track):
        mask = np.zeros((nx, ny), dtype=bool)
        for s in track:
            mask |= inside(s, xs[:, None], ys[None, :])
        return mask

    zi, zj = np.nonzero(swept(track_a) & swept(track_b))
    zx, zy = xs[zi], ys[zj]
    return ([s.t_dms for s in track_a if inside(s, zx, zy).any()],
            [s.t_dms for s in track_b if inside(s, zx, zy).any()])


def _reference_pet(track_a, track_b, grid):
    """PET as the least gap between an occupancy time of each agent."""
    times_a, times_b = _reference_occupancy(track_a, track_b, grid)
    if not times_a or not times_b:
        return None
    return min(abs(ta - tb) for ta in times_a for tb in times_b) / 1e4


def _straight(agent_id, point, n, heading, speed, length, width, at):
    """A straight track of n frames, 0.1 s apart from t = 0, that passes
    point at time at."""
    return [
        AgentState(agent_id, round(0.1 * i, 1), point[0] + (0.1 * i - at) * speed * math.cos(heading),
                   point[1] + (0.1 * i - at) * speed * math.sin(heading), speed, heading, length, width)
        for i in range(n)
    ]


def _track_through(rng, agent_id, point, n):
    """A straight track of n frames that passes point at a random frame."""
    heading, speed = rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 30.0)
    length, width = rng.uniform(0.2, 6.0), rng.uniform(0.2, 3.0)
    return _straight(agent_id, point, n, heading, speed, length, width, rng.uniform(0.0, 0.1 * n))


def test_batched_pet_matches_box_by_box_raster():
    rng = np.random.default_rng(44)
    defined = zone_empty = 0
    for k in range(200):
        point = rng.uniform(-5.0, 5.0, size=2)
        other = point
        if k >= 100:
            # b passes a point up to 3 m from a's: the swept bounding boxes
            # meet, but the swept footprints need not
            gap, angle = rng.uniform(0.0, 3.0), rng.uniform(-math.pi, math.pi)
            other = point + gap * np.array([math.cos(angle), math.sin(angle)])
        track_a = _track_through(rng, "a", point, int(rng.integers(2, 25)))
        track_b = _track_through(rng, "b", other, int(rng.integers(2, 25)))
        grid = float(rng.choice([0.1, 0.25]))
        got = pet(track_a, track_b, MetricsConfig(pet_grid=grid))
        assert got == _reference_pet(track_a, track_b, grid)
        defined += got is not None
        (aminx, aminy, amaxx, amaxy), (bminx, bminy, bmaxx, bmaxy) = _swept_bounds(track_a), _swept_bounds(track_b)
        bounds_meet = max(aminx, bminx) <= min(amaxx, bmaxx) and max(aminy, bminy) <= min(amaxy, bmaxy)
        zone_empty += got is None and bounds_meet
    assert defined >= 20
    assert zone_empty >= 5


@st.composite
def nearby_tracks(draw, frames=st.integers(2, 25)):
    """Straight tracks through points up to 1.5 m apart; b runs along a's
    line, either way, or across it. Fast, short boxes leave gaps between
    frames, so an agent can occupy the zone, leave it and occupy it again
    while the other occupies it in between."""
    point = (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))
    heading = draw(st.floats(-math.pi, math.pi))
    turn = draw(st.sampled_from([0.0, math.pi]) | st.floats(-math.pi, math.pi)) + draw(st.floats(-0.3, 0.3))

    def track(agent_id, point, heading):
        n = draw(frames)
        return _straight(agent_id, point, n, heading, draw(st.floats(0.5, 30.0)), draw(st.floats(0.2, 2.0)),
                         draw(st.floats(0.2, 2.0)), draw(st.floats(0.0, 0.1 * n)))

    other = (point[0] + draw(st.floats(-1.5, 1.5)), point[1] + draw(st.floats(-1.5, 1.5)))
    return track("a", point, heading), track("b", other, heading + turn)


@settings(max_examples=200, deadline=None)
@given(nearby_tracks(), st.floats(0.25, 0.5))
def test_pet_is_the_least_gap_between_occupancy_times(tracks, grid):
    track_a, track_b = tracks
    cfg = MetricsConfig(pet_grid=grid)
    got = pet(track_a, track_b, cfg)
    times_a, times_b = _reference_occupancy(track_a, track_b, grid)
    assert (got is None) == (not times_a or not times_b)
    assert got is None or got >= 0.0
    assert got == pet(track_b, track_a, cfg) == _reference_pet(track_a, track_b, grid)


def test_pet_of_interleaved_occupancy_is_the_least_gap():
    """a holds the crossing at 0.9-1.4 s and 2.5-2.9 s, b at 0.0-0.1 s and
    1.5-2.1 s, each waiting elsewhere in between: PET is 1.5 - 1.4 s, where
    the gap from the first agent's last exit to the other's first entry
    would be 0.9 - 2.1 s."""

    def track(agent_id, at_zone, away, frames):
        return [AgentState(agent_id, round(0.1 * i, 1), *((0.0, 0.0) if i in at_zone else away), 0.0, 0.0, 2.0, 2.0)
                for i in range(frames)]

    track_a = track("a", {*range(9, 15), *range(25, 30)}, (10.0, 0.0), 30)
    track_b = track("b", {0, 1, *range(15, 22)}, (0.0, 10.0), 22)
    times_a, times_b = _reference_occupancy(track_a, track_b, 0.1)
    assert times_a == [*range(9000, 15000, 1000), *range(25000, 30000, 1000)]
    assert times_b == [0, 1000, *range(15000, 22000, 1000)]
    assert pet(track_a, track_b) == pet(track_b, track_a) == 0.1


@st.composite
def pet_scenarios(draw, frames):
    """3-4 agents of `frames` frames whose straight tracks pass points near
    one another, so each track is in several pairs; the last agent may hold
    one frame, so it is never a pair's a track."""
    tracks = draw(nearby_tracks(st.just(frames))) + draw(nearby_tracks(st.just(frames)))
    agents = {f"a{k}": [dataclasses.replace(s, agent_id=f"a{k}") for s in track]
              for k, track in enumerate(tracks[:draw(st.integers(3, 4))])}
    if draw(st.booleans()):
        last = max(agents)
        agents[last] = agents[last][:1]
    return Scenario(scenario_id=draw(st.sampled_from(["s1", "s2"])), agents=agents)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 12), st.sampled_from([0.25, 0.5]), st.sampled_from([1, 3]))
def test_corpus_pet_equals_the_box_by_box_reference(data, frames, grid, chunk_pairs):
    corpus = data.draw(st.lists(pet_scenarios(frames), min_size=1, max_size=3))
    with mock.patch.object(metrics, "KERNEL_BATCH_FRAMES", chunk_pairs * frames), \
            mock.patch.object(classify, "_pets", wraps=metrics._pets) as spy:
        events = corpus_events(corpus, MetricsConfig(pet_grid=grid))
    assert max(len(call.args[1]) for call in spy.call_args_list) == min(chunk_pairs, len(events))
    expected = []
    for scenario in corpus:
        for a, b in scenario.pairs():
            track_a, track_b = scenario.agents[a], scenario.agents[b]
            if compute_pair_frames(track_a, track_b):
                two = len(track_a) >= 2 and len(track_b) >= 2
                expected.append(_reference_pet(track_a, track_b, grid) if two else None)
    assert [event.pet for event in events] == expected


def test_too_fine_pair_leaves_its_chunk_neighbours_pet():
    """In each scenario the long diagonals b and d share a 150 m x 150 m
    window, too fine at 0.01 m, while the pedestrians a and c cross far
    from them: one chunk holds both scenarios' pairs."""

    def track(agent_id, start, step, frames, size):
        return [AgentState(agent_id, round(0.1 * i, 1), start[0] + i * step[0], start[1] + i * step[1], 1.0,
                           math.atan2(step[1], step[0]), size, size) for i in range(frames)]

    def scenario(scenario_id):
        return Scenario(scenario_id, {
            "a": track("a", (499.0, 500.0), (0.2, 0.0), 11, 0.6),
            "b": track("b", (0.0, 0.0), (15.0, 15.0), 11, 4.0),
            "c": track("c", (500.0, 499.0), (0.0, 0.2), 11, 0.6),
            "d": track("d", (150.0, 0.0), (-15.0, 15.0), 11, 4.0),
        })

    corpus = [scenario("s1"), scenario("s2")]
    skipped = []
    events = corpus_events(corpus, MetricsConfig(pet_grid=0.01), skipped)
    (bminx, bminy, bmaxx, bmaxy), (dminx, dminy, dmaxx, dmaxy) = (
        _swept_bounds(corpus[0].agents["b"]), _swept_bounds(corpus[0].agents["d"]))
    message = (f"pet_grid=0.01 is too fine for a {min(bmaxx, dmaxx) - max(bminx, dminx):.0f} x "
               f"{min(bmaxy, dmaxy) - max(bminy, dminy):.0f} m swept-footprint window; raise pet_grid")
    assert skipped == [("s1", "b", "d", message), ("s2", "b", "d", message)]
    crossing = _reference_pet(corpus[0].agents["a"], corpus[0].agents["c"], 0.01)
    assert crossing is not None
    assert [(e.scenario_id, e.agent_pair, e.pet) for e in events] == [
        (sid, pair, crossing if pair == ("a", "c") else None) for sid in ("s1", "s2") for pair in corpus[0].pairs()]
