import math

import numpy as np
import pytest

from conflictmetrics.metrics import (
    AgentState,
    MetricsConfig,
    act,
    compute_frame,
    compute_pair_frames,
    condition_q,
    in_depth,
    mei,
    pet,
    relative_kinematics,
    tem_ttc2d,
)
from helpers import close, random_agent, transformed_agent


class TestMetricsConfig:
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("d_safe", -0.5, "d_safe must be >= 0"),
            ("d_safe", math.nan, "d_safe must be finite, got nan"),
            ("d_safe", math.inf, "d_safe must be finite, got inf"),
            ("tem_star", 0.0, "tem_star must be > 0"),
            ("tem_star", math.nan, "tem_star must be > 0"),
            ("tem_star", -math.inf, "tem_star must be > 0"),
            ("pet_grid", 0.0, "pet_grid must be > 0"),
            ("pet_grid", math.nan, "pet_grid must be finite, got nan"),
            ("pet_grid", math.inf, "pet_grid must be finite, got inf"),
            ("mei_cap", 0.0, "mei_cap must be > 0"),
            ("mei_cap", -1.0, "mei_cap must be > 0"),
            ("mei_cap", math.nan, "mei_cap must be finite, got nan"),
            ("mei_cap", math.inf, "mei_cap must be finite, got inf"),
        ],
    )
    def test_rejects_values_outside_the_domain(self, field, value, message):
        with pytest.raises(ValueError) as exc:
            MetricsConfig(**{field: value})
        assert str(exc.value) == message

    def test_accepts_the_edges_of_the_domain(self):
        cfg = MetricsConfig(d_safe=0.0, tem_star=math.inf, mei_cap=1e-9, pet_grid=1e-9)
        assert (cfg.d_safe, cfg.tem_star, cfg.mei_cap, cfg.pet_grid) == (0.0, math.inf, 1e-9, 1e-9)


class TestAgentState:
    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            AgentState("a", 0.0, 0, 0, -1.0, 0.0, 4, 2)

    def test_rejects_zero_footprint(self):
        with pytest.raises(ValueError):
            AgentState("a", 0.0, 0, 0, 1.0, 0.0, 0.0, 2)

    def test_rejects_non_finite_pose(self):
        with pytest.raises(ValueError):
            AgentState("a", 0.0, math.nan, 0, 1.0, 0.0, 4, 2)


class TestRelativeKinematics:
    def test_head_on(self, head_on_pair):
        a, b = head_on_pair
        p_ab, v_ab, theta = relative_kinematics(a, b)
        assert (p_ab.x, p_ab.y) == (-50.0, 0.0)
        assert v_ab.x == pytest.approx(20.0)
        assert abs(v_ab.y) < 1e-12
        assert theta.x == pytest.approx(1.0)

    def test_identical_states_have_no_direction(self, head_on_pair):
        a, _ = head_on_pair
        _, v_ab, theta = relative_kinematics(a, a)
        assert (v_ab.x, v_ab.y) == (0.0, 0.0)
        assert theta is None

    def test_perpendicular(self, perpendicular_pair):
        a, b = perpendicular_pair
        _, v_ab, theta = relative_kinematics(a, b)
        assert v_ab.x == pytest.approx(10.0)
        assert v_ab.y == pytest.approx(-10.0)
        assert theta.x == pytest.approx(math.sqrt(2) / 2)
        assert theta.y == pytest.approx(-math.sqrt(2) / 2)

    def test_mismatched_timestamps_rejected(self, head_on_pair):
        a, b = head_on_pair
        later = AgentState("B", 0.1, b.x, b.y, b.v, b.heading, b.length, b.width)
        with pytest.raises(ValueError):
            relative_kinematics(a, later)


class TestInDepth:
    def test_head_on(self, head_on_pair, cfg):
        assert in_depth(*head_on_pair, cfg) == pytest.approx(2.0, abs=1e-12)

    def test_perpendicular_crossing(self, perpendicular_pair, cfg):
        assert in_depth(*perpendicular_pair, cfg) == pytest.approx(3 * math.sqrt(2), abs=1e-9)

    def test_lateral_offset_negative(self, offset_pair, cfg):
        assert in_depth(*offset_pair, cfg) == pytest.approx(-8.0, abs=1e-12)

    def test_undefined_without_relative_motion(self, head_on_pair, cfg):
        a, _ = head_on_pair
        assert in_depth(a, a, cfg) is None

    def test_symmetry_random(self, cfg):
        rng = np.random.default_rng(21)
        for _ in range(500):
            a, b = random_agent(rng, "a"), random_agent(rng, "b")
            da = in_depth(a, b, cfg)
            db = in_depth(b, a, cfg)
            assert da is not None and db is not None
            assert abs(da - db) < 1e-9

    def test_d_safe_linearity_exact(self, cfg):
        rng = np.random.default_rng(22)
        for _ in range(500):
            a, b = random_agent(rng, "a"), random_agent(rng, "b")
            s = rng.uniform(0.0, 5.0)
            base = in_depth(a, b, cfg)
            assert in_depth(a, b, MetricsConfig(d_safe=s)) == base + s


class TestTemTtc2d:
    def test_head_on_closed_form(self, head_on_pair, cfg):
        assert tem_ttc2d(*head_on_pair, cfg) == pytest.approx(46 / 20, rel=1e-12)

    def test_already_overlapping_is_zero(self, cfg):
        a = AgentState("a", 0.0, 0, 0, 5.0, 0.0, 4, 2)
        b = AgentState("b", 0.0, 1.0, 0.5, 3.0, 0.3, 4, 2)
        assert tem_ttc2d(a, b, cfg) == 0.0

    def test_lateral_offset_never_collides(self, offset_pair, cfg):
        assert tem_ttc2d(*offset_pair, cfg) is None

    def test_no_relative_motion_undefined(self, cfg):
        # Same velocity, disjoint footprints: no relative direction exists
        # and the boxes never meet. (Coincident states instead yield 0.)
        a = AgentState("a", 0.0, 0, 0, 10.0, 0.0, 4, 2)
        b = AgentState("b", 0.0, 20, 0, 10.0, 0.0, 4, 2)
        assert tem_ttc2d(a, b, cfg) is None
        assert tem_ttc2d(a, a, cfg) == 0.0

    def test_d_safe_inflation_closed_form(self, head_on_pair):
        # Front gap 46 m closes at 20 m/s down to the 1 m safety distance.
        assert tem_ttc2d(*head_on_pair, MetricsConfig(d_safe=1.0)) == pytest.approx(45 / 20, rel=1e-12)

    def test_d_safe_inflation_matches_gap_stepping(self):
        # Independent check: step time and find when the footprint gap first
        # drops to d_safe, on an oblique-crossing configuration.
        from conflictmetrics.geometry import nearest_points

        a = AgentState("a", 0.0, -30.0, -4.0, 8.0, 0.2, 4.5, 2.0)
        b = AgentState("b", 0.0, 10.0, -25.0, 6.0, math.pi / 2 + 0.1, 4.0, 1.8)
        d_safe = 0.8
        t = tem_ttc2d(a, b, MetricsConfig(d_safe=d_safe))
        assert t is not None

        def gap_at(tau):
            pa = AgentState("a", 0.0, a.x + tau * a.velocity.x, a.y + tau * a.velocity.y,
                            a.v, a.heading, a.length, a.width)
            pb = AgentState("b", 0.0, b.x + tau * b.velocity.x, b.y + tau * b.velocity.y,
                            b.v, b.heading, b.length, b.width)
            return nearest_points(pa.footprint, pb.footprint)[2]

        assert gap_at(t) == pytest.approx(d_safe, abs=1e-6)
        assert gap_at(t - 0.01) > d_safe


class TestMei:
    def test_head_on_quotient(self, head_on_pair, cfg):
        assert mei(*head_on_pair, cfg) == pytest.approx(2 / 2.3, rel=1e-12)

    def test_undefined_when_no_collision_course(self, offset_pair, cfg):
        assert mei(*offset_pair, cfg) is None

    def test_undefined_at_contact(self, cfg):
        a = AgentState("a", 0.0, 0, 0, 5.0, 0.0, 4, 2)
        b = AgentState("b", 0.0, 1.0, 0.5, 3.0, 0.3, 4, 2)
        assert mei(a, b, cfg) is None

    def test_cap_clamps(self, head_on_pair):
        capped = mei(*head_on_pair, MetricsConfig(mei_cap=0.5))
        assert capped == 0.5

    def test_identity_with_tem(self, cfg):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(2000):
            a, b = random_agent(rng, "a"), random_agent(rng, "b")
            m = mei(a, b, cfg)
            if m is None:
                continue
            t = tem_ttc2d(a, b, cfg)
            d = in_depth(a, b, cfg)
            assert abs(m * t - d) <= 1e-12 * max(1.0, abs(d))
            checked += 1
        assert checked > 50


class TestAct:
    def test_head_on_matches_front_gap(self, head_on_pair):
        assert act(*head_on_pair) == pytest.approx(46 / 20, rel=1e-12)

    def test_receding_undefined(self):
        a = AgentState("a", 0.0, 0, 0, 10.0, math.pi, 4, 2)
        b = AgentState("b", 0.0, 50, 0, 10.0, 0.0, 4, 2)
        assert act(a, b) is None

    def test_overlap_is_zero(self):
        a = AgentState("a", 0.0, 0, 0, 5.0, 0.0, 4, 2)
        b = AgentState("b", 0.0, 1.0, 0.5, 3.0, 0.3, 4, 2)
        assert act(a, b) == 0.0


class TestConditionQ:
    def test_approaching(self, head_on_pair, cfg):
        assert condition_q(*head_on_pair, cfg) is True

    def test_receding(self, cfg):
        a = AgentState("a", 0.0, 0, 0, 10.0, math.pi, 4, 2)
        b = AgentState("b", 0.0, 50, 0, 10.0, 0.0, 4, 2)
        assert condition_q(a, b, cfg) is False

    def test_zero_relative_velocity_is_false(self, head_on_pair, cfg):
        a, _ = head_on_pair
        assert condition_q(a, a, cfg) is False

    def test_always_true_predicate(self, cfg):
        a = AgentState("a", 0.0, 0, 0, 10.0, math.pi, 4, 2)
        b = AgentState("b", 0.0, 50, 0, 10.0, 0.0, 4, 2)
        assert condition_q(a, b, MetricsConfig(q_predicate="always_true")) is True


def _straight_track(agent_id, x0, y0, speed, heading, n, length=4.0, width=2.0, t0=0.0):
    vx = speed * math.cos(heading)
    vy = speed * math.sin(heading)
    return [
        AgentState(
            agent_id,
            round((t0 + 0.1 * i) * 1e4) / 1e4,
            x0 + vx * 0.1 * i,
            y0 + vy * 0.1 * i,
            speed,
            heading,
            length,
            width,
        )
        for i in range(n)
    ]


class TestPet:
    def test_crossing_gap(self, cfg):
        # A clears the shared zone at t=2.5 (box tail passes the farthest
        # zone cell), B first reaches it at t=5.5; hand-checked on the grid.
        track_a = _straight_track("A", -10.0, 0.0, 5.0, 0.0, 81)
        track_b = _straight_track("B", 0.0, -30.0, 5.0, math.pi / 2, 81)
        assert pet(track_a, track_b, cfg) == pytest.approx(3.0, abs=1e-9)

    def test_order_independence(self, cfg):
        track_a = _straight_track("A", -10.0, 0.0, 5.0, 0.0, 81)
        track_b = _straight_track("B", 0.0, -30.0, 5.0, math.pi / 2, 81)
        assert pet(track_a, track_b, cfg) == pet(track_b, track_a, cfg)

    def test_disjoint_sweeps_undefined(self, cfg):
        track_a = _straight_track("A", -10.0, 0.0, 5.0, 0.0, 20)
        track_b = _straight_track("B", -10.0, 50.0, 5.0, 0.0, 20)
        assert pet(track_a, track_b, cfg) is None

    def test_simultaneous_occupancy_is_zero(self, cfg):
        track_a = _straight_track("A", -10.0, 0.0, 5.0, 0.0, 41)
        track_b = _straight_track("B", 10.0, 0.0, 5.0, math.pi, 41)
        assert pet(track_a, track_b, cfg) == 0.0

    def test_short_track_rejected(self, cfg):
        track_a = _straight_track("A", -10.0, 0.0, 5.0, 0.0, 1)
        track_b = _straight_track("B", 0.0, -30.0, 5.0, math.pi / 2, 81)
        with pytest.raises(ValueError):
            pet(track_a, track_b, cfg)

    def test_grid_refinement_stable(self):
        track_a = _straight_track("A", -10.0, 0.0, 5.0, 0.0, 81)
        track_b = _straight_track("B", 0.0, -30.0, 5.0, math.pi / 2, 81)
        coarse = pet(track_a, track_b, MetricsConfig(pet_grid=0.1))
        fine = pet(track_a, track_b, MetricsConfig(pet_grid=0.05))
        assert abs(coarse - fine) <= 0.2


class TestFrameInvariants:
    def test_overlap_forces_tem_zero_and_act_zero(self, cfg):
        rng = np.random.default_rng(24)
        seen = 0
        for _ in range(3000):
            a = random_agent(rng, "a", pos_range=4.0)
            b = random_agent(rng, "b", pos_range=4.0)
            fm = compute_frame(a, b, cfg)
            if fm.overlap:
                assert fm.tem == 0.0
                assert fm.act == 0.0
                assert fm.mei is None
                seen += 1
        assert seen > 50

    def test_rigid_motion_invariance_sample(self, cfg):
        rng = np.random.default_rng(25)
        for _ in range(300):
            a, b = random_agent(rng, "a"), random_agent(rng, "b")
            angle = rng.uniform(-math.pi, math.pi)
            dx, dy = rng.uniform(-100, 100, size=2)
            ta = transformed_agent(a, angle, dx, dy)
            tb = transformed_agent(b, angle, dx, dy)
            for fn in (in_depth, tem_ttc2d):
                v0 = fn(a, b, cfg)
                v1 = fn(ta, tb, cfg)
                assert (v0 is None) == (v1 is None)
                if v0 is not None:
                    assert close(v0, v1), (fn.__name__, v0, v1)
            v0, v1 = act(a, b), act(ta, tb)
            assert (v0 is None) == (v1 is None)
            if v0 is not None:
                assert close(v0, v1)

    def test_pair_frames_common_clock(self, cfg):
        track_a = _straight_track("A", -10.0, 0.0, 5.0, 0.0, 10)
        track_b = _straight_track("B", 0.0, -30.0, 5.0, math.pi / 2, 20, t0=0.5)
        frames = compute_pair_frames(track_a, track_b, cfg)
        assert [fm.t for fm in frames] == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9])
