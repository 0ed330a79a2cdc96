"""Acceptance gate: one test per criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Criteria 1-7 are self-contained property and fixture checks over
seeded random corpora. Criteria 8-10 reproduce published dataset statistics
and need the public lateral-conflict dataset: set CONFLICTMETRICS_DATASET to
a directory of CSV exports in the documented layout (docs/dataset_format.md),
and CONFLICTMETRICS_CASE_MAP to a JSON file mapping case1..case4 to scenario
ids for the case regressions; they skip otherwise.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from conflictmetrics.classify import RiskLevel, corpus_events
from conflictmetrics.cli import main
from conflictmetrics.geometry import (
    OrientedBox,
    Vec2,
    minkowski_sum,
    nearest_points,
    ray_polygon_span,
    reflected,
    sat_overlap,
)
from conflictmetrics.metrics import (
    AgentState,
    MetricsConfig,
    act,
    compute_pair_frames,
    in_depth,
    mei,
    pet,
    relative_kinematics,
    tem_ttc2d,
)
from conflictmetrics.oracles import OracleConfig, oracle_first_contact, oracle_overlap, overlap_depth
from conflictmetrics.stats import build_threshold_table, histogram
from conflictmetrics.trajio import adapt_external
from helpers import close, random_agent, random_box, transformed_agent

SEED = 20240911
N_PAIRS = 10_000

DATASET_ENV = "CONFLICTMETRICS_DATASET"
CASE_MAP_ENV = "CONFLICTMETRICS_CASE_MAP"


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(SEED)
    return [(random_agent(rng, "a"), random_agent(rng, "b")) for _ in range(N_PAIRS)]


def _contact_span(a: AgentState, b: AgentState):
    """Forward-time interval during which the straight-line relative motion
    keeps the footprints in contact (the analytic chord)."""
    p_ab, v_ab, theta = relative_kinematics(a, b)
    if theta is None:
        return None
    region = minkowski_sum(
        OrientedBox(Vec2(0.0, 0.0), b.heading, b.length, b.width).polygon(),
        reflected(OrientedBox(Vec2(0.0, 0.0), a.heading, a.length, a.width).polygon()),
    )
    return ray_polygon_span(p_ab, v_ab, region)


def test_criterion_01_ttc2d_matches_propagation_oracle(corpus):
    """tem_ttc2d agrees with the time-stepped oracle within 1e-3 s; the
    defined/undefined status matches, excluding sub-2*coarse_dt grazing
    chords (expected below 1%)."""
    ocfg = OracleConfig()
    excluded = 0
    for a, b in corpus:
        exact = tem_ttc2d(a, b)
        span = _contact_span(a, b)
        if span is not None and span[1] - span[0] < 2 * ocfg.coarse_dt:
            excluded += 1
            continue
        got = oracle_first_contact(a, b, ocfg)
        if exact is None:
            assert got is None, (a, b, got)
        elif exact > ocfg.horizon - 2 * ocfg.coarse_dt:
            # Beyond the oracle's horizon; only check agreement if it looked
            # far enough to see the contact.
            if got is not None:
                assert abs(got - exact) <= 1e-3, (a, b, got, exact)
        else:
            assert got is not None, (a, b, exact)
            assert abs(got - exact) <= 1e-3, (a, b, got, exact)
    assert excluded < 0.01 * len(corpus), f"{excluded} grazing exclusions"


def test_criterion_02_indepth_sign_consistency(corpus):
    """A defined constant-velocity collision time implies in_depth >= -1e-9
    at d_safe = 0, with zero violations."""
    cfg = MetricsConfig(d_safe=0.0)
    for a, b in corpus:
        if tem_ttc2d(a, b, cfg) is not None:
            depth = in_depth(a, b, cfg)
            assert depth is not None and depth >= -1e-9, (a, b, depth)


def test_criterion_03_mei_identity(corpus):
    """mei * tem reproduces in_depth to 1e-12 relative tolerance on every
    frame where mei is defined."""
    cfg = MetricsConfig()
    checked = 0
    for a, b in corpus:
        m = mei(a, b, cfg)
        if m is None:
            continue
        t = tem_ttc2d(a, b, cfg)
        d = in_depth(a, b, cfg)
        assert abs(m * t - d) <= 1e-12 * max(abs(d), 1e-300), (a, b)
        checked += 1
    assert checked > 100


def test_criterion_04_symmetry_rigid_motion_dsafe_linearity(corpus):
    """in_depth symmetry at 1e-9; rigid-motion invariance of in_depth, tem,
    mei, act; exact d_safe additivity. Zero violations over the corpus."""
    cfg = MetricsConfig()
    rng = np.random.default_rng(SEED + 1)
    for a, b in corpus:
        da = in_depth(a, b, cfg)
        db = in_depth(b, a, cfg)
        assert (da is None) == (db is None)
        if da is not None:
            assert abs(da - db) <= 1e-9, (a, b)

        s = rng.uniform(0.0, 5.0)
        if da is not None:
            assert in_depth(a, b, MetricsConfig(d_safe=s)) == da + s, (a, b, s)

        angle = rng.uniform(-math.pi, math.pi)
        dx, dy = rng.uniform(-100.0, 100.0, size=2)
        ta = transformed_agent(a, angle, dx, dy)
        tb = transformed_agent(b, angle, dx, dy)
        for fn in (in_depth, tem_ttc2d, mei):
            v0 = fn(a, b, cfg)
            v1 = fn(ta, tb, cfg)
            assert (v0 is None) == (v1 is None), (fn.__name__, a, b)
            if v0 is not None:
                assert close(v0, v1, 1e-9), (fn.__name__, a, b, v0, v1)
        v0, v1 = act(a, b), act(ta, tb)
        assert (v0 is None) == (v1 is None), (a, b)
        if v0 is not None:
            assert close(v0, v1, 1e-9), (a, b, v0, v1)


def test_criterion_05_sat_matches_sampling_oracle():
    """sat_overlap agrees with the grid-sampling oracle on 10,000 random box
    pairs outside the 0.02 m resolution band."""
    ocfg = OracleConfig()
    rng = np.random.default_rng(SEED + 2)
    excluded = 0
    for _ in range(N_PAIRS):
        a = random_box(rng)
        b = random_box(rng)
        sat = sat_overlap(a, b)
        measure = overlap_depth(a, b) if sat else nearest_points(a.polygon(), b.polygon())[2]
        if abs(measure) < 0.02:
            excluded += 1
            continue
        assert sat == oracle_overlap(a, b, ocfg), (a, b, sat)
    assert excluded < 0.05 * N_PAIRS


def test_criterion_06_analytic_fixtures(head_on_pair, offset_pair):
    """Head-on: InDepth 2 m, TEM 2.3 s, MEI 2/2.3 m/s to 1e-12; lateral
    offset: InDepth -8 m and undefined TEM."""
    cfg = MetricsConfig()
    assert in_depth(*head_on_pair, cfg) == pytest.approx(2.0, abs=1e-12)
    assert tem_ttc2d(*head_on_pair, cfg) == pytest.approx(2.3, rel=1e-12)
    assert mei(*head_on_pair, cfg) == pytest.approx(2 / 2.3, rel=1e-12)
    assert in_depth(*offset_pair, cfg) == pytest.approx(-8.0, abs=1e-12)
    assert tem_ttc2d(*offset_pair, cfg) is None


HEADER = "scenario_id,agent_id,agent_type,t,x,y,speed,heading,length,width"


def _determinism_corpus(tmp_path: Path) -> Path:
    rows = []
    for i in range(30):
        t = f"{0.1 * i:.1f}"
        rows.append(f"head_on,A,vehicle,{t},{1.0 * i},0.0,10.0,0.0,4.0,2.0")
        rows.append(f"head_on,B,vehicle,{t},{50.0 - 1.0 * i},0.0,10.0,{math.pi},4.0,2.0")
        rows.append(f"cross,AV,vehicle,{t},{-10.0 + 0.5 * i},0.0,5.0,0.0,4.0,2.0")
        rows.append(f"cross,P,pedestrian,{t},0.0,{-8.0 + 0.5 * i},5.0,{math.pi / 2},,")
        rows.append(f"crash,A,vehicle,{t},{1.0 * i},0.0,10.0,0.0,4.0,2.0")
        rows.append(f"crash,B,vehicle,{t},{24.0 - 1.0 * i},0.0,10.0,{math.pi},4.0,2.0")
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


def _run(argv, out: Path) -> dict[str, bytes]:
    assert main(argv + ["--out", str(out)]) == 0
    return {
        p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"
    }


def _manifest_stripped(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    manifest.pop("started_utc")
    manifest.pop("finished_utc")
    return manifest


def test_criterion_07_cli_determinism(tmp_path):
    """Every CLI command produces byte-identical data tables when re-run with
    identical inputs and flags, including under --jobs > 1. The manifest is
    identical apart from its wall-clock fields."""
    src = _determinism_corpus(tmp_path)
    commands = {
        "frames": ["frames", "--input", str(src), "--scenario", "head_on"],
        "events": ["events", "--input", str(src)],
        "filter": ["filter-collisions", "--input", str(src)],
    }
    for name, argv in commands.items():
        out = tmp_path / name
        first = _run(argv, out)
        first_manifest = _manifest_stripped(out)
        second = _run(argv, out)  # identical argv, same destination
        assert first == second, f"{name} outputs differ between runs"
        assert first_manifest == _manifest_stripped(out)

    sequential = _run(commands["events"] + ["--jobs", "1"], tmp_path / "events_seq")
    parallel = _run(commands["events"] + ["--jobs", "4"], tmp_path / "events_par")
    assert sequential["events.csv"] == parallel["events.csv"]

    events_csv = tmp_path / "events_seq" / "events.csv"
    thr_out = tmp_path / "thr"
    thr1 = _run(["thresholds", "--input", str(events_csv)], thr_out)
    thr2 = _run(["thresholds", "--input", str(events_csv)], thr_out)
    assert thr1 == thr2


# ---------------------------------------------------------------------------
# Dataset-conditional criteria
# ---------------------------------------------------------------------------

needs_dataset = pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason=f"{DATASET_ENV} not set; dataset-conditional criterion skipped",
)


@pytest.fixture(scope="module")
def dataset_events():
    root = Path(os.environ[DATASET_ENV])
    files = sorted(str(p) for p in root.rglob("*.csv"))
    assert files, f"no CSV exports under {root}"
    result = adapt_external(files)
    cfg = MetricsConfig()

    def has_overlap(scenario):
        for ids in ((a, b) for a in scenario.agents for b in scenario.agents if a < b):
            by_t = {s.t_dms: s for s in scenario.agents[ids[1]]}
            for sa in scenario.agents[ids[0]]:
                sb = by_t.get(sa.t_dms)
                if sb is not None and sat_overlap(sa.box, sb.box):
                    return True
        return False

    kept = [s for s in result.scenarios if not has_overlap(s)]
    events = corpus_events(kept, cfg)
    return [e for e in events if e.mei_max is not None and e.mei_max > 0]


@needs_dataset
def test_criterion_08_corpus_counts(dataset_events):
    """1,548 +/- 2% conflict events with mei_max > 0; critical/potential
    split near 501/1,047 (+/- 5%, soft under the documented Q predicate)."""
    n = len(dataset_events)
    assert abs(n - 1548) <= 0.02 * 1548, f"got {n} events"
    critical = sum(1 for e in dataset_events if e.peak_level >= RiskLevel.CRITICAL_CONFLICT)
    potential = sum(1 for e in dataset_events if e.peak_level == RiskLevel.POTENTIAL_CONFLICT)
    assert abs(critical - 501) <= 0.05 * 501, f"{critical} critical"
    assert abs(potential - 1047) <= 0.05 * 1047, f"{potential} potential"


PUBLISHED_MEI = {1: 2.13, 5: 1.52, 10: 1.22, 25: 0.81, 50: 0.53, 75: 0.33, 90: 0.14, 95: 0.08, 99: 0.01}
PUBLISHED_ACT = {1: 0.77, 5: 1.43, 10: 1.85, 25: 2.52, 50: 3.47, 75: 4.66, 90: 6.19, 95: 7.43, 99: 8.78}
PUBLISHED_PET = {1: 1.40, 5: 2.00, 10: 2.20, 25: 2.80, 50: 3.60, 75: 4.30, 90: 4.80, 95: 5.30, 99: 6.95}


@needs_dataset
def test_criterion_09_threshold_table_reproduction(dataset_events):
    """Percentile thresholds match the published table: MEI within 0.05 m/s,
    ACT within 0.05 s, PET within 0.3 s. The max-MEI distribution shows the
    published monotone-decaying right tail (shape, not bin-exact)."""
    table = build_threshold_table(dataset_events)
    for entry in table.mei_max:
        assert entry.value == pytest.approx(PUBLISHED_MEI[entry.risk_share], abs=0.05), entry
    for entry in table.act_min:
        assert entry.value == pytest.approx(PUBLISHED_ACT[entry.risk_share], abs=0.05), entry
    for entry in table.pet:
        assert entry.value == pytest.approx(PUBLISHED_PET[entry.risk_share], abs=0.3), entry

    _, counts = histogram([e.mei_max for e in dataset_events], 0.25)
    tail = counts[counts.index(max(counts)):]
    width = max(1, len(tail) // 4)
    pooled = [sum(tail[i : i + width]) for i in range(0, len(tail), width)]
    assert all(a >= b for a, b in zip(pooled, pooled[1:])), pooled


@needs_dataset
@pytest.mark.skipif(
    CASE_MAP_ENV not in os.environ,
    reason=f"{CASE_MAP_ENV} not set; the published cases carry no scenario ids",
)
def test_criterion_10_case_regressions():
    """Per-case regression values from the published case studies."""
    case_map = json.loads(Path(os.environ[CASE_MAP_ENV]).read_text())
    root = Path(os.environ[DATASET_ENV])
    files = sorted(str(p) for p in root.rglob("*.csv"))
    scenarios = {s.scenario_id: s for s in adapt_external(files).scenarios}
    cfg = MetricsConfig()

    def tracks(case_key):
        entry = case_map[case_key]
        scenario = scenarios[entry["scenario"]]
        pair = entry.get("pair") or sorted(scenario.agents)[:2]
        return scenario.agents[pair[0]], scenario.agents[pair[1]]

    # Case 1: MEI peaks at 3.21 m/s (t=5.4 s), ACT bottoms at 0.75 s (t=5.9 s).
    track_a, track_b = tracks("case1")
    frames = compute_pair_frames(track_a, track_b, cfg)
    best = max((f for f in frames if f.mei is not None), key=lambda f: f.mei)
    assert best.mei == pytest.approx(3.21, abs=0.05)
    assert best.t == pytest.approx(5.4, abs=0.1)
    low = min((f for f in frames if f.act is not None), key=lambda f: f.act)
    assert low.act == pytest.approx(0.75, abs=0.05)
    assert low.t == pytest.approx(5.9, abs=0.1)

    # Case 2: ACT minimum 0.60 s at t=3.5 s with negligible MEI/InDepth.
    track_a, track_b = tracks("case2")
    frames = compute_pair_frames(track_a, track_b, cfg)
    low = min((f for f in frames if f.act is not None), key=lambda f: f.act)
    assert low.act == pytest.approx(0.60, abs=0.05)
    assert low.t == pytest.approx(3.5, abs=0.1)
    assert low.mei == pytest.approx(0.0024, abs=0.005)
    assert low.in_depth == pytest.approx(0.0014, abs=0.005)

    # Cases 3 and 4: PET 8.2 s and 0.9 s (+/- 0.3 s zone ambiguity).
    track_a, track_b = tracks("case3")
    assert pet(track_a, track_b, cfg) == pytest.approx(8.2, abs=0.3)
    track_a, track_b = tracks("case4")
    assert pet(track_a, track_b, cfg) == pytest.approx(0.9, abs=0.3)
