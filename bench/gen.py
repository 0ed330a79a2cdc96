"""Seeded synthetic corpus generator for the benchmark workloads.

Every scenario is Argoverse-like: a 10 Hz clock, an ``AV`` track and other
agents, in one of six families (crossing, merging, head-on, following,
pedestrian, near-stationary), plus background agents whose tracks start
late or end early, so pairs share only part of the clock. Tracks are
straight lines along which agents speed up or brake; a braking vehicle
creeps on at ``V_MIN``. Braking turns collision courses into near misses,
so the relative velocity, and with it the collision course, changes over
an event, as in recorded conflicts.

Scenarios are redrawn until every pair keeps a margin from the places where
the last floating-point digit could decide a result: footprints are at
least ``MARGIN`` m from touching (and, on a workload run with a D_safe
buffer, from that distance), and the relative speed, the intrusion depth
(at D_safe 0 and at the workload's D_safe), the approach product and the
distance of TEM from the 3 s TEM* all stay clear of zero.

Writes, into the output directory:
    corpus.csv        canonical CSV
    export_psi.csv    dataset layout with psi_rad, vx, vy
    export_vel.csv    dataset layout with vx, vy only
    export_pos.csv    dataset layout with positions only
    truth.json        family and variant (planted / conflict / benign) per
                      scenario; per pair the common frame count and the
                      first overlapping timestamp

Run: python3 bench/gen.py --workload corpus_events --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
import workloads

FAMILIES = ("crossing", "merging", "head_on", "following", "pedestrian", "near_stationary")
DT = 0.1
V_MIN = 0.3            # m/s, speed floor of a braking vehicle
MARGIN = 0.05          # m, distance from grazing contact, every frame
MIN_REL_SPEED = 0.1    # m/s
MIN_DEPTH = 0.02       # m, |InDepth| at D_safe 0 and at the workload's D_safe
MIN_TEM_GAP = 1e-6     # s, |TEM - TEM*|
MIN_APPROACH = 1e-6    # m^2/s, |p_ab . v_ab|


@dataclass(frozen=True)
class Spec:
    scenarios: int
    frames: int
    background: tuple[int, int]   # inclusive range of background agents per scenario
    planted_share: float          # share of scenarios whose main pair collides;
                                  # the main pair of the others is a resolved
                                  # conflict up to a share of 0.6, else benign


SPECS = {
    "corpus_events": Spec(scenarios=16, frames=110, background=(1, 1), planted_share=0.1),
    "dataset_filter": Spec(scenarios=100, frames=110, background=(3, 3), planted_share=0.15),
    "sweep_parallel": Spec(scenarios=80, frames=30, background=(1, 1), planted_share=0.05),
}


def _track(h, v0, point, when, frames, acc=0.0, t_brake=0.0):
    """Straight track that would pass `point` at time `when` at constant
    speed v0; from t_brake on its speed changes at `acc` m/s^2, never
    dropping below V_MIN (an agent that brakes to yield creeps on)."""
    t = np.arange(frames) * DT
    v = np.maximum(v0 + acc * np.maximum(t - t_brake, 0.0), V_MIN)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * DT)]) - v0 * when
    return point[0] + s * math.cos(h), point[1] + s * math.sin(h), v


def _agent(kind, x, y, h, v, L, W, k0=0, k1=None):
    k1 = len(x) if k1 is None else k1
    n = k1 - k0
    return {
        "type": kind,
        "t_dms": np.arange(k0, k1, dtype=np.int64) * 1000,
        "x": x[k0:k1], "y": y[k0:k1], "v": v[k0:k1],
        "h": np.full(n, h), "L": np.full(n, L), "W": np.full(n, W),
    }


def _sign(rng) -> int:
    return 1 if rng.random() < 0.5 else -1


def _scenario(rng, family: str, variant: str, spec: Spec) -> dict:
    """The AV drives along +x and reaches the origin at tc; the family agent
    collides with it (planted), is on a collision course that emergency
    braking resolves (conflict), or keeps clear (benign); background agents
    cross the scene on their own."""
    n = spec.frames
    T = (n - 1) * DT
    tc = rng.uniform(0.4 * T, 0.65 * T)
    v_av, L_av, W_av = rng.uniform(6.0, 12.0), rng.uniform(4.5, 5.0), rng.uniform(1.9, 2.05)
    kind, L, W = "vehicle", rng.uniform(4.2, 5.2), rng.uniform(1.8, 2.1)
    # emergency braking of the yielding agent, 2-3.2 s before the nominal contact
    brake = {"acc": -rng.uniform(5.0, 8.0), "t_brake": tc - rng.uniform(2.0, 3.2)}
    drift = {"acc": rng.uniform(-0.3, 0.3)} if variant == "benign" else {}
    av = brake if variant == "conflict" and (family in ("following", "pedestrian", "head_on") or rng.random() < 0.5) else {}
    other = brake if variant == "conflict" and (family == "head_on" or not av) else drift

    if family in ("crossing", "merging", "pedestrian"):
        if family == "crossing":
            h, vo = _sign(rng) * math.pi / 2, rng.uniform(6.0, 12.0)
        elif family == "merging":
            h, vo = rng.uniform(0.15, 0.45), rng.uniform(6.0, 12.0)
        else:
            h, vo = _sign(rng) * (math.pi / 2 + rng.uniform(-0.35, 0.35)), rng.uniform(0.8, 2.0)
            kind, L, W, other = "pedestrian", ref.PEDESTRIAN_SIZE, ref.PEDESTRIAN_SIZE, {}
        delay = _sign(rng) * rng.uniform(1.5, 3.0) if variant == "benign" else rng.uniform(-0.15, 0.15)
        x, y, v = _track(h, vo, (rng.uniform(-1.0, 1.0), 0.0), tc + delay, n, **other)
    elif family == "head_on":
        h, offset = math.pi, rng.uniform(2.4, 4.0) if variant == "benign" else rng.uniform(0.0, 1.2)
        x, y, v = _track(h, rng.uniform(6.0, 12.0), (0.0, _sign(rng) * offset), tc, n, **other)
    elif family == "following":
        # a slower leader in the AV's lane; the AV reaches it at tc unless benign
        h, vo = 0.0, v_av - rng.uniform(1.5, 4.0)
        gap = rng.uniform(8.0, 30.0) + (v_av - vo) * T if variant == "benign" else 0.0
        x, y, v = _track(h, vo, (gap + 0.5 * (L + L_av), rng.uniform(-0.4, 0.4)), tc, n)
    else:  # near_stationary: a vehicle creeping beside, or into, the AV's lane
        h = rng.uniform(-math.pi, math.pi)
        lateral = {"planted": (0.0, 1.0), "conflict": (1.2, 2.2), "benign": (2.8, 4.5)}[variant]
        x, y, v = _track(h, rng.uniform(0.1, 0.4), (rng.uniform(-3.0, 3.0), _sign(rng) * rng.uniform(*lateral)), tc, n)
    agents = {"1": _agent(kind, x, y, h, v, L, W)}
    x, y, v = _track(0.0, v_av, (0.0, 0.0), tc, n, **av)
    agents["AV"] = _agent("vehicle", x, y, 0.0, v, L_av, W_av)

    for k in range(int(rng.integers(spec.background[0], spec.background[1] + 1))):
        h = rng.uniform(-math.pi, math.pi)
        cyclist = rng.random() < 0.25
        vo = rng.uniform(2.0, 6.0) if cyclist else rng.uniform(0.5, 12.0)
        x, y, v = _track(h, vo, rng.uniform(-30.0, 30.0, size=2), rng.uniform(0.0, T), n)
        k0 = int(rng.integers(0, n // 3))
        k1 = int(rng.integers(2 * n // 3, n + 1))
        size = (1.8, 0.7) if cyclist else (rng.uniform(4.2, 5.2), rng.uniform(1.8, 2.1))
        agents[str(k + 2)] = _agent("cyclist" if cyclist else "vehicle", x, y, h, v, *size, k0, k1)
    return agents


def _pair_truth(a: dict, b: dict, d_safe: float) -> dict | None:
    """Common frame count and first overlapping timestamp, or None when the
    pair sits too close to a floating-point decision."""
    ca, cb = ref.common(a, b)
    if len(ca["t_dms"]) == 0:
        return {"frames": 0, "first_overlap_dms": None}
    px, py, vx, vy = ref.relative(ca, cb)
    sep = ref.separation(ca, cb)
    depth = ref.in_depth(ca, cb)
    if (
        np.any(np.abs(sep) < MARGIN)
        or np.any(np.hypot(vx, vy) < MIN_REL_SPEED)
        or np.any(np.abs(depth) < MIN_DEPTH)
        or np.any(np.abs(ref.tem(ca, cb) - ref.TEM_STAR) < MIN_TEM_GAP)
        or np.any(np.abs(px * vx + py * vy) < MIN_APPROACH)
        or d_safe > 0 and (np.any(np.abs(depth + d_safe) < MIN_DEPTH)
                           or np.any(np.abs(ref.nearest(ca, cb)[0] - d_safe) < MARGIN))
    ):
        return None
    hit = np.flatnonzero(sep <= 0.0)
    return {"frames": len(ca["t_dms"]), "first_overlap_dms": int(ca["t_dms"][hit[0]]) if len(hit) else None}


def _draw(rng, family: str, variant: str, spec: Spec, d_safe: float) -> tuple[dict, dict]:
    for _ in range(1000):
        agents = _scenario(rng, family, variant, spec)
        ids = sorted(agents)
        pairs = {}
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                pairs[f"{a},{b}"] = _pair_truth(agents[a], agents[b], d_safe)
        if None not in pairs.values():
            return agents, pairs
    raise RuntimeError(f"no {family} scenario met the margins in 1000 draws")


def generate(workload: str, seed: int) -> tuple[dict, dict]:
    """(scenarios, truth): scenario id -> agent id -> track, and the ground truth."""
    spec = SPECS[workload]
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    scenarios, truth = {}, {}
    for i in range(spec.scenarios):
        family = FAMILIES[i % len(FAMILIES)]
        # golden-ratio sequence: the same variant mix for every seed
        u = (i * 0.6180339887498949) % 1.0
        variant = "planted" if u < spec.planted_share else "conflict" if u < 0.6 else "benign"
        sid = f"s{i:04d}"
        scenarios[sid], pairs = _draw(rng, family, variant, spec, workloads.D_SAFE[workload])
        truth[sid] = {"family": family, "variant": variant, "pairs": pairs}
    return scenarios, truth


def _t(k_dms: int) -> str:
    k = k_dms // 1000
    return f"{k // 10}.{k % 10}"


def _lists(track: dict) -> dict:
    """Track columns as Python numbers, whose repr round-trips exactly."""
    return {k: v if k == "type" else v.tolist() for k, v in track.items()}


def write(out: Path, scenarios: dict, truth: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = ["scenario_id,agent_id,agent_type,t,x,y,speed,heading,length,width"]
    for sid in sorted(scenarios):
        for aid in sorted(scenarios[sid]):
            a = _lists(scenarios[sid][aid])
            ped = a["type"] == "pedestrian"
            for k in range(len(a["x"])):
                dims = ",," if ped else f",{a['L'][k]!r},{a['W'][k]!r}"
                lines.append(
                    f"{sid},{aid},{a['type']},{_t(a['t_dms'][k])},{a['x'][k]!r},{a['y'][k]!r},"
                    f"{a['v'][k]!r},{a['h'][k]!r}" + dims
                )
    (out / "corpus.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    heads = {
        "psi": "case_id,track_id,object_category,timestep,x,y,psi_rad,vx,vy,length,width",
        "vel": "case_id,track_id,object_category,timestep,x,y,vx,vy,length,width",
        "pos": "case_id,track_id,object_category,timestep,x,y,length,width",
    }
    files = {kind: [head] for kind, head in heads.items()}
    vehicle_names = ("car", "vehicle", "truck", "bus")
    for i, sid in enumerate(sorted(scenarios)):
        kind = ("psi", "vel", "pos")[i % 3]
        for j, aid in enumerate(sorted(scenarios[sid])):
            a = _lists(scenarios[sid][aid])
            category = "av" if aid == "AV" else vehicle_names[(i + j) % 4] if a["type"] == "vehicle" else a["type"]
            dims = "," if a["type"] == "pedestrian" else f"{a['L'][0]!r},{a['W'][0]!r}"
            for k in range(len(a["x"])):
                h, v = a["h"][k], a["v"][k]
                cells = [sid, aid, category, str(a["t_dms"][k] // 1000), repr(a["x"][k]), repr(a["y"][k])]
                if kind == "psi":
                    cells.append(repr(h))
                if kind != "pos":
                    cells += [repr(v * math.cos(h)), repr(v * math.sin(h))]
                files[kind].append(",".join(cells) + "," + dims)
    for kind, rows in files.items():
        (out / f"export_{kind}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (out / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def pair_frames(truth: dict) -> int:
    """Common-clock pair-frames in the corpus: one compute_frame each in
    `events`, one SAT test each in `filter-collisions`."""
    return sum(p["frames"] for s in truth.values() for p in s["pairs"].values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    scenarios, truth = generate(args.workload, args.seed)
    write(Path(args.out), scenarios, truth)
    print(f"{len(scenarios)} scenarios, {pair_frames(truth)} pair-frames -> {args.out}")


if __name__ == "__main__":
    main()
