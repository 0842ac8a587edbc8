"""Output checks against references the benchmark computes itself.

Every reference here comes from the workload's geometry, from properties
the method must have, or from a plain re-implementation of the documented
arithmetic; none is a stored copy of earlier output. Each check returns a
list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
import wave

import numpy as np

from workloads import SAMPLE_RATE, WET_DRY_MIX, Inputs

JND_REL = 0.01            # late-reverb JND: 3% early-reflection JND minus 2%
JOIN_SLACK = 1e-9
MAX_CLUSTERS = 12
MU_TOL = 0.05
RT60_MODEL_TOL = 0.02
TAIL_RT60_TOL = 0.10
PREFIX_TOL = 1e-9
SPEED_OF_SOUND = 343.0
COMB_DELAYS_MS = (29.7, 37.1, 41.1, 43.7)
ALLPASS_DELAYS_MS = (5.0, 1.7)
ALLPASS_GAIN = 0.7
COMB_SCALE = 0.25
FADE_S = 0.05


def load_bake(path) -> dict:
    """Parse a bake file with the standard library only."""
    with open(path) as f:
        return json.load(f)


def clustering(doc: dict, inputs: Inputs, lr_counts: list[int]) -> list[str]:
    """JND join rule, LR economy, and each room's 4V/S."""
    bad = []
    mus = [s["mu"] for s in doc["samples"]]
    clusters = doc["clusters"]
    if len(clusters) > MAX_CLUSTERS:
        bad.append(f"{len(clusters)} clusters, more than {MAX_CLUSTERS}")
    if any(n != len(clusters) for n in lr_counts):
        bad.append(f"LR traces counted {lr_counts}, clusters {len(clusters)}")
    for k, c in enumerate(clusters):
        ref = c["mu_ref"]
        if ref != mus[c["start"]]:
            bad.append(f"cluster {k}: mu_ref is not its first sample's mu")
        for i in range(c["start"], c["stop"]):
            if abs(mus[i] - ref) > JND_REL * ref * (1 + JOIN_SLACK):
                bad.append(f"sample {i} is beyond 1% of cluster {k}'s mu_ref")
        if k and abs(mus[c["start"]] - clusters[k - 1]["mu_ref"]) <= (
                JND_REL * clusters[k - 1]["mu_ref"]):
            bad.append(f"cluster {k}'s first sample would have joined "
                       f"cluster {k - 1}")
    # The largest clusters, one per room, each sit in a room and match 4V/S.
    largest = sorted(range(len(clusters)),
                     key=lambda k: clusters[k]["start"] - clusters[k]["stop"])
    for k in largest[:len(inputs.rooms)]:
        c = clusters[k]
        rooms = [r for r in inputs.rooms if r.contains(c["lr_position"])]
        if len(rooms) != 1:
            bad.append(f"cluster {k} is not inside exactly one room")
            continue
        ref = rooms[0].mean_free_path
        err = abs(c["mu_mean"] - ref) / ref
        if err > MU_TOL:
            bad.append(f"cluster {k}: mean mu {c['mu_mean']:.4f} m is "
                       f"{err:.1%} from 4V/S {ref:.4f} m")
    return bad


def sphere_directions(seed: int, n: int) -> np.ndarray:
    """The tracer's documented ray directions: ray i draws two uniforms
    from a generator keyed by (seed, i) and maps them onto the sphere."""
    out = np.empty((n, 3))
    for i in range(n):
        u = np.random.default_rng((seed, i)).random(2)
        z = 1.0 - 2.0 * u[0]
        r = math.sqrt(max(0.0, 1.0 - z * z))
        out[i] = (r * math.cos(2.0 * math.pi * u[1]),
                  r * math.sin(2.0 * math.pi * u[1]), z)
    return out


def _fit_rt60(times: np.ndarray, db: np.ndarray) -> float:
    window = (db <= -5.0) & (db >= -35.0)
    slope, _ = np.polyfit(times[window], db[window], 1)
    return -60.0 / slope


def box_rt60(dims, alpha: float, directions: np.ndarray) -> float:
    """RT60 of specular rays in a closed box of uniform absorption.

    A ray with direction d meets the walls c * sum_i |d_i| / L_i times per
    second, so its energy after t seconds is (1 - alpha) to that power. The
    model decay is the mean over the directions, fitted from -5 to -35 dB.
    """
    rate = SPEED_OF_SOUND * (np.abs(directions) / np.asarray(dims)).sum(axis=1)
    slowest = float(rate.min())
    t_end = 60.0 / (slowest * -10.0 * math.log10(1.0 - alpha))
    t = np.arange(0.0, t_end, 1e-3)
    energy = np.mean((1.0 - alpha) ** (rate[:, None] * t[None, :]), axis=0)
    return _fit_rt60(t, 10.0 * np.log10(energy / energy[0]))


def halls(doc: dict, inputs: Inputs) -> list[str]:
    """One cluster per hall, each band's RT60 against the box model."""
    bad = []
    clusters = doc["clusters"]
    if len(clusters) != len(inputs.rooms):
        bad.append(f"{len(clusters)} clusters for {len(inputs.rooms)} halls")
        return bad
    dirs = sphere_directions(inputs.bake_seed, doc["config"]["lr_rays"])
    for k, c in enumerate(clusters):
        h = next(h for h, r in enumerate(inputs.rooms)
                 if r.contains(c["lr_position"]))
        for b, (rt, alpha) in enumerate(zip(c["rt60_bands"],
                                            inputs.alphas[h])):
            ref = box_rt60(inputs.rooms[h].dims, alpha, dirs)
            if abs(rt - ref) / ref > RT60_MODEL_TOL:
                bad.append(f"cluster {k} band {b}: RT60 {rt:.3f} s vs box "
                           f"model {ref:.3f} s")
    return bad


def _coprime_delays(fs: int) -> list[int]:
    chosen: list[int] = []
    for ms in COMB_DELAYS_MS:
        exact = ms * fs / 1000.0
        base = math.floor(exact + 0.5)
        for cand in sorted(range(base - 50, base + 51),
                           key=lambda c: (abs(c - exact), c)):
            if all(math.gcd(cand, prev) == 1 for prev in chosen):
                chosen.append(cand)
                break
    return chosen


def reference_render(dry: list[float], fs: int, switches, mix: float):
    """Sample-by-sample Schroeder recurrence with linear gain crossfades.

    `switches` lists (start sample, broadband RT60); gains ramp from their
    previous value to the new one over FADE_S and then hold.
    """
    n = len(dry)
    n_fade = int(round(FADE_S * fs))
    acc = [0.0] * n
    for d in _coprime_delays(fs):
        targets = [10.0 ** (-3.0 * d / fs / rt) for _, rt in switches]
        g = [targets[0]] * n
        for (s, _), new in zip(switches[1:], targets[1:]):
            if s >= n:
                break
            old = g[s - 1]
            for j in range(1, min(n_fade, n - s) + 1):
                g[s + j - 1] = old + (new - old) * j / n_fade
            g[s + n_fade:] = [new] * max(0, n - s - n_fade)
        y = [0.0] * (n + d)
        for i in range(n):
            y[i + d] = dry[i] + g[i] * y[i]
        for i in range(n):
            acc[i] += y[i + d]
    wet = [a * COMB_SCALE for a in acc]
    for ms in ALLPASS_DELAYS_MS:
        d = math.floor(ms * fs / 1000.0 + 0.5)
        x = [0.0] * d + wet
        y = [0.0] * (n + d)
        for i in range(n):
            y[i + d] = -ALLPASS_GAIN * x[i + d] + x[i] + ALLPASS_GAIN * y[i]
        wet = y[d:]
    return [mix * w + (1.0 - mix) * x for w, x in zip(wet, dry)]


def read_dry(path) -> list[float]:
    with wave.open(str(path), "rb") as r:
        frames = r.readframes(r.getnframes())
    return (np.frombuffer(frames, dtype="<i2") / 32767.0).tolist()


def render(doc: dict, inputs: Inputs, result: dict, prefix: np.ndarray,
           tail: np.ndarray, bake_sha: str) -> list[str]:
    """Reference prefix, tail decay, round trips and clipping."""
    bad = []
    clusters = doc["clusters"]
    broadband = [sum(c["rt60_bands"]) / len(c["rt60_bands"])
                 for c in clusters]
    schedule = result["schedule"]
    if [cid for _, cid in schedule] != list(range(len(clusters))):
        bad.append("schedule did not visit every cluster in order")
    dry = read_dry(inputs.dry_wav)[:prefix.size]
    switches = [(int(round(t * SAMPLE_RATE)), broadband[cid])
                for t, cid in schedule]
    if len(switches) > 1 and switches[1][0] >= prefix.size:
        bad.append("saved prefix does not span a cluster switch")
    ref = np.array(reference_render(dry, SAMPLE_RATE, switches, WET_DRY_MIX))
    err = float(np.max(np.abs(ref - prefix)))
    if err > PREFIX_TOL:
        bad.append(f"render_path differs from the reference recurrence by "
                   f"{err:.3g}")
    edc = np.cumsum((tail ** 2)[::-1])[::-1]
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(edc / edc[0])
    rt = _fit_rt60(np.arange(tail.size) / SAMPLE_RATE, db)
    last = broadband[schedule[-1][1]]
    if abs(rt - last) / last > TAIL_RT60_TOL:
        bad.append(f"tail RT60 {rt:.3f} s vs last cluster {last:.3f} s")
    if not result["wav_round_trip_exact"]:
        bad.append("WAV round trip is not exact")
    if result["roundtrip_canonical_sha256"] != bake_sha:
        bad.append("bake JSON round trip changed canonical_bytes()")
    if result["peak"] > 1.0 or result["warnings"]:
        bad.append(f"output clips (peak {result['peak']:.3f})")
    return bad
