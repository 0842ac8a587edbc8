"""Golden outputs that pin the bake and the render across changes.

    PYTHONPATH=src python tests/make_golden.py           # rewrite golden.json
    PYTHONPATH=src python tests/make_golden.py --check   # compare only

Three outputs are pinned: the corridor fixture bake at seed 0, a bake of
two closed boxes, and a short render with a few switches, one of whose
ramps crosses sample 32,768. A bake pins every point's mean free path and
every cluster's range, band RT60s and r². The render pins its length, every
`RENDER_STRIDE`-th sample and the energy of each `RENDER_WINDOW` samples.

`--check` computes the outputs again, prints each value that moved with
its relative change, and exits 1 if any moved by more than `TOLERANCE`
relative, or if a length, an integer or the file's layout changed. The
tolerance is there because the bake's matrix products go through BLAS,
whose results vary with the CPU; on one machine the values are exact. A
change that moves values on purpose rewrites the file and names the moves
that `--check` printed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from conftest import HALL_POINTS, TWO_HALLS_OBJ, baked_map

from echobake.audio_io import AudioBuffer
from echobake.pipeline import BakeConfig, bake, corridor_fixture
from echobake.reverb import FADE_S, render_path
from echobake.scene import load_scene

GOLDEN = Path(__file__).with_name("golden.json")
TOLERANCE = 1e-12
RENDER_FS = 48000
RENDER_STRIDE = 1013
RENDER_WINDOW = 4800


def _bake_values(scene, points, config) -> dict:
    bakefile, _ = bake(scene, points, config)
    return {
        "mu": [s.mu for s in bakefile.samples],
        "clusters": [{"start": c.start, "stop": c.stop,
                      "rt60": list(c.rt60_bands), "r2": list(c.r_squared)}
                     for c in bakefile.cluster_map.clusters],
    }


def corridor_bake() -> dict:
    scene, points = corridor_fixture()
    return _bake_values(scene, points, BakeConfig(seed=0))


def two_box_bake() -> dict:
    materials = json.dumps({"materials": {"default": [0.1, 0.2, 0.3, 0.4]}})
    scene = load_scene(TWO_HALLS_OBJ, materials)
    # The path crosses from the first box into the second.
    points = sorted(HALL_POINTS)
    return _bake_values(scene, points,
                        BakeConfig(seed=0, er_rays=200, lr_rays=200,
                                   lr_bounces=100))


def render() -> dict:
    fs = RENDER_FS
    dry = np.random.default_rng(0).standard_normal(3 * fs) * 0.1
    ramp_mid = int(round(FADE_S * fs)) // 2
    schedule = [(0.0, 0), ((32768 - ramp_mid) / fs, 1), (1.5, 2), (2.2, 0)]
    out = render_path(AudioBuffer(fs, dry), baked_map([0.6, 1.4, 0.9]),
                      schedule, wet_dry_mix=0.8).samples
    n_windows = -(-out.size // RENDER_WINDOW)
    padded = np.zeros(n_windows * RENDER_WINDOW)
    padded[:out.size] = out
    energies = (padded * padded).reshape(n_windows, RENDER_WINDOW).sum(axis=1)
    return {"length": out.size,
            "samples": out[::RENDER_STRIDE].tolist(),
            "energies": energies.tolist()}


OUTPUTS = {"corridor_bake": corridor_bake, "two_box_bake": two_box_bake,
           "render": render}


def moved(old, new, path: str = "") -> list[tuple[str, object, object, float]]:
    """Every value in which `new` differs from `old`, as (path, old, new,
    relative change). A changed layout, length or integer counts as
    infinitely far; a NaN's relative change is NaN, which no tolerance
    admits."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return [(path, sorted(old), sorted(new), math.inf)]
        return [m for k in old for m in moved(old[k], new[k], f"{path}/{k}")]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [(f"{path} length", len(old), len(new), math.inf)]
        return [m for i, (a, b) in enumerate(zip(old, new))
                for m in moved(a, b, f"{path}[{i}]")]
    if type(old) is float and type(new) is float:
        if old == new:
            return []
        return [(path, old, new, abs(new - old) / abs(old) if old else math.inf)]
    if type(old) is type(new) and old == new:
        return []
    return [(path, old, new, math.inf)]


def beyond_tolerance(changes) -> list:
    return [c for c in changes if not c[3] <= TOLERANCE]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with golden.json instead of rewriting it")
    args = parser.parse_args(argv)
    fresh = {name: make() for name, make in OUTPUTS.items()}
    if not args.check:
        GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
        return 0
    changes = moved(json.loads(GOLDEN.read_text()), fresh)
    for path, old, new, rel in changes:
        print(f"{path}: {old!r} -> {new!r} (relative change {rel:.3g})")
    far = beyond_tolerance(changes)
    print(f"{len(changes)} values moved, {len(far)} by more than {TOLERANCE:g}")
    return 1 if far else 0


if __name__ == "__main__":
    sys.exit(main())
