"""Golden digests of randomized scenes at paper width, pinned byte for byte by
tests/test_randomize.py.

``resample_per_env`` draws every shipped stage's rule set (desk, tune and
blind), and a rule set that repeats (field, target) pairs, for 4,096 keys
``(BASE_SEED, i)``, as a 4,096-env VecEnv does. One sha256 per rule set
covers every field of the scene, in name order.

Regenerate (only after a deliberate change of numerics) from the repo root:

    PYTHONPATH=src python3 tests/scene_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from stageflow.randomize import desk_scene, resample_per_env
from stageflow.schema import parse_bundle

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src/stageflow/data"
GOLDEN = HERE / "data" / "scene_golden.json"

NUM_KEYS, BASE_SEED = 4096, 31


def _uniform_rule(target, operation, lo, hi):
    return {"target": target, "operation": operation,
            "distribution": {"uniform": {"minval": lo, "maxval": hi}}}


# rules that repeat a (field, target), which no shipped bundle does
REPEATED = {
    "body_mass": [_uniform_rule("ALL", "set", 0.0, 1.0),
                  _uniform_rule(["torso", "leg_l"], "scale", 0.5, 1.5),
                  _uniform_rule("ALL", "add", 0.0, 1.0),
                  _uniform_rule(["torso", "leg_l"], "scale", 0.5, 1.5),
                  _uniform_rule("ALL", "add", 0.0, 1.0)],
    "geom_friction": [_uniform_rule("ALL", "set", [0.6, 0.0, 0.0], [1.1, 0.0, 0.0]),
                      _uniform_rule("ALL", "scale", [0.5, 1.0, 1.0], [1.5, 1.0, 1.0])],
}


def rule_sets() -> dict:
    """``bundle/stageN`` -> that stage's rules, for every shipped stage, plus
    ``repeated targets``."""
    out = {}
    for name in ("desk", "tune", "blind"):
        for stage in parse_bundle(DATA / "bundles" / name).stages:
            out[f"{name}/stage{stage.index}"] = stage.randomize_doc.get("randomization") or {}
    out["repeated targets"] = REPEATED
    return out


def scene_digest(rules: dict) -> str:
    scenes = resample_per_env(rules, desk_scene(), [(BASE_SEED, i) for i in range(NUM_KEYS)])
    h = hashlib.sha256()
    for name in sorted(scenes):
        arr = np.ascontiguousarray(scenes[name])
        h.update(f"{name}{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def digests() -> dict:
    return {
        "config": {"num_keys": NUM_KEYS, "base_seed": BASE_SEED},
        "digests": {name: scene_digest(rules) for name, rules in sorted(rule_sets().items())},
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
