"""Golden digest of a VecEnv rollout, pinned byte for byte by tests/test_env.py.

The rollout uses the shipped tune stage-1 environment (obs noise, big and
small kicks, init_rand, stand probability) with all seven tune randomization
rules, 64 envs over 300 steps and 40-step episodes so that rows reset. One
sha256 per stream covers the initial observation and, every step, the
observation, each binding array and the ``finished`` mask.

Regenerate (only after a deliberate change of numerics) from the repo root:

    PYTHONPATH=src python3 tests/vecenv_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from stageflow.env import ACTION_DIM, BINDING_KINDS, VecEnv
from stageflow.schema import parse_bundle

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src/stageflow/data"
GOLDEN = HERE / "data" / "vecenv_golden.json"

NUM_ENVS, STEPS, EPISODE_LENGTH, BASE_SEED = 64, 300, 40, 3


def _feed(h, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def rollout_digest() -> dict:
    stage = parse_bundle(DATA / "bundles" / "tune").stages[0]
    env_cfg = stage.config_doc["environment"]
    rules = stage.randomize_doc["randomization"]
    env = VecEnv(env_cfg, NUM_ENVS, base_seed=BASE_SEED, randomize_rules=rules,
                 episode_length=EPISODE_LENGTH)
    hashes: dict = {"obs": hashlib.sha256(), "finished": hashlib.sha256()}
    _feed(hashes["obs"], env.observe())
    act_rng = np.random.default_rng(11)
    resets = 0
    for _ in range(STEPS):
        obs, finished = env.step(act_rng.uniform(-1, 1, (NUM_ENVS, ACTION_DIM)))
        _feed(hashes["obs"], obs)
        _feed(hashes["finished"], finished)
        resets += int(finished.sum())
        for key, value in env.bindings().items():
            h = hashes.setdefault(f"binding:{key}", hashlib.sha256())
            h.update(BINDING_KINDS[key].encode())
            _feed(h, value)
    return {
        "config": {"num_envs": NUM_ENVS, "steps": STEPS,
                   "episode_length": EPISODE_LENGTH, "base_seed": BASE_SEED,
                   "rules": sorted(rules)},
        "resets": resets,
        "digests": {k: h.hexdigest() for k, h in sorted(hashes.items())},
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rollout_digest(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
