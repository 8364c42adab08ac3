"""Golden digest of the reward evaluator, pinned byte for byte by tests/test_reward.py.

The shipped ``desk`` stage-1 and stage-2 programs and the 13-term ``tune``
stage-1 program are evaluated with ``eval_total_batch`` on every step of one
64-env VecEnv rollout: the tune stage-1 environment with all of its
randomization rules, 200 steps, 40-step episodes so that rows reset. One
sha256 per program and term, and one per program total, covers the (64,)
reward array of every step.

Regenerate (only after a deliberate change of numerics) from the repo root:

    PYTHONPATH=src python3 tests/reward_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from stageflow.env import ACTION_DIM, VecEnv
from stageflow.reward import compile_program, eval_total_batch
from stageflow.schema import parse_bundle

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src/stageflow/data"
GOLDEN = HERE / "data" / "reward_golden.json"

NUM_ENVS, STEPS, EPISODE_LENGTH, BASE_SEED = 64, 200, 40, 3
PROGRAMS = (("desk", 1), ("desk", 2), ("tune", 1))


def programs() -> dict:
    """``<bundle><stage>`` -> the compiled reward program of that stage."""
    out = {}
    for bundle, stage in PROGRAMS:
        doc = parse_bundle(DATA / "bundles" / bundle).stages[stage - 1].reward_doc
        out[f"{bundle}{stage}"] = compile_program(doc["reward"])
    return out


def rollout_bindings():
    """Yield the stacked bindings of every step of the pinned rollout."""
    stage = parse_bundle(DATA / "bundles" / "tune").stages[0]
    env = VecEnv(stage.config_doc["environment"], NUM_ENVS, base_seed=BASE_SEED,
                 randomize_rules=stage.randomize_doc["randomization"],
                 episode_length=EPISODE_LENGTH)
    act_rng = np.random.default_rng(11)
    for _ in range(STEPS):
        _, bindings, _ = env.step(act_rng.uniform(-1, 1, (NUM_ENVS, ACTION_DIM)))
        yield bindings


def reward_digest() -> dict:
    progs = programs()
    hashes: dict = {}

    def feed(key, arr):
        arr = np.ascontiguousarray(arr)
        h = hashes.setdefault(key, hashlib.sha256())
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())

    for bindings in rollout_bindings():
        for name, prog in progs.items():
            out = eval_total_batch(prog, bindings, NUM_ENVS)
            feed(f"{name}:total", out["total"])
            for term, value in out["per_term"].items():
                feed(f"{name}:{term}", value)
    return {
        "config": {"num_envs": NUM_ENVS, "steps": STEPS,
                   "episode_length": EPISODE_LENGTH, "base_seed": BASE_SEED,
                   "programs": [f"{b}{s}" for b, s in PROGRAMS]},
        "digests": {k: h.hexdigest() for k, h in sorted(hashes.items())},
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reward_digest(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
