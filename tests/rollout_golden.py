"""Golden digest of the trainer's two rollouts, pinned byte for byte by
tests/test_trainer.py.

``_collect`` (the training rollout) runs the shipped tune stage-1
environment, reward program and randomization rules at 64, 100 and 300 envs:
two successive calls of 7 steps each, with observation normalization, a
reward scaling of 0.5 and 5-step episodes so that rows reset mid-rollout.
The env counts and the odd step count make the reward blocks uneven (see the
``trainer`` docstring): 4 + 3 steps at 64 envs, 2 + 2 + 2 + 1 at 100, and
one step per block at 300. One sha256 per rollout stream (obs, raw actions,
log-probs, values, rewards, dones) covers both calls, with the returned
observations and the normalizer's state after each.

``_evaluate`` (periodic evaluation) runs 16 envs of the same stage under
hard, frequent kicks, so that episodes end on different steps and the loop
stops before ``max_steps``. Its record is kept as exact float hex strings,
beside the step on which each env first finished and the number of steps
taken.

Both run their forwards on a ``trainer.Workspace``, as ``train_stage`` does;
the two ``_collect`` calls share one. Both were recorded from the rollouts as they were when each step's reward
was evaluated on its own.

Regenerate (only after a deliberate change of numerics) from the repo root:

    PYTHONPATH=src python3 tests/rollout_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path

import numpy as np

from stageflow import trainer
from stageflow.env import BINDING_SHAPES, OBS_DIM, VecEnv
from stageflow.reward import compile_program
from stageflow.schema import parse_bundle

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src/stageflow/data"
GOLDEN = HERE / "data" / "rollout_golden.json"

COLLECT_ENVS = (64, 100, 300)
UNROLL, CALLS, EPISODE_LENGTH, REWARD_SCALING = 7, 2, 5, 0.5
EVAL_EPISODES, EVAL_MAX_STEPS = 16, 80
HARD_KICKS = {"big_min_kick_vel": 0.4, "big_max_kick_vel": 2.5, "big_kick_interval": 6,
              "small_min_kick_vel": 0.1, "small_max_kick_vel": 0.4,
              "small_kick_interval": 3}
POLICY_SEED, ENV_SEED, ACT_SEED, NORM_SEED = 3, 5, 9, 13


def _feed(h, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def _stage():
    stage = parse_bundle(DATA / "bundles" / "tune").stages[0]
    return (stage.config_doc["environment"], stage.randomize_doc["randomization"],
            compile_program(stage.reward_doc["reward"], BINDING_SHAPES))


def _policy_and_norm():
    policy = trainer.Policy([64, 64], [64, 64], seed=POLICY_SEED)
    obs_norm = trainer.RunningNorm(OBS_DIM)
    obs_norm.update(np.random.default_rng(NORM_SEED).normal(0.2, 1.5, (50, OBS_DIM)))
    return policy, obs_norm


def collect_digest(num_envs: int) -> dict:
    env_cfg, rules, program = _stage()
    policy, obs_norm = _policy_and_norm()
    envs = VecEnv(env_cfg, num_envs, base_seed=ENV_SEED, randomize_rules=rules,
                  episode_length=EPISODE_LENGTH)
    rng = np.random.default_rng(ACT_SEED)
    workspace = trainer.Workspace()
    hashes: dict = {}
    obs = envs.observe()
    for _ in range(CALLS):
        rollout, obs = trainer._collect(envs, policy, obs_norm, obs, program,
                                        REWARD_SCALING, UNROLL, rng, workspace)
        for key, arr in rollout.items():
            _feed(hashes.setdefault(key, hashlib.sha256()), arr)
        for key, arr in (("next_obs", obs), ("obs_norm", obs_norm.mean),
                         ("obs_norm", obs_norm.var)):
            _feed(hashes.setdefault(key, hashlib.sha256()), arr)
    return {k: h.hexdigest() for k, h in sorted(hashes.items())}


@contextlib.contextmanager
def _recording_envs(finished_masks: list):
    """Swap the trainer's VecEnv for one that records every ``finished`` mask."""
    class Recording(VecEnv):
        def step(self, actions):
            out = super().step(actions)
            finished_masks.append(out[-1].copy())
            return out

    trainer.VecEnv = Recording
    try:
        yield
    finally:
        trainer.VecEnv = VecEnv


def evaluate_record() -> dict:
    env_cfg, rules, program = _stage()
    env_cfg = {**env_cfg, **HARD_KICKS}
    policy, obs_norm = _policy_and_norm()
    masks: list = []
    with _recording_envs(masks):
        rec = trainer._evaluate(policy, obs_norm, env_cfg, rules, program,
                                ENV_SEED, EVAL_EPISODES, EVAL_MAX_STEPS, trainer.Workspace())
    finished = np.array(masks)
    return {
        "steps": len(masks),
        "first_finish": [int(np.argmax(col)) + 1 for col in finished.T],
        "record": {k: float(v).hex() for k, v in sorted(rec.items())},
    }


def golden() -> dict:
    return {
        "config": {"bundle": "tune", "collect_envs": list(COLLECT_ENVS),
                   "unroll": UNROLL, "calls": CALLS, "episode_length": EPISODE_LENGTH,
                   "reward_scaling": REWARD_SCALING, "eval_episodes": EVAL_EPISODES,
                   "eval_max_steps": EVAL_MAX_STEPS, "hard_kicks": HARD_KICKS,
                   "seeds": {"policy": POLICY_SEED, "env": ENV_SEED,
                             "act": ACT_SEED, "norm": NORM_SEED}},
        "collect": {str(n): collect_digest(n) for n in COLLECT_ENVS},
        "evaluate": evaluate_record(),
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
