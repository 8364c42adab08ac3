"""Golden digest of the PPO minibatch update, pinned byte for byte by
tests/test_trainer.py.

A desk-profile policy ([64, 64] policy and value nets) is trained on one
synthetic rollout batch by ``ppo_update``, the update ``train_stage`` runs
after every rollout: 2 epochs, each a fresh permutation split into 4
minibatches, each gathered, its advantages normalized, then ``ppo_loss`` and
one ``Adam.step``. Two cases: 1,280 rows (4 x 320), then 1,283 rows, whose
uneven split gives minibatches of 321/321/321/320 rows. Both cases share one
workspace, so its buffers grow (320 to 321 rows) and are reused at fewer
rows (321 to 320) mid-update. One sha256 per parameter and per Adam moment
after the last step, and one over the last minibatch's loss parts, covers
each case.

The digests were recorded from the update as it was before it gained its
workspace: a fresh array for every intermediate and an inline minibatch
loop in ``train_stage``.

Regenerate (only after a deliberate change of numerics) from the repo root:

    PYTHONPATH=src python3 tests/ppo_update_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from stageflow.env import OBS_DIM
from stageflow.trainer import Adam, Policy, Workspace, ppo_update

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "ppo_update_golden.json"

CASES = (1_280, 1_283)
EPOCHS, MINIBATCHES = 2, 4
POLICY_SEED, DATA_SEED, SHUFFLE_SEED = 3, 5, 9
CLIP_EPS, ENTROPY_COST, LEARNING_RATE = 0.2, 1e-3, 3e-4


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(f"{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def rollout_batch(policy: Policy, rows: int) -> dict:
    rng = np.random.default_rng(DATA_SEED)
    obs = rng.standard_normal((rows, OBS_DIM))
    raw, _, logp = policy.act(obs, rng)
    return {
        "obs": obs,
        "raw_actions": raw,
        "old_logp": logp + 0.05 * rng.standard_normal(rows),
        "advantages": rng.standard_normal(rows) * 2.0 + 0.3,
        "returns": rng.standard_normal(rows),
    }


def minibatch_rows(rows: int) -> list:
    return [len(c) for c in np.array_split(np.arange(rows), MINIBATCHES)] * EPOCHS


def update_digest(rows: int, workspace: Workspace) -> dict:
    policy = Policy([64, 64], [64, 64], seed=POLICY_SEED)
    flat = rollout_batch(policy, rows)
    optimizer = Adam(policy.params, lr=LEARNING_RATE)
    rng = np.random.default_rng(SHUFFLE_SEED)
    parts = ppo_update(policy, optimizer, flat, rng, EPOCHS, MINIBATCHES,
                       CLIP_EPS, ENTROPY_COST, workspace)
    digests = {f"param:{k}": _digest(v) for k, v in policy.params.items()}
    digests.update({f"adam_m:{k}": _digest(v) for k, v in optimizer.m.items()})
    digests.update({f"adam_v:{k}": _digest(v) for k, v in optimizer.v.items()})
    digests["loss_parts"] = _digest([parts[k] for k in sorted(parts)])
    return {"minibatch_rows": minibatch_rows(rows), "digests": dict(sorted(digests.items()))}


def golden() -> dict:
    workspace = Workspace()
    return {
        "config": {"epochs": EPOCHS, "minibatches": MINIBATCHES,
                   "policy_seed": POLICY_SEED, "data_seed": DATA_SEED,
                   "shuffle_seed": SHUFFLE_SEED, "clip_eps": CLIP_EPS,
                   "entropy_cost": ENTROPY_COST, "learning_rate": LEARNING_RATE},
        "cases": {str(rows): update_digest(rows, workspace) for rows in CASES},
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
