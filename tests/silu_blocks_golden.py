"""Golden digest of network passes over many rows, pinned byte for byte by
tests/test_trainer.py.

``mlp_forward`` runs each hidden layer's SiLU in row blocks of
``trainer.SILU_ROWS``, and ``ppo_update`` runs a minibatch in chunks of
``trainer.ROW_CHUNK`` rows; the other goldens train on minibatches of at
most 321 rows, within one block and one chunk. These cases span several
blocks for any block size from 512 to 2,048 rows and, but for one, end in a
short block:

- ``update``: ``ppo_update`` on 9,001 synthetic rollout rows, 2 epochs of 2
  minibatches (4,501 and 4,500 rows, each a chunk of 4,096 rows and a
  short one), at the desk nets ([64, 64] policy and value) and at uneven
  ones ([80, 48] policy, [32, 96, 64] value), so that the block scratch
  serves layers of several widths. One sha256 per parameter and per Adam
  moment after the last step, and one over the last minibatch's loss
  parts, as in ``ppo_update_golden``.
- ``inference``: ``act``, ``value`` and ``act_deterministic`` of the desk
  nets on 4,500 rows and on 4,096 (a whole number of blocks, as a 4096-env
  rollout step is), each on a workspace an update has grown and on a
  throwaway one. The update that grows it trains one minibatch of twice
  the rows (9,000 or 8,192, in three or two chunks); inference itself runs
  whole.

Every case runs on one BLAS thread, as a stage does
(``trainer.one_blas_thread``). The weight gradient ``h.T @ grad``,
a product over a chunk's rows, can round differently on one OpenBLAS thread
than on two (it did at 1,283, 4,500 and 10,001 rows, not at 4,096, 5,120 or
20,480), so without the pin the digests could depend on the machine's core
count. The SiLU blocks themselves are elementwise and need
no BLAS.

The digests were first recorded before the SiLU ran in blocks, when each
hidden layer held its sigmoid as a whole array, and held byte for byte
under the blocks. They were re-recorded when ``ppo_update`` began to add
its gradients over row chunks, which rounds differently from one pass over
a minibatch of more than ``ROW_CHUNK`` rows.

Regenerate (only after a deliberate change of numerics) from the repo root:

    PYTHONPATH=src python3 tests/silu_blocks_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ppo_update_golden import (CLIP_EPS, DATA_SEED, ENTROPY_COST, LEARNING_RATE,
                               POLICY_SEED, SHUFFLE_SEED, _digest, rollout_batch)
from stageflow.env import OBS_DIM
from stageflow.trainer import Adam, Policy, Workspace, one_blas_thread, ppo_update

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "silu_blocks_golden.json"

UPDATE_ROWS, EPOCHS, MINIBATCHES = 9_001, 2, 2
NETS = {"desk": ([64, 64], [64, 64]), "uneven": ([80, 48], [32, 96, 64])}
INFERENCE_ROWS = (4_500, 4_096)
ACT_SEED = 11


def update_digest(policy_hidden, value_hidden) -> dict:
    policy = Policy(policy_hidden, value_hidden, seed=POLICY_SEED)
    flat = rollout_batch(policy, UPDATE_ROWS)
    optimizer = Adam(policy.params, lr=LEARNING_RATE)
    rng = np.random.default_rng(SHUFFLE_SEED)
    parts = ppo_update(policy, optimizer, flat, rng, EPOCHS, MINIBATCHES,
                       CLIP_EPS, ENTROPY_COST, Workspace())
    digests = {f"param:{k}": _digest(v) for k, v in policy.params.items()}
    digests.update({f"adam_m:{k}": _digest(v) for k, v in optimizer.m.items()})
    digests.update({f"adam_v:{k}": _digest(v) for k, v in optimizer.v.items()})
    digests["loss_parts"] = _digest([parts[k] for k in sorted(parts)])
    return dict(sorted(digests.items()))


def inference_digest(rows: int) -> dict:
    policy = Policy(*NETS["desk"], seed=POLICY_SEED)
    obs = np.random.default_rng(DATA_SEED).standard_normal((rows, OBS_DIM))
    grown = Workspace()
    ppo_update(policy, Adam(policy.params, lr=LEARNING_RATE), rollout_batch(policy, 2 * rows),
               np.random.default_rng(SHUFFLE_SEED), 1, 1, CLIP_EPS, ENTROPY_COST, grown)
    digests = {}
    for name, workspace in (("grown", grown), ("throwaway", None)):
        raw, squashed, logp = policy.act(obs, np.random.default_rng(ACT_SEED), workspace)
        digests[f"{name}:act"] = _digest(raw, squashed, logp)
        digests[f"{name}:value"] = _digest(policy.value(obs, workspace))
        digests[f"{name}:act_deterministic"] = _digest(policy.act_deterministic(obs, workspace))
    return digests


def golden() -> dict:
    with one_blas_thread():
        update = {name: update_digest(*nets) for name, nets in NETS.items()}
        inference = {str(rows): inference_digest(rows) for rows in INFERENCE_ROWS}
    return {
        "config": {"update_rows": UPDATE_ROWS, "epochs": EPOCHS, "minibatches": MINIBATCHES,
                   "nets": {k: list(v) for k, v in NETS.items()},
                   "inference_rows": list(INFERENCE_ROWS),
                   "policy_seed": POLICY_SEED, "data_seed": DATA_SEED,
                   "shuffle_seed": SHUFFLE_SEED, "act_seed": ACT_SEED,
                   "clip_eps": CLIP_EPS, "entropy_cost": ENTROPY_COST,
                   "learning_rate": LEARNING_RATE},
        "update": update,
        "inference": inference,
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
