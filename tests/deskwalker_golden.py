"""Golden digest of final scoring's episodes, each run alone, pinned byte for
byte by tests/test_env.py.

The protocol is ``orchestrator.final_scores``'s, with fixed random actions in
place of a policy: the shipped tune stage-1 environment (obs noise, big and
small kicks, init_rand, stand probability) with all seven tune randomization
rules, 8 episodes at seeds ``7 + 100 e``, each a fresh one-row DeskWalker
stepped for at most 150 steps, stopping at ``done``. (Final scoring steps
the 8 rows in one walker; ``test_env`` checks that each row matches its
one-row walker.) The shipped kicks never end an episode, so the same 8
episodes run again with the big kick raised (``HARD_KICKS``), where some end
on ``done`` at the kick and some reach the horizon. One sha256 per stream
covers every observation (the reset one, then the one after each step that
did not end the episode), each step's ``done`` and each binding's kind and
array; the episode lengths are recorded too. The ``binding:rot_up`` digest
was recorded again when the walker's ``rot_up`` height became the row sum
that training's bindings use, in place of a one-vector dot that can round
its last bit differently; every other digest dates from the walker that had
its own physics.

Regenerate (only after a deliberate change of numerics) from the repo root:

    PYTHONPATH=src python3 tests/deskwalker_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from stageflow.env import ACTION_DIM, BINDING_KINDS, DeskWalker
from stageflow.schema import parse_bundle

from conftest import walker_row

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src/stageflow/data"
GOLDEN = HERE / "data" / "deskwalker_golden.json"

SEED, EPISODES, HORIZON, ACTION_SEED = 7, 8, 150, 11
HARD_KICKS = {"big_min_kick_vel": 1.0, "big_max_kick_vel": 3.0}


def _feed(h, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def rollout_digest() -> dict:
    stage = parse_bundle(DATA / "bundles" / "tune").stages[0]
    shipped = stage.config_doc["environment"]
    rules = stage.randomize_doc["randomization"]
    hashes: dict = {"obs": hashlib.sha256(), "done": hashlib.sha256()}
    act_rng = np.random.default_rng(ACTION_SEED)
    lengths = []
    for env_cfg, e in [(cfg, e) for cfg in (shipped, dict(shipped, **HARD_KICKS))
                       for e in range(EPISODES)]:
        env = DeskWalker(env_cfg, rules, seed=SEED + 100 * e)
        _feed(hashes["obs"], env.observe()[0])
        for t in range(HORIZON):
            obs, done = env.step(act_rng.uniform(-1, 1, (1, ACTION_DIM)))
            _feed(hashes["done"], np.array(done[0]))
            for key, value in walker_row(env.bindings()).items():
                h = hashes.setdefault(f"binding:{key}", hashlib.sha256())
                h.update(BINDING_KINDS[key].encode())
                _feed(h, value)
            if done[0]:
                break
            _feed(hashes["obs"], obs[0])
        lengths.append(t + 1)
    return {
        "config": {"seed": SEED, "episodes": EPISODES, "horizon": HORIZON,
                   "action_seed": ACTION_SEED, "hard_kicks": HARD_KICKS,
                   "rules": sorted(rules)},
        "lengths": lengths,
        "digests": {k: h.hexdigest() for k, h in sorted(hashes.items())},
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rollout_digest(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
