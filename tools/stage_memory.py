"""Measure what one training stage costs a fresh process in memory and time.

Trains stage 1 of the shipped ``tune`` bundle once, for one PPO iteration
(``num_envs * unroll_length`` env steps) with two evaluations, in this
process at the config's seed, and prints:

- peak RSS: the process's high-water resident set (``ru_maxrss``), which
  includes the interpreter and its imports;
- minor page faults, wall seconds, CPU seconds (user + system) and system
  seconds taken by the stage alone (``getrusage`` and clocks around
  ``train_stage``);
- ``construct_s``: the wall seconds of one ``VecEnv`` construction at the
  stage's width, seed, environment config and randomization rules, taken
  before the stage (ROADMAP item 8 sets it under 0.2 s at 4096 envs).

Each run is one process, so every figure is a first stage's: no buffer of an
earlier stage is warm. By default the stage runs under the desk profile
([64, 64] nets, 4 minibatches) with ``num_envs`` raised to ``--envs``, as the
benchmark's ``tune_wide4096`` workload does; ``--paper-scale`` trains at the
configured sizes (8192 envs, [512, 256, 128] nets, 32 minibatches) for one
epoch. Run from the repository root:

    PYTHONPATH=src python3 tools/stage_memory.py --envs 4096
    PYTHONPATH=src python3 tools/stage_memory.py --paper-scale
    PYTHONPATH=src python3 tools/stage_memory.py --tiny   # 256 envs, a quick pass

The last line is the same figures as one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stageflow import schema, trainer
from stageflow.env import VecEnv

TUNE = Path(__file__).resolve().parents[1] / "src" / "stageflow" / "data" / "bundles" / "tune"
TINY_ENVS = 256


def tune_stage(envs: int | None, paper_scale: bool):
    """Shipped tune stage 1 sized for one iteration and two evaluations."""
    stage = schema.parse_bundle(TUNE).stages[0]
    config = trainer.desk_profile(stage.config_doc, paper_scale)
    tr = config["trainer"]
    if paper_scale:
        tr["num_updates_per_batch"] = 1
    else:
        tr["num_envs"] = envs
    tr.update(num_timesteps=tr["num_envs"] * tr["unroll_length"], num_evals=2)
    return dataclasses.replace(stage, config_doc=config), tr


def construct_seconds(stage, tr) -> float:
    """Wall seconds of one construction of the stage's ``VecEnv``."""
    w0 = time.perf_counter()
    VecEnv(stage.config_doc["environment"], int(tr["num_envs"]),
           base_seed=int(tr.get("seed", 0)),
           randomize_rules=stage.randomize_doc.get("randomization") or {},
           episode_length=int(tr["episode_length"]))
    return time.perf_counter() - w0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    size = ap.add_mutually_exclusive_group()
    size.add_argument("--envs", type=int, default=4096,
                      help="envs under the desk profile (default 4096)")
    size.add_argument("--paper-scale", action="store_true",
                      help="the configured sizes, one epoch")
    size.add_argument("--tiny", action="store_true",
                      help=f"{TINY_ENVS} envs: checks the tool runs")
    args = ap.parse_args(argv)
    envs = TINY_ENVS if args.tiny else args.envs

    stage, tr = tune_stage(envs, args.paper_scale)
    construct_s = construct_seconds(stage, tr)
    with tempfile.TemporaryDirectory() as tmp:
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        # the config is already sized; train_stage's desk profile would cap
        # num_envs at 64
        result = trainer.train_stage(stage, tmp, paper_scale=True)
        wall = time.perf_counter() - w0
        r1 = resource.getrusage(resource.RUSAGE_SELF)

    record = {
        "num_envs": int(tr["num_envs"]),
        "paper_scale": args.paper_scale,
        "seed": int(tr.get("seed", 0)),  # the config's, as train_stage takes it
        "env_steps": result.env_steps,
        "peak_rss_mb": round(r1.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "minor_faults": r1.ru_minflt - r0.ru_minflt,
        "wall_s": round(wall, 3),
        "cpu_s": round(r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime, 3),
        "sys_s": round(r1.ru_stime - r0.ru_stime, 3),
        "construct_s": round(construct_s, 3),
        "eval_reward": result.last_eval["eval/episode_reward"],
    }
    print(f"tune stage 1, {record['num_envs']} envs, "
          f"{'paper scale' if args.paper_scale else 'desk nets'}, seed {record['seed']}: "
          f"{record['env_steps']:,} env steps")
    print(f"peak RSS {record['peak_rss_mb']} MB, {record['minor_faults']:,} minor faults, "
          f"wall {record['wall_s']} s, CPU {record['cpu_s']} s (system {record['sys_s']} s)")
    print(f"VecEnv construction before the stage: {record['construct_s']} s")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
