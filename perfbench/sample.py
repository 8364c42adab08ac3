"""One benchmark sample, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1 \
        --tmp DIR --out FILE --spawned-at T [--tiny]

The sample sets its workload up, makes one timed call into the package's
public entry point, checks the call's outputs and writes one JSON object to
``--out``. ``--spawned-at`` is the parent's CLOCK_MONOTONIC reading just
before it started this interpreter, so set-up time covers interpreter start,
imports, fixture or bundle loading and validation. With ``--trace 1`` the
tracing wrappers go in before set-up and the per-layer summary is added.
Everything the sample writes goes under ``--tmp``.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import dataclasses
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class CheckFailed(Exception):
    """An output of the timed call is wrong."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _data_dir() -> Path:
    import stageflow

    return Path(stageflow.__file__).parent / "data"


# -- workloads ----------------------------------------------------------------
#
# Each workload is (set-up, timed call, check). set-up returns the state the
# call needs; the check raises CheckFailed on a wrong output and returns
# (env steps trained, final eval reward).

def _walker2_setup(args):
    from stageflow import orchestrator
    from stageflow.agents import ReplayTransport
    from stageflow.vdb import VectorStore

    fixtures = _data_dir() / "fixtures" / "walker2"
    prompt = (fixtures / "prompt.txt").read_text().strip()
    tmp = Path(args.tmp)
    store, transport = VectorStore(tmp / "vdb"), ReplayTransport(fixtures)
    return {
        "call": lambda: orchestrator.run_pipeline(
            prompt, store, transport, tmp / "runs", seed=7),
        "fixtures": fixtures,
        "vdb_root": tmp / "vdb",
    }


def _walker2_check(state, run):
    from stageflow.vdb import VectorStore

    _check(run.status == "completed",
           f"status {run.status!r} at {run.failure_stage}: {run.failure_reason}")
    _check(len(run.stage_results) == 2,
           f"{len(run.stage_results)} stages trained, expected 2")
    run_dir = Path(run.run_dir)
    scores = json.loads((run_dir / "scores.json").read_text())
    _check(len(scores) == 3 and all(math.isfinite(float(v)) for v in scores.values()),
           f"scores.json does not hold three finite values: {scores}")
    log = [json.loads(line)
           for line in (run_dir / "agent_log.jsonl").read_text().splitlines()]
    _check(bool(log), "agent_log.jsonl is empty")
    for entry in log:
        _check((state["fixtures"] / f"{entry['prompt_digest']}.txt").is_file(),
               f"{entry['role']} prompt {entry['prompt_digest'][:12]} has no fixture")
    _check(len(VectorStore(state["vdb_root"])) == 1, "the run was not stored")
    reward = run.stage_results[-1].last_eval["eval/episode_reward"]
    return sum(r.env_steps for r in run.stage_results), reward


# Tune workloads: shipped tune stage 1 under the desk profile ([64, 64] nets,
# 4 minibatches). tune_wide4096 only raises num_envs, which desk_profile would
# cap at 64, so it applies desk_profile itself and trains with paper_scale.
TUNE_SIZES = {
    # name: (num_envs, num_timesteps, num_evals), full then tiny
    "tune_desk64": ((64, 40_960, 3), (64, 1_280, 2)),
    "tune_wide4096": ((4096, 81_920, 2), (256, 5_120, 2)),
}


def _tune_setup(args):
    from stageflow import schema, trainer

    bundle = schema.parse_bundle(_data_dir() / "bundles" / "tune" / "workflow.yaml")
    report = schema.validate(bundle)
    if not report.ok:
        raise CheckFailed(f"shipped tune bundle fails validation: {report.to_text()}")
    num_envs, num_timesteps, num_evals = TUNE_SIZES[args.workload][1 if args.tiny else 0]
    stage = bundle.stages[0]
    wide = args.workload == "tune_wide4096"
    config = trainer.desk_profile(stage.config_doc) if wide else copy.deepcopy(stage.config_doc)
    config["trainer"].update(num_timesteps=num_timesteps, num_evals=num_evals)
    if wide:
        config["trainer"]["num_envs"] = num_envs
    stage = dataclasses.replace(stage, config_doc=config)
    out_dir = Path(args.tmp) / "stage1"
    return {
        "call": lambda: trainer.train_stage(stage, out_dir, seed=args.seed,
                                            paper_scale=wide),
        "num_evals": num_evals,
        "num_timesteps": num_timesteps,
        "out_dir": out_dir,
    }


def _tune_check(state, result):
    import numpy as np
    from stageflow import trainer

    lines = (state["out_dir"] / "metrics.jsonl").read_text().splitlines()
    _check(len(lines) == state["num_evals"],
           f"{len(lines)} metrics records, expected {state['num_evals']}")
    for line in lines:
        bad = {k: v for k, v in json.loads(line).items() if not math.isfinite(v)}
        _check(not bad, f"non-finite metrics: {bad}")
    _check(result.env_steps >= state["num_timesteps"],
           f"trained {result.env_steps} of {state['num_timesteps']} steps")
    ckpt = trainer.load_checkpoint(state["out_dir"] / "checkpoint.bin")
    _check(ckpt.step_count == result.env_steps,
           f"checkpoint step count {ckpt.step_count} != {result.env_steps}")
    _check(all(np.isfinite(a).all() for a in ckpt.arrays.values()),
           "checkpoint holds a non-finite value")
    return result.env_steps, result.last_eval["eval/episode_reward"]


WORKLOADS = {
    "walker2_replay": (_walker2_setup, _walker2_check),
    "tune_desk64": (_tune_setup, _tune_check),
    "tune_wide4096": (_tune_setup, _tune_check),
}


# -- machine record -------------------------------------------------------------

_BLAS_THREAD_FNS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_record() -> dict:
    """BLAS library numpy was built with, and the thread count it runs with
    in this process (asked of the loaded OpenBLAS; None if it cannot say)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        fn = next((getattr(handle, n) for n in _BLAS_THREAD_FNS if hasattr(handle, n)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


# -- entry point ----------------------------------------------------------------

def run_sample(args) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    setup, check = WORKLOADS[args.workload]
    state = setup(args)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t_call = _monotonic()
    t0 = time.perf_counter()
    out = state["call"]()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.uninstall()
    env_steps, reward = check(state, out)
    record = {
        "ok": True,
        "wall_s": wall,
        "setup_s": t_call - args.spawned_at,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env_steps": env_steps,
        "eval_reward": float(reward),
        "numpy": sys.modules["numpy"].__version__,
        "blas": blas_record(),
    }
    if tracer is not None:
        record["layers"] = tracing.summarize(tracer)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    try:
        record = run_sample(args)
    except Exception as e:  # any failure of the sample is reported, not raised
        traceback.print_exc()
        record = {"ok": False, "reason": f"{type(e).__name__}: {e}"}
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
