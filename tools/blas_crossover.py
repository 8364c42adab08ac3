"""Measure where a second BLAS thread starts to pay for a stage phase.

``train_stage`` runs a phase on one BLAS thread when one pass of its rows
does fewer than ``trainer.ONE_THREAD_MACS`` multiply-accumulates (rows times
the sum of fan_in * fan_out over the policy and value nets). This tool is how
that constant was set, and how it is re-measured on another machine. It times
each phase as a stage runs it, in the stage's compute dtype
(``trainer.compute_dtype``: float64 for desk stages, float32 for paper-scale
ones) on a warm workspace:

- ``update``: one ``ppo_loss`` + ``Adam.step`` over one chunk of at most
  ``trainer.ROW_CHUNK`` rows, the most rows any update call passes;
- ``rollout``: one rollout step's inference, ``Policy.act`` and
  ``Policy.value`` over ``num_envs`` rows.

Each is timed on one BLAS thread and on the count BLAS starts with, each
under ``trainer._blas_threads`` as a stage sets it (so the many-thread side
runs its parallel calls on the sleeping job pool of ``stageflow.blaspool``),
alternating the two over ``REPEATS`` batches of ``SECONDS`` each. Per call it
prints the best wall milliseconds and the median CPU milliseconds of each,
the wall gain of the extra threads, and what the current rule picks. Run from
the repository root:

    PYTHONPATH=src python3 tools/blas_crossover.py
    PYTHONPATH=src python3 tools/blas_crossover.py --tiny   # a quick pass

The last line names the smallest measured MAC count at which the extra
threads save at least ``MIN_GAIN`` of the one-thread wall time, in any
phase. Below it the gain is noise or small while the CPU time doubles, so the
constant belongs under it: the largest power of two below the smallest such
count over three or more runs, as the crossover moves between runs.
Exits 1 when numpy's BLAS is not an OpenBLAS whose thread count can be set,
or when it already runs on one thread (nothing to compare).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stageflow import trainer
from stageflow.env import OBS_DIM

# (phase, compute dtype, hidden layer sizes of both nets, row counts): update
# rows are one chunk's (at most ROW_CHUNK), rollout rows a stage's num_envs
FULL = (
    # desk stages: float64 on the desk nets, at most 64 envs
    ("update", np.float64, [64, 64], (320, 1280, 2560, 4096)),
    # paper-scale stages on the desk nets, as the benchmark's tune_wide4096
    ("update", np.float32, [64, 64], (1024, 2048, 4096)),
    ("rollout", np.float32, [64, 64], (1024, 2048, 4096, 8192)),
    ("update", np.float32, [256, 256], (64, 128, 320, 640)),
    # paper-scale stages on the paper nets
    ("update", np.float32, [512, 256, 128], (32, 64, 128, 256, 512, 4096)),
    ("rollout", np.float32, [512, 256, 128], (64, 128, 256, 512, 8192)),
)
TINY = (("update", np.float32, [64, 64], (trainer.ROW_CHUNK,)),
        ("rollout", np.float32, [64, 64], (64,)))
REPEATS = 5       # alternating timed batches per setting
SECONDS = 0.2     # wall time of one timed batch
MIN_GAIN = 0.10   # share of the one-thread wall time the extra threads must save


def _phase_fn(phase: str, dtype, hidden: list, rows: int):
    """One warm call of ``phase`` for a fresh policy on synthetic rows in
    ``dtype``, and the layer sizes of its two nets."""
    policy = trainer.Policy(hidden, hidden, seed=0)
    rng = np.random.default_rng(1)
    workspace = trainer.Workspace()
    obs = rng.standard_normal((rows, OBS_DIM)).astype(dtype)
    if phase == "rollout":
        def call():
            policy.act(obs, rng, workspace)
            policy.value(obs, workspace)
    else:
        raw, _, logp = policy.act(obs, rng)
        batch = {"obs": obs, "raw_actions": raw, "old_logp": logp,
                 "advantages": rng.standard_normal(rows).astype(dtype),
                 "returns": rng.standard_normal(rows).astype(dtype)}
        optimizer = trainer.Adam(policy.params, lr=1e-5)

        def call():
            _, grads, _ = trainer.ppo_loss(policy, batch, 0.2, entropy_cost=1e-3,
                                           workspace=workspace)
            optimizer.step(grads)

    call()  # sizes the workspace
    return call, (policy.policy_sizes, policy.value_sizes)


def _time(call, threads, calls: int) -> tuple[float, float]:
    """(wall, CPU) seconds per call over ``calls`` calls."""
    with trainer._blas_threads(threads):
        call()
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(calls):
            call()
        return ((time.perf_counter() - w0) / calls, (time.process_time() - c0) / calls)


def measure(grid, repeats: int, budget_s: float) -> list[dict]:
    rows_out = []
    for phase, dtype, hidden, row_counts in grid:
        for rows in row_counts:
            # set-up calls run on the pool too: OpenBLAS's own workers would
            # spin for about 0.13 s after them, into the first timed batch
            with trainer._blas_threads(None):
                call, nets = _phase_fn(phase, dtype, hidden, rows)
                t0 = time.perf_counter()
                call()
                calls = max(1, int(budget_s / max(time.perf_counter() - t0, 1e-6)))
            one, many = [], []
            for _ in range(repeats):
                one.append(_time(call, 1, calls))
                many.append(_time(call, None, calls))
            rows_out.append({
                "phase": phase, "dtype": np.dtype(dtype).name, "hidden": hidden,
                "rows": rows, "macs": trainer._minibatch_macs(rows, nets),
                "one_wall": min(w for w, _ in one), "many_wall": min(w for w, _ in many),
                "one_cpu": statistics.median(c for _, c in one),
                "many_cpu": statistics.median(c for _, c in many),
                "rule": trainer._stage_blas_threads(rows, nets),
            })
    return rows_out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true",
                    help="one float32 update chunk and one rollout step, one short "
                         "batch each: checks the tool runs")
    args = ap.parse_args(argv)
    fns = trainer._openblas()
    if fns is None:
        print("numpy's BLAS is not an OpenBLAS whose thread count can be set")
        return 1
    default = fns[0]()
    if default < 2:
        print(f"BLAS runs on {default} thread; nothing to compare")
        return 1
    grid, repeats, seconds = (TINY, 1, 0.01) if args.tiny else (FULL, REPEATS, SECONDS)
    results = measure(grid, repeats, seconds)

    print(f"BLAS threads: 1 vs {default}; ONE_THREAD_MACS = {trainer.ONE_THREAD_MACS:,}")
    print(f"{'phase':>7} {'dtype':>7} {'nets':>16} {'rows':>6} {'MACs':>13} {'wall 1':>9} "
          f"{f'wall {default}':>9} {'gain':>6} {'cpu 1':>9} {f'cpu {default}':>9}  rule")
    for r in results:
        gain = 1.0 - r["many_wall"] / r["one_wall"]
        print(f"{r['phase']:>7} {r['dtype']:>7} {str(r['hidden']):>16} {r['rows']:>6} "
              f"{r['macs']:>13,} {r['one_wall'] * 1e3:>7.3f}ms {r['many_wall'] * 1e3:>7.3f}ms "
              f"{gain:>6.1%} {r['one_cpu'] * 1e3:>7.3f}ms {r['many_cpu'] * 1e3:>7.3f}ms  "
              f"{'1 thread' if r['rule'] == 1 else 'as found'}")
    paying = [r["macs"] for r in results
              if 1.0 - r["many_wall"] / r["one_wall"] >= MIN_GAIN]
    if paying:
        print(f"extra threads save >= {MIN_GAIN:.0%} from {min(paying):,} MACs")
    else:
        print(f"extra threads save < {MIN_GAIN:.0%} at every measured size")
    return 0


if __name__ == "__main__":
    sys.exit(main())
