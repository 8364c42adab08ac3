"""Measure where a second BLAS thread starts to pay for a PPO minibatch update.

``train_stage`` runs a stage on one BLAS thread when one minibatch does fewer
than ``trainer.ONE_THREAD_MACS`` multiply-accumulates (rows times the sum of
fan_in * fan_out over the policy and value nets). This tool is how that
constant was set, and how it is re-measured on another machine. For each net
width and row count it times one ``ppo_loss`` + ``Adam.step`` (the update
``ppo_update`` runs per minibatch, on a warm workspace) on one BLAS thread
and on the count BLAS starts with, alternating the two over ``REPEATS``
batches of ``SECONDS`` each, and prints per update the best wall
milliseconds and the median CPU milliseconds of each, the wall gain of the
extra threads, and what the current rule picks. Run from the repository
root:

    PYTHONPATH=src python3 tools/blas_crossover.py
    PYTHONPATH=src python3 tools/blas_crossover.py --tiny   # a quick pass

The last line names the smallest measured MAC count at which the extra
threads save at least ``MIN_GAIN`` of the one-thread wall time. Below it
the gain is noise or small while the CPU time doubles, so the constant
belongs under it; run the tool more than once, as the crossover moves
between runs.
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

# (hidden layer sizes of both nets, row counts); rows are minibatch rows
FULL = (
    ([64, 64], (64, 128, 192, 256, 320, 384, 448, 512, 640, 768, 1024, 1280,
                2560, 5120, 20480)),
    ([256, 256], (64, 128, 320, 640)),
    ([512, 256, 128], (32, 64, 320, 5120)),
)
TINY = (([64, 64], (64, 320)),)
REPEATS = 5       # alternating timed batches per setting
SECONDS = 0.2     # wall time of one timed batch
MIN_GAIN = 0.10   # share of the one-thread wall time the extra threads must save
SETTLE_S = 0.2


def _update_fn(hidden: list, rows: int):
    """One warm minibatch update of a fresh policy on a synthetic batch, and
    the layer sizes of its two nets."""
    policy = trainer.Policy(hidden, hidden, seed=0)
    rng = np.random.default_rng(1)
    obs = rng.standard_normal((rows, OBS_DIM))
    raw, _, logp = policy.act(obs, rng)
    batch = {"obs": obs, "raw_actions": raw, "old_logp": logp,
             "advantages": rng.standard_normal(rows), "returns": rng.standard_normal(rows)}
    optimizer = trainer.Adam(policy.params, lr=1e-5)
    workspace = trainer.Workspace()

    def update():
        _, grads, _ = trainer.ppo_loss(policy, batch, 0.2, entropy_cost=1e-3,
                                       workspace=workspace)
        optimizer.step(grads)

    update()  # sizes the workspace
    return update, (policy.policy_sizes, policy.value_sizes)


def _time(update, threads, calls: int) -> tuple[float, float]:
    """(wall, CPU) seconds per update over ``calls`` updates."""
    with trainer._blas_threads(threads):
        # idle OpenBLAS workers spin for a while before they sleep; let the
        # last batch's stop before CPU time is counted
        time.sleep(SETTLE_S)
        update()
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(calls):
            update()
        return ((time.perf_counter() - w0) / calls, (time.process_time() - c0) / calls)


def measure(grid, repeats: int, budget_s: float) -> list[dict]:
    rows_out = []
    for hidden, row_counts in grid:
        for rows in row_counts:
            update, nets = _update_fn(hidden, rows)
            t0 = time.perf_counter()
            update()
            calls = max(1, int(budget_s / max(time.perf_counter() - t0, 1e-6)))
            one, many = [], []
            for _ in range(repeats):
                one.append(_time(update, 1, calls))
                many.append(_time(update, None, calls))
            rows_out.append({
                "hidden": hidden, "rows": rows, "macs": trainer._minibatch_macs(rows, nets),
                "one_wall": min(w for w, _ in one), "many_wall": min(w for w, _ in many),
                "one_cpu": statistics.median(c for _, c in one),
                "many_cpu": statistics.median(c for _, c in many),
                "rule": trainer._stage_blas_threads(rows, nets),
            })
    return rows_out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true",
                    help="two sizes, one short batch each: checks the tool runs")
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
    print(f"{'nets':>16} {'rows':>6} {'MACs':>12} {'wall 1':>9} {f'wall {default}':>9} "
          f"{'gain':>6} {'cpu 1':>9} {f'cpu {default}':>9}  rule")
    for r in results:
        gain = 1.0 - r["many_wall"] / r["one_wall"]
        print(f"{str(r['hidden']):>16} {r['rows']:>6} {r['macs']:>12,} "
              f"{r['one_wall'] * 1e3:>7.3f}ms {r['many_wall'] * 1e3:>7.3f}ms {gain:>6.1%} "
              f"{r['one_cpu'] * 1e3:>7.3f}ms {r['many_cpu'] * 1e3:>7.3f}ms  "
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
