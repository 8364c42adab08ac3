"""The stageflow benchmark: one command per workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Workloads, metric names, units and bounds
are those of ``BENCHMARK.json``; ``perfbench/interaction_map.json`` records
which end-to-end metric each layer metric should move, on which workload.

Load is a closed loop with one client: this process runs one workload sample
at a time, each in a fresh interpreter (``perfbench/sample.py``) with its own
temp run dir and an empty vector store, and starts the next sample only while
it can still finish within ``--seconds``. Every sample of a run trains at
the same seed, so every sample does the same work and a run's sample count
does not change which seeds it measures: ``walker2_replay`` at seed 7, the
seed its replay fixtures were recorded at, the tune workloads at ``--seed``.
A sample may take four times the longest earlier sample, and at least
``SAMPLE_TIMEOUT_FLOOR_S``, before it is stopped and counted as failed.

``--trace 0`` reports the end-to-end metrics (median over samples) with
tracing off. ``--trace 1`` alternates untraced and traced samples of the same
seed and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``, the traced minus the untraced median wall time. A
traced run fails if a layer that the interaction map predicts to move on this
workload records no calls.

Human-readable lines go to stdout first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The full record
(machine, every sample, every layer) is written to
``.bench_results/<workload>-seed<seed>-trace<t>.json``. The benchmark writes
only under the repository root: sample run dirs under ``.bench_tmp/``
(also each sample's ``TMPDIR``; deleted at exit), bytecode under
``.bench_build/pycache``. It leaves
``OPENBLAS_NUM_THREADS`` as it finds it and records the effective BLAS thread
count. ``--tiny`` shrinks the tune workloads for the smoke check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
TMP_ROOT = ROOT / ".bench_tmp"
PYCACHE = ROOT / ".bench_build" / "pycache"
SAMPLE_TIMEOUT_FLOOR_S = 60.0
PINNED_SEEDS = {"walker2_replay": 7}

# Per-layer metrics computed from the trace: span name -> the statistics to
# report, each named "<span>_<stat>". "ms" is the per-call p50, "p99_ms" the
# per-call p99, "total_s"/"s" the seconds summed over calls (median over
# traced samples), "self_s" the total minus time covered by child spans, and
# "share" the total as a fraction of the traced wall time.
LAYER_STATS = {
    "env.step": "calls ms p99_ms total_s self_s",
    "env.observe": "calls ms p99_ms total_s",
    "env.eval_step": "calls ms p99_ms total_s self_s",
    "env.eval_observe": "calls ms total_s",
    "env.construct": "calls s self_s",
    "env.eval_construct": "calls s",
    "randomize.resample": "calls ms total_s",
    "env.desk_walker_step": "calls ms p99_ms total_s",
    "reward.eval_total_batch": "ms p99_ms total_s",
    "reward.compile": "calls ms",
    "trainer.act": "calls ms p99_ms total_s self_s",
    "trainer.value": "calls ms p99_ms total_s self_s",
    "trainer.act_deterministic": "calls ms total_s self_s",
    "trainer.obs_norm": "calls ms total_s",
    "trainer.obs_norm_update": "ms total_s",
    "trainer.ppo_loss": "calls ms p99_ms total_s self_s",
    "trainer.mlp_forward": "calls ms p99_ms total_s",
    "trainer.mlp_backward": "calls ms p99_ms total_s",
    "trainer.mlp_forward_infer": "calls ms total_s",
    "trainer.adam_step": "calls ms p99_ms total_s",
    "trainer.gae": "calls ms total_s",
    "trainer.checkpoint": "calls ms total_s",
    "trainer.checkpoint_load": "calls ms",
    "trainer.collect": "s share self_s",
    "trainer.eval": "calls s share",
    "trainer.train_stage": "calls s",
    "orchestrator.final_scores": "calls s self_s",
    "scoring.score_triple": "calls ms",
    "schema.parse_bundle": "calls ms total_s",
    "schema.validate": "calls ms total_s",
    "agents.send": "calls ms total_s",
    "agents.render": "calls ms total_s",
    "agents.parse_file_blocks": "calls ms total_s",
    "vdb.add_run": "calls ms",
}
_STAT_KEY = {"calls": "calls", "ms": "p50_ms", "p99_ms": "p99_ms",
             "total_s": "total_s", "s": "total_s", "self_s": "self_s",
             "share": "share"}
# Metrics derived from several spans, with the span whose calls they need.
DERIVED_SPAN = {
    "reward.calls": "reward.eval_total_batch",
    "trainer.update_s": "trainer.ppo_loss",
    "trainer.update_share": "trainer.ppo_loss",
    "agents.attempts": "agents.send",
    "agents.accepted_ratio": "agents.send",
    "trace.wall_s": None,
    "trace.overhead_s": None,
}
# every per-layer metric name -> the span it is computed from
METRIC_SPAN = {f"{span}_{stat}": span
               for span, stats in LAYER_STATS.items() for stat in stats.split()}
METRIC_SPAN.update(DERIVED_SPAN)


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# -- samples --------------------------------------------------------------------

def _child_env() -> dict:
    """Samples import the package from src/ and cache bytecode under
    .bench_build, whatever the caller's bytecode settings, so that set-up time
    never includes compiling and nothing is written next to the sources."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _warm_up(env: dict) -> None:
    """Compile bytecode and fault in the libraries once, outside the timed
    samples, so the first sample's set-up is not an outlier."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import sample, tracing, stageflow.orchestrator, stageflow.cli; sample.blas_record()")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   timeout=SAMPLE_TIMEOUT_FLOOR_S, stdout=subprocess.DEVNULL)


def _run_sample(args, seed: int, traced: bool, tmp: Path, env: dict,
                timeout: float) -> dict:
    tmp.mkdir(parents=True)
    env = dict(env, TMPDIR=str(tmp))
    out = tmp / "sample.json"
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", args.workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--tmp", str(tmp), "--out", str(out)]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--spawned-at", repr(_monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"sample timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not out.is_file():
        return {"ok": False,
                "reason": f"sample exited {proc.returncode}: {proc.stderr[-2000:]}"}
    record = json.loads(out.read_text())
    if not record["ok"]:
        sys.stderr.write(proc.stderr[-4000:])
    return record


def collect_samples(args, env: dict, tmp_root: Path) -> list[dict]:
    """Closed loop: pairs of (untraced[, traced]) samples until the next pair
    would overrun --seconds; at least one pair."""
    kinds = (False, True) if args.trace else (False,)
    samples, longest = [], 0.0
    seed = PINNED_SEEDS.get(args.workload, args.seed)
    t0 = _monotonic()
    for k in itertools.count():
        if samples and _monotonic() - t0 + len(kinds) * longest > args.seconds:
            break
        for traced in kinds:
            timeout = max(SAMPLE_TIMEOUT_FLOOR_S, 4 * longest)
            t = _monotonic()
            rec = _run_sample(args, seed, traced, tmp_root / f"s{k}{'t' if traced else 'u'}",
                              env, timeout)
            longest = max(longest, _monotonic() - t)
            rec.update(seed=seed, traced=traced)
            samples.append(rec)
    return samples


# -- aggregation -------------------------------------------------------------------

def end_to_end(samples: list[dict]) -> tuple[dict, dict]:
    """Median end-to-end metrics over the untraced samples that passed, and
    per metric the sample count and quartiles."""
    untraced = [s for s in samples if not s["traced"]]
    ok = [s for s in untraced if s["ok"]]
    series = {
        "wall_s": [s["wall_s"] for s in ok],
        "env_steps_per_s": [s["env_steps"] / s["wall_s"] for s in ok],
        "setup_s": [s["setup_s"] for s in ok],
        "cpu_s": [s["cpu_s"] for s in ok],
        "peak_rss_mb": [s["peak_rss_mb"] for s in ok],
        "eval_reward": [s["eval_reward"] for s in ok],
    }
    metrics = {k: _median(v) for k, v in series.items()}
    spread = {k: dict(zip(("n", "q1", "q3"), (len(v), *_quartiles(v))))
              for k, v in series.items() if v}
    metrics["fail_rate"] = 1.0 - len(ok) / len(untraced)
    metrics["success_rate"] = len(ok) / len(untraced)
    return metrics, spread


def layers(samples: list[dict]) -> tuple[dict, dict]:
    """Per span: the median over traced samples of each statistic; then the
    flat per-layer metrics."""
    traced = [s for s in samples if s["traced"] and s["ok"]]
    untraced = [s for s in samples if not s["traced"] and s["ok"]]
    wall = _median([s["wall_s"] for s in traced])
    names = sorted({n for s in traced for n in s["layers"]} | set(LAYER_STATS))
    zero = {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0,
            "p50_ms": 0.0, "p99_ms": 0.0}
    spans = {}
    for name in names:
        per = [s["layers"].get(name, zero) for s in traced]
        spans[name] = {k: _median([p[k] for p in per]) for k in zero}
        spans[name]["share"] = spans[name]["total_s"] / wall if wall else 0.0

    flat = {}
    for span, stats in LAYER_STATS.items():
        for stat in stats.split():
            flat[f"{span}_{stat}"] = spans[span][_STAT_KEY[stat]]
    flat["reward.calls"] = spans["reward.eval_total_batch"]["calls"]
    update = _median([s["layers"].get("trainer.ppo_loss", zero)["total_s"]
                      + s["layers"].get("trainer.adam_step", zero)["total_s"]
                      for s in traced])
    flat["trainer.update_s"] = update
    flat["trainer.update_share"] = update / wall if wall else 0.0
    sends = spans["agents.send"]["calls"]
    invokes = spans.get("agents.invoke", zero)
    flat["agents.attempts"] = sends
    flat["agents.accepted_ratio"] = (invokes["calls"] - invokes["failed"]) / sends if sends else 0.0
    flat["trace.wall_s"] = wall
    flat["trace.overhead_s"] = wall - _median([s["wall_s"] for s in untraced])
    return spans, flat


def predicted_layers_missing(workload: str, spans: dict, interaction_map: dict) -> list[str]:
    """Layer metrics the map predicts to move on this workload whose span
    recorded no calls."""
    missing = []
    for row in interaction_map["layers"]:
        if workload not in row["moves_on"]:
            continue
        for metric in row["metrics"]:
            span = METRIC_SPAN[metric]
            if span is not None and spans.get(span, {}).get("calls", 0) == 0:
                missing.append(f"{metric} (span {span})")
    return missing


# -- report ----------------------------------------------------------------------

def machine_record(args, samples: list[dict]) -> dict:
    first = next((s for s in samples if s["ok"]), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload_seed": args.seed,
        "sample_seeds": sorted({s["seed"] for s in samples}),
    }


def _print_layers(spans: dict) -> None:
    print(f"  {'layer':<28}{'calls':>8}{'total_s':>10}{'self_s':>10}"
          f"{'share':>8}{'p50_ms':>10}{'p99_ms':>10}")
    for name, st in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        if st["calls"]:
            print(f"  {name:<28}{st['calls']:>8.0f}{st['total_s']:>10.3f}"
                  f"{st['self_s']:>10.3f}{st['share']:>8.1%}"
                  f"{st['p50_ms']:>10.3f}{st['p99_ms']:>10.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the tune workloads (smoke check only)")
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "BENCHMARK.json", ROOT / "src" / "stageflow" / "__init__.py",
                           HERE / "interaction_map.json") if not p.is_file()]
    if missing:
        print(f"run from a stageflow checkout; missing: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    interaction_map = json.loads((HERE / "interaction_map.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    env = _child_env()
    tmp_root = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        _warm_up(env)
        samples = collect_samples(args, env, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    failures = [f"sample {i} (seed {s['seed']}{', traced' if s['traced'] else ''}): "
                f"{s['reason']}" for i, s in enumerate(samples) if not s["ok"]]
    e2e, spread = end_to_end(samples)
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "machine": machine_record(args, samples), "end_to_end": e2e,
              "spread": spread}
    failed = len(failures)
    computed = e2e
    measured = all(any(s["ok"] and s["traced"] == t for s in samples)
                    for t in ((False, True) if args.trace else (False,)))
    if measured and args.trace:
        spans, computed = layers(samples)
        absent = predicted_layers_missing(args.workload, spans, interaction_map)
        if absent:
            failures.append("predicted layers recorded no calls: " + "; ".join(absent))
            failed += sum(1 for s in samples if s["traced"] and s["ok"])
        report.update(layers=spans, per_layer=computed)

    RESULTS.mkdir(exist_ok=True)
    report.update(samples=samples, failures=failures)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))

    m = report["machine"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples)} samples, {failed} failed; nproc {m['nproc']}, "
          f"python {m['python']}, numpy {m['numpy']}, blas {m['blas']}")
    for line in failures:
        print(f"  FAILED {line}")
    for metric in bench["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        q = spread.get(name)
        dist = f"  (n {q['n']}, q1 {q['q1']:.6g}, q3 {q['q3']:.6g})" if q else ""
        print(f"  {name:<18}{e2e[name]:>14.6g} {unit}{dist}")
    print(f"  {'fail_rate':<18}{e2e['fail_rate']:>14.6g} fraction")
    if "layers" in report:
        _print_layers(report["layers"])
        for metric in bench["per_layer"]:
            print(f"  {metric['name']:<36}{computed[metric['name']]:>14.6g} {metric['unit']}")

    if not measured:
        print(json.dumps({"correct": False, "attempted": len(samples), "failed": failed,
                          "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {w["name"]: {"value": computed[w["name"]], "unit": w["unit"]}
                    for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
