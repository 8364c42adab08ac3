"""Command line interface.

Exit codes: 0 success, 1 validation findings, 2 usage error, 3 runtime
failure. Every failure prints the structured finding code — never a bare
stack trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import StageflowError

DEFAULT_SEED = 7
PAPER_SCALE_HELP = ("honor full configured sizes instead of the desk profile, and train "
                    "in float32 over float64 master weights")

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _int_at_least(low: int, name: str):
    """An argument type for integers >= ``low``; anything else is a usage
    error that names the argument."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer >= {low}, got {text!r}")
        return value
    return parse


_seed = _int_at_least(0, "seed")  # numpy's generators take only integers >= 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stageflow",
        description="Curriculum-RL bundle compiler, trainer, and pipeline runner.",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--workdir", default=".", help="root for relative paths")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a curriculum bundle")
    sp.add_argument("bundle", help="workflow file or bundle directory")

    sp = sub.add_parser("run", help="run the full generation + training pipeline")
    sp.add_argument("--prompt", required=True, help="file holding the task prompt")
    sp.add_argument("--vdb", required=True, help="vector store directory")
    sp.add_argument("--out", default="runs", help="directory for run output")
    sp.add_argument("--transport", choices=("live", "replay"), default="replay")
    sp.add_argument("--fixtures", help="fixture directory for --transport replay")
    sp.add_argument("--run-id", help="run id, a directory under --out that must not "
                    "exist yet (default: the next free run-NNNN)")
    sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    sp.add_argument("--paper-scale", action="store_true", help=PAPER_SCALE_HELP)
    sp.add_argument("--override", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="dotted config override, e.g. trainer.num_timesteps=4000")

    sp = sub.add_parser("train", help="train the stages of an existing bundle")
    sp.add_argument("--workflow", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    sp.add_argument("--paper-scale", action="store_true", help=PAPER_SCALE_HELP)

    vp = sub.add_parser("vdb", help="vector store operations")
    vsub = vp.add_subparsers(dest="vdb_command", required=True)
    sp = vsub.add_parser("add", help="store a finished run directory")
    sp.add_argument("run_dir")
    sp.add_argument("--vdb", required=True)
    sp.add_argument("--run-id", help="run id (default: directory name)")
    sp.add_argument("--evaluation", default="", help="expert evaluation text")
    sp = vsub.add_parser("query", help="retrieve the most similar stored runs")
    sp.add_argument("text")
    sp.add_argument("-k", type=_int_at_least(1, "k"), default=3)
    sp.add_argument("--vdb", required=True)

    sp = sub.add_parser("mutate", help="emit the validator mutation corpus")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--seed", type=_seed, default=0)
    return p


def _resolve(workdir: str, path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else Path(workdir) / p


def _emit(args, payload: dict, text: str) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)


def _cmd_validate(args) -> int:
    from .schema import parse_bundle, validate

    report = validate(parse_bundle(_resolve(args.workdir, args.bundle)))
    _emit(args, json.loads(report.to_json()), report.to_text())
    return EXIT_OK if report.ok else EXIT_FINDINGS


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise StageflowError("PARSE_ERROR", f"override {pair!r} is not KEY=VALUE")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _cmd_run(args) -> int:
    from .agents import LiveTransport, ReplayTransport
    from .orchestrator import run_pipeline
    from .vdb import VectorStore

    if args.transport == "replay":
        if not args.fixtures:
            raise StageflowError("PARSE_ERROR",
                                 "--transport replay requires --fixtures")
        transport = ReplayTransport(_resolve(args.workdir, args.fixtures))
    else:
        transport = LiveTransport()
    prompt_path = _resolve(args.workdir, args.prompt)
    try:
        prompt = prompt_path.read_text().strip()
    except UnicodeDecodeError as e:
        raise StageflowError("PARSE_ERROR", f"{prompt_path}: not UTF-8 text ({e.reason} "
                             f"at byte {e.start})") from None
    vdb = VectorStore(_resolve(args.workdir, args.vdb))
    run = run_pipeline(
        prompt, vdb, transport, _resolve(args.workdir, args.out),
        run_id=args.run_id, seed=args.seed, paper_scale=args.paper_scale,
        config_overrides=_parse_overrides(args.override))
    payload = {
        "run_id": run.run_id,
        "run_dir": run.run_dir,
        "status": run.status,
        "stages_trained": len(run.stage_results),
        "scores": run.scores.to_dict() if run.scores else None,
        "failure_stage": run.failure_stage,
        "failure_reason": run.failure_reason,
    }
    lines = [f"run {run.run_id}: {run.status} "
             f"({len(run.stage_results)} stage(s) trained) -> {run.run_dir}"]
    if run.scores:
        lines.append(f"scores: {json.dumps(run.scores.to_dict(), sort_keys=True)}")
    if run.status == "failed":
        lines.append(f"failed at {run.failure_stage}: {run.failure_reason}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if run.status in ("completed", "terminated_by_feedback") \
        else EXIT_RUNTIME


def _cmd_train(args) -> int:
    from .orchestrator import promote, train_stages
    from .schema import parse_bundle, validate

    bundle = parse_bundle(_resolve(args.workdir, args.workflow))
    report = validate(bundle)
    if not report.ok:
        _emit(args, json.loads(report.to_json()), report.to_text())
        return EXIT_FINDINGS
    results, _ = train_stages(bundle, _resolve(args.workdir, args.out),
                              seed=args.seed, paper_scale=args.paper_scale)
    records = [{
        "stage": stage.index,
        "env_steps": result.env_steps,
        "last_eval": result.last_eval,
        "promoted": promote(result, stage.promotion),
    } for stage, result in zip(bundle.stages, results)]
    _emit(args, {"stages": records},
          "\n".join(f"stage {r['stage']}: {r['env_steps']} steps, "
                    f"reward {r['last_eval'].get('eval/episode_reward', 0.0):.2f}, "
                    f"promoted={r['promoted']}" for r in records))
    return EXIT_OK


def _cmd_vdb_add(args) -> int:
    from .vdb import VectorStore, run_artifact

    run_dir = _resolve(args.workdir, args.run_dir)
    if not run_dir.is_dir():
        raise StageflowError("MISSING_FILE", f"no such run directory: {run_dir}")
    run_id = args.run_id or run_dir.resolve().name
    artifact = run_artifact(run_dir, run_id, evaluation=args.evaluation)
    VectorStore(_resolve(args.workdir, args.vdb)).add_run(artifact)
    _emit(args, {"run_id": run_id, "files": len(artifact.files)},
          f"stored {run_id} ({len(artifact.files)} files)")
    return EXIT_OK


def _cmd_vdb_query(args) -> int:
    from .vdb import VectorStore

    store = VectorStore(_resolve(args.workdir, args.vdb))
    hits = store.query_topk(args.text, k=args.k)
    _emit(args, {"hits": [{"run_id": r, "score": s} for r, s in hits]},
          "\n".join(f"{r}  {s:.4f}" for r, s in hits))
    return EXIT_OK


def _cmd_mutate(args) -> int:
    from .schema import mutate_corpus, parse_bundle, validate

    bundle = parse_bundle(_resolve(args.workdir, args.bundle))
    mutants = mutate_corpus(bundle, seed=args.seed)
    rows = []
    for m in mutants:
        report = validate(m.bundle)
        rows.append({
            "label": m.label,
            "expected_code": m.expected_code,
            "rejected": not report.ok,
            "codes": sorted(report.codes()),
        })
    _emit(args, {"mutants": rows},
          "\n".join(f"{r['label']}: expected {r['expected_code']}, "
                    f"got {','.join(r['codes']) or '(accepted!)'}" for r in rows))
    return EXIT_OK if all(r["rejected"] for r in rows) else EXIT_FINDINGS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    handlers = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "train": _cmd_train,
        "mutate": _cmd_mutate,
    }
    try:
        if args.command == "vdb":
            fn = {"add": _cmd_vdb_add, "query": _cmd_vdb_query}[args.vdb_command]
        else:
            fn = handlers[args.command]
        return fn(args)
    except StageflowError as e:
        print(f"error {e.code}: {e.message}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"error IO_ERROR: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
