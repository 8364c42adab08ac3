"""End-to-end pipeline: task prompt -> retrieval -> curriculum generation ->
per-stage file generation -> validation -> staged training with feedback ->
scoring -> store.

Every run owns an append-only directory: ``workflow.yaml``,
``stageN/{reward,config,randomize}.yaml``, ``stageN/metrics.jsonl``,
``stageN/checkpoint.bin``, ``scores.json``, and ``agent_log.jsonl``. The log
holds one entry per agent attempt, retries included: the digest of the prompt
that attempt actually sent, the digest of its response and its findings.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import scoring
from .agents import (AgentLog, GeneratedFileBlock, invoke_with_retry,
                     load_template, parse_file_blocks, parse_query,
                     parse_selector_json, render)
from .env import DeskWalker
from .errors import AgentError, BundleError, StageflowError, StoreError
from .schema import (KEYS, STAGE_ROLES, CurriculumBundle, PromotionCriterion,
                     StageBundle, build_stage, parse_bundle, parse_workflow,
                     validate)
from .trainer import (Policy, RunningNorm, StageResult, load_checkpoint,
                      restore_policy, train_stage)
from .vdb import (RunArtifact, VectorStore, check_run_id, run_artifact,
                  tokenize)

_DATA = Path(__file__).parent / "data"


@dataclass
class FeedbackDecision:
    action: str  # proceed_unchanged | proceed_with_revised_files | terminate
    rationale: str = ""
    revised_blocks: list = field(default_factory=list)


@dataclass
class CurriculumRun:
    run_id: str
    task_prompt: str
    run_dir: str
    retrieved: dict = field(default_factory=dict)   # selector output
    bundle: object = None
    stage_results: list = field(default_factory=list)
    scores: object = None                           # ScoreTriple
    status: str = "failed"
    failure_stage: str = ""
    failure_reason: str = ""


# -- promotion ----------------------------------------------------------------

def promote(result: StageResult, criterion: PromotionCriterion) -> bool:
    """Decide stage advancement from the stage's evaluation records."""
    by_budget = result.budget_exhausted
    last = result.last_eval.get("eval/episode_reward", float("-inf"))
    by_reward = last >= criterion.reward_threshold
    if criterion.mode == "timesteps_exhausted":
        return by_budget
    if criterion.mode == "reward_threshold":
        return by_reward
    return by_budget or by_reward  # either


# -- seed examples for cold start ---------------------------------------------

def seed_examples() -> dict:
    """Built-in baseline files handed to the curriculum agent when the store
    is empty; generated prompts still see realistic example content."""
    root = _DATA / "bundles" / "desk"
    return {
        "workflow": (root / "workflow.yaml").read_text(),
        "reward": (root / "rewards" / "generated_reward_stage1.yaml").read_text(),
        "config": (root / "configs" / "generated_config_stage1.yaml").read_text(),
        "randomize": (root / "randomize" / "generated_randomize_stage1.yaml").read_text(),
    }


def _examples_from_artifacts(artifacts: list[RunArtifact], selection: dict) -> dict:
    """The seed examples, with each role replaced by the selector's file.

    Per role, the selection with the lowest stage index counts (``workflow``
    has none). Its file comes from the highest-ranked of ``artifacts`` that
    holds it by that path or in the selection's stage directory (a pipeline
    run names every stage's files alike); only when no run does, from the
    highest-ranked run holding that file name anywhere."""
    chosen = {}  # role -> (stage index, file name)
    for key, fname in selection.items():
        m = re.fullmatch(r"([a-z]+)_stage(\d+)", key)
        role, stage = (m.group(1), int(m.group(2))) if m else (key, 0)
        if role not in chosen or stage < chosen[role][0]:
            chosen[role] = (stage, fname)
    examples = seed_examples()
    for role, (stage, fname) in chosen.items():
        texts = (t for a in artifacts
                 for t in (a.files.get(fname), a.files.get(f"stage{stage}/{fname}"))
                 if t is not None)
        by_name = (t for a in artifacts for rel, t in a.files.items()
                   if Path(rel).name == fname)
        text = next(texts, None)
        if text is None:
            text = next(by_name, None)
        if text is not None:
            examples[role] = text
    return examples


# -- generated-file handling ---------------------------------------------------

def _classify_blocks(blocks) -> dict:
    roles = {}
    for b in blocks:
        for role in STAGE_ROLES:
            if role in b.file_name:
                roles[role] = b
                break
    return roles


def _stage_findings(blocks) -> list:
    """Validate one stage's three generated files in isolation, in memory,
    as the only stage of a workflow; returns finding strings naming the
    generated files."""
    roles = _classify_blocks(blocks)
    missing = [r for r in STAGE_ROLES if r not in roles]
    if missing:
        return [f"missing generated file for: {', '.join(missing)}"]
    # wrapped as a first stage, so resume stays off regardless of the real
    # entry; the full-bundle validation covers resume placement
    entry = {"index": 1, "resume_from_checkpoint": False,
             **{role: roles[role].file_name for role in STAGE_ROLES}}
    try:
        stage = build_stage(entry, {role: roles[role].content for role in STAGE_ROLES})
        report = validate(CurriculumBundle(
            workflow_path="workflow.yaml", workflow_doc={"workflow": {"stages": [entry]}},
            workflow_text="", stages=[stage]))
    except StageflowError as e:
        return [f"[{e.code}] {e.message}"]
    return [f"[{f.code}] {f.path}: {f.message}" for f in report.errors]


def _check_overrides(overrides: dict) -> None:
    """Raise the config table's finding for the first override whose value
    the table refuses; a path the table does not type is left to
    validation."""
    for dotted, value in (overrides or {}).items():
        if dotted in KEYS and (problem := KEYS[dotted].problem(value)):
            raise BundleError(problem[0], f"override {dotted!r}: {problem[1]}")


def _apply_overrides(config_doc: dict, overrides: dict) -> dict:
    """Dotted-path overrides, e.g. {"trainer.num_timesteps": 4000}."""
    import copy

    doc = copy.deepcopy(config_doc)
    for dotted, value in (overrides or {}).items():
        node = doc
        *parents, leaf = dotted.split(".")
        for p in parents:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise StageflowError("PARSE_ERROR", f"override {dotted!r}: {p!r} "
                                                    f"holds {node!r}, not a mapping")
        node[leaf] = value
    return doc


def _stage_texts(blocks) -> dict:
    """Role -> text as a stage directory holds it: a config's
    ``*_config_path`` lines point at the canonical stage layout."""
    texts = {}
    for role, block in _classify_blocks(blocks).items():
        text = block.content
        if role == "config":
            for target in ("randomize", "reward"):
                text = re.sub(rf"({target}_config_path:\s*).*",
                              rf'\g<1>"{target}.yaml"', text, count=1)
        texts[role] = text
    return texts


def _write_stage_files(stage_dir: Path, blocks) -> None:
    """Write each given role's block as ``stage_dir/<role>.yaml``; roles not
    given are left as they are."""
    stage_dir.mkdir(parents=True, exist_ok=True)
    for role, text in _stage_texts(blocks).items():
        (stage_dir / f"{role}.yaml").write_text(text)


def _write_workflow(run_dir: Path, wf_doc: dict) -> None:
    """Canonical run-root workflow pointing at the stageN/ file layout."""
    stages = []
    for entry in wf_doc["workflow"]["stages"]:
        idx = int(entry["index"])
        stages.append({
            "index": idx,
            "reward": f"stage{idx}/reward.yaml",
            "config": f"stage{idx}/config.yaml",
            "randomize": f"stage{idx}/randomize.yaml",
            "resume_from_checkpoint": bool(entry.get("resume_from_checkpoint", idx > 1)),
            "feedback": bool(entry.get("feedback", True)),
            "promotion": entry.get("promotion") or {"mode": "timesteps_exhausted"},
        })
    out = {"workflow": {
        "name": wf_doc["workflow"].get("name", "generated-curriculum"),
        "task": wf_doc["workflow"].get("task", ""),
        "stages": stages,
    }}
    (run_dir / "workflow.yaml").write_text(yaml.safe_dump(out, sort_keys=False))


# -- feedback ------------------------------------------------------------------

_DECISION_RE = re.compile(r"^DECISION:\s*(proceed|revise|terminate)\s*$", re.MULTILINE)
_RATIONALE_RE = re.compile(r"^RATIONALE:\s*(.*)$", re.MULTILINE)

_ACTIONS = {
    "proceed": "proceed_unchanged",
    "revise": "proceed_with_revised_files",
    "terminate": "terminate",
}


def parse_feedback(response: str) -> FeedbackDecision:
    m = _DECISION_RE.search(response)
    if not m:
        raise AgentError("MALFORMED_BLOCK",
                         "feedback must contain a 'DECISION: proceed | revise | terminate' line")
    word = m.group(1)
    rm = _RATIONALE_RE.search(response)
    rationale = rm.group(1).strip() if rm else ""
    blocks = []
    if word == "revise":
        blocks = parse_file_blocks(response)
    return FeedbackDecision(_ACTIONS[word], rationale, blocks)


def _metrics_text(result: StageResult, limit: int = 6) -> str:
    lines = [json.dumps(rec, sort_keys=True) for rec in result.metrics[-limit:]]
    return "\n".join(lines)


# -- final scoring -------------------------------------------------------------

def policy_from_checkpoint(path):
    ckpt = load_checkpoint(path)
    policy = Policy(ckpt.policy_sizes[1:-1], ckpt.value_sizes[1:-1],
                    seed=0, obs_dim=ckpt.obs_dim, act_dim=ckpt.act_dim)
    obs_norm = RunningNorm(ckpt.obs_dim)
    restore_policy(ckpt, policy, obs_norm)
    return policy, obs_norm


def final_scores(checkpoint_path, stage: StageBundle, seed: int = 7,
                 episodes: int = 8, horizon: int = 150) -> scoring.ScoreTriple:
    """Deployment-style evaluation of the final policy: ``episodes``
    deterministic rollouts stepped together as the rows of one
    :class:`DeskWalker` whose one reward block holds every step, each row
    read up to its first ``done`` and scored with the survival / tracking /
    air-time formulas. The policy acts on (episodes, 1, OBS_DIM): a stack of
    one-row products rounds each row as a lone observation's product does,
    and an (episodes, OBS_DIM) product would not."""
    policy, obs_norm = policy_from_checkpoint(checkpoint_path)
    env = DeskWalker(stage.config_doc.get("environment", {}),
                     stage.randomize_doc.get("randomization") or {}, seed=seed,
                     episodes=episodes, binding_keys=scoring.SCORED_BINDINGS,
                     block_steps=horizon)
    obs = env.observe()
    lengths = np.zeros(episodes, dtype=int)
    alive = np.ones(episodes, dtype=bool)
    for _ in range(horizon):
        action = policy.act_deterministic(obs_norm.normalize(obs)[:, None])[:, 0]
        obs, done = env.step(action)
        lengths += alive
        alive &= ~done
        if not alive.any():
            break
    return scoring.score_triple(env.bindings(), lengths, horizon)


# -- stage loop ----------------------------------------------------------------

def train_stages(bundle: CurriculumBundle, run_dir, seed: int = 7,
                 paper_scale: bool = False, feedback=None):
    """Train the stages in index order into ``run_dir/stageN``; a stage that
    resumes starts from the previous stage's checkpoint. Stops after the
    first stage that misses its promotion criterion.

    ``feedback(stage, result, next_stage)``, when given, runs between a
    promoted stage with feedback on and the next stage, and returns a
    :class:`FeedbackDecision`. Revised files are written to the next stage's
    directory and the stage is reloaded from ``run_dir/workflow.yaml``, so
    only a bundle laid out in ``run_dir`` (a pipeline run) can be revised;
    the revised stage replaces its entry in ``bundle.stages``.

    Returns (results, (status, failure_stage, reason)) with status
    completed, terminated_by_feedback or failed.
    """
    run_dir = Path(run_dir)
    stages = bundle.stages
    results = []
    checkpoint = None
    for pos in range(len(stages)):
        stage = stages[pos]  # a revision may have replaced it
        result = train_stage(
            stage, run_dir / f"stage{stage.index}",
            checkpoint_in=checkpoint if stage.resume_from_checkpoint else None,
            seed=seed, paper_scale=paper_scale)
        results.append(result)
        checkpoint = result.checkpoint_path
        if not promote(result, stage.promotion):
            return results, ("failed", f"stage{stage.index}",
                             "promotion criterion not met")
        if feedback is None or pos + 1 >= len(stages) or not stage.feedback:
            continue
        nxt = stages[pos + 1]
        decision = feedback(stage, result, nxt)
        if decision.action == "terminate":
            return results, ("terminated_by_feedback", "", decision.rationale)
        if decision.action == "proceed_with_revised_files":
            _write_stage_files(run_dir / f"stage{nxt.index}", decision.revised_blocks)
            stages[pos + 1] = parse_bundle(run_dir / "workflow.yaml").stages[pos + 1]
    return results, ("completed", "", "")


def _feedback_step(transport, log, stage, next_stage, result,
                   next_description: str) -> FeedbackDecision:
    template = load_template("feedback")
    context = (
        f"\nPrevious stage reward file:\n{stage.reward_text}\n"
        f"Previous stage config file:\n{stage.config_text}\n"
        f"Recent training metrics (jsonl):\n{_metrics_text(result)}\n\n"
        f"Next stage description:\n{next_description or '(none provided)'}\n\n"
        f"Next stage reward file:\n{next_stage.reward_text}\n"
        f"Next stage config file:\n{next_stage.config_text}\n"
        f"Next stage randomize file:\n{next_stage.randomize_text}\n"
    )
    prompt = render(template, {"current_stage": stage.index}) + context

    def check(decision: FeedbackDecision):
        if decision.action != "proceed_with_revised_files":
            return []
        return _stage_findings(
            _merged_stage_blocks(next_stage, decision.revised_blocks))

    return invoke_with_retry(transport, log, "feedback", prompt,
                             parse_feedback, check)


def _merged_stage_blocks(next_stage: StageBundle, revised) -> list:
    """The next stage's files as they will be after the revision is written,
    so the check sees exactly what trains."""
    texts = {"reward": next_stage.reward_text,
             "config": next_stage.config_text,
             "randomize": next_stage.randomize_text,
             **_stage_texts(revised)}
    return [GeneratedFileBlock(f"{role}.yaml", f"{role}.yaml", text)
            for role, text in texts.items()]


# -- the pipeline --------------------------------------------------------------

def _claim_run_dir(out_dir, vdb: VectorStore, run_id: str | None) -> tuple[str, Path]:
    """Create the run's directory, which no earlier run may own. Without an
    explicit id, take the first ``run-NNNN`` from the store's size on whose
    directory is free: a failed run is not stored but keeps its directory."""
    if run_id is not None:
        check_run_id(run_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in itertools.count(len(vdb) + 1):
        rid = run_id if run_id is not None else f"run-{k:04d}"
        try:
            (out_dir / rid).mkdir()
        except FileExistsError:
            if run_id is not None:
                raise StoreError("RUN_EXISTS",
                                 f"{out_dir / rid} already exists; choose another run id")
            continue
        return rid, out_dir / rid


def run_pipeline(task_prompt: str, vdb: VectorStore, transport, out_dir,
                 run_id: str | None = None, seed: int = 7,
                 paper_scale: bool = False,
                 config_overrides: dict | None = None) -> CurriculumRun:
    run_id, run_dir = _claim_run_dir(out_dir, vdb, run_id)
    log = AgentLog(run_dir / "agent_log.jsonl")
    run = CurriculumRun(run_id=run_id, task_prompt=task_prompt,
                        run_dir=str(run_dir))
    phase = "validation"
    try:
        _check_overrides(config_overrides)
        phase = "generation"
        examples, evaluation = _retrieve(task_prompt, vdb, transport, log, run)
        wf_doc, descriptions = _generate_curriculum(
            task_prompt, examples, evaluation, transport, log)
        _generate_stages(task_prompt, wf_doc, descriptions, examples,
                         transport, log, run_dir, config_overrides)
        phase = "validation"
        bundle = parse_bundle(run_dir / "workflow.yaml")
        report = validate(bundle)
        if not report.ok:
            raise AgentError(
                "RETRIES_EXHAUSTED",
                "generated bundle failed validation: "
                + "; ".join(f"[{f.code}] {f.message}" for f in report.errors))
        run.bundle = bundle
        phase = "training"
        results, (status, fail_stage, reason) = train_stages(
            bundle, run_dir, seed=seed, paper_scale=paper_scale,
            feedback=lambda stage, result, nxt: _feedback_step(
                transport, log, stage, nxt, result, descriptions.get(nxt.index, "")))
        run.stage_results = results
        if status == "failed":
            run.status, run.failure_stage, run.failure_reason = status, fail_stage, reason
            return run
        phase = "scoring"
        final_stage = bundle.stages[len(results) - 1]
        run.scores = final_scores(results[-1].checkpoint_path, final_stage,
                                  seed=seed)
        (run_dir / "scores.json").write_text(run.scores.to_json())
        phase = "store"
        vdb.add_run(run_artifact(run_dir, run_id, task_prompt))
        run.status = status
        run.failure_reason = reason if status == "terminated_by_feedback" else ""
        return run
    except StageflowError as e:
        run.status = "failed"
        run.failure_stage = phase
        run.failure_reason = f"[{e.code}] {e.message}"
        return run


def _query_findings(query: str) -> list[str]:
    """The store searches by the query's tokens, so it needs at least one."""
    if tokenize(query):
        return []
    return [f"[EMPTY_TEXT] query {query!r} has no ASCII letter or digit to search by"]


def _retrieve(task_prompt, vdb, transport, log, run) -> tuple[dict, str]:
    """RAG step; bypassed on an empty store (cold start) in favor of the
    built-in seed examples."""
    if len(vdb) == 0:
        return seed_examples(), "(no prior runs available)"
    q_prompt = render(load_template("vdb_query"),
                      {"INSERT_TASK_PROMPT_HERE": task_prompt})
    query = invoke_with_retry(transport, log, "vdb_query", q_prompt, parse_query,
                              _query_findings)
    top = vdb.query_topk(query, k=min(3, len(vdb)))
    artifacts = [vdb.get_run(rid) for rid, _ in top]
    evaluations = "\n---\n".join(
        f"run {a.run_id} (scores {json.dumps(a.scores, sort_keys=True)}):\n"
        f"{a.evaluation or '(no evaluation text)'}"
        for a in artifacts)
    candidates = sorted({Path(rel).name
                         for a in artifacts for rel in a.files})
    sel_prompt = render(load_template("selector"), {
        "INSERT_TASK_PROMPT_HERE": task_prompt,
        "INSERT_EVALUATIONS_HERE": evaluations,
        "INSERT_EXAMPLES_HERE": "\n".join(candidates),
    })
    selection = invoke_with_retry(
        transport, log, "selector", sel_prompt,
        lambda resp: parse_selector_json(resp, candidates))
    run.retrieved = selection
    return _examples_from_artifacts(artifacts, selection), evaluations


def _generate_curriculum(task_prompt, examples, evaluation, transport, log):
    prompt = render(load_template("curriculum"), {
        "INSERT_TASK_PROMPT_HERE": task_prompt,
        "INSERT_EVALUATION_HERE": evaluation,
        "INSERT_WORKFLOW_YAML_HERE": examples["workflow"],
        "INSERT_REWARD_YAML_HERE": examples["reward"],
        "INSERT_CONFIG_YAML_HERE": examples["config"],
        "INSERT_RANDOMIZE_YAML_HERE": examples["randomize"],
        "INSERT_ROBOT_DESCRIPTION_HERE":
            (_DATA / "docs" / "robot_description.txt").read_text(),
        "X": "{X}",  # literal in the guideline text, not a slot here
    })

    def check(blocks):
        wf = next((b for b in blocks if "workflow" in b.file_name), None)
        if wf is None:
            return ["missing generated_workflow.yaml block"]
        try:
            _, stages = parse_workflow(wf.content, wf.file_name)
        except BundleError as e:
            return [f"[{e.code}] {e.message}"]
        detail = [b for b in blocks if re.match(r"generated_stage\d+_details", b.file_name)]
        if len(detail) != len(stages):
            return [f"{len(stages)} stages in the workflow but "
                    f"{len(detail)} stage description files"]
        return []

    blocks = invoke_with_retry(transport, log, "curriculum", prompt,
                               parse_file_blocks, check)
    wf_block = next(b for b in blocks if "workflow" in b.file_name)
    wf_doc, _ = parse_workflow(wf_block.content, wf_block.file_name)
    descriptions = {}
    for b in blocks:
        m = re.match(r"generated_stage(\d+)_details", b.file_name)
        if m:
            descriptions[int(m.group(1))] = b.content
    return wf_doc, descriptions


def _generate_stages(task_prompt, wf_doc, descriptions, examples, transport,
                     log, run_dir: Path, config_overrides) -> None:
    template = load_template("per_stage")
    for entry in wf_doc["workflow"]["stages"]:
        idx = int(entry["index"])
        prompt = render(template, {
            "X": idx,
            "INSERT_TASK_PROMPT_HERE": task_prompt,
            "INSERT_STAGE_DESCRIPTION_HERE": descriptions.get(idx, ""),
            "INSERT_WORKFLOW_YAML_HERE": yaml.safe_dump(wf_doc, sort_keys=False),
            "INSERT_REWARD_YAML_HERE": examples["reward"],
            "INSERT_CONFIG_YAML_HERE": examples["config"],
            "INSERT_RANDOMIZE_YAML_HERE": examples["randomize"],
            "INSERT_SCHEMA_REWARD_EXPRESSIONS":
                (_DATA / "docs" / "reward_expressions.txt").read_text(),
            "INSERT_REWARD_VARS_HERE":
                (_DATA / "docs" / "reward_vars.txt").read_text(),
            "INSERT_REWARD_EXAMPLE_HERE":
                (_DATA / "docs" / "reward_example.yaml").read_text(),
        })
        blocks = invoke_with_retry(
            transport, log, "per_stage", prompt, parse_file_blocks,
            _stage_findings)
        if config_overrides:
            roles = _classify_blocks(blocks)
            doc = _apply_overrides(yaml.safe_load(roles["config"].content),
                                   config_overrides)
            blocks = [b for b in blocks if b is not roles["config"]]
            blocks.append(GeneratedFileBlock(
                roles["config"].file_name, roles["config"].file_path,
                yaml.safe_dump(doc, sort_keys=False)))
        _write_stage_files(run_dir / f"stage{idx}", blocks)
    _write_workflow(run_dir, wf_doc)
