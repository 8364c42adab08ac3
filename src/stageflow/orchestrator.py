"""End-to-end pipeline: task prompt -> retrieval -> curriculum generation ->
per-stage file generation -> validation -> staged training with feedback ->
scoring -> store.

Every run owns an append-only directory: ``workflow.yaml``,
``stageN/{reward,config,randomize}.yaml``, ``stageN/metrics.jsonl``,
``stageN/checkpoint.bin``, ``scores.json``, and ``agent_log.jsonl``. The log
holds one entry per agent attempt, retries included: the digest of the prompt
that attempt actually sent, the digest of its response and its findings.

Each agent answer is parsed once into what the pipeline uses: the curriculum
into its workflow document and stage descriptions, a per-stage answer into
the :class:`StageBundle` it trains, a feedback answer into a decision holding
the revised stage. A stage's files and ``workflow.yaml`` are written from
those stages, overrides applied, so the run directory holds what trained.
"""

from __future__ import annotations

import copy
import itertools
import json
import re
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import scoring
from .agents import (AgentLog, invoke_with_retry, load_template,
                     parse_file_blocks, parse_query, parse_selector_json,
                     render)
from .env import DeskWalker
from .errors import AgentError, BundleError, StageflowError, StoreError
from .schema import (KEYS, STAGE_ROLES, CurriculumBundle, PromotionCriterion,
                     StageBundle, build_stage, parse_bundle, parse_workflow,
                     stage_config, validate)
from .trainer import (Policy, RunningNorm, StageResult, deterministic_rollout,
                      load_checkpoint, restore_policy, train_stage)
from .vdb import VectorStore, check_run_id, run_artifact, tokenize

_DATA = Path(__file__).parent / "data"


@dataclass
class FeedbackDecision:
    action: str  # proceed_unchanged | proceed_with_revised_files | terminate
    rationale: str = ""
    revised_stage: StageBundle | None = None  # what trains next, on a revise


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


def _examples_from_artifacts(files: dict, selection: dict) -> dict:
    """The seed examples, with each role replaced by the selector's file.

    ``files`` maps ``<run_id>/<rel>``, the names the selector is offered, to
    the texts of the retrieved runs: the pipeline names every run's files
    alike (``stage1/reward.yaml``), so a name must say whose file it is. Per
    role, the selection with the lowest stage index counts (``workflow`` has
    none)."""
    chosen = {}  # role -> (stage index, file name)
    for key, fname in selection.items():
        m = re.fullmatch(r"([a-z]+)_stage(\d+)", key)
        role, stage = (m.group(1), int(m.group(2))) if m else (key, 0)
        if role not in chosen or stage < chosen[role][0]:
            chosen[role] = (stage, fname)
    examples = seed_examples()
    for role, (_, fname) in chosen.items():
        examples[role] = files[fname]
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


def _stage_from_answer(response: str, entry: dict) -> StageBundle:
    """The stage a per-stage answer writes for the curriculum's ``entry``,
    each file named by its block."""
    roles = _classify_blocks(parse_file_blocks(response))
    missing = [r for r in STAGE_ROLES if r not in roles]
    if missing:
        raise AgentError("MISSING_FILE", f"missing generated file for: {', '.join(missing)}")
    return build_stage({**entry, **{role: b.file_name for role, b in roles.items()}},
                       {role: b.content for role, b in roles.items()})


def _entry(stage: StageBundle, **paths) -> dict:
    """The workflow entry ``stage`` is built from, its files named by
    ``paths`` (role -> path) where given, else by the stage's own paths."""
    return {"index": stage.index,
            **{role: paths.get(role, getattr(stage, f"{role}_path")) for role in STAGE_ROLES},
            "resume_from_checkpoint": stage.resume_from_checkpoint,
            "feedback": stage.feedback,
            "promotion": asdict(stage.promotion)}


def _stage_findings(stage: StageBundle) -> list:
    """The errors on one stage's own files, validated in memory as the only
    stage of a workflow; the whole-bundle validation covers what the
    workflow places (indices, resume, promotion, networks across stages)."""
    report = validate(CurriculumBundle("workflow.yaml", {}, "", [stage]))
    return [f for f in report.errors if f.file != "workflow.yaml"]


def _check_stage(stage: StageBundle) -> list:
    """The findings an agent is re-prompted with for a stage it wrote."""
    return [f"[{f.code}] {f.path}: {f.message}" for f in _stage_findings(stage)]


def _check_overrides(overrides: dict) -> None:
    """Raise the config table's finding for the first override whose value
    the table refuses; a path the table does not type is left to
    validation."""
    for dotted, value in (overrides or {}).items():
        if dotted in KEYS and (problem := KEYS[dotted].problem(value)):
            raise BundleError(problem[0], f"override {dotted!r}: {problem[1]}")


def _overridden(stage: StageBundle, overrides: dict) -> StageBundle:
    """``stage`` with the dotted config paths of ``overrides`` set, e.g.
    {"trainer.num_timesteps": 4000}. The agent's answer passed its checks,
    so the findings now are the overrides': they raise, naming each file and
    giving the code once."""
    doc = copy.deepcopy(stage.config_doc)
    for dotted, value in overrides.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for p in parents:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise StageflowError("PARSE_ERROR", f"override {dotted!r}: {p!r} "
                                                    f"holds {node!r}, not a mapping")
        node[leaf] = value
    stage = replace(stage, config_doc=doc, config_text=yaml.safe_dump(doc, sort_keys=False))
    if findings := _stage_findings(stage):
        code = findings[0].code
        raise BundleError(code, f"stage {stage.index} fails under override "
                          f"{', '.join(map(repr, overrides))}: " + "; ".join(
                              ("" if f.code == code else f"[{f.code}] ")
                              + f"{f.file}:{f.path}: {f.message}" for f in findings))
    return stage


def _write_stage_files(stage_dir: Path, stage: StageBundle) -> None:
    """Write the texts ``stage`` trains on as ``stage_dir/<role>.yaml``."""
    stage_dir.mkdir(parents=True, exist_ok=True)
    for role in STAGE_ROLES:
        (stage_dir / f"{role}.yaml").write_text(getattr(stage, f"{role}_text"))


def _write_workflow(run_dir: Path, wf_doc: dict, stages: list) -> None:
    """Canonical run-root workflow of ``stages`` in the stageN/ file layout."""
    out = {"workflow": {
        "name": wf_doc["workflow"].get("name", "generated-curriculum"),
        "task": wf_doc["workflow"].get("task", ""),
        "stages": [_entry(s, **{role: f"stage{s.index}/{role}.yaml" for role in STAGE_ROLES})
                   for s in stages],
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


def parse_feedback(response: str, next_stage: StageBundle) -> FeedbackDecision:
    """The decision a feedback answer gives; a revision holds ``next_stage``
    with each file the answer gives replaced, named by ``next_stage``'s path
    for its role."""
    m = _DECISION_RE.search(response)
    if not m:
        raise AgentError("MALFORMED_BLOCK",
                         "feedback must contain a 'DECISION: proceed | revise | terminate' line")
    word = m.group(1)
    rm = _RATIONALE_RE.search(response)
    rationale = rm.group(1).strip() if rm else ""
    revised = None
    if word == "revise":
        texts = {role: getattr(next_stage, f"{role}_text") for role in STAGE_ROLES}
        texts.update((role, b.content)
                     for role, b in _classify_blocks(parse_file_blocks(response)).items())
        revised = build_stage(_entry(next_stage), texts)
    return FeedbackDecision(_ACTIONS[word], rationale, revised)


def _metrics_text(result: StageResult, limit: int = 6) -> str:
    lines = [json.dumps(rec, sort_keys=True) for rec in result.metrics[-limit:]]
    return "\n".join(lines)


# -- final scoring -------------------------------------------------------------

def final_scores(checkpoint_path, stage: StageBundle, seed: int = 7,
                 episodes: int = 8, horizon: int = 150) -> scoring.ScoreTriple:
    """Deployment-style evaluation of the final policy: ``episodes``
    deterministic rollouts (:func:`trainer.deterministic_rollout`, the one
    periodic evaluation runs) stepped together as the rows of one
    :class:`DeskWalker` whose one reward block holds every step, each row
    read up to its first ``done`` and scored with the survival / tracking /
    air-time formulas. The policy sees the observations through the
    checkpoint's normalizer only if ``stage`` trained through one, and acts
    on a stack of one-row products, which rounds each row as a lone
    observation's product does."""
    ckpt = load_checkpoint(checkpoint_path)
    policy = Policy(ckpt.policy_sizes[1:-1], ckpt.value_sizes[1:-1],
                    seed=0, obs_dim=ckpt.obs_dim, act_dim=ckpt.act_dim)
    obs_norm = RunningNorm(ckpt.obs_dim)
    restore_policy(ckpt, policy, obs_norm)
    normalized = stage_config(stage.config_doc, BundleError).trainer.normalize_observations
    env = DeskWalker(stage.config_doc.get("environment", {}),
                     stage.randomize_doc.get("randomization") or {}, seed=seed,
                     episodes=episodes, binding_keys=scoring.SCORED_BINDINGS,
                     block_steps=horizon)
    [(block, masks)] = deterministic_rollout(env, policy, obs_norm if normalized else None,
                                             horizon, stacked=True)
    return scoring.score_triple(block, np.sum(masks, axis=0), horizon)


# -- stage loop ----------------------------------------------------------------

def train_stages(bundle: CurriculumBundle, run_dir, seed: int = 7,
                 paper_scale: bool = False, feedback=None):
    """Train the stages in index order into ``run_dir/stageN``; a stage that
    resumes starts from the previous stage's checkpoint. Stops after the
    first stage that misses its promotion criterion.

    ``feedback(stage, result, next_stage)``, when given, runs between a
    promoted stage with feedback on and the next stage, and returns a
    :class:`FeedbackDecision`. A revised stage replaces its entry in
    ``bundle.stages``, its files are written to its directory, and it trains.

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
            _write_stage_files(run_dir / f"stage{nxt.index}", decision.revised_stage)
            stages[pos + 1] = decision.revised_stage
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
    prompt = render(template, {"INSERT_CURRENT_STAGE_HERE": stage.index}) + context
    return invoke_with_retry(
        transport, log, "feedback", prompt,
        lambda response: parse_feedback(response, next_stage),
        lambda decision: _check_stage(decision.revised_stage) if decision.revised_stage else [])


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
            raise BundleError(
                report.errors[0].code, "generated bundle failed validation: "
                + "; ".join(f"[{f.code}] {f.file}:{f.path}: {f.message}"
                            for f in report.errors))
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
    files = {f"{a.run_id}/{rel}": text for a in artifacts for rel, text in a.files.items()}
    sel_prompt = render(load_template("selector"), {
        "INSERT_TASK_PROMPT_HERE": task_prompt,
        "INSERT_EVALUATIONS_HERE": evaluations,
        "INSERT_EXAMPLES_HERE": "\n".join(sorted(files)),
    })
    selection = invoke_with_retry(
        transport, log, "selector", sel_prompt,
        lambda resp: parse_selector_json(resp, files))
    run.retrieved = selection
    return _examples_from_artifacts(files, selection), evaluations


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
    })

    def check(parsed):
        wf_doc, descriptions = parsed
        n = len(wf_doc["workflow"]["stages"])
        if len(descriptions) != n:
            return [f"{n} stages in the workflow but {len(descriptions)} stage description files"]
        return []

    return invoke_with_retry(transport, log, "curriculum", prompt, _parse_curriculum, check)


def _parse_curriculum(response: str) -> tuple[dict, dict]:
    """A curriculum answer's workflow document and its stage descriptions,
    by stage index."""
    blocks = parse_file_blocks(response)
    wf = next((b for b in blocks if "workflow" in b.file_name), None)
    if wf is None:
        raise AgentError("MISSING_FILE", "missing generated_workflow.yaml block")
    wf_doc, _ = parse_workflow(wf.content, wf.file_name)
    return wf_doc, {int(m[1]): b.content for b in blocks
                    if (m := re.match(r"generated_stage(\d+)_details", b.file_name))}


def _generate_stages(task_prompt, wf_doc, descriptions, examples, transport,
                     log, run_dir: Path, config_overrides) -> None:
    template = load_template("per_stage")
    stages = []
    for entry in wf_doc["workflow"]["stages"]:
        idx = int(entry["index"])
        prompt = render(template, {
            "INSERT_STAGE_INDEX_HERE": idx,
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
        stage = invoke_with_retry(
            transport, log, "per_stage", prompt,
            lambda response: _stage_from_answer(response, entry), _check_stage)
        if config_overrides:
            stage = _overridden(stage, config_overrides)
        _write_stage_files(run_dir / f"stage{idx}", stage)
        stages.append(stage)
    _write_workflow(run_dir, wf_doc, stages)
