"""Parse and statically validate curriculum bundles before any training runs.

A bundle is a workflow YAML plus, per stage, a config / reward / randomize
YAML. ``validate`` never stops at the first problem: it returns a report with
every finding. ``mutate_corpus`` produces a labeled set of broken bundles used
to exercise the validator.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import BundleError, RewardError
from .randomize import desk_scene, rule_findings
from .reward import compile_term

ERROR = "error"
WARNING = "warning"

CONFIG_SECTIONS = ("environment", "trainer", "randomization", "artifact", "ppo_network")
OPTIONAL_CONFIG_SECTIONS = ("render",)

REQUIRED_ENVIRONMENT_KEYS = (
    "scene_file",
    "reward_config_path",
    "obs_noise",
    "init_rand",
    "command_lin_vel_x_range",
    "command_lin_vel_y_range",
    "command_ang_vel_yaw_range",
    "command_stand_prob",
    "gait_frequency",
    "foot_height_range",
)

KNOWN_ENVIRONMENT_KEYS = REQUIRED_ENVIRONMENT_KEYS + (
    "imu_disturbs",
    "big_min_kick_vel", "big_max_kick_vel", "big_kick_interval",
    "small_min_kick_vel", "small_max_kick_vel", "small_kick_interval",
    "fixed_command", "cutoff_freq", "deadband_size", "low_cmd_boost_scale",
    "gaits", "max_foot_height",
)

REQUIRED_TRAINER_KEYS = (
    "num_timesteps", "num_evals", "episode_length", "learning_rate",
    "entropy_cost", "discounting", "num_envs", "batch_size",
    "unroll_length", "num_minibatches", "num_updates_per_batch",
    "clipping_epsilon", "seed",
)

KNOWN_TRAINER_KEYS = REQUIRED_TRAINER_KEYS + (
    "reward_scaling", "normalize_observations", "action_repeat",
)

REQUIRED_NETWORK_KEYS = ("policy_hidden_layer_sizes", "value_hidden_layer_sizes", "activation")
KNOWN_NETWORK_KEYS = REQUIRED_NETWORK_KEYS + ("policy_obs_key", "value_obs_key")


@dataclass
class Finding:
    severity: str
    code: str
    file: str
    path: str
    message: str

    def to_dict(self):
        return dict(
            severity=self.severity, code=self.code, file=self.file,
            path=self.path, message=self.message,
        )

    def __str__(self):
        return f"[{self.severity}] {self.code} {self.file}:{self.path}: {self.message}"


@dataclass
class ValidationReport:
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(f.severity == ERROR for f in self.findings)

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == ERROR]

    def codes(self) -> set[str]:
        return {f.code for f in self.errors}

    def to_json(self) -> str:
        return json.dumps(
            {"ok": self.ok, "findings": [f.to_dict() for f in self.findings]},
            indent=2,
        )

    def to_text(self) -> str:
        if not self.findings:
            return "ok: no findings"
        head = "ok" if self.ok else "INVALID"
        return "\n".join([head] + [str(f) for f in self.findings])


@dataclass
class PromotionCriterion:
    mode: str = "timesteps_exhausted"  # timesteps_exhausted | reward_threshold | either
    reward_threshold: float = 0.0


@dataclass
class StageBundle:
    index: int
    reward_path: str
    config_path: str
    randomize_path: str
    resume_from_checkpoint: bool
    feedback: bool
    promotion: PromotionCriterion
    reward_doc: dict = field(default_factory=dict)
    config_doc: dict = field(default_factory=dict)
    randomize_doc: dict = field(default_factory=dict)
    reward_text: str = ""
    config_text: str = ""
    randomize_text: str = ""


@dataclass
class CurriculumBundle:
    workflow_path: str
    workflow_doc: dict
    workflow_text: str
    stages: list


STAGE_ROLES = ("reward", "config", "randomize")


def _read(path: Path) -> str:
    if not path.is_file():
        raise BundleError("MISSING_FILE", f"no such file: {path}")
    return path.read_text()


def _parse_yaml(text: str, name) -> dict:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise BundleError("PARSE_ERROR", f"{name}: invalid YAML{loc}")
    if not isinstance(doc, dict):
        raise BundleError("PARSE_ERROR", f"{name}: document is not a mapping")
    return doc


def parse_workflow(text: str, wf_path) -> tuple[dict, list]:
    """A workflow file's document and its checked stage entries: each entry
    is a mapping naming its three files, with an integer ``index`` and a
    well-formed ``promotion``. Problems raise ``PARSE_ERROR`` naming
    ``wf_path``."""
    wf_doc = _parse_yaml(text, wf_path)
    wf = wf_doc.get("workflow")
    if not isinstance(wf, dict):
        raise BundleError("PARSE_ERROR", f"{wf_path}: top-level key must be 'workflow:'")
    entries = wf.get("stages")
    if not isinstance(entries, list) or not entries:
        raise BundleError("PARSE_ERROR", f"{wf_path}: workflow.stages must be a non-empty list")
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BundleError("PARSE_ERROR", f"{wf_path}: stage entry must be a mapping")
        for key in ("index",) + STAGE_ROLES:
            if key not in entry:
                raise BundleError("PARSE_ERROR", f"{wf_path}: stage entry missing key {key!r}")
        # what build_stage converts must convert
        where = f"{wf_path}: workflow.stages[{n}]"
        try:
            int(entry["index"])
        except (TypeError, ValueError):
            raise BundleError(
                "PARSE_ERROR", f"{where}.index: {entry['index']!r} is not an integer") from None
        for role in STAGE_ROLES:
            if not isinstance(entry[role], str):
                raise BundleError(
                    "PARSE_ERROR", f"{where}.{role}: {entry[role]!r} is not a file path")
        promo = entry.get("promotion") or {}
        if not isinstance(promo, dict):
            raise BundleError("PARSE_ERROR", f"{where}.promotion: must be a mapping")
        try:
            float(promo.get("reward_threshold", 0.0))
        except (TypeError, ValueError):
            raise BundleError("PARSE_ERROR", f"{where}.promotion.reward_threshold: "
                              f"{promo['reward_threshold']!r} is not a number") from None
    return wf_doc, entries


def build_stage(entry: dict, texts: dict, root: Path = Path()) -> StageBundle:
    """One stage from its workflow entry and the already-read texts of its
    files, keyed by role (``reward``, ``config``, ``randomize``). Errors name
    each file as ``root`` joined with the entry's path for it."""
    docs = {role: _parse_yaml(texts[role], root / entry[role]) for role in STAGE_ROLES}
    if "reward" not in docs["reward"]:
        raise BundleError(
            "PARSE_ERROR", f"{root / entry['reward']}: top-level key must be 'reward:'")
    promo_spec = entry.get("promotion") or {}
    return StageBundle(
        index=int(entry["index"]),
        reward_path=str(entry["reward"]),
        config_path=str(entry["config"]),
        randomize_path=str(entry["randomize"]),
        resume_from_checkpoint=bool(entry.get("resume_from_checkpoint", False)),
        feedback=bool(entry.get("feedback", True)),
        promotion=PromotionCriterion(
            mode=promo_spec.get("mode", "timesteps_exhausted"),
            reward_threshold=float(promo_spec.get("reward_threshold", 0.0)),
        ),
        reward_doc=docs["reward"],
        config_doc=docs["config"],
        randomize_doc=docs["randomize"],
        reward_text=texts["reward"],
        config_text=texts["config"],
        randomize_text=texts["randomize"],
    )


def parse_bundle(workflow_path: str | Path) -> CurriculumBundle:
    """Load a workflow file (or a directory containing ``workflow.yaml``) and
    every stage file it references. Purely structural: semantic checks live in
    :func:`validate`."""
    wf_path = Path(workflow_path)
    if wf_path.is_dir():
        wf_path = wf_path / "workflow.yaml"
    wf_text = _read(wf_path)
    wf_doc, entries = parse_workflow(wf_text, wf_path)
    root = wf_path.parent
    stages = []
    for entry in entries:
        texts = {role: _read(root / entry[role]) for role in STAGE_ROLES}
        stages.append(build_stage(entry, texts, root))
    stages.sort(key=lambda s: s.index)
    return CurriculumBundle(
        workflow_path=str(wf_path), workflow_doc=wf_doc, workflow_text=wf_text,
        stages=stages,
    )


# -- validation ---------------------------------------------------------------

def _is_power_of_two(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n > 0 and (n & (n - 1)) == 0

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)

def _is_range(x) -> bool:
    return (isinstance(x, list) and len(x) == 2
            and all(_is_number(v) and math.isfinite(v) for v in x))


def _validate_config(stage: StageBundle, out: list):
    doc = stage.config_doc
    f = stage.config_path

    def err(code, path, msg):
        out.append(Finding(ERROR, code, f, path, msg))

    def warn(code, path, msg):
        out.append(Finding(WARNING, code, f, path, msg))

    def get(section, key):
        """The value at ``section.key``: None when absent, and None after a
        TYPE_ERROR when present with no value (``key:`` reads as null, which
        the trainer cannot take for a default)."""
        v = doc[section].get(key)
        if v is None and key in doc[section]:
            err("TYPE_ERROR", f"{section}.{key}", f"{key} has no value; give it one or remove the key")
        return v

    def number(section, key):
        """The number at ``section.key``: None when absent or null (``get``),
        and None after a TYPE_ERROR when not a finite number. PyYAML reads
        ``1.0e12`` (no exponent sign) and quoted numbers as strings, and
        ``.nan``/``.inf`` as floats that no range check rejects."""
        v = get(section, key)
        if v is None or _is_number(v) and math.isfinite(v):
            return v
        err("TYPE_ERROR", f"{section}.{key}", f"{key} must be a finite number, got {v!r}; "
            "write it unquoted, an exponent with its sign and a decimal point, as in 1.0e+12")
        return None

    for section in CONFIG_SECTIONS:
        if section not in doc or not isinstance(doc[section], dict):
            err("MISSING_KEY", section, f"config must contain a '{section}:' mapping")
    for key in doc:
        if key not in CONFIG_SECTIONS + OPTIONAL_CONFIG_SECTIONS:
            warn("UNKNOWN_KEY", key, "unknown top-level config section")

    env = doc.get("environment")
    if isinstance(env, dict):
        for key in REQUIRED_ENVIRONMENT_KEYS:
            if key not in env:
                err("MISSING_KEY", f"environment.{key}", "required environment key missing")
        for key in env:
            if key not in KNOWN_ENVIRONMENT_KEYS:
                warn("UNKNOWN_KEY", f"environment.{key}", "unknown environment key")
        for key in ("command_lin_vel_x_range", "command_lin_vel_y_range",
                    "command_ang_vel_yaw_range", "gait_frequency", "foot_height_range"):
            rng = get("environment", key)
            if rng is None:
                continue
            if not _is_range(rng):
                err("TYPE_ERROR", f"environment.{key}", "expected a finite [lo, hi] pair")
            elif rng[0] > rng[1]:
                err("RANGE_INVERTED", f"environment.{key}", f"lo {rng[0]} > hi {rng[1]}")
        noise = number("environment", "obs_noise")
        if noise is not None and noise < 0:
            err("POSITIVE_REQUIRED", "environment.obs_noise", f"obs_noise must be >= 0, got {noise!r}")
        prob = number("environment", "command_stand_prob")
        if prob is not None and not 0.0 <= prob <= 1.0:
            err("PROB_RANGE", "environment.command_stand_prob",
                f"probability must lie in [0, 1], got {prob!r}")
        number("environment", "max_foot_height")
        for lo_key, hi_key in (("big_min_kick_vel", "big_max_kick_vel"),
                               ("small_min_kick_vel", "small_max_kick_vel")):
            lo, hi = number("environment", lo_key), number("environment", hi_key)
            if lo is not None and hi is not None and lo > hi:
                err("RANGE_INVERTED", f"environment.{lo_key}", f"{lo_key} {lo} > {hi_key} {hi}")
        for key in ("big_kick_interval", "small_kick_interval"):
            v = get("environment", key)
            if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 1):
                err("TYPE_ERROR", f"environment.{key}", "interval must be an integer >= 1")

    tr = doc.get("trainer")
    if isinstance(tr, dict):
        for key in REQUIRED_TRAINER_KEYS:
            if key not in tr:
                err("MISSING_KEY", f"trainer.{key}", "required trainer key missing")
        for key in tr:
            if key not in KNOWN_TRAINER_KEYS:
                warn("UNKNOWN_KEY", f"trainer.{key}", "unknown trainer key")
        for key in ("batch_size", "num_envs"):
            v = get("trainer", key)
            if v is not None and not _is_power_of_two(v):
                err("POWER_OF_TWO", f"trainer.{key}", f"{key} must be a power of 2, got {v!r}")
        g = number("trainer", "discounting")
        if g is not None and not 0.0 < g < 1.0:
            err("GAMMA_RANGE", "trainer.discounting", f"discounting must be in (0, 1), got {g!r}")
        for key in ("learning_rate", "clipping_epsilon"):
            v = number("trainer", key)
            if v is not None and v <= 0:
                err("POSITIVE_REQUIRED", f"trainer.{key}", f"{key} must be > 0, got {v!r}")
        number("trainer", "reward_scaling")
        v = get("trainer", "seed")
        if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 0):
            err("TYPE_ERROR", "trainer.seed", f"seed must be an integer >= 0, got {v!r}")
        v = number("trainer", "entropy_cost")
        if v is not None and v < 0:
            err("POSITIVE_REQUIRED", "trainer.entropy_cost", f"entropy_cost must be >= 0, got {v!r}")
        for key in ("num_timesteps", "num_evals", "episode_length", "unroll_length",
                    "num_minibatches", "num_updates_per_batch"):
            v = get("trainer", key)
            if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 1):
                err("TYPE_ERROR", f"trainer.{key}", f"{key} must be an integer >= 1, got {v!r}")
        mb, n, u = (tr.get(k) for k in ("num_minibatches", "num_envs", "unroll_length"))
        if all(_is_number(v) and v >= 1 for v in (mb, n, u)) and mb > n * u:  # empty minibatches
            err("TOO_MANY_MINIBATCHES", "trainer.num_minibatches", f"num_minibatches {mb} "
                f"exceeds the {n * u} rollout rows (num_envs x unroll_length)")

    net = doc.get("ppo_network")
    if isinstance(net, dict):
        for key in REQUIRED_NETWORK_KEYS:
            if key not in net:
                err("MISSING_KEY", f"ppo_network.{key}", "required network key missing")
        for key in ("policy_hidden_layer_sizes", "value_hidden_layer_sizes"):
            sizes = get("ppo_network", key)
            if sizes is not None and (
                not isinstance(sizes, list) or not sizes
                or not all(isinstance(s, int) and not isinstance(s, bool) and s > 0 for s in sizes)
            ):
                err("TYPE_ERROR", f"ppo_network.{key}", "expected a non-empty list of positive ints")

    rnd = doc.get("randomization")
    if isinstance(rnd, dict) and "randomize_config_path" not in rnd:
        err("MISSING_KEY", "randomization.randomize_config_path", "required key missing")


def _validate_reward(stage: StageBundle, out: list):
    doc = stage.reward_doc
    f = stage.reward_path
    if "reward" not in doc:
        out.append(Finding(ERROR, "BAD_TOP_KEY", f, "", "top-level key must be 'reward:'"))
        return
    terms = doc["reward"]
    if not isinstance(terms, dict) or not terms:
        out.append(Finding(ERROR, "BAD_TOP_KEY", f, "reward",
                           "'reward:' must map term names to term specs"))
        return
    for name, spec in terms.items():
        try:
            compile_term(name, spec)
        except RewardError as e:
            out.append(Finding(ERROR, e.code, f, f"reward.{name}", e.message))


def _validate_randomize(stage: StageBundle, out: list):
    doc = stage.randomize_doc
    f = stage.randomize_path

    def err(code, path, msg):
        out.append(Finding(ERROR, code, f, path, msg))

    if "randomization" not in doc:
        err("BAD_TOP_KEY", "", "top-level key must be 'randomization:'")
        return
    body = doc["randomization"]
    if not isinstance(body, dict):
        err("BAD_TOP_KEY", "randomization", "'randomization:' must be a mapping")
        return
    for code, path, message in rule_findings(body, desk_scene()):
        err(code, path, message)


def validate(bundle: CurriculumBundle) -> ValidationReport:
    """Full static validation. Pure: same bundle, same report."""
    out: list[Finding] = []
    wf_file = bundle.workflow_path

    indices = [s.index for s in bundle.stages]
    if indices != list(range(1, len(indices) + 1)):
        out.append(Finding(ERROR, "STAGE_INDEX", wf_file, "workflow.stages",
                           f"stage indices must be contiguous from 1, got {indices}"))
    if bundle.stages and bundle.stages[0].index == 1 and bundle.stages[0].resume_from_checkpoint:
        out.append(Finding(ERROR, "RESUME_FIRST_STAGE", wf_file,
                           "workflow.stages[0].resume_from_checkpoint",
                           "stage 1 cannot resume from a checkpoint"))
    for s in bundle.stages:
        if s.promotion.mode not in ("timesteps_exhausted", "reward_threshold", "either"):
            out.append(Finding(ERROR, "UNKNOWN_PROMOTION", wf_file,
                               f"workflow.stages[{s.index}].promotion.mode",
                               f"unknown promotion mode {s.promotion.mode!r}"))

    # cross-stage: network sizes must be identical everywhere
    nets = []
    for s in bundle.stages:
        net = s.config_doc.get("ppo_network") or {}
        nets.append((net.get("policy_hidden_layer_sizes"), net.get("value_hidden_layer_sizes")))
    if len({json.dumps(n) for n in nets}) > 1:
        out.append(Finding(ERROR, "NETWORK_MISMATCH", wf_file, "ppo_network",
                           "network layer sizes must be identical across all stages"))

    for s in bundle.stages:
        rnd = s.config_doc.get("randomization") or {}
        declared = rnd.get("randomize_config_path")
        if declared is not None and Path(declared).name != Path(s.randomize_path).name:
            out.append(Finding(
                ERROR, "PATH_MISMATCH", s.config_path, "randomization.randomize_config_path",
                f"config names {Path(declared).name!r} but the workflow assigns "
                f"{Path(s.randomize_path).name!r}",
            ))
        _validate_config(s, out)
        _validate_reward(s, out)
        _validate_randomize(s, out)

    return ValidationReport(findings=out)


# -- mutation corpus ----------------------------------------------------------

@dataclass
class Mutant:
    label: str
    expected_code: str
    bundle: CurriculumBundle
    expected_path: str | None = None  # set where the code is the only error, on this path


def _clone(bundle: CurriculumBundle) -> CurriculumBundle:
    return copy.deepcopy(bundle)


def mutate_corpus(bundle: CurriculumBundle, seed: int = 0) -> list[Mutant]:
    """Deterministic set of >= 20 single-field mutations of a valid bundle,
    each labeled with the finding code it must trigger."""
    rng = random.Random(seed)
    stage0 = bundle.stages[0]
    term_names = sorted((stage0.reward_doc.get("reward") or {}).keys())
    victim_term = rng.choice(term_names)
    rnd_fields = sorted((stage0.randomize_doc.get("randomization") or {}).keys())
    victim_field = rng.choice(rnd_fields)

    mutants: list[Mutant] = []

    def mutant(label, code, fn, path=None):
        b = _clone(bundle)
        fn(b)
        mutants.append(Mutant(label, code, b, path))

    def tr(b):
        return b.stages[0].config_doc["trainer"]

    def env(b):
        return b.stages[0].config_doc["environment"]

    def term(b):
        return b.stages[0].reward_doc["reward"][victim_term]

    def rz(b):
        return b.stages[0].randomize_doc["randomization"]

    mutant("batch_size not a power of two", "POWER_OF_TWO",
           lambda b: tr(b).update(batch_size=500))
    mutant("num_envs not a power of two", "POWER_OF_TWO",
           lambda b: tr(b).update(num_envs=100))
    mutant("x velocity command range inverted", "RANGE_INVERTED",
           lambda b: env(b).update(command_lin_vel_x_range=[0.5, -0.5]))
    mutant("stand probability above 1", "PROB_RANGE",
           lambda b: env(b).update(command_stand_prob=1.5))
    mutant("discount factor outside (0,1)", "GAMMA_RANGE",
           lambda b: tr(b).update(discounting=1.5))
    mutant("negative learning rate", "POSITIVE_REQUIRED",
           lambda b: tr(b).update(learning_rate=-1.0e-4))
    mutant("zero clipping epsilon", "POSITIVE_REQUIRED",
           lambda b: tr(b).update(clipping_epsilon=0))
    mutant("negative observation noise", "POSITIVE_REQUIRED",
           lambda b: env(b).update(obs_noise=-1))
    mutant("learning rate read as a string", "TYPE_ERROR",
           lambda b: tr(b).update(learning_rate="1.0e12"))
    mutant("learning rate NaN", "TYPE_ERROR",
           lambda b: tr(b).update(learning_rate=float("nan")))
    mutant("infinite clipping epsilon", "TYPE_ERROR",
           lambda b: tr(b).update(clipping_epsilon=float("inf")))
    inf, nan = float("inf"), float("nan")
    for label, section, key, value in (
            ("big kick velocity infinite", "environment", "big_max_kick_vel", inf),
            ("small kick velocity read as a string", "environment", "small_min_kick_vel", "fast"),
            ("gait_frequency bound NaN", "environment", "gait_frequency", [nan, 2.0]),
            ("x velocity command bound infinite", "environment", "command_lin_vel_x_range", [-inf, 1.0]),
            ("max_foot_height NaN", "environment", "max_foot_height", nan),
            ("max_foot_height read as a string", "environment", "max_foot_height", "high"),
            ("reward_scaling infinite", "trainer", "reward_scaling", inf),
            ("reward_scaling read as a string", "trainer", "reward_scaling", "big"),
            ("negative seed", "trainer", "seed", -1),
            ("learning rate left empty", "trainer", "learning_rate", None),
            ("num_envs left empty", "trainer", "num_envs", None),
            ("observation noise left empty", "environment", "obs_noise", None),
            ("gait_frequency left empty", "environment", "gait_frequency", None)):
        mutant(label, "TYPE_ERROR",
               lambda b, s=section, k=key, v=value: b.stages[0].config_doc[s].update({k: v}),
               f"{section}.{key}")
    mutant("more minibatches than rollout rows", "TOO_MANY_MINIBATCHES",
           lambda b: tr(b).update(num_minibatches=1_000_000))
    mutant("num_timesteps dropped", "MISSING_KEY",
           lambda b: tr(b).pop("num_timesteps"))
    mutant("environment section dropped", "MISSING_KEY",
           lambda b: b.stages[0].config_doc.pop("environment"))
    mutant("gait_frequency range inverted", "RANGE_INVERTED",
           lambda b: env(b).update(gait_frequency=[2.5, 2.0]))
    mutant("reward top-level key renamed", "BAD_TOP_KEY",
           lambda b: b.stages[0].reward_doc.update(
               rewards=b.stages[0].reward_doc.pop("reward")))
    mutant(f"evaluation type of {victim_term!r} unknown", "UNKNOWN_EVALUATION",
           lambda b: term(b)["evaluations"][0].update(type="cubic"))
    mutant(f"parameter set of {victim_term!r} wrong", "TYPE_ARITY",
           lambda b: term(b)["evaluations"][0].update(
               parameters={"bogus_parameter": "1.0"}))
    mutant(f"input expression of {victim_term!r} unparseable", "SYNTAX_ERROR",
           lambda b: term(b).setdefault("inputs", {}).update(broken="command[0:2"))
    mutant(f"{victim_term!r} references an undeclared variable", "UNBOUND_VARIABLE",
           lambda b: term(b)["evaluations"].append(
               {"type": "sum_square", "parameters": {"vector": "no_such_name_anywhere"}}))
    mutant(f"scale of {victim_term!r} not numeric", "BAD_SCALE",
           lambda b: term(b).update(scale="big"))
    mutant(f"evaluations of {victim_term!r} emptied", "EMPTY_EVALUATIONS",
           lambda b: term(b).update(evaluations=[]))
    mutant(f"combination type of {victim_term!r} unknown", "UNKNOWN_COMBINATION",
           lambda b: term(b).update(combination={"type": "product"}))
    mutant("randomize top-level key renamed", "BAD_TOP_KEY",
           lambda b: b.stages[0].randomize_doc.update(
               random=b.stages[0].randomize_doc.pop("randomization")))
    mutant(f"randomization field {victim_field!r} misspelled", "UNKNOWN_FIELD",
           lambda b: rz(b).update(unknown_field_xyz=rz(b).pop(victim_field)))
    mutant(f"uniform bounds of {victim_field!r} inverted", "RANGE_INVERTED",
           lambda b: rz(b)[victim_field][0]["distribution"]["uniform"].update(
               minval=10.0, maxval=-10.0))
    mutant(f"operation of {victim_field!r} unknown", "UNKNOWN_OPERATION",
           lambda b: rz(b)[victim_field][0].update(operation="multiply"))
    mutant(f"uniform bound shapes of {victim_field!r} differ", "SHAPE_MISMATCH",
           lambda b: rz(b)[victim_field][0]["distribution"]["uniform"].update(
               minval=[0.0, 0.0], maxval=[1.0, 1.0, 1.0]))
    mutant("stage 1 resumes from a checkpoint", "RESUME_FIRST_STAGE",
           lambda b: setattr(b.stages[0], "resume_from_checkpoint", True))
    mutant("config randomize path disagrees with workflow", "PATH_MISMATCH",
           lambda b: b.stages[0].config_doc["randomization"].update(
               randomize_config_path="somewhere/else.yaml"))
    mutant("stage index not contiguous", "STAGE_INDEX",
           lambda b: setattr(b.stages[-1], "index", b.stages[-1].index + 1))
    if len(bundle.stages) > 1:
        mutant("network sizes differ across stages", "NETWORK_MISMATCH",
               lambda b: b.stages[1].config_doc["ppo_network"].update(
                   policy_hidden_layer_sizes=[8, 8]))
    return mutants
