"""Parse and statically validate curriculum bundles before any training runs.

A bundle is a workflow YAML plus, per stage, a config / reward / randomize
YAML. ``validate`` never stops at the first problem: it returns a report with
every finding. ``mutate_corpus`` produces a labeled set of broken bundles used
to exercise the validator.

The config table. ``TABLE`` holds one row (a :class:`Key`) per config key,
by section: its name, its kind (a finite float, an integer, a power of 2, a
finite [lo, hi] pair, a layer list, a bool, a string; none for a key that
is known but neither checked nor read), whether validation requires it, its
default, the bounds ``within`` which a number must lie and the finding code
for one outside them. Defaults live in the row and nowhere else: a row
without one is read by nobody (``UNREAD``) or needed by its readers
(``NO_DEFAULT``). ``validate`` walks the table for every per-key finding;
cross-key checks stay code. :func:`stage_config` and
:func:`section_config` walk the same table to build what training, its
environments and final scoring read: frozen records holding only the keys
the table types and some reader reads, each converted by its kind and
defaulted by its row. A value ``validate`` would refuse is refused there
too, with the same code, so no reader sees a key the table does not type.
"""

from __future__ import annotations

import copy
import enum
import json
import math
import random
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .errors import BundleError, RewardError, StageflowError
from .randomize import desk_scene, rule_findings
from .reward import compile_term

ERROR = "error"
WARNING = "warning"

CONFIG_SECTIONS = ("environment", "trainer", "randomization", "artifact", "ppo_network")
OPTIONAL_CONFIG_SECTIONS = ("render",)


@dataclass
class Finding:
    severity: str
    code: str
    file: str
    path: str
    message: str

    def to_dict(self):
        return asdict(self)

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

# libyaml's parser when PyYAML was built with it: it loads every shipped file
# to the document the pure-Python one does, and reports a malformed one at
# the same line and column, about six times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _read(path: Path) -> str:
    if not path.is_file():
        raise BundleError("MISSING_FILE", f"no such file: {path}")
    try:
        return path.read_text()
    except UnicodeDecodeError as e:
        raise BundleError("PARSE_ERROR", f"{path}: not UTF-8 text ({e.reason} at byte "
                          f"{e.start})") from None


def _parse_yaml(text: str, name) -> dict:
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
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


# -- the config table ---------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    return _is_number(x) and math.isfinite(x)


# a value of a kind passes ``test``; one that fails is a ``code`` finding
# saying it must be ``noun`` (then ``hint``); readers get ``convert`` of it
Kind = namedtuple("Kind", "test noun convert code hint", defaults=("TYPE_ERROR", ""))
# PyYAML reads ``1.0e12`` (no exponent sign) and quoted numbers as strings,
# and ``.nan``/``.inf`` as floats that no bound rejects
FLOAT = Kind(_is_finite, "a finite number", float, hint="; write it unquoted, an exponent "
             "with its sign and a decimal point, as in 1.0e+12")
INT = Kind(_is_int, "an integer", int)
POWER_OF_2 = Kind(lambda v: _is_int(v) and v > 0 and v & (v - 1) == 0, "a power of 2", int,
                  "POWER_OF_TWO")
RANGE = Kind(lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_finite, v)),
             "a finite [lo, hi] pair", lambda v: tuple(map(float, v)))
LAYERS = Kind(lambda v: isinstance(v, list) and len(v) > 0
              and all(_is_int(s) and s > 0 for s in v),
              "a non-empty list of positive ints", tuple)
BOOL = Kind(lambda v: isinstance(v, bool), "true or false", bool)
STRING = Kind(lambda v: isinstance(v, str), "a string", str)

# row defaults that are not values (module docstring)
UNREAD, NO_DEFAULT = enum.Enum("Default", "UNREAD NO_DEFAULT")


def _inside(v, interval: str) -> bool:
    """Whether ``v`` lies in ``interval``, written as "[0, 1)" or "(0, inf)"."""
    lo, hi = map(float, interval[1:-1].split(","))
    return ((lo < v if interval[0] == "(" else lo <= v)
            and (v < hi if interval[-1] == ")" else v <= hi))


class Key(namedtuple("Key", "name kind required default within code",
                     defaults=(None, False, UNREAD, "", "TYPE_ERROR"))):
    """One row of the config table (module docstring)."""
    __slots__ = ()

    def problem(self, v) -> tuple[str, str] | None:
        """(code, message) of what is wrong with the value ``v``, or None."""
        if self.kind is None:
            return None
        if v is None:  # ``key:`` reads as null, which no reader takes for a default
            return "TYPE_ERROR", f"{self.name} has no value; give it one or remove the key"
        if not self.kind.test(v):
            return (self.kind.code,
                    f"{self.name} must be {self.kind.noun}, got {v!r}{self.kind.hint}")
        if self.kind is RANGE and v[0] > v[1]:
            return "RANGE_INVERTED", f"lo {v[0]} > hi {v[1]}"
        if self.within and not _inside(v, self.within):
            return self.code, f"{self.name} must lie in {self.within}, got {v!r}"
        return None


REQUIRED = True
TABLE = {
    "environment": (
        Key("scene_file", STRING, REQUIRED),
        Key("reward_config_path", STRING, REQUIRED),
        Key("obs_noise", FLOAT, REQUIRED, 0.0, "[0, inf)", "POSITIVE_REQUIRED"),
        Key("init_rand", BOOL, REQUIRED, False),
        Key("command_lin_vel_x_range", RANGE, REQUIRED, (0.0, 0.0)),
        Key("command_lin_vel_y_range", RANGE, REQUIRED, (0.0, 0.0)),
        Key("command_ang_vel_yaw_range", RANGE, REQUIRED, (0.0, 0.0)),
        Key("command_stand_prob", FLOAT, REQUIRED, 0.0, "[0, 1]", "PROB_RANGE"),
        Key("gait_frequency", RANGE, REQUIRED, (2.0, 2.0)),
        Key("foot_height_range", RANGE, REQUIRED, (0.03, 0.05)),
        Key("max_foot_height", FLOAT, default=lambda env: env["foot_height_range"][1]),
        Key("big_min_kick_vel", FLOAT, default=0.0),
        Key("big_max_kick_vel", FLOAT, default=0.0),
        Key("big_kick_interval", INT, default=0, within="[1, inf)"),  # 0: never kicks
        Key("small_min_kick_vel", FLOAT, default=0.0),
        Key("small_max_kick_vel", FLOAT, default=0.0),
        Key("small_kick_interval", INT, default=0, within="[1, inf)"),
        *map(Key, ("imu_disturbs", "fixed_command", "cutoff_freq", "deadband_size",
                   "low_cmd_boost_scale", "gaits")),
    ),
    "trainer": (
        Key("num_timesteps", INT, REQUIRED, 200_000, "[1, inf)"),
        Key("num_evals", INT, REQUIRED, 1, "[1, inf)"),
        Key("episode_length", INT, REQUIRED, 250, "[1, inf)"),
        Key("learning_rate", FLOAT, REQUIRED, NO_DEFAULT, "(0, inf)", "POSITIVE_REQUIRED"),
        Key("entropy_cost", FLOAT, REQUIRED, 0.0, "[0, inf)", "POSITIVE_REQUIRED"),
        Key("discounting", FLOAT, REQUIRED, NO_DEFAULT, "(0, 1)", "GAMMA_RANGE"),
        Key("num_envs", POWER_OF_2, REQUIRED, 64),
        Key("batch_size", POWER_OF_2, REQUIRED),
        Key("unroll_length", INT, REQUIRED, NO_DEFAULT, "[1, inf)"),
        Key("num_minibatches", INT, REQUIRED, 4, "[1, inf)"),
        Key("num_updates_per_batch", INT, REQUIRED, NO_DEFAULT, "[1, inf)"),
        Key("clipping_epsilon", FLOAT, REQUIRED, NO_DEFAULT, "(0, inf)", "POSITIVE_REQUIRED"),
        Key("seed", INT, REQUIRED, 0, "[0, inf)"),
        Key("reward_scaling", FLOAT, default=1.0),
        Key("normalize_observations", BOOL, default=True),
        Key("action_repeat"),
    ),
    "ppo_network": (
        Key("policy_hidden_layer_sizes", LAYERS, REQUIRED, NO_DEFAULT),
        Key("value_hidden_layer_sizes", LAYERS, REQUIRED, NO_DEFAULT),
        Key("activation", required=REQUIRED),
        Key("policy_obs_key"),
        Key("value_obs_key"),
    ),
    "randomization": (
        Key("randomize_config_path", STRING, REQUIRED),
        Key("randomize"),
    ),
}
KEYS = {f"{section}.{key.name}": key for section, keys in TABLE.items() for key in keys}

# per section with a key some reader reads, a record type of those keys
RECORDS = {section: namedtuple(f"{section}_config", [k.name for k in read])
           for section, keys in TABLE.items()
           if (read := [k for k in keys if k.default is not UNREAD])}
StageConfig = namedtuple("StageConfig", RECORDS)


def section_config(section: str, values, error: type[StageflowError]):
    """The frozen record of one config section: each key a reader reads,
    converted by its kind, at the table's default where ``values`` lacks it.
    ``values`` is a mapping, possibly partial, or already such a record. A
    value ``validate`` would report raises ``error`` with its finding's
    code, and so does a missing key without a default."""
    record = RECORDS[section]
    if isinstance(values, record):
        return values
    if not isinstance(values, Mapping):
        raise error("MISSING_KEY", f"config must contain a '{section}:' mapping")
    built = {}
    for key in TABLE[section]:
        if key.default is UNREAD:
            continue
        if key.name in values:
            if problem := key.problem(values[key.name]):
                raise error(problem[0], f"{section}.{key.name}: {problem[1]}")
            built[key.name] = key.kind.convert(values[key.name])
        elif key.default is NO_DEFAULT:
            raise error("MISSING_KEY", f"{section}.{key.name}: required {section} key missing")
        else:
            built[key.name] = key.default(built) if callable(key.default) else key.default
    return record(**built)


def stage_config(doc: dict, error: type[StageflowError]) -> StageConfig:
    """The frozen, fully defaulted config of a stage's config document; a
    missing section takes every default (:func:`section_config`)."""
    return StageConfig(*(section_config(s, doc.get(s, {}), error) for s in StageConfig._fields))


# -- validation ---------------------------------------------------------------

def _validate_config(stage: StageBundle, out: list):
    doc = stage.config_doc

    def add(severity, code, path, msg):
        out.append(Finding(severity, code, stage.config_path, path, msg))

    for section in CONFIG_SECTIONS:
        if not isinstance(doc.get(section), dict):
            add(ERROR, "MISSING_KEY", section, f"config must contain a '{section}:' mapping")
    for section in doc:
        if section not in CONFIG_SECTIONS + OPTIONAL_CONFIG_SECTIONS:
            add(WARNING, "UNKNOWN_KEY", section, "unknown top-level config section")

    for section, keys in TABLE.items():
        body = doc.get(section)
        if not isinstance(body, dict):
            continue
        for key in keys:
            if key.name not in body:
                if key.required:
                    add(ERROR, "MISSING_KEY", f"{section}.{key.name}",
                        f"required {section} key missing")
            elif problem := key.problem(body[key.name]):
                add(ERROR, problem[0], f"{section}.{key.name}", problem[1])
        for name in body:
            if f"{section}.{name}" not in KEYS:
                add(WARNING, "UNKNOWN_KEY", f"{section}.{name}", f"unknown {section} key")

    env, tr = doc.get("environment"), doc.get("trainer")
    for size in ("big", "small") if isinstance(env, dict) else ():
        lo_key, hi_key = f"{size}_min_kick_vel", f"{size}_max_kick_vel"
        lo, hi = env.get(lo_key), env.get(hi_key)
        if _is_finite(lo) and _is_finite(hi) and lo > hi:
            add(ERROR, "RANGE_INVERTED", f"environment.{lo_key}", f"{lo_key} {lo} > {hi_key} {hi}")
    if isinstance(tr, dict):
        mb, n, u = (tr.get(k) for k in ("num_minibatches", "num_envs", "unroll_length"))
        if all(_is_number(v) and v >= 1 for v in (mb, n, u)) and mb > n * u:  # empty minibatches
            add(ERROR, "TOO_MANY_MINIBATCHES", "trainer.num_minibatches", f"num_minibatches {mb} "
                f"exceeds the {n * u} rollout rows (num_envs x unroll_length)")


def _validate_reward(stage: StageBundle, out: list):
    from .env import BINDING_SHAPES  # env reads its config through this module
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
            compile_term(name, spec, BINDING_SHAPES)
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
        if isinstance(declared, str) and Path(declared).name != Path(s.randomize_path).name:
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

    def term(b):
        return b.stages[0].reward_doc["reward"][victim_term]

    def rz(b):
        return b.stages[0].randomize_doc["randomization"]

    inf, nan = float("inf"), float("nan")
    for label, path, value, code in (  # one config value each, the only error
            ("batch_size not a power of two", "trainer.batch_size", 500, "POWER_OF_TWO"),
            ("num_envs not a power of two", "trainer.num_envs", 100, "POWER_OF_TWO"),
            ("x velocity command range inverted", "environment.command_lin_vel_x_range",
             [0.5, -0.5], "RANGE_INVERTED"),
            ("gait_frequency range inverted", "environment.gait_frequency", [2.5, 2.0],
             "RANGE_INVERTED"),
            ("stand probability above 1", "environment.command_stand_prob", 1.5, "PROB_RANGE"),
            ("discount factor outside (0,1)", "trainer.discounting", 1.5, "GAMMA_RANGE"),
            ("negative learning rate", "trainer.learning_rate", -1.0e-4, "POSITIVE_REQUIRED"),
            ("zero clipping epsilon", "trainer.clipping_epsilon", 0, "POSITIVE_REQUIRED"),
            ("negative observation noise", "environment.obs_noise", -1, "POSITIVE_REQUIRED"),
            ("learning rate read as a string", "trainer.learning_rate", "1.0e12", "TYPE_ERROR"),
            ("learning rate NaN", "trainer.learning_rate", nan, "TYPE_ERROR"),
            ("infinite clipping epsilon", "trainer.clipping_epsilon", inf, "TYPE_ERROR"),
            ("big kick velocity infinite", "environment.big_max_kick_vel", inf, "TYPE_ERROR"),
            ("small kick velocity read as a string", "environment.small_min_kick_vel", "fast",
             "TYPE_ERROR"),
            ("gait_frequency bound NaN", "environment.gait_frequency", [nan, 2.0], "TYPE_ERROR"),
            ("x velocity command bound infinite", "environment.command_lin_vel_x_range",
             [-inf, 1.0], "TYPE_ERROR"),
            ("max_foot_height NaN", "environment.max_foot_height", nan, "TYPE_ERROR"),
            ("max_foot_height read as a string", "environment.max_foot_height", "high",
             "TYPE_ERROR"),
            ("reward_scaling infinite", "trainer.reward_scaling", inf, "TYPE_ERROR"),
            ("reward_scaling read as a string", "trainer.reward_scaling", "big", "TYPE_ERROR"),
            ("negative seed", "trainer.seed", -1, "TYPE_ERROR"),
            ("learning rate left empty", "trainer.learning_rate", None, "TYPE_ERROR"),
            ("num_envs left empty", "trainer.num_envs", None, "TYPE_ERROR"),
            ("observation noise left empty", "environment.obs_noise", None, "TYPE_ERROR"),
            ("gait_frequency left empty", "environment.gait_frequency", None, "TYPE_ERROR"),
            ("more minibatches than rollout rows", "trainer.num_minibatches", 1_000_000,
             "TOO_MANY_MINIBATCHES")):
        section, name = path.split(".")
        mutant(label, code, lambda b, s=section, k=name, v=value:
               b.stages[0].config_doc[s].update({k: v}), path)
    mutant("num_timesteps dropped", "MISSING_KEY",
           lambda b: b.stages[0].config_doc["trainer"].pop("num_timesteps"))
    mutant("environment section dropped", "MISSING_KEY",
           lambda b: b.stages[0].config_doc.pop("environment"))
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
