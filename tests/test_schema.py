import copy
import dataclasses
import math
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from stageflow import schema
from stageflow.env import BINDING_SHAPES
from stageflow.errors import BundleError, RewardError, StageflowError
from stageflow.reward import compile_term
from stageflow.schema import ERROR, mutate_corpus, parse_bundle, validate
from stageflow.trainer import train_stage

from conftest import DATA

BUNDLES = ["tune", "blind", "desk"]


class TestParse:
    @pytest.mark.parametrize("name", BUNDLES)
    def test_parses(self, name):
        b = parse_bundle(DATA / "bundles" / name)
        assert b.stages
        assert [s.index for s in b.stages] == list(range(1, len(b.stages) + 1))

    def test_missing_file(self, tmp_path):
        with pytest.raises(BundleError) as e:
            parse_bundle(tmp_path / "nope.yaml")
        assert e.value.code == "MISSING_FILE"

    def test_bad_yaml(self, tmp_path):
        wf = tmp_path / "workflow.yaml"
        wf.write_text("workflow: [unclosed")
        with pytest.raises(BundleError) as e:
            parse_bundle(wf)
        assert e.value.code == "PARSE_ERROR"

    def test_stage_entry_must_be_complete(self, tmp_path):
        (tmp_path / "workflow.yaml").write_text(
            "workflow:\n  stages:\n    - index: 1\n")
        with pytest.raises(BundleError) as e:
            parse_bundle(tmp_path)
        assert e.value.code == "PARSE_ERROR"


class TestValidate:
    @pytest.mark.parametrize("name", BUNDLES)
    def test_corpus_bundles_clean(self, name):
        report = validate(parse_bundle(DATA / "bundles" / name))
        assert report.ok, report.to_text()
        assert report.errors == []

    @pytest.mark.parametrize("name", BUNDLES)
    def test_validation_fast(self, name):
        start = time.perf_counter()
        validate(parse_bundle(DATA / "bundles" / name))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("path,value", [("environment.init_rand", "no"),
                                            ("trainer.normalize_observations", "false")])
    def test_a_quoted_bool_is_one_type_error_on_its_path(self, path, value):
        """``bool("no")`` is True: a flag the trainer reads must be a YAML
        boolean, or validation says so on that key."""
        bundle = parse_bundle(DATA / "bundles" / "desk")
        section, key = path.split(".")
        bundle.stages[0].config_doc[section][key] = value
        assert [(f.code, f.path) for f in validate(bundle).errors] == [("TYPE_ERROR", path)]

    def test_report_json_roundtrip(self):
        import json
        report = validate(parse_bundle(DATA / "bundles" / "tune"))
        doc = json.loads(report.to_json())
        assert doc["ok"] is True
        assert isinstance(doc["findings"], list)


def _with_term(spec):
    """The shipped desk bundle with ``spec`` added to stage 1's reward as
    term ``added``."""
    bundle = parse_bundle(DATA / "bundles" / "desk")
    bundle.stages[0].reward_doc["reward"]["added"] = spec
    return bundle


WELL_FORMED = {"inputs": {"v": "command[0:2]"},
               "evaluations": [{"type": "sum_square", "parameters": {"vector": "v"},
                                "output": "s"}],
               "combination": {"type": "weighted_sum",
                               "parameters": {"vectors": ["s"], "weights": [1.0]}}}


class TestRewardFindings:
    """A reward fault is one error on its term's path, never a traceback."""

    @pytest.mark.parametrize("change", [
        {"evaluations": ["x"]},                                   # an evaluation not a mapping
        {"evaluations": [{"type": "sum_square", "parameters": ["vector"]}]},
        {"inputs": ["command"]},
        {"evaluations": {"type": "sum_square", "parameters": {"vector": "v"}}},
        {"combination": "sum"},
        {"evaluations": [{"type": "sum_square", "parameters": {"vector": "v"}, "output": ["x"]}]},
        {"evaluations": [{"type": ["sum_square"], "parameters": {"vector": "v"}}]},
        {"combination": {"type": "weighted_sum", "parameters": {"vectors": ["s"],
                                                                "weights": ["x"]}}},
        {"combination": {"type": "weighted_sum", "parameters": [["s"], [1.0]]}},
        {"inputs": {"v": " + ".join(["command[0:2]"] * 3000)}},
    ], ids=["evaluation", "parameters", "inputs", "evaluations", "combination", "output",
            "type", "weights", "combination-parameters", "deep-expression"])
    def test_a_malformed_term_is_one_finding(self, change):
        spec = dict(copy.deepcopy(WELL_FORMED), **change)
        with pytest.raises(RewardError) as e:
            compile_term("added", spec, BINDING_SHAPES)
        assert [(f.code, f.path) for f in validate(_with_term(spec)).errors] == [
            (e.value.code, "reward.added")]

    @pytest.mark.parametrize("expression,code", [
        ("joint_angles[0:12] - joint_angles[12:24]", "SHAPE_MISMATCH"),
        ("joint_angles[8]", "INDEX_OUT_OF_BOUNDS"),
        ("feet_pos[0, 1, 2]", "INDEX_OUT_OF_BOUNDS"),
        ("feet_pos - command[0:2]", "SHAPE_MISMATCH"),
    ])
    def test_a_shape_fault_on_the_walkers_bindings_is_found(self, expression, code):
        """Terms type-check against the walker's binding shapes, the table
        ``VecEnv`` builds its rows by, so a slice that cannot fit fails
        validation instead of the first reward evaluation."""
        spec = {"inputs": {"d": expression},
                "evaluations": [{"type": "sum_square", "parameters": {"vector": "d"}}]}
        assert [(f.code, f.path) for f in validate(_with_term(spec)).errors] == [
            (code, "reward.added")]

    def test_a_term_on_keys_the_walker_lacks_is_not_checked(self):
        spec = {"inputs": {"d": "ghost[0:12] - ghost[12:24]"}, "default_reward": 0.5,
                "evaluations": [{"type": "sum_square", "parameters": {"vector": "d"}}]}
        assert validate(_with_term(spec)).errors == []


class TestMutationCorpus:
    @pytest.mark.parametrize("name", BUNDLES)
    def test_every_mutant_rejected_with_labeled_code(self, name):
        bundle = parse_bundle(DATA / "bundles" / name)
        mutants = mutate_corpus(bundle, seed=0)
        assert len(mutants) >= 20
        for m in mutants:
            report = validate(m.bundle)
            assert not report.ok, f"mutant {m.label!r} was accepted"
            assert m.expected_code in report.codes(), (
                f"mutant {m.label!r}: expected {m.expected_code}, "
                f"got {sorted(report.codes())}")
            if m.expected_path is not None:
                assert [(f.code, f.path) for f in report.errors] == [
                    (m.expected_code, m.expected_path)], m.label

    def test_deterministic_under_seed(self):
        bundle = parse_bundle(DATA / "bundles" / "tune")
        a = [m.label for m in mutate_corpus(bundle, seed=3)]
        b = [m.label for m in mutate_corpus(bundle, seed=3)]
        assert a == b


def _numeric_fields(doc, path=()):
    """(path, index) of every number in a config document, with index the
    position in a list of numbers (None for a scalar)."""
    for key, v in doc.items():
        if isinstance(v, dict):
            yield from _numeric_fields(v, path + (key,))
        elif isinstance(v, list):
            yield from ((path + (key,), i) for i, x in enumerate(v)
                        if isinstance(x, (int, float)) and not isinstance(x, bool))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield path + (key,), None


def _one_iteration_stage(name):
    """The last stage of a shipped bundle as a first stage, trimmed to one
    PPO iteration of 4 envs and one evaluation (desk's last stage kicks and
    adds observation noise)."""
    stage = parse_bundle(DATA / "bundles" / name).stages[-1]
    config = copy.deepcopy(stage.config_doc)
    config["trainer"].update(num_envs=4, num_timesteps=80, num_evals=1)
    return dataclasses.replace(stage, config_doc=config, resume_from_checkpoint=False,
                               index=1)


def _typed_fields(config):
    """(path, index) of every value of ``config`` that the config table
    types: index None for the whole value, and each position of a list."""
    for path, key in schema.KEYS.items():
        section, name = path.split(".")
        value = config.get(section, {}).get(name)
        if key.kind is not None and value is not None:
            yield path, None
            if isinstance(value, list):
                yield from ((path, i) for i in range(len(value)))


STAGES = {name: _one_iteration_stage(name) for name in BUNDLES}
KICKED = STAGES["desk"]
TYPED_FIELDS = [(name, path, index) for name in BUNDLES
                for path, index in _typed_fields(STAGES[name].config_doc)]
ODD_VALUES = [math.nan, math.inf, -math.inf, "0.5", "1.0e12", "fast", "", "no", "false",
              True, False, 0, 0.0, -1, -0.25, -3.0, None,
              [], [0.5], [2.0, 1.0], [64, 64, 64], [True, 1], {"lo": 0.0}]


def _alone(name, stage):
    """Shipped bundle ``name`` with ``stage`` as its only stage."""
    bundle = parse_bundle(DATA / "bundles" / name)
    bundle.stages = [stage]
    return bundle


@settings(derandomize=True, max_examples=300, deadline=None)
@given(field=st.sampled_from(TYPED_FIELDS), value=st.sampled_from(ODD_VALUES))
def test_a_mutated_number_is_reported_or_trains(field, value, tmp_path_factory):
    """Differential property, over every value the config table types in
    each shipped bundle (numbers, bools, strings, ranges and layer lists,
    whole or one element): with it replaced, either ``validate`` names that
    key in an error, or a one-iteration 4-env ``train_stage`` raises nothing
    or a StageflowError."""
    name, path, index = field
    section, key = path.split(".")
    config = copy.deepcopy(STAGES[name].config_doc)
    if index is None:
        config[section][key] = value
    else:
        config[section][key][index] = value
    stage = dataclasses.replace(STAGES[name], config_doc=config)
    if any(f.severity == ERROR and f.path == path for f in validate(_alone(name, stage)).findings):
        return
    try:
        train_stage(stage, tmp_path_factory.mktemp("stage"), eval_episodes=2, eval_max_steps=10)
    except StageflowError:
        pass


@pytest.mark.parametrize("path", sorted({".".join(p) for p, _ in
                                         _numeric_fields(KICKED.config_doc)}))
def test_a_null_number_is_one_type_error_on_its_path(path):
    """A key written with no value (``learning_rate:``) reads as None: on a
    key the config table types it is one TYPE_ERROR on that key's path, not
    taken for an absent key; any other key is not checked."""
    *parents, key = path.split(".")
    config = copy.deepcopy(KICKED.config_doc)
    holder = config
    for name in parents:
        holder = holder[name]
    holder[key] = None
    typed = path in schema.KEYS and schema.KEYS[path].kind is not None
    errors = [(f.code, f.path) for f in
              validate(_alone("desk", dataclasses.replace(KICKED, config_doc=config))).errors]
    assert errors == ([("TYPE_ERROR", path)] if typed else [])


U = {"uniform": {"minval": 0.9, "maxval": 1.1}}
FIELDS = ("geom_friction, actuator_kp_kd, actuator_gainprm, actuator_biasprm, "
          "body_ipos, geom_pos, body_mass, hfield_data")

# (rules under ``randomization:``, the findings ``validate`` reports for them
# as (code, path, message)); the first eleven are the randomize findings the
# schema reported before the rule checks moved into randomize.rule_findings,
# byte for byte
RANDOMIZE_CASES = {
    "unknown field": (
        {"warp_drive": [{"target": "ALL", "distribution": U}]},
        [("UNKNOWN_FIELD", "randomization.warp_drive",
          f"unknown randomization field; expected one of {FIELDS}")]),
    "config-only key": (
        {"randomize": True, "body_mass": [{"target": "ALL", "distribution": U}]},
        [("UNKNOWN_FIELD", "randomization.randomize",
          f"unknown randomization field; expected one of {FIELDS}")]),
    "rules not a list": (
        {"body_mass": {"target": "ALL", "distribution": U}},
        [("TYPE_ERROR", "randomization.body_mass", "expected a list of rules")]),
    "rule not a mapping": (
        {"body_mass": ["scale"]},
        [("TYPE_ERROR", "randomization.body_mass[0]", "rule must be a mapping")]),
    "missing target": (
        {"body_mass": [{"distribution": U, "operation": "scale"}]},
        [("MISSING_KEY", "randomization.body_mass[0].target", "rule must name a target")]),
    "no uniform distribution": (
        {"body_mass": [{"target": "ALL", "distribution": {"normal": {}}}]},
        [("MISSING_KEY", "randomization.body_mass[0].distribution.uniform",
          "rule must carry a uniform distribution")]),
    "bounds not numbers": (
        {"body_mass": [{"target": "ALL",
                        "distribution": {"uniform": {"minval": "low", "maxval": 1.1}}}]},
        [("TYPE_ERROR", "randomization.body_mass[0].distribution.uniform",
          "minval/maxval must be numbers or number lists")]),
    "bound lengths differ": (
        {"geom_friction": [{"target": "ALL", "distribution": {
            "uniform": {"minval": [0.0, 0.0], "maxval": [1.0, 1.0, 1.0]}}}]},
        [("SHAPE_MISMATCH", "randomization.geom_friction[0].distribution.uniform",
          "minval has 2 entries, maxval has 3")]),
    "bounds inverted": (
        {"body_mass": [{"target": "ALL", "operation": "scale",
                        "distribution": {"uniform": {"minval": 1.1, "maxval": 0.9}}}]},
        [("RANGE_INVERTED", "randomization.body_mass[0].distribution.uniform",
          "minval must be <= maxval elementwise")]),
    "unknown operation": (
        {"body_mass": [{"target": "ALL", "distribution": U, "operation": "multiply"}]},
        [("UNKNOWN_OPERATION", "randomization.body_mass[0].operation",
          "operation must be one of ('add', 'scale', 'set'), got 'multiply'")]),
    "operation not a name": (
        {"body_mass": [{"target": "ALL", "distribution": U, "operation": ["add"]}]},
        [("UNKNOWN_OPERATION", "randomization.body_mass[0].operation",
          "operation must be one of ('add', 'scale', 'set'), got ['add']")]),
    "unknown target": (
        {"body_mass": [{"target": "ALL", "distribution": U},
                       {"target": ["leg_l", "left_shin"], "distribution": U}]},
        [("UNKNOWN_FIELD", "randomization.body_mass[1].target",
          "field 'body_mass' has no target named 'left_shin'")]),
    "bounds narrower than the rows": (
        {"geom_friction": [{"target": "floor", "distribution": {
            "uniform": {"minval": [0.5, 0.0], "maxval": [1.0, 0.0]}}}]},
        [("SHAPE_MISMATCH", "randomization.geom_friction[0].distribution.uniform",
          "bounds of shape (2,) against parameter rows of shape (3,)")]),
    "row-shaped bounds on an inert group": (
        {"hfield_data": [{"target": "ALL", "distribution": {
            "uniform": {"minval": [0.0], "maxval": [1.0]}}}]},
        [("SHAPE_MISMATCH", "randomization.hfield_data[0].distribution.uniform",
          "bounds of shape (1,) against parameter rows of shape ()")]),
    "every problem of a rule, in order": (
        {"body_mass": [{"target": "head", "operation": "mul", "distribution": {
            "uniform": {"minval": [2.0, 0.0], "maxval": [1.0, 1.0]}}}]},
        [("UNKNOWN_FIELD", "randomization.body_mass[0].target",
          "field 'body_mass' has no target named 'head'"),
         ("SHAPE_MISMATCH", "randomization.body_mass[0].distribution.uniform",
          "bounds of shape (2,) against parameter rows of shape ()"),
         ("RANGE_INVERTED", "randomization.body_mass[0].distribution.uniform",
          "minval must be <= maxval elementwise"),
         ("UNKNOWN_OPERATION", "randomization.body_mass[0].operation",
          "operation must be one of ('add', 'scale', 'set'), got 'mul'")]),
}


@pytest.mark.parametrize("name", sorted(RANDOMIZE_CASES))
def test_randomize_findings(name):
    rules, expected = RANDOMIZE_CASES[name]
    bundle = parse_bundle(DATA / "bundles" / "desk")
    stage = bundle.stages[0]
    stage.randomize_doc = {"randomization": rules}
    found = [(f.code, f.path, f.message) for f in validate(bundle).findings
             if f.file == stage.randomize_path]
    assert found == expected


class TestYamlLoader:
    """``schema`` parses through libyaml when PyYAML has it; both loaders
    must agree on everything ``_parse_yaml`` reports."""

    @pytest.fixture
    def loaders(self):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        return yaml.SafeLoader, yaml.CSafeLoader

    def test_every_shipped_file_loads_equal(self, loaders):
        files = sorted(DATA.rglob("*.yaml"))
        assert len(files) >= 16
        for path in files:
            text = path.read_text()
            assert (yaml.load(text, Loader=loaders[0])
                    == yaml.load(text, Loader=loaders[1])), path

    @pytest.mark.parametrize("text", [
        "a: [1, 2\n", "a: b: c\n", "\tx: 1\n", "a:\n  - 1\n - 2\n",
        "key: 'unterminated\n", "{a: 1\n", "a: 1\nb: *missing\n", "- a\nb: 1\n",
        "a: 1\n  b: 2\n", "a: !!python/object:os.system x\n",
    ])
    def test_malformed_text_is_reported_at_the_same_place(self, loaders, monkeypatch, text):
        messages = []
        for loader in loaders:
            monkeypatch.setattr(schema, "YAML_LOADER", loader)
            with pytest.raises(BundleError) as e:
                schema._parse_yaml(text, "f.yaml")
            messages.append(e.value.message)
        assert messages[0] == messages[1]
        assert " at line " in messages[0]
