import copy

import numpy as np
import pytest

from stageflow.errors import RandomizeError
from stageflow.randomize import _rng_for, desk_scene, resample_per_env, sample

from test_schema import RANDOMIZE_CASES

RULES = {
    "body_mass": [{
        "target": "ALL",
        "distribution": {"uniform": {"minval": 0.9, "maxval": 1.1}},
        "operation": "scale",
    }],
    "geom_friction": [{
        "target": "ALL",
        "distribution": {"uniform": {"minval": [0.6, 0.0, 0.0],
                                     "maxval": [1.1, 0.0, 0.0]}},
        "operation": "set",
    }],
}


class TestSample:
    def test_draws_stay_inside_bounds_10k(self):
        nominal = desk_scene()
        lo, hi = 0.9, 1.1
        for i in range(10_000):
            scene = sample({"body_mass": RULES["body_mass"]}, nominal, seed=i)
            ratio = scene["body_mass"] / nominal["body_mass"]
            assert np.all(ratio >= lo - 1e-12) and np.all(ratio <= hi + 1e-12)

    def test_set_operation_bounds_10k(self):
        nominal = desk_scene()
        for i in range(10_000):
            scene = sample({"geom_friction": RULES["geom_friction"]}, nominal, seed=i)
            f = scene["geom_friction"]
            assert np.all(f[:, 0] >= 0.6) and np.all(f[:, 0] <= 1.1)
            assert np.all(f[:, 1:] == 0.0)

    def test_degenerate_interval_exact(self):
        rules = {"body_mass": [{
            "target": "ALL",
            "distribution": {"uniform": {"minval": 1.25, "maxval": 1.25}},
            "operation": "scale",
        }]}
        nominal = desk_scene()
        scene = sample(rules, nominal, seed=123)
        np.testing.assert_array_equal(scene["body_mass"],
                                      nominal["body_mass"] * 1.25)

    def test_deterministic_under_seed_and_env_index(self):
        nominal = desk_scene()
        a = sample(RULES, nominal, seed=7, env_index=3)
        b = sample(RULES, nominal, seed=7, env_index=3)
        c = sample(RULES, nominal, seed=7, env_index=4)
        np.testing.assert_array_equal(a["body_mass"], b["body_mass"])
        assert not np.array_equal(a["body_mass"], c["body_mass"])

    def test_nominal_untouched(self):
        nominal = desk_scene()
        before = nominal["body_mass"].copy()
        sample(RULES, nominal, seed=0)
        np.testing.assert_array_equal(nominal["body_mass"], before)

    def test_resample_per_env_matches_sample(self):
        nominal = desk_scene()
        a = resample_per_env(RULES, nominal, base_seed=5, env_indices=[2])
        b = sample(RULES, nominal, seed=5, env_index=2)
        np.testing.assert_array_equal(a["body_mass"][0], b["body_mass"])

    def test_inert_rule_still_validated(self):
        bad = {"hfield_data": [{
            "target": "ALL",
            "distribution": {"uniform": {"minval": [0.0, 0.0], "maxval": [1.0, 1.0]}},
            "operation": "scale",
        }]}
        for draw in (lambda: sample(bad, desk_scene(), seed=0),
                     lambda: resample_per_env(bad, desk_scene(), 0, range(4))):
            with pytest.raises(RandomizeError) as e:
                draw()
            assert e.value.code == "SHAPE_MISMATCH"

    def test_inert_group_is_not_drawn(self):
        rules = {"hfield_data": [{"target": "ALL", "operation": "set",
                                  "distribution": {"uniform": {"minval": 1.0, "maxval": 2.0}}}]}
        drawn = resample_per_env(rules, desk_scene(), 0, range(3))
        np.testing.assert_array_equal(drawn["hfield_data"], np.zeros((3, 16)))

    def test_unknown_field_rejected(self):
        with pytest.raises(RandomizeError) as e:
            sample({"warp_drive": RULES["body_mass"]}, desk_scene(), seed=0)
        assert e.value.code == "UNKNOWN_FIELD"


class TestSamplerChecks:
    @pytest.mark.parametrize("name", sorted(RANDOMIZE_CASES))
    def test_raises_the_first_finding_validate_reports(self, name):
        rules, findings = RANDOMIZE_CASES[name]
        code, path, message = findings[0]
        with pytest.raises(RandomizeError) as e:
            sample(rules, desk_scene(), seed=0)
        assert (e.value.code, e.value.message) == (code, f"{path}: {message}")


class TestCorpusRandomize:
    def test_desk_bundle_rules_sample(self):
        from stageflow.schema import parse_bundle
        from conftest import DATA
        bundle = parse_bundle(DATA / "bundles" / "desk")
        for stage in bundle.stages:
            rules = stage.randomize_doc.get("randomization") or {}
            scene = sample(rules, desk_scene(), seed=1)
            assert np.all(scene["body_mass"] > 0)


def _shipped_rule_sets():
    from stageflow.schema import parse_bundle
    from conftest import DATA
    for name in ("desk", "tune", "blind"):
        for stage in parse_bundle(DATA / "bundles" / name).stages:
            yield f"{name}/stage{stage.index}", stage.randomize_doc.get("randomization") or {}


SHIPPED = dict(_shipped_rule_sets())


def per_row_reference(rules, nominal, seed, env_index):
    """The per-row loop the batched sampler replaced: one generator per
    (seed, field, target, env) and one ``uniform(size=row_shape)`` call per
    target row, applied row by row to one env's copy of the scene."""
    out = {name: group.values.copy() for name, group in nominal.fields.items()}
    for field_name, rule_list in rules.items():
        if field_name in ("randomize", "randomize_config_path"):
            continue
        group = nominal.fields[field_name]
        for rule in rule_list:
            target = rule.get("target", "ALL")
            wanted = target if isinstance(target, list) else [target]
            rows = (range(len(group.values)) if target == "ALL"
                    else [group.names.index(t) for t in wanted])
            lo = np.asarray(rule["distribution"]["uniform"]["minval"], dtype=np.float64)
            hi = np.asarray(rule["distribution"]["uniform"]["maxval"], dtype=np.float64)
            rng = _rng_for(seed, field_name, target, env_index)
            op = rule.get("operation", "set")
            for r in rows:
                u = lo + rng.uniform(size=group.values.shape[1:]) * (hi - lo)
                if group.inert:
                    continue
                v = out[field_name]
                v[r] = v[r] + u if op == "add" else v[r] * u if op == "scale" else u
    return out


class TestBatchedSampler:
    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_rows_match_sample_and_per_row_loop(self, name):
        rules, nominal, seed = SHIPPED[name], desk_scene(), 11
        batched = resample_per_env(rules, nominal, seed, range(6))
        assert set(batched) == set(nominal.fields)
        for i in range(6):
            one = sample(rules, nominal, seed, env_index=i)
            ref = per_row_reference(rules, nominal, seed, i)
            for f in nominal.fields:
                assert batched[f].shape == (6,) + nominal[f].shape
                assert batched[f][i].tobytes() == one[f].tobytes(), (f, i)
                assert batched[f][i].tobytes() == ref[f].tobytes(), (f, i)

    def test_env_indices_need_not_start_at_zero(self):
        rules = SHIPPED["tune/stage1"]
        batched = resample_per_env(rules, desk_scene(), 4, [9, 3])
        for k, i in enumerate([9, 3]):
            one = sample(rules, desk_scene(), 4, env_index=i)
            for f in batched:
                np.testing.assert_array_equal(batched[f][k], one[f])

    @pytest.mark.parametrize("field_name,rule_index",
                             [(f, j) for f, rs in SHIPPED["tune/stage1"].items()
                              for j in range(len(rs))])
    def test_editing_one_rule_leaves_other_draws(self, field_name, rule_index):
        rules = SHIPPED["tune/stage1"]
        nominal = desk_scene()
        edited = copy.deepcopy(rules)
        uni = edited[field_name][rule_index]["distribution"]["uniform"]
        uni["maxval"] = (np.asarray(uni["maxval"], dtype=np.float64) + 0.5).tolist()
        before = resample_per_env(rules, nominal, 2, range(8))
        after = resample_per_env(edited, nominal, 2, range(8))
        group = nominal.fields[field_name]
        target = rules[field_name][rule_index].get("target", "ALL")
        wanted = target if isinstance(target, list) else [target]
        touched = (set(range(len(group.values))) if target == "ALL"
                   else {group.names.index(t) for t in wanted})
        for f in nominal.fields:
            for r in range(len(nominal[f])):
                if f == field_name and r in touched:
                    continue
                assert before[f][:, r].tobytes() == after[f][:, r].tobytes(), (f, r)
        if not group.inert:
            assert before[field_name].tobytes() != after[field_name].tobytes()

    def test_field_order_does_not_matter(self):
        rules = SHIPPED["tune/stage1"]
        flipped = dict(reversed(list(rules.items())))
        a = resample_per_env(rules, desk_scene(), 5, range(4))
        b = resample_per_env(flipped, desk_scene(), 5, range(4))
        for f in a:
            assert a[f].tobytes() == b[f].tobytes(), f
