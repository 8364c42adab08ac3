import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stageflow import randomize
from stageflow.errors import RandomizeError
from stageflow.randomize import _seeds_for, _uniforms, desk_scene, resample_per_env

from scene_golden import REPEATED
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


def keys(seed, n):
    """The scene keys of envs 0..n-1 at one seed, as VecEnv draws them."""
    return [(seed, i) for i in range(n)]


def one_env(rules, seed, env_index=0, nominal=None):
    """One env's scene: ``resample_per_env`` for the single key, without
    the env axis."""
    drawn = resample_per_env(rules, nominal or desk_scene(), [(seed, env_index)])
    return {name: values[0] for name, values in drawn.items()}


def nominal_values(nominal, name):
    return nominal.fields[name].values


def rng_for(seed, field_name, target, env_index, occurrence=0):
    """The Generator whose ``random()`` doubles a rule's stream for one env
    must reproduce."""
    [stream_seed] = _seeds_for(field_name, target, occurrence, [(seed, env_index)])
    return np.random.default_rng(int(stream_seed))


class TestSample:
    def test_draws_stay_inside_bounds_10k(self):
        nominal = desk_scene()
        lo, hi = 0.9, 1.1
        for i in range(10_000):
            scene = one_env({"body_mass": RULES["body_mass"]}, i, nominal=nominal)
            ratio = scene["body_mass"] / nominal_values(nominal, "body_mass")
            assert np.all(ratio >= lo - 1e-12) and np.all(ratio <= hi + 1e-12)

    def test_set_operation_bounds_10k(self):
        nominal = desk_scene()
        for i in range(10_000):
            scene = one_env({"geom_friction": RULES["geom_friction"]}, i, nominal=nominal)
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
        scene = one_env(rules, 123, nominal=nominal)
        np.testing.assert_array_equal(scene["body_mass"],
                                      nominal_values(nominal, "body_mass") * 1.25)

    def test_deterministic_under_seed_and_env_index(self):
        nominal = desk_scene()
        a = one_env(RULES, 7, env_index=3, nominal=nominal)
        b = one_env(RULES, 7, env_index=3, nominal=nominal)
        c = one_env(RULES, 7, env_index=4, nominal=nominal)
        np.testing.assert_array_equal(a["body_mass"], b["body_mass"])
        assert not np.array_equal(a["body_mass"], c["body_mass"])

    def test_nominal_untouched(self):
        nominal = desk_scene()
        before = nominal_values(nominal, "body_mass").copy()
        resample_per_env(RULES, nominal, keys(0, 3))
        np.testing.assert_array_equal(nominal_values(nominal, "body_mass"), before)

    def test_resample_per_env_matches_sample(self):
        """A one-index draw is that index's row of a wider draw."""
        nominal = desk_scene()
        a = resample_per_env(RULES, nominal, keys(5, 4))
        b = one_env(RULES, 5, env_index=2, nominal=nominal)
        for f in a:
            np.testing.assert_array_equal(a[f][2], b[f])

    def test_inert_rule_still_validated(self):
        bad = {"hfield_data": [{
            "target": "ALL",
            "distribution": {"uniform": {"minval": [0.0, 0.0], "maxval": [1.0, 1.0]}},
            "operation": "scale",
        }]}
        for draw in (lambda: one_env(bad, 0),
                     lambda: resample_per_env(bad, desk_scene(), keys(0, 4))):
            with pytest.raises(RandomizeError) as e:
                draw()
            assert e.value.code == "SHAPE_MISMATCH"

    def test_inert_group_is_not_drawn(self):
        rules = {"hfield_data": [{"target": "ALL", "operation": "set",
                                  "distribution": {"uniform": {"minval": 1.0, "maxval": 2.0}}}]}
        drawn = resample_per_env(rules, desk_scene(), keys(0, 3))
        np.testing.assert_array_equal(drawn["hfield_data"], np.zeros((3, 16)))

    def test_two_rules_on_one_target_draw_independently(self):
        """``set U(0,1)`` then ``add U(0,1)`` on the same rows must not add
        the same numbers twice; the first rule keeps its own stream."""
        uniform = {"uniform": {"minval": 0.0, "maxval": 1.0}}
        first = {"target": "ALL", "operation": "set", "distribution": uniform}
        second = {"target": "ALL", "operation": "add", "distribution": uniform}
        u = resample_per_env({"body_mass": [first]}, desk_scene(), keys(3, 4))["body_mass"]
        both = resample_per_env({"body_mass": [first, second]}, desk_scene(),
                                keys(3, 4))["body_mass"]
        for k in range(4):
            expected = np.empty(4)
            rng_for(3, "body_mass", "ALL", k).random(out=expected)
            assert u[k].tobytes() == expected.tobytes()
        added = both - u
        assert not np.allclose(added, u)
        assert np.all((added >= 0.0) & (added <= 1.0))

    def test_unknown_field_rejected(self):
        with pytest.raises(RandomizeError) as e:
            one_env({"warp_drive": RULES["body_mass"]}, 0)
        assert e.value.code == "UNKNOWN_FIELD"


class TestSamplerChecks:
    @pytest.mark.parametrize("name", sorted(RANDOMIZE_CASES))
    def test_raises_the_first_finding_validate_reports(self, name):
        rules, findings = RANDOMIZE_CASES[name]
        code, path, message = findings[0]
        with pytest.raises(RandomizeError) as e:
            one_env(rules, 0)
        assert (e.value.code, e.value.message) == (code, f"{path}: {message}")


class TestCorpusRandomize:
    def test_desk_bundle_rules_sample(self):
        from stageflow.schema import parse_bundle
        from conftest import DATA
        bundle = parse_bundle(DATA / "bundles" / "desk")
        for stage in bundle.stages:
            rules = stage.randomize_doc.get("randomization") or {}
            scene = one_env(rules, 1)
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
    (seed, field, target, env, occurrence of that target in the field) and
    one ``uniform(size=row_shape)`` call per target row, applied row by row
    to one env's copy of the scene."""
    out = {name: group.values.copy() for name, group in nominal.fields.items()}
    for field_name, rule_list in rules.items():
        group = nominal.fields[field_name]
        earlier = []  # targets of this field's rules so far
        for rule in rule_list:
            target = rule.get("target", "ALL")
            occurrence = earlier.count(target)
            earlier.append(target)
            wanted = target if isinstance(target, list) else [target]
            rows = (range(len(group.values)) if target == "ALL"
                    else [group.names.index(t) for t in wanted])
            lo = np.asarray(rule["distribution"]["uniform"]["minval"], dtype=np.float64)
            hi = np.asarray(rule["distribution"]["uniform"]["maxval"], dtype=np.float64)
            rng = rng_for(seed, field_name, target, env_index, occurrence)
            op = rule.get("operation", "set")
            for r in rows:
                u = lo + rng.uniform(size=group.values.shape[1:]) * (hi - lo)
                if group.inert:
                    continue
                v = out[field_name]
                v[r] = v[r] + u if op == "add" else v[r] * u if op == "scale" else u
    return out


class TestBatchedSampler:
    @pytest.mark.parametrize("name", sorted(SHIPPED) + ["repeated targets"])
    def test_rows_match_sample_and_per_row_loop(self, name):
        rules, nominal, seed = SHIPPED.get(name, REPEATED), desk_scene(), 11
        batched = resample_per_env(rules, nominal, keys(seed, 6))
        assert set(batched) == set(nominal.fields)
        for i in range(6):
            one = one_env(rules, seed, env_index=i, nominal=nominal)
            ref = per_row_reference(rules, nominal, seed, i)
            for f in nominal.fields:
                assert batched[f].shape == (6,) + nominal_values(nominal, f).shape
                assert batched[f][i].tobytes() == one[f].tobytes(), (f, i)
                assert batched[f][i].tobytes() == ref[f].tobytes(), (f, i)

    def test_env_indices_need_not_start_at_zero(self):
        """Nor need the rows share a seed, as final scoring's rows do not."""
        rules = SHIPPED["tune/stage1"]
        pairs = [(4, 9), (4, 3), (107, 0)]
        batched = resample_per_env(rules, desk_scene(), pairs)
        for k, (seed, i) in enumerate(pairs):
            one = one_env(rules, seed, env_index=i)
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
        before = resample_per_env(rules, nominal, keys(2, 8))
        after = resample_per_env(edited, nominal, keys(2, 8))
        group = nominal.fields[field_name]
        target = rules[field_name][rule_index].get("target", "ALL")
        wanted = target if isinstance(target, list) else [target]
        touched = (set(range(len(group.values))) if target == "ALL"
                   else {group.names.index(t) for t in wanted})
        for f in nominal.fields:
            for r in range(len(nominal_values(nominal, f))):
                if f == field_name and r in touched:
                    continue
                assert before[f][:, r].tobytes() == after[f][:, r].tobytes(), (f, r)
        if not group.inert:
            assert before[field_name].tobytes() != after[field_name].tobytes()

    def test_field_order_does_not_matter(self):
        rules = SHIPPED["tune/stage1"]
        flipped = dict(reversed(list(rules.items())))
        a = resample_per_env(rules, desk_scene(), keys(5, 4))
        b = resample_per_env(flipped, desk_scene(), keys(5, 4))
        for f in a:
            assert a[f].tobytes() == b[f].tobytes(), f

    def test_passes_do_not_change_the_draws(self, monkeypatch):
        """Keys split into passes of any size, the last one short, give the
        scenes of one pass."""
        rules = SHIPPED["blind/stage1"]
        pairs = keys(6, 7) + [(2**40, 3), (0, 2**33)]
        whole = resample_per_env(rules, desk_scene(), pairs)
        monkeypatch.setattr(randomize, "PASS_DOUBLES", 4 * 186)  # 4 of blind's scenes
        for f, values in resample_per_env(rules, desk_scene(), pairs).items():
            assert values.tobytes() == whole[f].tobytes(), f

    def test_no_keys_and_no_rules(self):
        drawn = resample_per_env(SHIPPED["tune/stage1"], desk_scene(), [])
        assert drawn["body_mass"].shape == (0, 4)
        drawn = resample_per_env({}, desk_scene(), keys(0, 2))
        np.testing.assert_array_equal(drawn["body_mass"],
                                      np.tile(nominal_values(desk_scene(), "body_mass"), (2, 1)))

    def test_an_empty_target_list_draws_nothing(self):
        """It leaves the scene nominal and shifts no other rule's draws, as
        in the per-row loop."""
        uniform = {"uniform": {"minval": 0.5, "maxval": 1.5}}
        rules = {"body_mass": [{"target": [], "operation": "scale", "distribution": uniform},
                               {"target": "ALL", "operation": "scale", "distribution": uniform}]}
        drawn = resample_per_env(rules, desk_scene(), keys(4, 3))
        for i in range(3):
            ref = per_row_reference(rules, desk_scene(), 4, i)
            for f in drawn:
                assert drawn[f][i].tobytes() == ref[f].tobytes(), (f, i)
        alone = resample_per_env({"body_mass": rules["body_mass"][:1]}, desk_scene(), keys(4, 3))
        np.testing.assert_array_equal(alone["body_mass"],
                                      np.tile(nominal_values(desk_scene(), "body_mass"), (3, 1)))

    @pytest.mark.parametrize("name", sorted(SHIPPED) + ["repeated targets"])
    def test_drawing_some_fields_gives_the_all_field_rows(self, name):
        """``fields`` returns just those fields, in its order, each byte for
        byte the all-field call's: streams are keyed by field, so the rules
        of the fields left out shift no draw."""
        rules = SHIPPED.get(name, REPEATED)
        whole = resample_per_env(rules, desk_scene(), keys(9, 6))
        for fields in (("geom_friction", "body_mass"), ("body_mass",), ("actuator_kp_kd",)):
            some = resample_per_env(rules, desk_scene(), keys(9, 6), fields=fields)
            assert list(some) == list(fields)
            for f in fields:
                assert some[f].tobytes() == whole[f].tobytes(), (fields, f)

    def test_a_bad_rule_on_a_field_not_drawn_still_raises(self):
        bad = copy.deepcopy(RULES)
        bad["actuator_kp_kd"] = [{"target": "ALL", "operation": "scale", "distribution": {
            "uniform": {"minval": 1.1, "maxval": 0.9}}}]
        with pytest.raises(RandomizeError) as e:
            resample_per_env(bad, desk_scene(), keys(0, 2), fields=("geom_friction", "body_mass"))
        assert e.value.code == "RANGE_INVERTED"
        assert "randomization.actuator_kp_kd[0]" in e.value.message

    def test_golden_scenes_at_paper_width(self):
        """Every shipped stage's rules and the repeated-target rules, drawn
        for 4,096 keys, match the scenes recorded from the sampler that
        made one Generator per (rule, env), byte for byte."""
        from scene_golden import GOLDEN, digests
        assert digests() == json.loads(GOLDEN.read_text())


# seeds at the edges of SeedSequence's one- and two-word entropy
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def generator_doubles(pairs):
    """What one Generator per (seed, count) pair draws, concatenated."""
    return np.concatenate([np.random.default_rng(seed).random(count)
                           for seed, count in pairs])


class TestUniforms:
    def test_edge_seeds_at_every_count(self):
        pairs = [(seed, count) for seed in EDGE_SEEDS for count in range(1, 81)]
        got = _uniforms(np.array([s for s, _ in pairs], dtype=np.uint64),
                        np.array([c for _, c in pairs]))
        assert got.tobytes() == generator_doubles(pairs).tobytes()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGE_SEEDS),
                                        st.integers(0, 2**64 - 1)),
                              st.integers(1, 80)),
                    min_size=1, max_size=6))
    def test_matches_generator_random(self, pairs):
        """Each seed's doubles are ``default_rng(seed).random(count)``, byte
        for byte, wherever it sits among other seeds and counts."""
        got = _uniforms(np.array([s for s, _ in pairs], dtype=np.uint64),
                        np.array([c for _, c in pairs]))
        assert got.tobytes() == generator_doubles(pairs).tobytes()

    def test_no_seeds(self):
        assert _uniforms(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=int)).size == 0
