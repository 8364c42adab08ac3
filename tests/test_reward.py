import itertools
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from stageflow.env import BINDING_SHAPES
from stageflow.errors import RewardError
from stageflow.reward import compile_program, compile_term, eval_total_batch

from conftest import DATA, env_value, step_value


def term(spec_yaml: str, name="t", shapes=BINDING_SHAPES):
    return compile_term(name, yaml.safe_load(spec_yaml), shapes)


def term_value(t, bindings: dict):
    """A compiled term's contribution over bindings of one row per env."""
    return t.fn(bindings, len(next(iter(bindings.values()), [0])))


# -- compilation ---------------------------------------------------------------

class TestCompile:
    def test_unknown_evaluation(self):
        with pytest.raises(RewardError) as e:
            term("""
            evaluations:
              - type: frobnicate
                parameters: {vector: "a"}
            """)
        assert e.value.code == "UNKNOWN_EVALUATION"

    def test_wrong_parameter_set(self):
        with pytest.raises(RewardError) as e:
            term("""
            inputs: {a: "command"}
            evaluations:
              - type: sum_square
                parameters: {vector: "a", extra: 1}
            """)
        assert e.value.code == "TYPE_ARITY"

    def test_unbound_parameter_variable(self):
        with pytest.raises(RewardError) as e:
            term("""
            inputs: {a: "command"}
            evaluations:
              - type: sum_square
                parameters: {vector: "nonexistent"}
            """)
        assert e.value.code == "UNBOUND_VARIABLE"

    def test_outputs_become_visible_in_order(self):
        t = term("""
        inputs: {a: "command"}
        evaluations:
          - type: sum_square
            parameters: {vector: "a"}
            output: err
          - type: exponential_decay
            parameters: {error: "err", sigma: 0.25}
        """)
        a = np.array([0.1, -0.2, 0.3])
        assert term_value(t, {"command": env_value(a)})[0] == pytest.approx(
            math.exp(-(a @ a) / (2 * 0.25 ** 2)), rel=1e-12)

    def test_empty_evaluations(self):
        with pytest.raises(RewardError) as e:
            term("inputs: {a: 'command'}")
        assert e.value.code == "EMPTY_EVALUATIONS"

    def test_bad_scale(self):
        with pytest.raises(RewardError) as e:
            term("""
            inputs: {a: "command"}
            evaluations:
              - {type: sum_square, parameters: {vector: "a"}}
            scale: .nan
            """)
        assert e.value.code == "BAD_SCALE"

    def test_program_keeps_term_order(self):
        spec = {"inputs": {"v": "command"},
                "evaluations": [{"type": "sum_square", "parameters": {"vector": "v"}}]}
        prog = compile_program({"a": spec, "b": dict(spec)}, BINDING_SHAPES)
        assert [t.name for t in prog.terms] == ["a", "b"]

    def test_required_variables_from_inputs(self):
        t = term("""
        inputs: {a: "command[0:2] - local_vel[0:2]"}
        evaluations:
          - {type: sum_square, parameters: {vector: "a"}}
        """)
        assert t.required_variables == {"command", "local_vel"}


# -- primitive oracles ---------------------------------------------------------

class TestPrimitiveOracles:
    """Each primitive against an independent scalar-loop oracle, 1000 cases."""

    N_CASES = 1000

    def cases(self):
        rng = np.random.default_rng(42)
        for _ in range(self.N_CASES):
            rank = int(rng.integers(0, 3))
            shape = tuple(int(rng.integers(1, 4)) for _ in range(rank))
            yield rng, rng.standard_normal(shape)

    def test_sum_square(self):
        for rng, x in self.cases():
            got = step_value("sum_square", {"vector": "x"}, {"x": env_value(x)})
            oracle = 0.0
            for v in np.atleast_1d(x).ravel():
                oracle += v * v
            assert float(got[0]) == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_exponential_decay(self):
        for rng, x in self.cases():
            sigma = float(rng.uniform(0.05, 2.0))
            got = step_value("exponential_decay", {"error": "x", "sigma": sigma},
                             {"x": env_value(x)})
            oracle = np.vectorize(lambda e: math.exp(-e / (2 * sigma * sigma)))(
                np.atleast_1d(x))
            np.testing.assert_allclose(np.atleast_1d(got[0]), oracle,
                                       rtol=1e-12)

    def test_norms(self):
        for rng, x in self.cases():
            l2 = step_value("norm_L2", {"vector": "x"}, {"x": env_value(x)})[0]
            l1 = step_value("norm_L1", {"vector": "x"}, {"x": env_value(x)})[0]
            if x.ndim == 0:
                assert float(l2) == pytest.approx(abs(float(x)), rel=1e-12)
                assert float(l1) == pytest.approx(abs(float(x)), rel=1e-12)
            else:
                rows = x.reshape(-1, x.shape[-1])
                o2 = np.array([math.sqrt(sum(v * v for v in row)) for row in rows]
                              ).reshape(x.shape[:-1])
                o1 = np.array([sum(abs(v) for v in row) for row in rows]
                              ).reshape(x.shape[:-1])
                np.testing.assert_allclose(l2, o2, rtol=1e-12)
                np.testing.assert_allclose(l1, o1, rtol=1e-12)

    def test_quadratic(self):
        for rng, x in self.cases():
            w = float(rng.uniform(-2, 2))
            got = step_value("quadratic", {"value": "x", "weight": w}, {"x": env_value(x)})
            np.testing.assert_allclose(np.atleast_1d(got[0]),
                                       np.atleast_1d(w * x * x), rtol=1e-12)

    def test_weighted_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(self.N_CASES):
            n = int(rng.integers(1, 5))
            x, w = rng.standard_normal(n), rng.standard_normal(n)
            got = step_value("weighted_sum", {"values": "x", "weights": "w"},
                             {"x": env_value(x), "w": env_value(w)})
            oracle = sum(a * b for a, b in zip(x, w))
            assert float(got[0]) == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_binary(self):
        rng = np.random.default_rng(4)
        for _ in range(self.N_CASES):
            n = int(rng.integers(1, 5))
            c = rng.integers(0, 2, n).astype(float)
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            got = step_value("binary", {"condition": "c", "reward_value": "a",
                                        "else_value": "b"},
                             {"c": env_value(c), "a": env_value(a), "b": env_value(b)})
            oracle = [a[i] if c[i] else b[i] for i in range(n)]
            np.testing.assert_allclose(got[0], oracle, rtol=1e-12)

    def test_absolute_difference(self):
        for rng, x in self.cases():
            y = rng.standard_normal(x.shape)
            got = step_value("absolute_difference", {"value1": "x", "value2": "y"},
                             {"x": env_value(x), "y": env_value(y)})
            np.testing.assert_allclose(np.atleast_1d(got[0]),
                                       np.atleast_1d(abs(x - y)), rtol=1e-12)

    def test_negative_sigma(self):
        # a literal sigma is checked when the term compiles, one read from
        # the rows when it is evaluated
        with pytest.raises(RewardError) as e:
            step_value("exponential_decay", {"error": "x", "sigma": -0.1},
                       {"x": env_value(1.0)})
        assert e.value.code == "NEGATIVE_SIGMA"
        with pytest.raises(RewardError) as e:
            step_value("exponential_decay", {"error": "x", "sigma": "s"},
                       {"x": np.ones(2), "s": np.array([0.5, -0.5])})
        assert e.value.code == "NEGATIVE_SIGMA"

    def test_non_scalar_sigma_is_a_shape_error(self):
        with pytest.raises(RewardError) as e:
            step_value("exponential_decay", {"error": "x", "sigma": "s"},
                       {"x": env_value(1.0), "s": env_value([0.5, 0.5])})
        assert e.value.code == "SHAPE_MISMATCH"
        assert "(2,)" in e.value.message


# -- term semantics ------------------------------------------------------------

class TestTermSemantics:
    def test_default_reward_unscaled_on_missing_binding(self):
        t = term("""
        inputs: {a: "command"}
        evaluations:
          - {type: sum_square, parameters: {vector: "a"}}
        scale: 10.0
        default_reward: 0.7
        """, shapes={})
        assert t.fn({}, 1).tolist() == [0.7]  # scale NOT applied

    def test_combination_sum_vs_last(self):
        spec = """
        inputs: {a: "command"}
        evaluations:
          - {type: sum_square, parameters: {vector: "a"}, output: s}
          - {type: norm_L1, parameters: {vector: "a"}}
        combination: {type: %s}
        """
        b = {"command": env_value([1.0, 2.0])}
        last = term_value(term(spec % "last", shapes={"command": (2,)}), b)[0]
        total = term_value(term(spec % "sum", shapes={"command": (2,)}), b)[0]
        assert last == pytest.approx(3.0)
        assert total == pytest.approx(5.0 + 3.0)

    def test_weighted_sum_combination(self):
        t = term("""
        inputs: {a: "command"}
        evaluations:
          - {type: sum_square, parameters: {vector: "a"}, output: s}
          - {type: norm_L1, parameters: {vector: "a"}, output: l}
        combination:
          type: weighted_sum
          parameters:
            vectors: ["s", "l"]
            weights: [2.0, -1.0]
        """, shapes={"command": (2,)})
        assert term_value(t, {"command": env_value([1.0, 2.0])})[0] == \
            pytest.approx(2.0 * 5.0 - 3.0)

    def test_scale_applied_to_total_sum(self):
        t = term("""
        inputs: {a: "command"}
        evaluations:
          - {type: quadratic, parameters: {value: "a", weight: 1.0}}
        scale: -0.5
        """, shapes={"command": (2,)})
        assert term_value(t, {"command": env_value([1.0, 2.0])})[0] == \
            pytest.approx(-2.5)


# -- full corpus programs -------------------------------------------------------

def load_program(bundle, stage=1):
    import stageflow.schema as schema
    b = schema.parse_bundle(DATA / "bundles" / bundle)
    return compile_program(b.stages[stage - 1].reward_doc["reward"], BINDING_SHAPES)


def synthetic_bindings(rng):
    from stageflow.env import DeskWalker
    env = DeskWalker({"command_lin_vel_x_range": [-1, 1],
                      "command_lin_vel_y_range": [-1, 1],
                      "command_ang_vel_yaw_range": [-1, 1]},
                     seed=int(rng.integers(1 << 30)))
    out = []
    for _ in range(100):
        env.step(rng.uniform(-1, 1, (1, 8)))
        out.append({k: v.copy() for k, v in env.bindings().items()})  # views of the block
    return out


class TestCorpusPrograms:
    def test_tune_program_matches_per_term_oracle(self):
        """The 13-term transcribed program over 100 env binding steps against
        a per-term hand evaluation through the public pieces."""
        prog = load_program("tune")
        assert len(prog.terms) == 13
        rng = np.random.default_rng(11)
        for bindings in synthetic_bindings(rng):
            got = eval_total_batch(prog, bindings, 1)
            oracle_total = 0.0
            for t in prog.terms:
                v = t.fn(bindings, 1)[0]
                assert got["per_term"][t.name][0] == pytest.approx(v, rel=1e-9, abs=1e-12)
                oracle_total += v
            assert got["total"][0] == pytest.approx(oracle_total, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("bundle,stage", [("desk", 1), ("desk", 2), ("tune", 1),
                                              ("blind", 1)])
    def test_column_sums_keep_every_shipped_programs_bytes(self, bundle, stage, monkeypatch):
        """Each shipped program over a 512-row block, with per-row sums by
        column adds (the default at 512 rows, and at every row count) and by
        numpy's reduce loop alone, term for term byte for byte."""
        from stageflow import reductions
        from stageflow.env import VecEnv
        program = load_program(bundle, stage)
        env = VecEnv({"command_lin_vel_x_range": [-1, 1], "command_lin_vel_y_range": [-1, 1],
                      "command_ang_vel_yaw_range": [-1, 1], "big_kick_interval": 2,
                      "big_min_kick_vel": 0.2, "big_max_kick_vel": 0.6},
                     128, base_seed=4, block_steps=4)
        rng = np.random.default_rng(4)
        for _ in range(4):
            env.step(rng.uniform(-1, 1, (128, 8)))
        bindings = {k: v.copy() for k, v in env.bindings().items()}
        got = {}
        for column_rows in (reductions.COLUMN_SUM_ROWS, 1, 1 << 62):
            monkeypatch.setattr(reductions, "COLUMN_SUM_ROWS", column_rows)
            got[column_rows] = eval_total_batch(program, bindings, 512)
        want = got.pop(1 << 62)
        for column_rows, result in got.items():
            assert result["total"].tobytes() == want["total"].tobytes(), column_rows
            for name, values in result["per_term"].items():
                assert values.tobytes() == want["per_term"][name].tobytes(), (column_rows, name)

    def test_blind_program_compiles(self):
        # transcribed for a robot with more joints than the toy walker, its
        # slices now fit the walker's 8 joints, so it type-checks against them
        prog = load_program("blind")
        assert len(prog.terms) > 0
        assert "command" in prog.required_variables


# -- batched evaluator equivalence ---------------------------------------------

class TestBatchEquivalence:
    @pytest.mark.parametrize("bundle", ["desk", "tune"])
    def test_batch_matches_scalar_loop(self, bundle):
        """Rows are independent: every env of a 64-env step gets the same
        bytes as that env's bindings evaluated alone, as one row."""
        from reward_golden import NUM_ENVS, rollout_bindings
        prog = load_program(bundle)
        for bindings in itertools.islice(rollout_bindings(), 0, 200, 20):
            got = eval_total_batch(prog, bindings, NUM_ENVS)
            for i in range(NUM_ENVS):
                alone = eval_total_batch(prog, {k: v[i:i + 1] for k, v in bindings.items()}, 1)
                assert got["total"][i:i + 1].tobytes() == alone["total"].tobytes()
                for name, value in alone["per_term"].items():
                    assert got["per_term"][name][i:i + 1].tobytes() == value.tobytes(), name

    def test_golden_reward_digest(self):
        """Every term and total of the desk stage-1/2 and tune stage-1
        programs over a 64-env rollout matches the digest recorded before the
        scalar evaluator was deleted (it agreed with it bit for bit)."""
        from reward_golden import GOLDEN, reward_digest
        expected = json.loads(GOLDEN.read_text())
        got = reward_digest()
        assert got["config"] == expected["config"]
        for key, digest in expected["digests"].items():
            assert got["digests"].get(key) == digest, key
        assert set(got["digests"]) == set(expected["digests"])

    def test_batch_default_reward(self):
        prog = compile_program({"t": {
            "inputs": {"a": "not_bound"},
            "evaluations": [{"type": "sum_square", "parameters": {"vector": "a"}}],
            "scale": 3.0, "default_reward": 0.25,
        }}, BINDING_SHAPES)
        out = eval_total_batch(prog, {}, 4)
        np.testing.assert_array_equal(out["per_term"]["t"], np.full(4, 0.25))

    @given(st.integers(1, 30), st.floats(0.05, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_batch_exponential_decay_property(self, n, sigma):
        prog = compile_program({"t": {
            "inputs": {"e": "err"},
            "evaluations": [{"type": "exponential_decay",
                             "parameters": {"error": "e", "sigma": sigma}}],
        }}, {"err": ()})
        rng = np.random.default_rng(n)
        errs = rng.uniform(0, 4, n)
        out = eval_total_batch(prog, {"err": errs}, n)
        np.testing.assert_allclose(out["total"],
                                   np.exp(-errs / (2 * sigma * sigma)), rtol=1e-12)
