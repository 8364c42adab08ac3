"""Value semantics of the compiled reward language: broadcasting,
elementwise ops, indexing, reductions and select, on one env's values (one
row) and on several rows, where the row axis is kept apart, and on literals,
which have no row axis."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stageflow.errors import RewardError, TensorError
from stageflow.expr import parse_expression
from stageflow.reward import MAX_RANK, broadcast_shape, compile_expression, compile_term

from conftest import env_value, expr_value, step_value, types_of

shapes = st.lists(st.integers(1, 4), min_size=0, max_size=MAX_RANK).map(tuple)


def arr(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def ev(text, **scope):
    return expr_value(text, scope)


def typed(text, **scope):
    return compile_expression(parse_expression(text), types_of(scope))


class TestConstruction:
    def test_rank_limit(self):
        with pytest.raises(TensorError) as e:
            ev("x + 1", x=env_value(np.zeros((2, 2, 2, 2))))
        assert e.value.code == "SHAPE_MISMATCH"
        # the row axis does not count towards the rank
        assert typed("x + 1", x=np.zeros((5, 2, 2, 2))).shape == (2, 2, 2)
        with pytest.raises(TensorError) as e:
            ev("x + 1", x=np.zeros((5, 2, 2, 2, 2)))
        assert e.value.code == "SHAPE_MISMATCH"

    def test_boolean_values_checked(self):
        # booleans are 0.0 and 1.0, computed once when literal
        assert (ev("True").tolist(), ev("False").tolist()) == (1.0, 0.0)
        assert typed("True").batched is False


class TestBroadcastShape:
    @given(shapes, shapes)
    def test_matches_numpy(self, a, b):
        try:
            expect = np.broadcast_shapes(a, b)
        except ValueError:
            with pytest.raises(TensorError):
                broadcast_shape(a, b)
        else:
            assert broadcast_shape(a, b) == expect

    def test_mismatch_code(self):
        with pytest.raises(TensorError) as e:
            broadcast_shape((2, 3), (4,))
        assert e.value.code == "SHAPE_MISMATCH"


class TestElementwise:
    @pytest.mark.parametrize("op,fn", [
        ("+", np.add), ("-", np.subtract), ("*", np.multiply),
    ])
    def test_arith(self, op, fn, rng):
        a, b = rng.standard_normal((3, 2)), rng.standard_normal(2)
        out = ev(f"a {op} b", a=env_value(a), b=env_value(b))
        np.testing.assert_array_equal(out[0], fn(a, b))
        # several rows: each env's a meets its own b, or a shared literal
        a4, b4 = rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 2))
        out = ev(f"a {op} b", a=a4, b=b4)
        np.testing.assert_array_equal(out, fn(a4, b4[:, None, :]))
        out = ev(f"a {op} 0.5", a=a4)
        np.testing.assert_array_equal(out, fn(a4, 0.5))

    def test_division_by_zero_is_error(self):
        with pytest.raises(TensorError) as e:
            ev("a / b", a=env_value([1.0]), b=env_value([2.0, 0.0]))
        assert e.value.code == "DIVISION_BY_ZERO"
        with pytest.raises(TensorError) as e:
            ev("1.0 / b", b=np.array([2.0, 0.0]))
        assert e.value.code == "DIVISION_BY_ZERO"
        with pytest.raises(TensorError) as e:  # a literal one, when compiled
            typed("a / (1.0 - 1.0)", a=np.ones(2))
        assert e.value.code == "DIVISION_BY_ZERO"
        out = ev("a / b", a=env_value([4.0, 9.0]), b=env_value([2.0, 3.0]))
        assert out[0].tolist() == [2.0, 3.0]

    def test_comparisons_yield_boolean(self):
        out = ev("a < 2", a=env_value([1.0, 3.0]))
        assert out.dtype == np.float64
        assert out[0].tolist() == [1.0, 0.0]

    def test_bool_ops_coerce_nonzero(self):
        out = ev("a & b", a=env_value([0.0, 2.0]), b=env_value([5.0, 3.0]))
        assert out[0].tolist() == [0.0, 1.0]
        out = ev("a | b", a=env_value([0.0, 0.0]), b=env_value([0.0, 7.0]))
        assert out[0].tolist() == [0.0, 1.0]


class TestIndex:
    def test_integer_removes_axis(self):
        t = env_value(arr((3, 4)))
        assert ev("t[1]", t=t).shape == (1, 4)
        assert ev("t[1, 2]", t=t).shape == (1,)
        rows = arr((5, 3, 4))
        assert (ev("t[1]", t=rows).shape, typed("t[1]", t=rows).shape) == ((5, 4), (4,))

    def test_negative_and_bounds(self):
        t = env_value([10.0, 20.0, 30.0])
        assert float(ev("t[-1]", t=t)[0]) == 30.0
        with pytest.raises(TensorError) as e:
            ev("t[3]", t=t)
        assert e.value.code == "INDEX_OUT_OF_BOUNDS"

    def test_slices_clip_like_python(self):
        t = env_value([1.0, 2.0, 3.0])
        assert ev("t[0:100]", t=t).shape == (1, 3)
        assert ev("t[5:9]", t=t).shape == (1, 0)

    def test_single_ellipsis(self):
        t = env_value(arr((2, 3, 4)))
        assert ev("t[..., 0]", t=t).shape == (1, 2, 3)
        with pytest.raises(TensorError) as e:
            ev("t[..., ...]", t=t)
        assert e.value.code == "BAD_ELLIPSIS"

    def test_arity_limit(self):
        with pytest.raises(TensorError) as e:
            ev("t[0, 0]", t=env_value([1.0]))
        assert e.value.code == "INDEX_OUT_OF_BOUNDS"

    def test_kind_preserved(self):
        t = env_value([[1.0, 0.0], [0.0, 1.0]])
        assert ev("t[0]", t=t)[0].tolist() == [1.0, 0.0]


class TestReduce:
    def test_sum_and_sum_of_squares(self, rng):
        x = rng.standard_normal((2, 3))
        s = step_value("weighted_sum", {"values": "x", "weights": 1.0}, {"x": env_value(x)})
        assert float(s[0]) == pytest.approx(x.sum(), rel=1e-15)
        s = step_value("sum_square", {"vector": "x"}, {"x": env_value(x)})
        assert float(s[0]) == pytest.approx((x * x).sum(), rel=1e-15)

    def test_norms_last_axis(self, rng):
        x = rng.standard_normal((2, 3))
        np.testing.assert_allclose(
            step_value("norm_L2", {"vector": "x"}, {"x": env_value(x)})[0],
            np.linalg.norm(x, axis=-1))
        np.testing.assert_allclose(
            step_value("norm_L1", {"vector": "x"}, {"x": env_value(x)})[0],
            np.abs(x).sum(axis=-1))

    def test_norm_of_scalar_is_abs(self):
        for etype in ("norm_L2", "norm_L1"):
            assert float(step_value(etype, {"vector": "x"}, {"x": env_value(-2.0)})[0]) == 2.0

    def test_total_sum(self, rng):
        # a term's value is the sum of its last step's value, per env
        t = compile_term("t", {"inputs": {"v": "x"}, "evaluations": [{
            "type": "binary",
            "parameters": {"condition": True, "reward_value": "v", "else_value": 0.0}}]},
            {"x": (3, 2)})
        x = rng.standard_normal((3, 2))
        assert t.fn({"x": env_value(x)}, 1)[0] == pytest.approx(x.sum(), rel=1e-15)
        rows = rng.standard_normal((4, 3, 2))
        np.testing.assert_allclose(t.fn({"x": rows}, 4), rows.sum(axis=(1, 2)), rtol=1e-15)

    def test_shape_faults_are_found_when_a_term_compiles(self):
        """The walker's 8 joints cannot be sliced into two halves of 12."""
        spec = {"inputs": {"d": "q[0:12] - q[12:24]"},
                "evaluations": [{"type": "sum_square", "parameters": {"vector": "d"}}]}
        with pytest.raises(RewardError) as e:
            compile_term("t", spec, {"q": (8,)})
        assert e.value.code == "SHAPE_MISMATCH" and "(8,)" in e.value.message
        # a key the table lacks leaves the term to its default, unchecked
        assert compile_term("t", spec, {}).fn({}, 2).tolist() == [0.0, 0.0]


class TestSelect:
    def test_broadcast_select(self):
        out = step_value("binary", {"condition": "c", "reward_value": 5.0, "else_value": "b"},
                         {"c": env_value([1.0, 0.0]), "b": env_value([1.0, 2.0])})
        assert out[0].tolist() == [5.0, 2.0]

    def test_negate(self):
        assert ev("-x", x=env_value([1.0, -2.0]))[0].tolist() == [-1.0, 2.0]
