"""Value semantics of the reward language on BatchValue: broadcasting,
elementwise ops, indexing, reductions and select, on one env's values
(no env axis) and on stacked rows, where the env axis is kept apart."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stageflow.errors import TensorError
from stageflow.expr import parse_expression
from stageflow.reward import (MAX_RANK, BatchValue, broadcast_shape,
                              compile_term, eval_term_batch, evaluate)

from conftest import env_value, step_value

shapes = st.lists(st.integers(1, 4), min_size=0, max_size=MAX_RANK).map(tuple)


def arr(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def ev(text, **scope):
    return evaluate(parse_expression(text), scope)


class TestConstruction:
    def test_rank_limit(self):
        with pytest.raises(TensorError) as e:
            ev("x + 1", x=env_value(np.zeros((2, 2, 2, 2))))
        assert e.value.code == "SHAPE_MISMATCH"
        # the env axis does not count towards the rank
        assert ev("x + 1", x=BatchValue(np.zeros((5, 2, 2, 2)))).env_shape == (2, 2, 2)
        with pytest.raises(TensorError) as e:
            ev("x + 1", x=BatchValue(np.zeros((5, 2, 2, 2, 2))))
        assert e.value.code == "SHAPE_MISMATCH"

    def test_boolean_values_checked(self):
        assert (ev("True").kind, ev("True").arr.tolist()) == ("boolean", 1.0)


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
        np.testing.assert_array_equal(out.arr, fn(a, b))
        # stacked rows: each env's a meets its own b, or the shared one
        a4, b4 = rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 2))
        out = ev(f"a {op} b", a=BatchValue(a4), b=BatchValue(b4))
        np.testing.assert_array_equal(out.arr, fn(a4, b4[:, None, :]))
        out = ev(f"a {op} b", a=BatchValue(a4), b=env_value(b))
        np.testing.assert_array_equal(out.arr, fn(a4, b))

    def test_division_by_zero_is_error(self):
        with pytest.raises(TensorError) as e:
            ev("a / b", a=env_value([1.0]), b=env_value([2.0, 0.0]))
        assert e.value.code == "DIVISION_BY_ZERO"
        with pytest.raises(TensorError) as e:
            ev("a / b", a=env_value(1.0), b=BatchValue([2.0, 0.0]))
        assert e.value.code == "DIVISION_BY_ZERO"
        out = ev("a / b", a=env_value([4.0, 9.0]), b=env_value([2.0, 3.0]))
        assert out.arr.tolist() == [2.0, 3.0]

    def test_comparisons_yield_boolean(self):
        out = ev("a < 2", a=env_value([1.0, 3.0]))
        assert out.kind == "boolean"
        assert out.arr.tolist() == [1.0, 0.0]

    def test_bool_ops_coerce_nonzero(self):
        out = ev("a & b", a=env_value([0.0, 2.0]), b=env_value([5.0, 3.0]))
        assert out.arr.tolist() == [0.0, 1.0]
        out = ev("a | b", a=env_value([0.0, 0.0]), b=env_value([0.0, 7.0]))
        assert out.arr.tolist() == [0.0, 1.0]


class TestIndex:
    def test_integer_removes_axis(self):
        t = env_value(arr((3, 4)))
        assert ev("t[1]", t=t).arr.shape == (4,)
        assert ev("t[1, 2]", t=t).arr.shape == ()
        out = ev("t[1]", t=BatchValue(arr((5, 3, 4))))
        assert (out.arr.shape, out.env_shape) == ((5, 4), (4,))

    def test_negative_and_bounds(self):
        t = env_value([10.0, 20.0, 30.0])
        assert float(ev("t[-1]", t=t).arr) == 30.0
        with pytest.raises(TensorError) as e:
            ev("t[3]", t=t)
        assert e.value.code == "INDEX_OUT_OF_BOUNDS"

    def test_slices_clip_like_python(self):
        t = env_value([1.0, 2.0, 3.0])
        assert ev("t[0:100]", t=t).arr.shape == (3,)
        assert ev("t[5:9]", t=t).arr.shape == (0,)

    def test_single_ellipsis(self):
        t = env_value(arr((2, 3, 4)))
        assert ev("t[..., 0]", t=t).arr.shape == (2, 3)
        with pytest.raises(TensorError) as e:
            ev("t[..., ...]", t=t)
        assert e.value.code == "BAD_ELLIPSIS"

    def test_arity_limit(self):
        with pytest.raises(TensorError) as e:
            ev("t[0, 0]", t=env_value([1.0]))
        assert e.value.code == "INDEX_OUT_OF_BOUNDS"

    def test_kind_preserved(self):
        t = env_value([[1.0, 0.0], [0.0, 1.0]], "boolean")
        assert ev("t[0]", t=t).kind == "boolean"


class TestReduce:
    def test_sum_and_sum_of_squares(self, rng):
        x = rng.standard_normal((2, 3))
        s = step_value("weighted_sum", {"values": "x", "weights": 1.0}, {"x": env_value(x)})
        assert float(s.arr) == pytest.approx(x.sum(), rel=1e-15)
        s = step_value("sum_square", {"vector": "x"}, {"x": env_value(x)})
        assert float(s.arr) == pytest.approx((x * x).sum(), rel=1e-15)

    def test_norms_last_axis(self, rng):
        x = rng.standard_normal((2, 3))
        np.testing.assert_allclose(
            step_value("norm_L2", {"vector": "x"}, {"x": env_value(x)}).arr,
            np.linalg.norm(x, axis=-1))
        np.testing.assert_allclose(
            step_value("norm_L1", {"vector": "x"}, {"x": env_value(x)}).arr,
            np.abs(x).sum(axis=-1))

    def test_norm_of_scalar_is_abs(self):
        for etype in ("norm_L2", "norm_L1"):
            assert float(step_value(etype, {"vector": "x"}, {"x": env_value(-2.0)}).arr) == 2.0

    def test_total_sum(self, rng):
        # a term's value is the sum of its last step's value, per env
        t = compile_term("t", {"inputs": {"v": "x"}, "evaluations": [{
            "type": "binary",
            "parameters": {"condition": True, "reward_value": "v", "else_value": 0.0}}]})
        x = rng.standard_normal((3, 2))
        assert eval_term_batch(t, {"x": env_value(x)}, 1)[0] == pytest.approx(x.sum(), rel=1e-15)
        rows = rng.standard_normal((4, 3, 2))
        np.testing.assert_allclose(eval_term_batch(t, {"x": BatchValue(rows)}, 4),
                                   rows.sum(axis=(1, 2)), rtol=1e-15)


class TestSelect:
    def test_broadcast_select(self):
        out = step_value("binary", {"condition": "c", "reward_value": 5.0, "else_value": "b"},
                         {"c": env_value([1.0, 0.0], "boolean"), "b": env_value([1.0, 2.0])})
        assert out.arr.tolist() == [5.0, 2.0]

    def test_negate(self):
        assert ev("-x", x=env_value([1.0, -2.0])).arr.tolist() == [-1.0, 2.0]
