"""Compile reward YAML documents into executable programs and evaluate them.

A reward document maps term names to::

    inputs:       name -> expression over binding keys (or a literal)
    evaluations:  ordered list of {type, parameters, output?}
    combination:  {type: last|sum|weighted_sum, parameters?}   (default: last)
    scale:        float
    default_reward: float   (returned unscaled when a required binding is absent)

Evaluation primitives and their parameter signatures are fixed; anything else
is rejected at compile time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import expr as ex
from . import tensor as tz
from .errors import RewardError
from .tensor import Tensor

# type -> exact parameter-name set
EVALUATION_SIGNATURES: dict[str, frozenset[str]] = {
    "sum_square": frozenset({"vector"}),
    "exponential_decay": frozenset({"error", "sigma"}),
    "norm_L2": frozenset({"vector"}),
    "norm_L1": frozenset({"vector"}),
    "quadratic": frozenset({"value", "weight"}),
    "weighted_sum": frozenset({"values", "weights"}),
    "binary": frozenset({"condition", "reward_value", "else_value"}),
    "absolute_difference": frozenset({"value1", "value2"}),
}

COMBINATION_TYPES = ("last", "sum", "weighted_sum")


@dataclass(frozen=True)
class EvaluationStep:
    type: str
    parameters: dict  # name -> AST
    output: str | None


@dataclass(frozen=True)
class Combination:
    type: str
    vectors: tuple = ()  # ASTs, weighted_sum only
    weights: tuple = ()  # floats, weighted_sum only


@dataclass(frozen=True)
class RewardTerm:
    name: str
    inputs: dict  # input name -> AST
    evaluations: tuple
    combination: Combination
    scale: float
    default_reward: float
    required_variables: frozenset[str]


@dataclass(frozen=True)
class RewardProgram:
    terms: tuple
    required_variables: frozenset[str] = field(default_factory=frozenset)


def _parse_param(value, where: str):
    """Parameters may be strings (expression text) or bare YAML numbers/bools."""
    if isinstance(value, bool):
        return ex.BoolLit(value)
    if isinstance(value, (int, float)):
        return ex.Num(float(value))
    if isinstance(value, str):
        try:
            return ex.parse_expression(value)
        except Exception as e:  # keep the original code, add location
            raise RewardError(
                getattr(e, "code", "SYNTAX_ERROR"),
                f"{where}: {getattr(e, 'message', e)}",
            )
    raise RewardError("SYNTAX_ERROR", f"{where}: expected expression, got {type(value).__name__}")


def compile_term(name: str, spec: dict) -> RewardTerm:
    if not isinstance(spec, dict):
        raise RewardError("SYNTAX_ERROR", f"term {name!r} must be a mapping")

    inputs_spec = spec.get("inputs") or {}
    inputs = {}
    for in_name, in_text in inputs_spec.items():
        inputs[in_name] = _parse_param(in_text, f"term {name!r} input {in_name!r}")

    evals_spec = spec.get("evaluations")
    if not evals_spec:
        raise RewardError("EMPTY_EVALUATIONS", f"term {name!r} has no evaluations")

    steps = []
    known = set(inputs)
    for i, step_spec in enumerate(evals_spec):
        where = f"term {name!r} evaluation {i}"
        etype = step_spec.get("type")
        if etype not in EVALUATION_SIGNATURES:
            raise RewardError("UNKNOWN_EVALUATION", f"{where}: unknown type {etype!r}")
        params_spec = step_spec.get("parameters") or {}
        expected = EVALUATION_SIGNATURES[etype]
        if set(params_spec) != set(expected):
            raise RewardError(
                "TYPE_ARITY",
                f"{where}: type {etype!r} expects parameters {sorted(expected)}, "
                f"got {sorted(params_spec)}",
            )
        params = {}
        for p_name, p_value in params_spec.items():
            ast = _parse_param(p_value, f"{where} parameter {p_name!r}")
            for var in ex.free_variables(ast):
                if var not in known:
                    raise RewardError(
                        "UNBOUND_VARIABLE",
                        f"{where}: variable {var!r} is neither a declared input "
                        f"nor an earlier output",
                        term=name,
                        variable=var,
                    )
            params[p_name] = ast
        output = step_spec.get("output")
        if output:
            known.add(output)
        steps.append(EvaluationStep(etype, params, output))

    comb_spec = spec.get("combination") or {"type": "last"}
    ctype = comb_spec.get("type", "last")
    if ctype not in COMBINATION_TYPES:
        raise RewardError("UNKNOWN_COMBINATION", f"term {name!r}: combination {ctype!r}")
    if ctype == "weighted_sum":
        cparams = comb_spec.get("parameters") or {}
        vec_texts = cparams.get("vectors")
        weights = cparams.get("weights")
        if not isinstance(vec_texts, list) or not isinstance(weights, list) or \
                len(vec_texts) != len(weights):
            raise RewardError(
                "UNKNOWN_COMBINATION",
                f"term {name!r}: weighted_sum combination needs parallel "
                f"vectors/weights lists",
            )
        vec_asts = []
        for j, text in enumerate(vec_texts):
            ast = _parse_param(text, f"term {name!r} combination vector {j}")
            for var in ex.free_variables(ast):
                if var not in known:
                    raise RewardError(
                        "UNBOUND_VARIABLE",
                        f"term {name!r} combination: variable {var!r} unresolvable",
                        term=name,
                        variable=var,
                    )
            vec_asts.append(ast)
        combination = Combination(
            "weighted_sum", tuple(vec_asts), tuple(float(w) for w in weights)
        )
    else:
        combination = Combination(ctype)

    scale = spec.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or not math.isfinite(scale):
        raise RewardError("BAD_SCALE", f"term {name!r}: scale must be a finite number")
    default_reward = spec.get("default_reward", 0.0)
    if not isinstance(default_reward, (int, float)) or isinstance(default_reward, bool):
        raise RewardError("BAD_SCALE", f"term {name!r}: default_reward must be a number")

    required = frozenset().union(
        *(ex.free_variables(ast) for ast in inputs.values())
    ) if inputs else frozenset()

    return RewardTerm(
        name=name,
        inputs=inputs,
        evaluations=tuple(steps),
        combination=combination,
        scale=float(scale),
        default_reward=float(default_reward),
        required_variables=required,
    )


def compile_program(reward_doc: dict) -> RewardProgram:
    """Compile the mapping under the top-level ``reward:`` key."""
    if not isinstance(reward_doc, dict):
        raise RewardError("SYNTAX_ERROR", "reward document must be a mapping")
    terms = tuple(compile_term(name, spec) for name, spec in reward_doc.items())
    seen = set()
    for t in terms:
        if t.name in seen:
            raise RewardError("SYNTAX_ERROR", f"duplicate term name {t.name!r}")
        seen.add(t.name)
    required = frozenset().union(*(t.required_variables for t in terms)) if terms else frozenset()
    return RewardProgram(terms=terms, required_variables=required)


# -- evaluation ---------------------------------------------------------------

def eval_step(step: EvaluationStep, scope: dict[str, Tensor]) -> Tensor:
    p = {name: ex.evaluate(ast, scope) for name, ast in step.parameters.items()}
    t = step.type
    if t == "sum_square":
        return tz.reduce(p["vector"], "sum_of_squares")
    if t == "exponential_decay":
        sigma = p["sigma"].item()
        if sigma <= 0.0:
            raise RewardError("NEGATIVE_SIGMA", f"sigma must be positive, got {sigma}")
        err = p["error"].to_numpy()
        import numpy as np
        return Tensor(np.exp(-err / (2.0 * sigma * sigma)))
    if t == "norm_L2":
        return tz.reduce(p["vector"], "l2_last_axis")
    if t == "norm_L1":
        return tz.reduce(p["vector"], "l1_last_axis")
    if t == "quadratic":
        return tz.elementwise("*", p["weight"], tz.elementwise("*", p["value"], p["value"]))
    if t == "weighted_sum":
        prod = tz.elementwise("*", p["values"], p["weights"])
        return tz.reduce(prod, "sum")
    if t == "binary":
        return tz.select(p["condition"], p["reward_value"], p["else_value"])
    if t == "absolute_difference":
        return tz.reduce(tz.elementwise("-", p["value1"], p["value2"]), "abs")
    raise RewardError("UNKNOWN_EVALUATION", f"unknown type {t!r}")


def eval_term(term: RewardTerm, bindings: dict[str, Tensor]) -> float:
    """Scalar contribution of one term. Missing required bindings trigger the
    unscaled default_reward; numeric errors propagate loudly."""
    missing = term.required_variables - bindings.keys()
    if missing:
        return term.default_reward

    scope = {name: ex.evaluate(ast, bindings) for name, ast in term.inputs.items()}

    step_values = []
    for step in term.evaluations:
        value = eval_step(step, scope)
        if step.output:
            scope[step.output] = value
        step_values.append(value)

    comb = term.combination
    if comb.type == "last":
        combined = tz.total_sum(step_values[-1])
    elif comb.type == "sum":
        combined = sum(tz.total_sum(v) for v in step_values)
    else:  # weighted_sum
        combined = sum(
            w * tz.total_sum(ex.evaluate(vec, scope))
            for vec, w in zip(comb.vectors, comb.weights)
        )
    return combined * term.scale


def eval_total(program: RewardProgram, bindings: dict[str, Tensor]) -> dict:
    """Total reward plus the per-term breakdown (metrics keys `eval/<term>`)."""
    per_term = {t.name: eval_term(t, bindings) for t in program.terms}
    return {"total": sum(per_term.values()), "per_term": per_term}


# -- batched evaluation --------------------------------------------------------
#
# The training loop evaluates the same program for every environment at every
# step; doing that through the Tensor interpreter one env at a time dominates
# wall-clock. The batched evaluator below carries a leading environment axis
# through plain numpy arrays and must agree with eval_total on every env
# (property-tested). Semantics here mirror tensor.py exactly: trailing-axis
# broadcasting, Python-clipped slices, division by zero as an error.

import numpy as np

from .errors import TensorError


class BatchValue:
    """Array with an optional leading env axis plus the numeric/boolean tag."""

    __slots__ = ("arr", "kind", "batched")

    def __init__(self, arr, kind="numeric", batched=True):
        self.arr = np.asarray(arr, dtype=np.float64)
        self.kind = kind
        self.batched = batched

    @property
    def env_shape(self):
        return self.arr.shape[1:] if self.batched else self.arr.shape


def _b_align(a: BatchValue, b: BatchValue):
    """Broadcast two values over their per-env shapes, keeping env axes apart."""
    shape = tz.broadcast_shape(a.env_shape, b.env_shape)
    if len(shape) > tz.MAX_RANK:
        raise TensorError("SHAPE_MISMATCH", f"broadcast rank {len(shape)} exceeds {tz.MAX_RANK}")

    def expand(v: BatchValue):
        pad = len(shape) - len(v.env_shape)
        arr = v.arr
        if v.batched:
            arr = arr.reshape(arr.shape[:1] + (1,) * pad + arr.shape[1:])
        elif pad:
            arr = arr.reshape((1,) * pad + arr.shape)
        return arr

    return expand(a), expand(b), a.batched or b.batched


def _b_elementwise(op: str, a: BatchValue, b: BatchValue) -> BatchValue:
    x, y, batched = _b_align(a, b)
    if op == "/":
        if (np.broadcast_to(y, np.broadcast_shapes(x.shape, y.shape)) == 0.0).any():
            raise TensorError("DIVISION_BY_ZERO", "division by zero in elementwise /")
        return BatchValue(x / y, batched=batched)
    if op in ("+", "-", "*"):
        fn = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
        return BatchValue(fn(x, y), batched=batched)
    if op in tz._CMP_OPS:
        fn = {"<": np.less, ">": np.greater, "<=": np.less_equal,
              ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal}[op]
        return BatchValue(fn(x, y).astype(np.float64), kind="boolean", batched=batched)
    if op in tz._BOOL_OPS:
        xa, ya = x != 0.0, y != 0.0
        out = xa & ya if op == "&" else xa | ya
        return BatchValue(out.astype(np.float64), kind="boolean", batched=batched)
    raise TensorError("SHAPE_MISMATCH", f"unknown elementwise op {op!r}")


def _b_index(v: BatchValue, items) -> BatchValue:
    items = list(items)
    n_ell = sum(1 for it in items if it is Ellipsis)
    if n_ell > 1:
        raise TensorError("BAD_ELLIPSIS", "more than one ellipsis in index")
    rank = len(v.env_shape)
    explicit = len(items) - n_ell
    if explicit > rank:
        raise TensorError("INDEX_OUT_OF_BOUNDS", f"index arity {explicit} exceeds rank {rank}")
    if n_ell:
        pos = items.index(Ellipsis)
        items = items[:pos] + [slice(None)] * (rank - explicit) + items[pos + 1:]
    key = []
    for axis, it in enumerate(items):
        if isinstance(it, slice):
            key.append(it)
        else:
            i = int(it)
            n = v.env_shape[axis]
            if not (-n <= i < n):
                raise TensorError(
                    "INDEX_OUT_OF_BOUNDS",
                    f"index {i} out of bounds for axis {axis} of length {n}",
                )
            key.append(i)
    if v.batched:
        key = [slice(None)] + key
    return BatchValue(v.arr[tuple(key)], kind=v.kind, batched=v.batched)


def _b_evaluate(node, scope: dict) -> BatchValue:
    if isinstance(node, ex.Num):
        return BatchValue(node.value, batched=False)
    if isinstance(node, ex.BoolLit):
        return BatchValue(1.0 if node.value else 0.0, kind="boolean", batched=False)
    if isinstance(node, ex.Var):
        try:
            return scope[node.name]
        except KeyError:
            from .errors import ExpressionError
            raise ExpressionError("UNBOUND_VARIABLE", f"unbound variable {node.name!r}")
    if isinstance(node, ex.Unary):
        v = _b_evaluate(node.operand, scope)
        return BatchValue(-v.arr, batched=v.batched)
    if isinstance(node, ex.Bin):
        return _b_elementwise(
            node.op, _b_evaluate(node.left, scope), _b_evaluate(node.right, scope))
    if isinstance(node, ex.Index):
        base = _b_evaluate(node.base, scope)
        items = [slice(it.start, it.stop) if isinstance(it, ex.SliceItem) else it
                 for it in node.items]
        return _b_index(base, items)
    from .errors import ExpressionError
    raise ExpressionError("SYNTAX_ERROR", f"unknown AST node {node!r}")


def _b_env_axes(v: BatchValue):
    """Axes that make up the per-env part of the array."""
    start = 1 if v.batched else 0
    return tuple(range(start, v.arr.ndim))


def _b_total(v: BatchValue, n: int) -> np.ndarray:
    """total_sum per env -> (n,)."""
    axes = _b_env_axes(v)
    s = v.arr.sum(axis=axes) if axes else v.arr
    if not v.batched:
        s = np.full(n, float(s))
    return np.asarray(s, dtype=np.float64)


def _b_eval_step(step: EvaluationStep, scope: dict) -> BatchValue:
    p = {name: _b_evaluate(ast, scope) for name, ast in step.parameters.items()}
    t = step.type
    if t == "sum_square":
        v = p["vector"]
        axes = _b_env_axes(v)
        out = (v.arr * v.arr).sum(axis=axes) if axes else v.arr * v.arr
        return BatchValue(out, batched=v.batched)
    if t == "exponential_decay":
        sigma = p["sigma"]
        if len(sigma.env_shape) != 0:
            raise RewardError("NEGATIVE_SIGMA", "sigma must be a per-env scalar")
        if (sigma.arr <= 0.0).any():
            raise RewardError("NEGATIVE_SIGMA", "sigma must be positive")
        denom = BatchValue(2.0 * sigma.arr * sigma.arr, batched=sigma.batched)
        x, y, batched = _b_align(p["error"], denom)
        return BatchValue(np.exp(-x / y), batched=batched)
    if t == "norm_L2":
        v = p["vector"]
        if len(v.env_shape) == 0:
            return BatchValue(np.abs(v.arr), batched=v.batched)
        return BatchValue(np.sqrt((v.arr * v.arr).sum(axis=-1)), batched=v.batched)
    if t == "norm_L1":
        v = p["vector"]
        if len(v.env_shape) == 0:
            return BatchValue(np.abs(v.arr), batched=v.batched)
        return BatchValue(np.abs(v.arr).sum(axis=-1), batched=v.batched)
    if t == "quadratic":
        sq = _b_elementwise("*", p["value"], p["value"])
        return _b_elementwise("*", p["weight"], sq)
    if t == "weighted_sum":
        prod = _b_elementwise("*", p["values"], p["weights"])
        axes = _b_env_axes(prod)
        out = prod.arr.sum(axis=axes) if axes else prod.arr
        return BatchValue(out, batched=prod.batched)
    if t == "binary":
        c, rv, ev = p["condition"], p["reward_value"], p["else_value"]
        shape = tz.broadcast_shape(
            tz.broadcast_shape(c.env_shape, rv.env_shape), ev.env_shape)
        if len(shape) > tz.MAX_RANK:
            raise TensorError("SHAPE_MISMATCH", f"broadcast rank {len(shape)} exceeds {tz.MAX_RANK}")

        def pad(v: BatchValue):
            k = len(shape) - len(v.env_shape)
            arr = v.arr
            if v.batched:
                return arr.reshape(arr.shape[:1] + (1,) * k + arr.shape[1:])
            return arr.reshape((1,) * k + arr.shape)

        batched = c.batched or rv.batched or ev.batched
        return BatchValue(np.where(pad(c) != 0.0, pad(rv), pad(ev)), batched=batched)
    if t == "absolute_difference":
        d = _b_elementwise("-", p["value1"], p["value2"])
        return BatchValue(np.abs(d.arr), kind=d.kind, batched=d.batched)
    raise RewardError("UNKNOWN_EVALUATION", f"unknown type {t!r}")


def eval_term_batch(term: RewardTerm, bindings: dict, n: int) -> np.ndarray:
    """(n,) contribution of one term over stacked bindings."""
    missing = term.required_variables - bindings.keys()
    if missing:
        return np.full(n, term.default_reward)

    scope = {name: _b_evaluate(ast, bindings) for name, ast in term.inputs.items()}
    step_values = []
    for step in term.evaluations:
        value = _b_eval_step(step, scope)
        if step.output:
            scope[step.output] = value
        step_values.append(value)

    comb = term.combination
    if comb.type == "last":
        combined = _b_total(step_values[-1], n)
    elif comb.type == "sum":
        combined = sum(_b_total(v, n) for v in step_values)
    else:  # weighted_sum
        combined = sum(
            w * _b_total(_b_evaluate(vec, scope), n)
            for vec, w in zip(comb.vectors, comb.weights)
        )
    return combined * term.scale


def eval_total_batch(program: RewardProgram, bindings: dict, n: int) -> dict:
    """Vectorized eval_total: bindings map names to BatchValue with a leading
    env axis of length ``n``. Returns arrays of shape (n,)."""
    per_term = {t.name: eval_term_batch(t, bindings, n) for t in program.terms}
    total = np.zeros(n)
    for v in per_term.values():
        total = total + v
    return {"total": total, "per_term": per_term}
