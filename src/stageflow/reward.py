"""Compile reward YAML documents into executable programs and evaluate them.

A reward document maps term names to::

    inputs:       name -> expression over binding keys (or a literal)
    evaluations:  ordered list of {type, parameters, output?}
    combination:  {type: last|sum|weighted_sum, parameters?}   (default: last)
    scale:        float
    default_reward: float   (returned unscaled when a required binding is absent)

Evaluation primitives and their parameter signatures are fixed; anything else
is rejected at compile time.

Every value of the language is a :class:`BatchValue`: a float64 array of at
most ``MAX_RANK`` axes per env, tagged numeric or boolean (booleans are 0.0 or
1.0, so masks multiply directly), with a leading env axis when ``batched``.
Env bindings (``VecEnv``, ``DeskWalker``) are batched; literals and trace
steps are not. Operations broadcast over the per-env axes, aligned from the
last one, and never across envs. Slices clip like Python's; an integer index
out of range, division by zero and a result above ``MAX_RANK`` axes are
errors. A term reduces to one float per env.

Since no operation combines rows, a row need not be one env at one step:
the trainer's rollouts join several steps' bindings along the env axis and
evaluate them in one call, one row per (step, env) pair, with the same bytes
per row as step by step (``trainer`` docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import ExpressionError, RewardError, TensorError

MAX_RANK = 3

_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply}
_COMPARE = {"<": np.less, ">": np.greater, "<=": np.less_equal,
            ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal}

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


def broadcast_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Broadcast two shapes; a size-1 axis stretches, missing leading axes are
    prepended as size 1. Raises SHAPE_MISMATCH when axes differ and neither is
    1, or when the result has more than ``MAX_RANK`` axes."""
    out = []
    for x, y in zip(a[::-1], b[::-1]):
        if x == y or y == 1:
            out.append(x)
        elif x == 1:
            out.append(y)
        else:
            raise TensorError("SHAPE_MISMATCH", f"cannot broadcast {a} with {b}")
    longer = a if len(a) >= len(b) else b
    out.extend(longer[: len(longer) - len(out)][::-1])
    if len(out) > MAX_RANK:
        raise TensorError("SHAPE_MISMATCH", f"broadcast rank {len(out)} exceeds {MAX_RANK}")
    return tuple(out[::-1])


def _expand(v: BatchValue, rank: int) -> np.ndarray:
    """The array of ``v`` with 1s inserted before its per-env axes up to ``rank``."""
    pad = rank - len(v.env_shape)
    arr = v.arr
    if v.batched:
        return arr.reshape(arr.shape[:1] + (1,) * pad + arr.shape[1:])
    return arr.reshape((1,) * pad + arr.shape) if pad else arr


def _align(a: BatchValue, b: BatchValue):
    """Broadcast two values over their per-env shapes, keeping env axes apart."""
    rank = len(broadcast_shape(a.env_shape, b.env_shape))
    return _expand(a, rank), _expand(b, rank), a.batched or b.batched


def _elementwise(op: str, a: BatchValue, b: BatchValue) -> BatchValue:
    x, y, batched = _align(a, b)
    if op == "/":
        if (np.broadcast_to(y, np.broadcast_shapes(x.shape, y.shape)) == 0.0).any():
            raise TensorError("DIVISION_BY_ZERO", "division by zero in elementwise /")
        return BatchValue(x / y, batched=batched)
    if op in _ARITH:
        return BatchValue(_ARITH[op](x, y), batched=batched)
    if op in _COMPARE:
        return BatchValue(_COMPARE[op](x, y).astype(np.float64), kind="boolean",
                          batched=batched)
    if op in ("&", "|"):
        xa, ya = x != 0.0, y != 0.0
        out = xa & ya if op == "&" else xa | ya
        return BatchValue(out.astype(np.float64), kind="boolean", batched=batched)
    raise TensorError("SHAPE_MISMATCH", f"unknown elementwise op {op!r}")


def _index(v: BatchValue, items) -> BatchValue:
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


def evaluate(node, scope: dict) -> BatchValue:
    """Evaluate an expression AST against a name -> BatchValue scope."""
    if isinstance(node, ex.Num):
        return BatchValue(node.value, batched=False)
    if isinstance(node, ex.BoolLit):
        return BatchValue(1.0 if node.value else 0.0, kind="boolean", batched=False)
    if isinstance(node, ex.Var):
        try:
            return scope[node.name]
        except KeyError:
            raise ExpressionError("UNBOUND_VARIABLE", f"unbound variable {node.name!r}")
    if isinstance(node, ex.Unary):
        v = evaluate(node.operand, scope)
        return BatchValue(-v.arr, batched=v.batched)
    if isinstance(node, ex.Bin):
        return _elementwise(
            node.op, evaluate(node.left, scope), evaluate(node.right, scope))
    if isinstance(node, ex.Index):
        base = evaluate(node.base, scope)
        items = [slice(it.start, it.stop) if isinstance(it, ex.SliceItem) else it
                 for it in node.items]
        return _index(base, items)
    raise ExpressionError("SYNTAX_ERROR", f"unknown AST node {node!r}")


def _env_sum(arr: np.ndarray, batched: bool) -> np.ndarray:
    """Each env's part of ``arr`` summed to a scalar."""
    axes = tuple(range(1 if batched else 0, arr.ndim))
    return arr.sum(axis=axes) if axes else arr


def _total(v: BatchValue, n: int) -> np.ndarray:
    """Each env's value summed -> (n,)."""
    s = _env_sum(v.arr, v.batched)
    return s if v.batched else np.full(n, float(s))


def eval_step_batch(step: EvaluationStep, scope: dict) -> BatchValue:
    """The value of one evaluation primitive over a name -> BatchValue scope."""
    p = {name: evaluate(ast, scope) for name, ast in step.parameters.items()}
    t = step.type
    if t == "sum_square":
        v = p["vector"]
        return BatchValue(_env_sum(v.arr * v.arr, v.batched), batched=v.batched)
    if t == "exponential_decay":
        sigma = p["sigma"]
        if len(sigma.env_shape) != 0:
            raise RewardError("SHAPE_MISMATCH", f"sigma must be a per-env scalar, "
                                                f"got shape {sigma.env_shape}")
        if (sigma.arr <= 0.0).any():
            raise RewardError("NEGATIVE_SIGMA", "sigma must be positive")
        denom = BatchValue(2.0 * sigma.arr * sigma.arr, batched=sigma.batched)
        x, y, batched = _align(p["error"], denom)
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
        sq = _elementwise("*", p["value"], p["value"])
        return _elementwise("*", p["weight"], sq)
    if t == "weighted_sum":
        prod = _elementwise("*", p["values"], p["weights"])
        return BatchValue(_env_sum(prod.arr, prod.batched), batched=prod.batched)
    if t == "binary":
        c, rv, ev = p["condition"], p["reward_value"], p["else_value"]
        rank = len(broadcast_shape(broadcast_shape(c.env_shape, rv.env_shape), ev.env_shape))
        return BatchValue(np.where(_expand(c, rank) != 0.0, _expand(rv, rank), _expand(ev, rank)),
                          batched=c.batched or rv.batched or ev.batched)
    if t == "absolute_difference":
        d = _elementwise("-", p["value1"], p["value2"])
        return BatchValue(np.abs(d.arr), kind=d.kind, batched=d.batched)
    raise RewardError("UNKNOWN_EVALUATION", f"unknown type {t!r}")


def eval_term_batch(term: RewardTerm, bindings: dict, n: int) -> np.ndarray:
    """(n,) contribution of one term. Missing required bindings give the
    unscaled default_reward; numeric errors propagate loudly."""
    missing = term.required_variables - bindings.keys()
    if missing:
        return np.full(n, term.default_reward)

    scope = {name: evaluate(ast, bindings) for name, ast in term.inputs.items()}
    step_values = []
    for step in term.evaluations:
        value = eval_step_batch(step, scope)
        if step.output:
            scope[step.output] = value
        step_values.append(value)

    comb = term.combination
    if comb.type == "last":
        combined = _total(step_values[-1], n)
    elif comb.type == "sum":
        combined = sum(_total(v, n) for v in step_values)
    else:  # weighted_sum
        combined = sum(
            w * _total(evaluate(vec, scope), n)
            for vec, w in zip(comb.vectors, comb.weights)
        )
    return combined * term.scale


def eval_total_batch(program: RewardProgram, bindings: dict, n: int) -> dict:
    """Total reward plus the per-term breakdown (metrics keys `eval/<term>`):
    bindings map names to BatchValue, batched with a leading env axis of
    length ``n`` or unbatched with ``n`` 1. Returns arrays of shape (n,)."""
    per_term = {t.name: eval_term_batch(t, bindings, n) for t in program.terms}
    return {"total": sum(per_term.values(), np.zeros(n)), "per_term": per_term}
