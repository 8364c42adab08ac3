"""Compile reward YAML documents into typed numpy closures.

A reward document maps term names to::

    inputs:       name -> expression over binding keys (or a literal)
    evaluations:  ordered list of {type, parameters, output?}
    combination:  {type: last|sum|weighted_sum, parameters?}   (default: last)
    scale:        float
    default_reward: float   (returned unscaled when a required binding is absent)

Evaluation primitives and their parameter signatures are fixed; anything else
is rejected at compile time, as is a term that is not made of the mappings,
lists, strings and numbers above.

A program is compiled against a shape table, binding key -> per-row shape
(``env.BINDING_SHAPES`` for the desk walker). A term that reads a key the
table lacks gets its ``default_reward``; every other term is type-checked
once, node by node, and becomes one closure over raw float64 arrays. Every
value of the language has a per-row shape of at most ``MAX_RANK`` axes; a
value read from bindings has a leading row axis, and one made of literals
alone has none and is computed at compile time. Operations broadcast over
the per-row axes, aligned from the last one, and never across rows. Slices
clip like Python's; an integer index out of range and a result above
``MAX_RANK`` axes fail at compile time, division by zero and a sigma that is
not positive when they happen. Booleans are 0.0 or 1.0, so masks multiply
directly. A term reduces to one float per row.

Since no operation combines rows, a row need not be one env at one step:
the trainer's rollouts evaluate a block of steps in one call, one row per
(step, env) pair, with the same bytes per row as step by step (``trainer``
docstring). Each closure runs the numpy calls, in the order, of the
per-node interpreter it replaced, so every byte is kept
(``tests/data/reward_golden.json``), without its dispatch on every node of
every call: a 256-row call of the 13-term ``tune`` program takes about half
the time it did (``BENCH_25.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from .errors import ExpressionError, RewardError, TensorError
from .reductions import row_sums

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


class Typed(NamedTuple):
    """A compiled value: ``fn(scope)`` is its array, (rows, *shape) when
    ``batched``, else ``shape``, where ``scope`` maps names to arrays."""
    fn: Callable
    shape: tuple
    batched: bool


@dataclass(frozen=True)
class RewardTerm:
    name: str
    required_variables: frozenset[str]
    fn: Callable  # (bindings, rows) -> (rows,) contribution


@dataclass(frozen=True)
class RewardProgram:
    terms: tuple
    required_variables: frozenset[str]


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


def _typed(fn, shape, batched: bool) -> Typed:
    """A value without a row axis depends on literals alone: computed now."""
    if not batched:
        value = np.asarray(fn(None), dtype=np.float64)
        fn = lambda scope: value  # noqa: E731
    return Typed(fn, tuple(shape), batched)


def _expanded(v: Typed, rank: int):
    """``v``'s closure with 1s inserted before its per-row axes up to ``rank``."""
    pad, f = (1,) * (rank - len(v.shape)), v.fn
    if not pad:
        return f
    if not v.batched:
        value = f(None).reshape(pad + v.shape)
        return lambda scope: value
    return lambda scope: (x := f(scope)).reshape(x.shape[:1] + pad + x.shape[1:])


def _sum_axes(v: Typed) -> tuple:
    """The axes of ``v``'s array that hold one row's value."""
    first = 1 if v.batched else 0
    return tuple(range(first, first + len(v.shape)))


def _row_sum(x, axes):
    """Each row's sum over the per-row ``axes`` of a batched ``x``, or the
    sum of an unbatched one. Per-row axes that reshape to one axis without a
    copy are one run of elements to numpy's reduce loop too, and are summed
    as that run by ``reductions.row_sums``; any others take ``x.sum``."""
    if not axes or not axes[0]:
        return x.sum(axis=axes) if axes else x
    try:
        run = x.reshape(len(x), math.prod(x.shape[1:]), copy=False)
    except ValueError:  # no one run
        return x.sum(axis=axes)
    return row_sums(run)


def _elementwise(op: str, a: Typed, b: Typed) -> Typed:
    shape = broadcast_shape(a.shape, b.shape)
    fa, fb = _expanded(a, len(shape)), _expanded(b, len(shape))
    batched = a.batched or b.batched
    if op == "/":
        def nonzero(y):
            if 0 not in shape and (y == 0.0).any():  # an empty result divides nothing
                raise TensorError("DIVISION_BY_ZERO", "division by zero in elementwise /")
            return y
        if not b.batched:  # a literal divisor is checked once, now
            nonzero(fb(None))
        return _typed(lambda s: fa(s) / nonzero(fb(s)), shape, batched)
    if op in _ARITH:
        f = _ARITH[op]
        return _typed(lambda s: f(fa(s), fb(s)), shape, batched)
    if op in _COMPARE:
        f = _COMPARE[op]
        return _typed(lambda s: f(fa(s), fb(s)).astype(np.float64), shape, batched)
    f = np.logical_and if op == "&" else np.logical_or
    return _typed(lambda s: f(fa(s) != 0.0, fb(s) != 0.0).astype(np.float64), shape, batched)


def _index(v: Typed, items) -> Typed:
    items = [slice(it.start, it.stop) if isinstance(it, ex.SliceItem) else it for it in items]
    n_ell = sum(1 for it in items if it is Ellipsis)
    if n_ell > 1:
        raise TensorError("BAD_ELLIPSIS", "more than one ellipsis in index")
    rank = len(v.shape)
    explicit = len(items) - n_ell
    if explicit > rank:
        raise TensorError("INDEX_OUT_OF_BOUNDS", f"index arity {explicit} exceeds rank {rank}")
    if n_ell:
        pos = items.index(Ellipsis)
        items = items[:pos] + [slice(None)] * (rank - explicit) + items[pos + 1:]
    for axis, it in enumerate(items):
        if not isinstance(it, slice) and not -v.shape[axis] <= it < v.shape[axis]:
            raise TensorError(
                "INDEX_OUT_OF_BOUNDS",
                f"index {it} out of bounds for axis {axis} of length {v.shape[axis]}")
    key = tuple(items)
    shape = np.empty(v.shape)[key].shape
    if v.batched:
        key = (slice(None),) + key
    f = v.fn
    return _typed(lambda s: f(s)[key], shape, v.batched)


def compile_expression(node, types: dict) -> Typed:
    """An expression AST typed against ``types`` (name -> :class:`Typed`)."""
    if isinstance(node, (ex.Num, ex.BoolLit)):
        return _typed(lambda s: float(node.value), (), False)
    if isinstance(node, ex.Var):
        if node.name not in types:
            raise ExpressionError("UNBOUND_VARIABLE", f"unbound variable {node.name!r}")
        v, name = types[node.name], node.name
        return Typed(lambda s: s[name], v.shape, True) if v.batched else v
    if isinstance(node, ex.Unary):
        v = compile_expression(node.operand, types)
        f = v.fn
        return _typed(lambda s: -f(s), v.shape, v.batched)
    if isinstance(node, ex.Bin):
        return _elementwise(node.op, compile_expression(node.left, types),
                            compile_expression(node.right, types))
    if isinstance(node, ex.Index):
        return _index(compile_expression(node.base, types), node.items)
    raise ExpressionError("SYNTAX_ERROR", f"unknown AST node {node!r}")


def _square(v: Typed):
    f = v.fn
    return lambda s: (x := f(s)) * x


def compile_primitive(etype: str, p: dict) -> Typed:
    """The value of one evaluation primitive over its typed parameters."""
    if etype in ("sum_square", "weighted_sum"):  # each row's sum of v * v, or of the product
        v = p["vector"] if etype == "sum_square" else _elementwise("*", p["values"], p["weights"])
        f = _square(v) if etype == "sum_square" else v.fn
        axes = _sum_axes(v)
        return _typed(lambda s: _row_sum(f(s), axes), (), v.batched)
    if etype == "exponential_decay":
        sigma = p["sigma"]
        if sigma.shape:
            raise RewardError("SHAPE_MISMATCH", f"sigma must be a per-env scalar, "
                                                f"got shape {sigma.shape}")

        def denom(s):
            x = sigma.fn(s)
            if (x <= 0.0).any():
                raise RewardError("NEGATIVE_SIGMA", "sigma must be positive")
            return 2.0 * x * x
        error = p["error"]
        fe, fd = error.fn, _expanded(_typed(denom, (), sigma.batched), len(error.shape))
        return _typed(lambda s: np.exp(-fe(s) / fd(s)), error.shape,
                      error.batched or sigma.batched)
    if etype in ("norm_L2", "norm_L1"):
        v = p["vector"]
        f = v.fn
        if not v.shape:
            return _typed(lambda s: np.abs(f(s)), (), v.batched)
        if etype == "norm_L2":
            sq = _square(v)
            return _typed(lambda s: np.sqrt(row_sums(sq(s))), v.shape[:-1], v.batched)
        return _typed(lambda s: row_sums(np.abs(f(s))), v.shape[:-1], v.batched)
    if etype == "quadratic":
        value = p["value"]
        return _elementwise("*", p["weight"], _typed(_square(value), value.shape, value.batched))
    if etype == "binary":
        c, rv, ev = p["condition"], p["reward_value"], p["else_value"]
        shape = broadcast_shape(broadcast_shape(c.shape, rv.shape), ev.shape)
        fc, fr, fe = (_expanded(v, len(shape)) for v in (c, rv, ev))
        return _typed(lambda s: np.where(fc(s) != 0.0, fr(s), fe(s)), shape,
                      c.batched or rv.batched or ev.batched)
    d = _elementwise("-", p["value1"], p["value2"])  # absolute_difference
    return _typed(lambda s: np.abs(d.fn(s)), d.shape, d.batched)


def _total(v: Typed):
    """(value, rows) -> each row's value summed, (rows,)."""
    axes = _sum_axes(v)
    if v.batched:
        return lambda x, n: _row_sum(x, axes)
    return lambda x, n: np.full(n, float(_row_sum(x, axes)))


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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _of(value, kind, where: str, what: str):
    """``value`` when it is a ``kind``, else a SYNTAX_ERROR saying ``what`` it must be."""
    if not isinstance(value, kind):
        raise RewardError("SYNTAX_ERROR", f"{where} must be {what}, got {type(value).__name__}")
    return value


def _bound(ast, known, where: str, name: str):
    for var in ex.free_variables(ast):
        if var not in known:
            raise RewardError(
                "UNBOUND_VARIABLE",
                f"{where}: variable {var!r} is neither a declared input nor an earlier output",
                term=name, variable=var)
    return ast


def compile_term(name: str, spec: dict, shapes: dict) -> RewardTerm:
    """One term compiled against ``shapes`` (binding key -> per-row shape).
    Every fault of the term is a ``RewardError`` that names it."""
    where = f"term {name!r}"
    try:  # literals fold as a stage runs: an overflow is inf, not a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _compile_term(name, _of(spec, dict, where, "a mapping"), shapes)
    except TensorError as e:  # a shape fault found by the type check
        raise RewardError(e.code, f"{where}: {e.message}", term=name) from None
    except RecursionError:  # an expression deeper than the interpreter's stack
        raise RewardError("SYNTAX_ERROR", f"{where}: an expression nests too deeply",
                          term=name) from None


def _compile_term(name: str, spec: dict, shapes: dict) -> RewardTerm:
    where = f"term {name!r}"
    inputs = {in_name: _parse_param(text, f"{where} input {in_name!r}") for in_name, text in
              _of(spec.get("inputs") or {}, dict, f"{where} inputs", "a mapping").items()}
    required = frozenset().union(*map(ex.free_variables, inputs.values()))
    typed = required <= shapes.keys()  # else the term takes its default
    bound = {k: Typed(None, tuple(shapes[k]), True) for k in required} if typed else {}
    types = {k: compile_expression(ast, bound) for k, ast in inputs.items()} if typed else {}
    input_fns = [(k, t.fn) for k, t in types.items() if t.batched]

    evals_spec = spec.get("evaluations")
    if not evals_spec:
        raise RewardError("EMPTY_EVALUATIONS", f"{where} has no evaluations")
    known, steps = set(inputs), []
    for i, step_spec in enumerate(_of(evals_spec, list, f"{where} evaluations", "a list")):
        at = f"{where} evaluation {i}"
        etype = _of(step_spec, dict, at, "a mapping").get("type")
        if not isinstance(etype, str) or etype not in EVALUATION_SIGNATURES:
            raise RewardError("UNKNOWN_EVALUATION", f"{at}: unknown type {etype!r}")
        params_spec = _of(step_spec.get("parameters") or {}, dict, f"{at} parameters",
                          "a mapping")
        expected = EVALUATION_SIGNATURES[etype]
        if set(params_spec) != set(expected):
            raise RewardError(
                "TYPE_ARITY",
                f"{at}: type {etype!r} expects parameters {sorted(expected)}, "
                f"got {sorted(params_spec, key=str)}",
            )
        params = {p: _bound(_parse_param(v, f"{at} parameter {p!r}"), known, at, name)
                  for p, v in params_spec.items()}
        output = _of(step_spec.get("output") or "", str, f"{at} output", "a name")
        known.add(output)
        if typed:
            value = compile_primitive(
                etype, {p: compile_expression(ast, types) for p, ast in params.items()})
            steps.append((output if value.batched else "", value.fn, _total(value)))
            if output:
                types[output] = value

    comb_spec = _of(spec.get("combination") or {"type": "last"}, dict,
                    f"{where} combination", "a mapping")
    ctype = comb_spec.get("type", "last")
    if ctype not in COMBINATION_TYPES:
        raise RewardError("UNKNOWN_COMBINATION", f"{where}: combination {ctype!r}")
    vectors = []
    if ctype == "weighted_sum":
        cparams = _of(comb_spec.get("parameters") or {}, dict, f"{where} combination parameters",
                      "a mapping")
        vec_texts, weights = cparams.get("vectors"), cparams.get("weights")
        if not isinstance(vec_texts, list) or not isinstance(weights, list) or \
                len(vec_texts) != len(weights) or not all(map(_is_number, weights)):
            raise RewardError(
                "UNKNOWN_COMBINATION",
                f"{where}: weighted_sum combination needs parallel "
                f"vectors/weights lists, the weights numbers",
            )
        for j, (text, w) in enumerate(zip(vec_texts, weights)):
            ast = _bound(_parse_param(text, f"{where} combination vector {j}"), known,
                         f"{where} combination", name)
            if typed:
                v = compile_expression(ast, types)
                vectors.append((v.fn, _total(v), float(w)))

    scale = spec.get("scale", 1.0)
    if not _is_number(scale) or not math.isfinite(scale):
        raise RewardError("BAD_SCALE", f"{where}: scale must be a finite number")
    default = spec.get("default_reward", 0.0)
    if not _is_number(default):
        raise RewardError("BAD_SCALE", f"{where}: default_reward must be a number")
    scale, default = float(scale), float(default)

    if not typed:
        return RewardTerm(name, required, lambda bindings, n: np.full(n, default))

    def run(bindings, n):
        scope = {k: f(bindings) for k, f in input_fns}
        values = []
        for output, f, _ in steps:
            values.append(v := f(scope))
            if output:
                scope[output] = v
        if ctype == "last":
            combined = steps[-1][2](values[-1], n)
        elif ctype == "sum":
            combined = sum(total(v, n) for (_, _, total), v in zip(steps, values))
        else:
            combined = sum(w * total(f(scope), n) for f, total, w in vectors)
        return combined * scale
    return RewardTerm(name, required, run)


def compile_program(reward_doc: dict, shapes: dict) -> RewardProgram:
    """Compile the mapping under the top-level ``reward:`` key against
    ``shapes`` (binding key -> per-row shape)."""
    if not isinstance(reward_doc, dict):
        raise RewardError("SYNTAX_ERROR", "reward document must be a mapping")
    terms = tuple(compile_term(name, spec, shapes) for name, spec in reward_doc.items())
    return RewardProgram(terms, frozenset().union(*(t.required_variables for t in terms)))


def eval_total_batch(program: RewardProgram, bindings: dict, n: int) -> dict:
    """Total reward plus the per-term breakdown (metrics keys `eval/<term>`):
    ``bindings`` map keys to float64 arrays of ``n`` rows. Returns arrays of
    shape (n,)."""
    per_term = {t.name: t.fn(bindings, n) for t in program.terms}
    return {"total": sum(per_term.values(), np.zeros(n)), "per_term": per_term}
