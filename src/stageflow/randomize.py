"""Sample per-stage domain-randomization rules over nominal scene parameters.

This module owns the rule format. ``rule_findings`` is the one rule
validator: ``schema.validate`` reports its findings against
``desk_scene()`` before any training, and the sampler raises the first.

Draws are keyed: each (seed, field, target, env_index) tuple derives its own
generator, so editing or reordering unrelated rules never perturbs a draw.
The second and later rules of one field on the same target also key by
their occurrence (1, 2, ...), so they draw their own numbers; a first
occurrence keeps the plain key.
``resample_per_env`` is the one sampler: it samples many (seed, env_index)
keys at once, with one generator call per (rule, env) that draws the rule's
whole target rows, and applies the operations across the env axis.
Operations: add, scale, set (the default when a rule omits it).
``tests/data/vecenv_golden.json`` pins the resulting scenes through a VecEnv
rollout.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import RandomizeError


@dataclass
class FieldGroup:
    """One named parameter group: rows along axis 0, optionally named.

    ``inert`` groups have their rules validated (to keep rule files honest)
    but are never drawn or applied; the flat desk scene uses this for
    hfield_data.
    """
    values: np.ndarray
    names: list = field(default_factory=list)
    inert: bool = False


@dataclass
class SceneParameters:
    fields: dict  # name -> FieldGroup


def desk_scene() -> SceneParameters:
    """Nominal parameters for the planar desk-scale walker."""
    return SceneParameters({
        "geom_friction": FieldGroup(
            np.tile(np.array([0.8, 0.005, 0.0001]), (4, 1)),
            names=["floor", "torso", "foot_contact_l", "foot_contact_r"],
        ),
        "actuator_kp_kd": FieldGroup(
            np.tile(np.array([80.0, 2.0]), (8, 1)),
            names=[f"joint{i}" for i in range(8)],
        ),
        "actuator_gainprm": FieldGroup(
            np.tile(np.concatenate([[80.0], np.zeros(9)]), (8, 1)),
            names=[f"joint{i}" for i in range(8)],
        ),
        "actuator_biasprm": FieldGroup(
            np.zeros((8, 10)),
            names=[f"joint{i}" for i in range(8)],
        ),
        "body_ipos": FieldGroup(
            np.zeros((3, 3)),
            names=["torso", "random_mass", "head"],
        ),
        "geom_pos": FieldGroup(
            np.zeros((4, 3)),
            names=["floor", "torso", "foot_contact_l", "foot_contact_r"],
        ),
        "body_mass": FieldGroup(
            np.array([3.0, 0.5, 0.5, 0.2]),
            names=["torso", "leg_l", "leg_r", "random_mass"],
        ),
        "hfield_data": FieldGroup(np.zeros(16), inert=True),
    })


def _target_key(target) -> str:
    if isinstance(target, list):
        return ",".join(str(t) for t in target)
    return str(target)


def _rng_for(seed: int, field_name: str, target, env_index: int,
             occurrence: int = 0) -> np.random.Generator:
    key = f"{seed}:{field_name}:{_target_key(target)}:{env_index}"
    if occurrence:  # a later rule on the same (field, target)
        key += f":{occurrence}"
    digest = hashlib.sha256(key.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# operation -> how a drawn value combines with the row's current value
OPERATIONS = {"add": np.add, "scale": np.multiply, "set": lambda current, drawn: drawn}


def _rows(group: FieldGroup, target) -> tuple[list, list]:
    """The row indices a rule's ``target`` names, and the names the group
    lacks. ``ALL`` is every row."""
    if target == "ALL":
        return list(range(len(group.values))), []
    wanted = target if isinstance(target, list) else [target]
    return ([group.names.index(t) for t in wanted if t in group.names],
            [t for t in wanted if t not in group.names])


def _bound(x):
    """A uniform bound as a float array; None when it is not a number or a
    flat list of numbers."""
    items = x if isinstance(x, list) else [x]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
        return None
    return np.asarray(x, dtype=np.float64)


def rule_findings(rules: dict, nominal: SceneParameters) -> list:
    """Every problem with the rules under a ``randomization:`` key, checked
    against ``nominal``, as ``(code, path, message)`` triples in file order.

    This is the one check of the rule format: ``schema.validate`` reports
    the triples, and ``resample_per_env`` raises the first. Rules on inert
    groups are checked too.
    """
    out = []
    for field_name, rule_list in rules.items():
        at = f"randomization.{field_name}"
        group = nominal.fields.get(field_name)
        if group is None:
            out.append(("UNKNOWN_FIELD", at, "unknown randomization field; expected one of "
                        + ", ".join(nominal.fields)))
            continue
        if not isinstance(rule_list, list):
            out.append(("TYPE_ERROR", at, "expected a list of rules"))
            continue
        for i, rule in enumerate(rule_list):
            where = f"{at}[{i}]"
            if not isinstance(rule, dict):
                out.append(("TYPE_ERROR", where, "rule must be a mapping"))
                continue
            if "target" not in rule:
                out.append(("MISSING_KEY", f"{where}.target", "rule must name a target"))
            else:
                out += [("UNKNOWN_FIELD", f"{where}.target",
                         f"field {field_name!r} has no target named {name!r}")
                        for name in _rows(group, rule["target"])[1]]
            dist = rule.get("distribution")
            uni = dist.get("uniform") if isinstance(dist, dict) else None
            where_uni = f"{where}.distribution.uniform"
            if not isinstance(uni, dict):
                out.append(("MISSING_KEY", where_uni, "rule must carry a uniform distribution"))
                continue
            lo, hi = _bound(uni.get("minval")), _bound(uni.get("maxval"))
            if lo is None or hi is None:
                out.append(("TYPE_ERROR", where_uni,
                            "minval/maxval must be numbers or number lists"))
                continue
            if lo.size != hi.size:
                out.append(("SHAPE_MISMATCH", where_uni,
                            f"minval has {lo.size} entries, maxval has {hi.size}"))
                continue
            shape, row_shape = lo.shape or hi.shape, group.values.shape[1:]
            if shape and shape != row_shape:
                out.append(("SHAPE_MISMATCH", where_uni, f"bounds of shape {shape} "
                            f"against parameter rows of shape {row_shape}"))
            if np.any(lo > hi):
                out.append(("RANGE_INVERTED", where_uni, "minval must be <= maxval elementwise"))
            op = rule.get("operation", "set")
            if not (isinstance(op, str) and op in OPERATIONS):
                out.append(("UNKNOWN_OPERATION", f"{where}.operation",
                            f"operation must be one of {tuple(OPERATIONS)}, got {op!r}"))
    return out


def resample_per_env(rules: dict, nominal: SceneParameters, keys) -> dict:
    """Apply every rule for each ``(seed, env_index)`` pair in ``keys``, one
    row per pair. ``rules`` is the mapping under the ``randomization:``
    top-level key.

    Returns ``field -> array`` of shape ``(len(keys),) + nominal shape``
    for every field of ``nominal``, which is left untouched. Raises the first
    :func:`rule_findings` triple as a :class:`RandomizeError`; then each env's
    generator for a rule fills all of the rule's target rows in one call. A
    generator fills its output in order, so row ``r`` gets the same doubles
    as a per-row draw would.
    """
    problems = rule_findings(rules, nominal)
    if problems:
        code, path, message = problems[0]
        raise RandomizeError(code, f"{path}: {message}")
    keys = list(keys)
    n = len(keys)
    out = {name: np.repeat(group.values[None], n, axis=0)
           for name, group in nominal.fields.items()}
    for field_name, rule_list in rules.items():
        group = nominal.fields[field_name]
        if group.inert:
            continue
        values = out[field_name]
        seen: dict[str, int] = {}  # target key -> rules on it so far
        for rule in rule_list:
            target = rule["target"]
            occurrence = seen.get(_target_key(target), 0)
            seen[_target_key(target)] = occurrence + 1
            rows, _ = _rows(group, target)
            uni = rule["distribution"]["uniform"]
            lo, hi = _bound(uni["minval"]), _bound(uni["maxval"])
            apply = OPERATIONS[rule.get("operation", "set")]
            u = np.empty((n, len(rows)) + group.values.shape[1:])
            for k, (seed, env_index) in enumerate(keys):
                # random() yields the same doubles as uniform(0, 1), in place
                _rng_for(seed, field_name, target, env_index, occurrence).random(out=u[k])
            u = lo + u * (hi - lo)
            for j, r in enumerate(rows):  # in order, so a repeated target row compounds
                values[:, r] = apply(values[:, r], u[:, j])
    return out

