"""Sample per-stage domain-randomization rules over nominal scene parameters.

Draws are keyed: each (seed, field, target, env_index) tuple derives its own
generator, so editing or reordering unrelated rules never perturbs a draw.
``resample_per_env`` is the one sampler: it samples many env indices at once,
with one generator call per (rule, env) that draws the rule's whole target
rows, and applies the operations across the env axis. ``sample`` is its
single-index case. Operations: add, scale, set (the default when a rule omits
it). ``tests/data/vecenv_golden.json`` pins the resulting scenes through a
VecEnv rollout.
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

    def copy(self) -> "SceneParameters":
        return SceneParameters({
            k: FieldGroup(v.values.copy(), list(v.names), v.inert)
            for k, v in self.fields.items()
        })

    def __getitem__(self, name: str) -> np.ndarray:
        return self.fields[name].values


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


def _rng_for(seed: int, field_name: str, target, env_index: int) -> np.random.Generator:
    key = f"{seed}:{field_name}:{_target_key(target)}:{env_index}".encode()
    digest = hashlib.sha256(key).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _select_rows(group: FieldGroup, target, field_name: str) -> list[int]:
    n_rows = group.values.shape[0] if group.values.ndim > 1 else len(group.values)
    if isinstance(target, str) and target == "ALL":
        return list(range(n_rows))
    wanted = target if isinstance(target, list) else [target]
    rows = []
    for name in wanted:
        if name not in group.names:
            raise RandomizeError(
                "UNKNOWN_FIELD",
                f"field {field_name!r} has no target named {name!r}",
            )
        rows.append(group.names.index(name))
    return rows


def _bounds(minval, maxval, row_shape) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(minval, dtype=np.float64)
    hi = np.asarray(maxval, dtype=np.float64)
    if lo.shape != hi.shape:
        raise RandomizeError("SHAPE_MISMATCH", "minval/maxval shapes differ")
    if lo.ndim > 0 and lo.shape != row_shape:
        raise RandomizeError(
            "SHAPE_MISMATCH",
            f"bounds of shape {lo.shape} against parameter rows of shape {row_shape}",
        )
    return lo, hi


def resample_per_env(rules: dict, nominal: SceneParameters, base_seed: int,
                     env_indices) -> dict:
    """Apply every rule for each index in ``env_indices``. ``rules`` is the
    mapping under the ``randomization:`` top-level key.

    Returns ``field -> array`` of shape ``(len(env_indices),) + nominal shape``
    for every field of ``nominal``, which is left untouched. Each rule is
    validated once; then each env's generator for the rule fills all of the
    rule's target rows in one call. A generator fills its output in order,
    so row ``r`` gets the same doubles as a per-row draw would.
    """
    env_indices = list(env_indices)
    n = len(env_indices)
    out = {name: np.repeat(group.values[None], n, axis=0)
           for name, group in nominal.fields.items()}
    for field_name, rule_list in rules.items():
        if field_name == "randomize" or field_name == "randomize_config_path":
            continue
        if field_name not in nominal.fields:
            raise RandomizeError("UNKNOWN_FIELD", f"unknown parameter group {field_name!r}")
        group = nominal.fields[field_name]
        values = out[field_name]
        row_shape = group.values.shape[1:]
        for rule in rule_list:
            target = rule.get("target", "ALL")
            uni = rule["distribution"]["uniform"]
            op = rule.get("operation", "set")
            rows = _select_rows(group, target, field_name)
            if not rows:
                continue
            lo, hi = _bounds(uni["minval"], uni["maxval"], row_shape)
            if group.inert:
                continue
            u = np.empty((n, len(rows)) + row_shape)
            for k, env_index in enumerate(env_indices):
                # random() yields the same doubles as uniform(0, 1), in place
                _rng_for(base_seed, field_name, target, env_index).random(out=u[k])
            u = lo + u * (hi - lo)
            for j, r in enumerate(rows):  # in order, so a repeated target row compounds
                if op == "add":
                    values[:, r] = values[:, r] + u[:, j]
                elif op == "scale":
                    values[:, r] = values[:, r] * u[:, j]
                else:  # set
                    values[:, r] = u[:, j]
    return out


def sample(rules: dict, nominal: SceneParameters, seed: int, env_index: int = 0) -> SceneParameters:
    """One environment's draw: ``resample_per_env`` for the single index
    ``env_index``, as a copy of ``nominal``."""
    drawn = resample_per_env(rules, nominal, seed, [env_index])
    return SceneParameters({
        name: FieldGroup(drawn[name][0], list(group.names), group.inert)
        for name, group in nominal.fields.items()
    })
