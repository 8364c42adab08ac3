"""Sample per-stage domain-randomization rules over nominal scene parameters.

This module owns the rule format. ``rule_findings`` is the one rule
validator: ``schema.validate`` reports its findings against
``desk_scene()`` before any training, and the sampler raises the first.

Draws are keyed: each (seed, field, target, env_index) tuple derives its own
stream, so editing or reordering unrelated rules never perturbs a draw.
The second and later rules of one field on the same target also key by
their occurrence (1, 2, ...), so they draw their own numbers; a first
occurrence keeps the plain key. A stream is the doubles
``np.random.default_rng(s).random()`` yields, where ``s`` is the first 8
bytes of the key's sha256 (``_seeds_for``); a rule takes as many as its
target rows hold, in row order.
``resample_per_env`` is the one sampler: it samples many (seed, env_index)
keys at once and applies the operations across the env axis. It makes no
Generator. ``_uniforms`` computes every stream of a pass in one set of array
ops: numpy 2.4.6's ``SeedSequence`` hash over the seed's two 32-bit words,
PCG64's seeding, each draw's 128-bit LCG state by a jump from the seeded
one, and ``random()``'s top 53 bits of the XSL-RR output. The tests hold it
to the Generator byte for byte.
Operations: add, scale, set (the default when a rule omits it).
``tests/data/scene_golden.json`` pins 4,096-key scenes of every shipped
stage, and ``tests/data/vecenv_golden.json`` the scenes through a VecEnv
rollout.
"""

from __future__ import annotations

import functools
import hashlib
import math
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


def _seeds_for(field_name: str, target, occurrence: int, keys) -> np.ndarray:
    """The 64-bit seeds of one rule's streams, one per ``(seed, env_index)``
    in ``keys``: the first 8 bytes, little-endian, of the sha256 of
    ``"seed:field:target:env_index"``. The second and later rules of one
    field on the same target append ``":occurrence"``."""
    rule = f"{field_name}:{_target_key(target)}"
    tail = f":{occurrence}" if occurrence else ""
    return np.frombuffer(b"".join(
        hashlib.sha256(f"{seed}:{rule}:{env_index}{tail}".encode()).digest()[:8]
        for seed, env_index in keys), dtype="<u8").astype(np.uint64)


# doubles drawn per sampler pass: a pass takes as many keys' scenes as fit,
# at least one, which bounds its temporaries
PASS_DOUBLES = 1 << 13

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words; each hash xors in one term of a running constant sequence
# and multiplies by the next
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init, init * mult, init * mult**2, ...`` mod 2**32, as a uint32
    column: the constants of ``count`` hashes in a row."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


# the pool's 16 hashmix calls (4 to fill it, 3 per word to mix it) and
# generate_state's 8 output words each take (xor constant, multiplier)
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, 4 + 12 + 1)
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)


def _hash(values, consts):
    """numpy's per-word hash, one row of ``values`` per row of ``consts``."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> 16
    return values


def _seed_sequence(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every uint64
    seed, as a ``(4, len(seeds))`` array: the seed's low and high 32-bit
    words, zero-padded to the pool of four, hashed and mixed as numpy does."""
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & _M32, seeds >> 32
    pool = _hash(pool, _MIX_CONSTS[:_POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        # the three words mix in the same hashed source word, each under
        # its own constant
        dst = [i for i in range(_POOL_SIZE) if i != src]
        mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * _hash(
            pool[src], _MIX_CONSTS[at:at + 4])
        pool[dst] = mixed ^ (mixed >> 16)
        at += 3
    words = _hash(np.tile(pool, (2, 1)), _OUT_CONSTS).astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)


def _split(hi, lo) -> np.ndarray:
    """A 128-bit value's uint64 halves and the low half's 32-bit limbs, as
    one ``(4, ...)`` array: (hi, lo, lo & 0xFFFFFFFF, lo >> 32)."""
    return np.array([hi, lo, lo & _M32, lo >> np.uint64(32)], dtype=np.uint64)


@functools.lru_cache(maxsize=8)  # one entry per rule size in use
def _jump_tables(count: int) -> np.ndarray:
    """Draw ``j`` of a stream reads the state ``A**(j+2) * x + C(j+2) * inc``
    (mod 2**128), where ``x`` is the seeded state plus the increment,
    ``inc`` the increment and ``C(n) = A**0 + ... + A**(n-1)``. For
    ``j < count``, ``A**(j+2)`` and ``C(j+2)`` split as :func:`_split` does,
    in a ``(4, 2, count)`` array."""
    mod = 1 << 128
    a, c = _PCG_MULT * _PCG_MULT % mod, 1 + _PCG_MULT
    table = []
    for _ in range(count):
        table.append([a, c])
        a, c = a * _PCG_MULT % mod, (c + a) % mod
    out = _split(np.array([[v >> 64 for v in pair] for pair in table], dtype=np.uint64).T,
                 np.array([[v & _M64 for v in pair] for pair in table], dtype=np.uint64).T)
    out.flags.writeable = False  # shared by every caller of the cache
    return out


def _mul128(a, b):
    """(hi, lo) of the 128-bit products ``a * b`` mod 2**128, from operands
    split as :func:`_split` does; the high half of the low halves' product
    comes from the 32-bit limbs."""
    a_hi, a_lo, a0, a1 = a
    b_hi, b_lo, b0, b1 = b
    p01, p10, mid = a0 * b1, a1 * b0, a0 * b0
    mid >>= np.uint64(32)
    mid += p01 & _M32
    mid += p10 & _M32
    mid >>= np.uint64(32)
    hi = a1 * b1
    p01 >>= np.uint64(32)
    hi += p01
    p10 >>= np.uint64(32)
    hi += p10
    hi += mid
    hi += a_hi * b_lo
    hi += a_lo * b_hi
    return hi, a_lo * b_lo


def _uniforms(seeds: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The doubles ``np.random.default_rng(s).random(c)`` returns for each
    uint64 seed ``s`` and its count ``c``, concatenated in seed order, from
    one pass of array ops whatever the seeds and counts.

    Each seed goes through numpy's ``SeedSequence`` and PCG64 seeding; draw
    ``j`` jumps the 128-bit LCG ``j + 2`` steps past the seeded state in one
    multiply-add (``_jump_tables``), takes the XSL-RR output and keeps its
    top 53 bits, as ``Generator.random`` does.
    """
    s0, s1, s2, s3 = _seed_sequence(seeds)
    # pcg64_set_seed: state (s0, s1), increment ((s2, s3) << 1) | 1
    inc_hi, inc_lo = s2 << np.uint64(1) | s3 >> np.uint64(63), s3 << np.uint64(1) | np.uint64(1)
    x_lo = s1 + inc_lo
    x_hi = s0 + inc_hi + (x_lo < s1)
    row = np.repeat(np.arange(len(seeds)), counts)
    draw = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    # (x, inc) times (A**(j+2), C(j+2)), both products in one call
    # (take, unlike a fancy index on the last axis, returns contiguous rows)
    hi, lo = _mul128(_split(np.array([x_hi, inc_hi]), np.array([x_lo, inc_lo])).take(row, axis=2),
                     _jump_tables(int(counts.max(initial=1))).take(draw, axis=2))
    lo, add = lo
    lo += add
    hi = hi[0] + hi[1] + (lo < add)
    # XSL-RR: hi ^ lo rotated right by the state's top 6 bits
    rot = hi >> np.uint64(58)
    hi ^= lo
    out = hi >> rot
    out |= hi << (np.uint64(64) - rot & np.uint64(63))
    out >>= np.uint64(11)
    return out.astype(np.float64) * 2.0 ** -53


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


def resample_per_env(rules: dict, nominal: SceneParameters, keys, fields=None) -> dict:
    """Apply every rule for each ``(seed, env_index)`` pair in ``keys``, one
    row per pair. ``rules`` is the mapping under the ``randomization:``
    top-level key.

    Returns ``field -> array`` of shape ``(len(keys),) + nominal shape``
    for each of ``fields`` (by default every field of ``nominal``), which is
    left untouched; the rules of other fields are validated but not drawn,
    and as every stream is keyed by its field, the returned rows are those
    of the all-field call. Raises the first
    :func:`rule_findings` triple as a :class:`RandomizeError`; then draws
    the keys in passes of about ``PASS_DOUBLES`` doubles, every rule's
    stream for every key of a pass in one :func:`_uniforms` call. A stream
    fills its rule's target rows in order, so row ``r`` gets the same
    doubles as a per-row draw would.
    """
    problems = rule_findings(rules, nominal)
    if problems:
        code, path, message = problems[0]
        raise RandomizeError(code, f"{path}: {message}")
    keys = list(keys)
    out = {name: np.repeat(nominal.fields[name].values[None], len(keys), axis=0)
           for name in (nominal.fields if fields is None else fields)}
    draws = []  # (field, target, occurrence, rows, lo, hi, operation) per drawn rule
    for field_name, rule_list in rules.items():
        group = nominal.fields[field_name]
        if group.inert or field_name not in out:
            continue
        seen: dict[str, int] = {}  # target key -> rules on it so far
        for rule in rule_list:
            target = rule["target"]
            occurrence = seen.get(_target_key(target), 0)
            seen[_target_key(target)] = occurrence + 1
            rows = _rows(group, target)[0]
            if not rows:  # an empty target list draws nothing
                continue
            uni = rule["distribution"]["uniform"]
            draws.append((field_name, target, occurrence, rows,
                          _bound(uni["minval"]), _bound(uni["maxval"]),
                          OPERATIONS[rule.get("operation", "set")]))
    if not draws:
        return out
    shapes = [(len(rows),) + nominal.fields[field_name].values.shape[1:]
              for field_name, _, _, rows, *_ in draws]
    counts = np.array([math.prod(shape) for shape in shapes], dtype=np.int64)
    block = max(1, PASS_DOUBLES // int(counts.sum()))
    for start in range(0, len(keys), block):
        chunk = keys[start:start + block]
        seeds = np.concatenate([_seeds_for(field_name, target, occurrence, chunk)
                                for field_name, target, occurrence, *_ in draws])
        u = _uniforms(seeds, np.repeat(counts, len(chunk)))
        at = 0
        for (field_name, _, _, rows, lo, hi, apply), shape in zip(draws, shapes):
            size = len(chunk) * math.prod(shape)
            drawn = lo + u[at:at + size].reshape((len(chunk),) + shape) * (hi - lo)
            at += size
            values = out[field_name][start:start + len(chunk)]
            for j, r in enumerate(rows):  # in order, so a repeated target row compounds
                values[:, r] = apply(values[:, r], drawn[:, j])
    return out
