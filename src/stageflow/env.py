"""Desk-scale planar walker: a kinematic stand-in for a simulated humanoid.

Velocities follow first-order lag dynamics toward action-projected targets,
feet follow a gait oscillator, and kicks inject velocity impulses on a fixed
schedule. The point of the environment is to emit, every step, the binding
maps the reward programs consume; it is not a physics simulator.

``VecEnv`` holds the physics: N walkers stepped along one env axis, as
training, periodic evaluation and final scoring run them. Each step builds
only the binding keys its caller asked for. ``DeskWalker`` is the ``VecEnv``
final scoring steps, one row per episode, each row seeded as if it ran
alone; it has no dynamics of its own.

``write_trace``/``read_trace`` store a run of binding maps as JSON-lines, one
step per line::

    {"step": 0, "bindings": {"<key>": {"shape": [3], "kind": "numeric",
                                       "data": [0.1, 0.2, 0.0]}, ...}}

``data`` is the value flattened in C order, ``kind`` is ``numeric`` or
``boolean`` (data 0 or 1), and a value has at most ``MAX_RANK`` axes.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path

import numpy as np

from . import randomize
from .errors import EnvError
from .randomize import desk_scene
from .reward import MAX_RANK, BatchValue

DT = 0.02          # 50 Hz control
NUM_JOINTS = 8
ACTION_DIM = NUM_JOINTS
OBS_DIM = 26  # vel(2) + yaw(1) + command(3) + gait phase(2) + joints(8) + last_act(8) + tilt(2)

TILT_LIMIT = 0.7
SPEED_LIMIT = 3.0

DEFAULT_POSE = np.array([0.0, 0.0, -0.3, 0.6, -0.3, 0.6, 0.0, 0.0])


class _Step:
    """What one step's bindings read: the walker ``w`` after the step, the
    step's foot heights ``z``, contacts ``c`` and first contacts ``fc``, and
    the arrays that several keys share, each built on first use."""

    def __init__(self, w, z, c, fc):
        self.w, self.z, self.c, self.fc = w, z, c, fc

    @cached_property
    def local_vel(self) -> np.ndarray:
        return np.concatenate([self.w.vel, np.zeros((self.w.n, 1))], axis=1)

    @cached_property
    def cmd_norm(self) -> np.ndarray:
        return np.linalg.norm(self.w.command[:, :2], axis=1)

    @cached_property
    def feet_pos(self) -> np.ndarray:
        return self.feet(2, self.z)

    def feet(self, axes, value) -> np.ndarray:
        """(N, 2 feet, 3) zeros with ``value`` written at ``axes``."""
        out = np.zeros((self.w.n, 2, 3))
        out[:, :, axes] = value
        return out


# binding key -> (kind, its array built from the step); a boolean key's
# array is bool, which BatchValue stores as 0.0/1.0
_BINDINGS = {
    "command": ("numeric", lambda s: s.w.command.copy()),
    "local_vel": ("numeric", lambda s: s.local_vel),
    "base_ang_vel": ("numeric", lambda s: s.w.yaw_rate.copy()),
    "xd.vel": ("numeric", lambda s: s.local_vel[:, None, :]),
    "xd.ang": ("numeric", lambda s: np.stack(
        [0.2 * s.w.tilt[:, 1], -0.2 * s.w.tilt[:, 0], s.w.yaw_rate], axis=1)[:, None, :]),
    "rot_up": ("numeric", lambda s: np.concatenate(
        [s.w.tilt, np.sqrt(np.maximum(0.0, 1.0 - (s.w.tilt * s.w.tilt).sum(axis=1)))[:, None]],
        axis=1)),
    "qfrc_actuator": ("numeric", lambda s:
                      80.0 * (0.4 * s.w.action - (s.w.joints - s.w.default_pose))),
    "action": ("numeric", lambda s: s.w.action.copy()),
    "last_act": ("numeric", lambda s: s.w.last_act.copy()),
    "feet_air_time": ("numeric", lambda s: s.w.air_time.copy()),
    "first_foot_contact": ("boolean", lambda s: s.fc),
    "command_norm": ("numeric", lambda s: s.cmd_norm),
    "commands_norm": ("numeric", lambda s: s.cmd_norm),
    "joint_angles": ("numeric", lambda s: s.w.joints.copy()),
    "default_pose": ("numeric", lambda s: s.w.default_pose.copy()),
    "done": ("boolean", lambda s: s.w.done),
    "step": ("numeric", lambda s: s.w.t.astype(np.float64)),
    "foot_contact": ("boolean", lambda s: s.c),
    "first_site_contact": ("boolean", lambda s: s.c),
    "feet_pos": ("numeric", lambda s: s.feet_pos),
    "feet_site_pos": ("numeric", lambda s: s.feet_pos.copy()),
    "feet_site_linvel": ("numeric", lambda s: s.feet(
        slice(0, 2), np.where(s.c[:, :, None], 0.0, s.w.vel[:, None, :]))),
    "feet_site_angvel": ("numeric", lambda s: s.feet(
        2, np.where(s.c, 0.0, s.w.yaw_rate[:, None]))),
    "rz": ("numeric", lambda s: s.z),
    "swing_peak": ("numeric", lambda s: s.w.swing_peak.copy()),
    "max_foot_height": ("numeric", lambda s: s.w.max_foot_height.copy()),
}
BINDING_KEYS = tuple(_BINDINGS)


# -- trace record / replay ----------------------------------------------------

def _value_to_json(v: BatchValue) -> dict:
    return {"shape": list(v.arr.shape), "kind": v.kind, "data": v.arr.ravel().tolist()}


def _value_from_json(obj, where: str) -> BatchValue:
    try:
        arr = np.array(obj["data"], dtype=np.float64).reshape(obj["shape"])
        kind = obj.get("kind", "numeric")
    except (AttributeError, KeyError, TypeError, ValueError):
        raise EnvError("TRACE_FORMAT_ERROR", f"{where}: malformed value")
    if arr.ndim > MAX_RANK:
        raise EnvError("TRACE_FORMAT_ERROR", f"{where}: rank {arr.ndim} exceeds {MAX_RANK}")
    if kind == "boolean":
        if ((arr != 0.0) & (arr != 1.0)).any():
            raise EnvError("TRACE_FORMAT_ERROR", f"{where}: boolean data outside {{0, 1}}")
    elif kind != "numeric":
        raise EnvError("TRACE_FORMAT_ERROR", f"{where}: unknown kind {kind!r}")
    return BatchValue(arr, kind, batched=False)


def write_trace(path, binding_steps) -> None:
    """Write one unbatched binding map per line."""
    with open(path, "w") as f:
        for step, bindings in enumerate(binding_steps):
            rec = {"step": step,
                   "bindings": {k: _value_to_json(v) for k, v in bindings.items()}}
            f.write(json.dumps(rec) + "\n")


def read_trace(path, required=None) -> list[dict]:
    """One name -> unbatched BatchValue map per step. ``required`` maps the
    keys every step must hold to their shape. A defect anywhere raises
    ``TRACE_FORMAT_ERROR`` naming the file and line."""
    path = Path(path)
    if not path.is_file():
        raise EnvError("TRACE_FORMAT_ERROR", f"no such trace file: {path}")
    steps = []
    # undecodable bytes fail the record's JSON parse, naming its line
    for lineno, line in enumerate(path.read_text(errors="replace").splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            items = json.loads(line)["bindings"].items()
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError):
            raise EnvError("TRACE_FORMAT_ERROR", f"{where}: malformed trace record")
        bindings = {k: _value_from_json(v, f"{where}: binding {k!r}") for k, v in items}
        for key, shape in (required or {}).items():
            found = bindings[key].arr.shape if key in bindings else "none"
            if found != shape:
                raise EnvError("TRACE_FORMAT_ERROR", f"{where}: binding {key!r}: "
                                                     f"expected shape {shape}, found {found}")
        steps.append(bindings)
    return steps


def _scaled(lo, hi, u: np.ndarray) -> np.ndarray:
    """``Generator.uniform(lo, hi)`` computes ``lo + (hi - lo) * d`` from the
    next double ``d`` that ``random()`` would return. Applied here to rows of
    raw doubles, one per env, it yields the per-env uniform draws exactly."""
    return lo + (hi - lo) * u


class VecEnv:
    """N walkers, each with its own randomized scene, stepped in lockstep.
    Environments auto-reset on done or truncation.

    All physics state carries a leading env axis and steps in a handful of
    numpy ops; bindings come back as stacked BatchValue arrays for the batched
    reward evaluator, for the keys of ``binding_keys`` that are in
    ``BINDING_KEYS`` (a term that reads any other key gets its
    ``default_reward``). Scenes come from one ``resample_per_env`` call over
    all rows, env i at key ``(base_seed, i)``: each rule's stream for each
    env is computed in array passes over all rows, with no Generator, and
    gives the doubles of the per-(rule, env) Generator it replaced
    (``randomize`` module docstring).

    Reset, kick and observation noise draws are per env: env i draws from
    its own Generator, seeded ``base_seed * 100003 + i``, in this order. A
    reset takes one double each for gait frequency, foot height, [the 8
    joint offsets and the phase, under ``init_rand``,] and the stand coin,
    then 3 command doubles unless the env stands. A step takes
    (magnitude, direction) for the big kick, then the small kick, on the
    steps where each is due, then resets the rows that finished. Each
    ``observe`` call with ``obs_noise`` on takes ``OBS_DIM`` standard normals
    per env; ``step`` ends with one. Each generator fills a whole row of raw
    doubles in one call, and scaling, state writes and impulses happen once
    across the env axis (see ``_scaled``). ``tests/data/vecenv_golden.json``
    pins a noisy, kicked 64-env rollout byte for byte.
    """

    def __init__(self, env_config: dict, num_envs: int, base_seed: int = 0,
                 randomize_rules: dict | None = None,
                 episode_length: int = 1000, binding_keys=BINDING_KEYS):
        self.cfg = cfg = env_config
        self.n = num_envs
        self.episode_length = episode_length
        wanted = set(binding_keys)
        self._builders = [(k, *_BINDINGS[k]) for k in BINDING_KEYS if k in wanted]
        seeds, scene_keys = self._row_keys(base_seed)
        self._rngs = [np.random.default_rng(s) for s in seeds]
        scenes = randomize.resample_per_env(randomize_rules or {}, desk_scene(), scene_keys)
        # lag gain: heavier bodies respond slower, more friction grips better
        fric_factor = np.mean(scenes["geom_friction"][:, :, 0], axis=1) / 0.8
        mass_factor = scenes["body_mass"].sum(axis=1) / 4.2
        self.gain = np.clip(0.25 * fric_factor / mass_factor, 0.02, 0.9)
        self.joint_gain = 0.35

        # Reset draws, one double each: gait frequency, foot height,
        # [joint offsets, phase,] stand coin; then the command unless the
        # env stands.
        gait = cfg.get("gait_frequency", [2.0, 2.0])
        foot = cfg.get("foot_height_range", [0.03, 0.05])
        self._init_rand = bool(cfg.get("init_rand", False))
        lo, hi = [gait[0], foot[0]], [gait[1], foot[1]]
        if self._init_rand:
            lo += [-0.1] * NUM_JOINTS + [0.0]
            hi += [0.1] * NUM_JOINTS + [2.0 * np.pi]
        self._reset_bounds = (np.array(lo + [0.0], dtype=np.float64),
                              np.array(hi + [1.0], dtype=np.float64))
        cmd = [cfg.get(key, [0.0, 0.0]) for key in
               ("command_lin_vel_x_range", "command_lin_vel_y_range",
                "command_ang_vel_yaw_range")]
        self._cmd_bounds = (np.array([c[0] for c in cmd], dtype=np.float64),
                            np.array([c[1] for c in cmd], dtype=np.float64))
        self._stand_prob = float(cfg.get("command_stand_prob", 0.0))
        self._max_foot_height = float(cfg.get("max_foot_height", foot[1]))
        self._noise = np.empty((num_envs, OBS_DIM))

        n = num_envs
        self.t = np.zeros(n, dtype=int)
        self.vel = np.zeros((n, 2))
        self.yaw_rate = np.zeros(n)
        self.tilt = np.zeros((n, 2))
        self.default_pose = np.tile(DEFAULT_POSE, (n, 1))
        self.joints = np.tile(DEFAULT_POSE, (n, 1))
        self.action = np.zeros((n, ACTION_DIM))
        self.last_act = np.zeros((n, ACTION_DIM))
        self.phase = np.zeros(n)
        self.gait_freq = np.zeros(n)
        self.foot_h = np.zeros(n)
        self.max_foot_height = np.zeros(n)
        self.command = np.zeros((n, 3))
        self.air_time = np.zeros((n, 2))
        self.swing_peak = np.zeros((n, 2))
        self.prev_contact = np.zeros((n, 2), dtype=bool)
        self.done = np.zeros(n, dtype=bool)
        self.episode_steps = np.zeros(n, dtype=int)
        self._reset_rows(np.arange(n))

    @property
    def num_envs(self):
        return self.n

    def _row_keys(self, base_seed: int) -> tuple[list, list]:
        """Each row's generator seed and scene key."""
        return ([base_seed * 100003 + i for i in range(self.n)],
                [(base_seed, i) for i in range(self.n)])

    def _reset_rows(self, rows: np.ndarray) -> None:
        u = np.empty((len(rows), len(self._reset_bounds[0])))
        u_cmd = np.zeros((len(rows), 3))
        moving = np.zeros(len(rows), dtype=bool)
        for k, i in enumerate(rows):
            rng = self._rngs[i]
            rng.random(out=u[k])
            # the stand coin is uniform(0, 1), i.e. the raw double itself
            if not u[k, -1] < self._stand_prob:
                moving[k] = True
                rng.random(out=u_cmd[k])
        draws = _scaled(*self._reset_bounds, u)
        commands = np.where(moving[:, None], _scaled(*self._cmd_bounds, u_cmd), 0.0)
        self.t[rows] = 0
        self.vel[rows] = 0.0
        self.yaw_rate[rows] = 0.0
        self.tilt[rows] = 0.0
        self.action[rows] = 0.0
        self.last_act[rows] = 0.0
        self.done[rows] = False
        self.gait_freq[rows] = draws[:, 0]
        self.foot_h[rows] = draws[:, 1]
        self.max_foot_height[rows] = self._max_foot_height
        if self._init_rand:
            self.joints[rows] = DEFAULT_POSE + draws[:, 2:2 + NUM_JOINTS]
            self.phase[rows] = draws[:, 2 + NUM_JOINTS]
        else:
            self.joints[rows] = DEFAULT_POSE
            self.phase[rows] = 0.0
        self.command[rows] = commands
        self.air_time[rows] = 0.0
        self.swing_peak[rows] = 0.0
        self.episode_steps[rows] = 0
        s = np.sin(self.phase[rows])
        foot_z = self.foot_h[rows, None] * np.maximum(0.0, np.stack([s, -s], axis=1))
        self.prev_contact[rows] = foot_z <= 1e-12

    def _kicks(self, key: str) -> None:
        cfg = self.cfg
        interval = int(cfg.get(f"{key}_kick_interval", 0) or 0)
        if interval < 1:
            return
        rows = np.flatnonzero(self.t % interval == 0)
        if not rows.size:
            return
        u = np.empty((rows.size, 2))  # (magnitude, direction) per kicked env
        for k, i in enumerate(rows):
            self._rngs[i].random(out=u[k])
        lo = np.array([float(cfg.get(f"{key}_min_kick_vel", 0.0)), 0.0])
        hi = np.array([float(cfg.get(f"{key}_max_kick_vel", 0.0)), 2.0 * np.pi])
        draws = _scaled(lo, hi, u)
        mag, theta = draws[:, 0:1], draws[:, 1]
        impulse = mag * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        self.vel[rows] += impulse
        self.tilt[rows] += 0.5 * impulse

    def step(self, actions: np.ndarray):
        """Returns (obs (N, OBS_DIM), stacked bindings, done (N,)). ``done``
        includes truncation; finished rows reset in place before ``obs``."""
        actions = np.clip(np.asarray(actions, dtype=np.float64), -1.0, 1.0)
        if actions.shape != (self.n, ACTION_DIM):
            raise EnvError(
                "ACTION_DIM_MISMATCH",
                f"expected actions of shape ({self.n}, {ACTION_DIM}), got {actions.shape}",
            )
        self.last_act = self.action
        self.action = actions
        self.t += 1

        g = self.gain[:, None]
        self.vel = self.vel + g * (0.6 * actions[:, :2] - self.vel)
        self.yaw_rate = self.yaw_rate + self.gain * (actions[:, 2] - self.yaw_rate)
        self._kicks("big")
        self._kicks("small")

        joint_target = self.default_pose + 0.4 * actions
        self.joints = self.joints + self.joint_gain * (joint_target - self.joints)

        self.phase = (self.phase + 2.0 * np.pi * self.gait_freq * DT) % (2.0 * np.pi)
        s = np.sin(self.phase)
        foot_z = self.foot_h[:, None] * np.maximum(0.0, np.stack([s, -s], axis=1))
        contact = foot_z <= 1e-12
        first_contact = contact & ~self.prev_contact

        self.air_time = self.air_time + DT * ~contact
        self.swing_peak = np.maximum(self.swing_peak, foot_z)

        self.tilt = self.tilt + 0.3 * (0.25 * self.vel - self.tilt)
        speed = np.linalg.norm(self.vel, axis=1)
        self.done = (np.linalg.norm(self.tilt, axis=1) > TILT_LIMIT) | (speed > SPEED_LIMIT)

        bindings = self._bindings(foot_z, contact, first_contact)

        self.air_time = np.where(first_contact, 0.0, self.air_time)
        self.swing_peak = np.where(first_contact, 0.0, self.swing_peak)
        self.prev_contact = contact

        self.episode_steps += 1
        finished = self.done | (self.episode_steps >= self.episode_length)
        rows = np.flatnonzero(finished)
        if rows.size:
            self._reset_rows(rows)
        return self.observe(), bindings, finished

    def _bindings(self, foot_z, contact, first_contact) -> dict:
        step = _Step(self, foot_z, contact, first_contact)
        return {key: BatchValue(build(step), kind) for key, kind, build in self._builders}

    def observe(self) -> np.ndarray:
        obs = np.concatenate([
            self.vel,
            self.yaw_rate[:, None],
            self.command,
            np.sin(self.phase)[:, None], np.cos(self.phase)[:, None],
            self.joints - self.default_pose,
            self.last_act,
            self.tilt,
        ], axis=1)
        noise = float(self.cfg.get("obs_noise", 0.0))
        if noise > 0.0:
            for rng, row in zip(self._rngs, self._noise):
                rng.standard_normal(out=row)
            obs += noise * self._noise
        return obs


class DeskWalker(VecEnv):
    """Final scoring's walker: one row per episode, stepped in lockstep.

    Row e draws from ``default_rng(seed + 100 e)`` and takes its scene from
    key ``(seed + 100 e, 0)``, so each episode runs as it would alone. Rows
    are never truncated; a done row resets in place and steps on, so callers
    stop reading it there. Construction resets every row, draws one
    observation and resets again, and the caller's first ``observe`` draws
    the next: the draw sequence that the recorded ``scores.json`` pins.
    ``step`` is defined again here only so that the benchmark's trace can
    time final scoring's steps as their own layer, ``env.desk_walker_step``.
    """

    def __init__(self, env_config: dict, rules: dict | None = None, seed: int = 0,
                 episodes: int = 1, binding_keys=BINDING_KEYS):
        super().__init__(env_config, episodes, base_seed=seed, randomize_rules=rules,
                         episode_length=np.iinfo(np.int64).max, binding_keys=binding_keys)
        self.observe()
        self._reset_rows(np.arange(episodes))

    def _row_keys(self, seed: int) -> tuple[list, list]:
        seeds = [seed + 100 * e for e in range(self.n)]
        return seeds, [(s, 0) for s in seeds]

    def step(self, actions: np.ndarray):
        return super().step(actions)
