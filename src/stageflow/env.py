"""Desk-scale planar walker: a kinematic stand-in for a simulated humanoid.

Velocities follow first-order lag dynamics toward action-projected targets,
feet follow a gait oscillator, and kicks inject velocity impulses on a fixed
schedule. The point of the environment is to emit, every step, the complete
binding map the reward programs consume; it is not a physics simulator.

``VecEnv`` holds the physics: N walkers stepped along one env axis, as
training, periodic evaluation and final scoring run them. ``DeskWalker`` is
row 0 of a one-env ``VecEnv`` with unbatched bindings, the view final scoring
steps. It has no dynamics of its own and stays only because the benchmark's
per-layer trace times ``DeskWalker.step`` as its own layer.

``write_trace``/``read_trace`` store a run of binding maps as JSON-lines, one
step per line::

    {"step": 0, "bindings": {"<key>": {"shape": [3], "kind": "numeric",
                                       "data": [0.1, 0.2, 0.0]}, ...}}

``data`` is the value flattened in C order, ``kind`` is ``numeric`` or
``boolean`` (data 0 or 1), and a value has at most ``MAX_RANK`` axes.
"""

from __future__ import annotations

import json
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


BINDING_KEYS = (
    "command", "local_vel", "base_ang_vel", "xd.vel", "xd.ang", "rot_up",
    "qfrc_actuator", "action", "last_act", "feet_air_time",
    "first_foot_contact", "command_norm", "commands_norm", "joint_angles",
    "default_pose", "done", "step", "foot_contact", "first_site_contact",
    "feet_pos", "feet_site_pos", "feet_site_linvel", "feet_site_angvel",
    "rz", "swing_peak", "max_foot_height",
)


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
    reward evaluator. Scenes come from one ``resample_per_env`` call over all
    env indices, env i at key ``(base_seed, i)``.

    Env i draws from its own Generator, seeded ``base_seed * 100003 + i``, in
    this order. A reset takes one double each for gait frequency, foot
    height, [the 8 joint offsets and the phase, under ``init_rand``,] and the
    stand coin, then 3 command doubles unless the env stands. A step takes
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
                 episode_length: int = 1000):
        self.cfg = cfg = env_config
        self.n = num_envs
        self.episode_length = episode_length
        self._rngs = [np.random.default_rng(base_seed * 100003 + i)
                      for i in range(num_envs)]
        scenes = randomize.resample_per_env(randomize_rules or {}, desk_scene(),
                                            base_seed, range(num_envs))
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
        n = self.n
        cmd_norm = np.linalg.norm(self.command[:, :2], axis=1)
        feet_pos = np.zeros((n, 2, 3))
        feet_pos[:, :, 2] = foot_z
        feet_linvel = np.zeros((n, 2, 3))
        feet_linvel[:, :, 0:2] = np.where(contact[:, :, None], 0.0, self.vel[:, None, :])
        feet_angvel = np.zeros((n, 2, 3))
        feet_angvel[:, :, 2] = np.where(contact, 0.0, self.yaw_rate[:, None])
        tilt_sq = (self.tilt * self.tilt).sum(axis=1)
        rot_up = np.concatenate(
            [self.tilt, np.sqrt(np.maximum(0.0, 1.0 - tilt_sq))[:, None]], axis=1)
        torque = 80.0 * (0.4 * self.action - (self.joints - self.default_pose))
        local_vel = np.concatenate([self.vel, np.zeros((n, 1))], axis=1)
        xd_vel = local_vel[:, None, :]
        xd_ang = np.stack(
            [0.2 * self.tilt[:, 1], -0.2 * self.tilt[:, 0], self.yaw_rate], axis=1
        )[:, None, :]

        num = lambda a: BatchValue(a)
        boo = lambda a: BatchValue(np.asarray(a, dtype=bool).astype(np.float64), kind="boolean")
        return {
            "command": num(self.command.copy()),
            "local_vel": num(local_vel),
            "base_ang_vel": num(self.yaw_rate.copy()),
            "xd.vel": num(xd_vel),
            "xd.ang": num(xd_ang),
            "rot_up": num(rot_up),
            "qfrc_actuator": num(torque),
            "action": num(self.action.copy()),
            "last_act": num(self.last_act.copy()),
            "feet_air_time": num(self.air_time.copy()),
            "first_foot_contact": boo(first_contact),
            "command_norm": num(cmd_norm),
            "commands_norm": num(cmd_norm),
            "joint_angles": num(self.joints.copy()),
            "default_pose": num(self.default_pose.copy()),
            "done": boo(self.done),
            "step": num(self.t.astype(np.float64)),
            "foot_contact": boo(contact),
            "first_site_contact": boo(contact),
            "feet_pos": num(feet_pos),
            "feet_site_pos": num(feet_pos.copy()),
            "feet_site_linvel": num(feet_linvel),
            "feet_site_angvel": num(feet_angvel),
            "rz": num(foot_z),
            "swing_peak": num(self.swing_peak.copy()),
            "max_foot_height": num(self.max_foot_height.copy()),
        }

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


class DeskWalker:
    """Final scoring's one walker: row 0 of a one-env :class:`VecEnv`, with
    the scene at key ``(seed, 0)``, draws from ``default_rng(seed)`` and no
    truncation. ``step`` returns the row's unbatched bindings and ``done``;
    a done row auto-resets inside the VecEnv, so callers stop there.
    ``observe`` returns the observation the last ``reset``/``step`` made: its
    noise is drawn already, and drawing again would shift the stream."""

    def __init__(self, env_config: dict, rules: dict | None = None, seed: int = 0):
        self._env = VecEnv(env_config, 1, base_seed=seed, randomize_rules=rules,
                           episode_length=np.iinfo(np.int64).max)
        self._env._rngs[0] = np.random.default_rng(seed)
        self.reset()

    def reset(self) -> np.ndarray:
        self._env._reset_rows(np.zeros(1, dtype=int))
        self._obs = self._env.observe()[0]
        return self._obs

    def observe(self) -> np.ndarray:
        return self._obs

    def step(self, action) -> tuple[dict, bool]:
        """Advance one control step. Returns (bindings, done)."""
        obs, bindings, done = self._env.step(np.asarray(action, dtype=np.float64)[None])
        self._obs = obs[0]
        row = {k: BatchValue(v.arr[0], v.kind, batched=False) for k, v in bindings.items()}
        # A one-vector dot can round the last bit differently from VecEnv's
        # row sum; final scoring's rot_up height is the dot's (the golden pins it).
        up = row["rot_up"].arr
        up[2] = np.sqrt(max(0.0, 1.0 - float(up[:2] @ up[:2])))
        return row, bool(done[0])
