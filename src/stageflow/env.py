"""Desk-scale planar walker: a kinematic stand-in for a simulated humanoid.

Velocities follow first-order lag dynamics toward action-projected targets,
feet follow a gait oscillator, and kicks inject velocity impulses on a fixed
schedule. The point of the environment is to emit, every step, the bindings
the reward programs consume; it is not a physics simulator.

``VecEnv`` holds the physics: N walkers stepped along one env axis, as
training, periodic evaluation and final scoring run them. Each step copies
what its caller's binding keys read into the rows of the current reward
block, and the keys are built once per block. ``BINDING_SHAPES`` is the one
shape table of those keys, which reward programs are compiled and validated
against. ``DeskWalker`` is the ``VecEnv`` final scoring steps, one row per
episode, each row seeded as if it ran alone; it has no dynamics of its own.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import randomize
from .errors import EnvError
from .randomize import desk_scene
from .schema import section_config

DT = 0.02          # 50 Hz control
NUM_JOINTS = 8
ACTION_DIM = NUM_JOINTS
OBS_DIM = 26  # vel(2) + yaw(1) + command(3) + gait phase(2) + joints(8) + last_act(8) + tilt(2)

TILT_LIMIT = 0.7
SPEED_LIMIT = 3.0

DEFAULT_POSE = np.array([0.0, 0.0, -0.3, 0.6, -0.3, 0.6, 0.0, 0.0])

# (step, env) rows a reward block holds at most: a block is as many whole
# steps as fit, and at least one (``VecEnv`` docstring)
REWARD_ROWS = 256


class _Block:
    """A reward block's state: each field the requested keys read, one row per
    (step, env), as the step's binding point left it, and the arrays several
    keys share, each built on first use."""

    def __init__(self, state: dict, rows: int):
        self.__dict__.update(state)
        self.n = rows

    @cached_property
    def local_vel(self) -> np.ndarray:
        return np.concatenate([self.vel, np.zeros((self.n, 1))], axis=1)

    @cached_property
    def cmd_norm(self) -> np.ndarray:
        return np.linalg.norm(self.command[:, :2], axis=1)

    @cached_property
    def feet_pos(self) -> np.ndarray:
        return self.feet(2, self.z)

    def feet(self, axes, value) -> np.ndarray:
        """(rows, 2 feet, 3) zeros with ``value`` written at ``axes``."""
        out = np.zeros((self.n, 2, 3))
        out[:, :, axes] = value
        return out


# binding key -> (per-env shape, kind, the state fields it reads, its array
# over a block's rows from the block state ``s``). Walker fields are read
# after the step's dynamics; ``z``, ``c`` and ``fc`` are the step's foot
# heights, contacts and first contacts. A boolean key's array is bool, and
# ``VecEnv.bindings`` returns it as 0.0/1.0
_BINDINGS = {
    "command": ((3,), "numeric", "command", lambda s: s.command),
    "local_vel": ((3,), "numeric", "vel", lambda s: s.local_vel),
    "base_ang_vel": ((), "numeric", "yaw_rate", lambda s: s.yaw_rate),
    "xd.vel": ((1, 3), "numeric", "vel", lambda s: s.local_vel[:, None, :]),
    "xd.ang": ((1, 3), "numeric", "tilt yaw_rate", lambda s: np.stack(
        [0.2 * s.tilt[:, 1], -0.2 * s.tilt[:, 0], s.yaw_rate], axis=1)[:, None, :]),
    "rot_up": ((3,), "numeric", "tilt", lambda s: np.concatenate(
        [s.tilt, np.sqrt(np.maximum(0.0, 1.0 - (s.tilt * s.tilt).sum(axis=1)))[:, None]],
        axis=1)),
    "qfrc_actuator": ((NUM_JOINTS,), "numeric", "action joints default_pose", lambda s:
                      80.0 * (0.4 * s.action - (s.joints - s.default_pose))),
    "action": ((ACTION_DIM,), "numeric", "action", lambda s: s.action),
    "last_act": ((ACTION_DIM,), "numeric", "last_act", lambda s: s.last_act),
    "feet_air_time": ((2,), "numeric", "air_time", lambda s: s.air_time),
    "first_foot_contact": ((2,), "boolean", "fc", lambda s: s.fc),
    "command_norm": ((), "numeric", "command", lambda s: s.cmd_norm),
    "commands_norm": ((), "numeric", "command", lambda s: s.cmd_norm),
    "joint_angles": ((NUM_JOINTS,), "numeric", "joints", lambda s: s.joints),
    "default_pose": ((NUM_JOINTS,), "numeric", "default_pose", lambda s: s.default_pose),
    "done": ((), "boolean", "done", lambda s: s.done),
    "step": ((), "numeric", "t", lambda s: s.t),
    "foot_contact": ((2,), "boolean", "c", lambda s: s.c),
    "first_site_contact": ((2,), "boolean", "c", lambda s: s.c),
    "feet_pos": ((2, 3), "numeric", "z", lambda s: s.feet_pos),
    "feet_site_pos": ((2, 3), "numeric", "z", lambda s: s.feet_pos),
    "feet_site_linvel": ((2, 3), "numeric", "c vel", lambda s: s.feet(
        slice(0, 2), np.where(s.c[:, :, None], 0.0, s.vel[:, None, :]))),
    "feet_site_angvel": ((2, 3), "numeric", "c yaw_rate", lambda s: s.feet(
        2, np.where(s.c, 0.0, s.yaw_rate[:, None]))),
    "rz": ((2,), "numeric", "z", lambda s: s.z),
    "swing_peak": ((2,), "numeric", "swing_peak", lambda s: s.swing_peak),
    "max_foot_height": ((), "numeric", "max_foot_height", lambda s: s.max_foot_height),
}
BINDING_KEYS = tuple(_BINDINGS)
# the shape table reward programs are compiled and validated against
BINDING_SHAPES = {key: entry[0] for key, entry in _BINDINGS.items()}
BINDING_KINDS = {key: entry[1] for key, entry in _BINDINGS.items()}


def _scaled(lo, hi, u: np.ndarray) -> np.ndarray:
    """``Generator.uniform(lo, hi)`` computes ``lo + (hi - lo) * d`` from the
    next double ``d`` that ``random()`` would return. Applied here to rows of
    raw doubles, one per env, it yields the per-env uniform draws exactly."""
    return lo + (hi - lo) * u


class VecEnv:
    """N walkers, each with its own randomized scene, stepped in lockstep.
    Environments auto-reset on done or truncation. ``cfg`` is the record of
    ``env_config``, a possibly partial environment section, by
    ``schema.section_config`` (which raises as ``EnvError``).

    All physics state carries a leading env axis and steps in a handful of
    numpy ops. Reward blocks: at each step's binding point (after the
    dynamics, before first contacts clear the air time and finished rows
    reset), ``step`` copies the state fields that the requested keys read,
    the keys of ``binding_keys`` that are in ``BINDING_KEYS`` (a term that
    reads any other key gets its ``default_reward``), into that step's N rows
    of a block of ``block_steps`` steps: by default as many whole steps as
    fit in ``REWARD_ROWS`` rows, and at least one. :meth:`bindings` then
    builds each key once over the block's rows, not once per step
    (``BENCH_25.json``), with the bytes each step's own build gave, as every
    builder works row by row. A copy, not a reference: resets write the
    step's contacts (as ``prev_contact``) and other state in place, and
    kicks add to ``vel`` in place.

    Scenes come from one ``resample_per_env`` call over all rows, env i at
    key ``(base_seed, i)``: each rule's stream for each env is computed in
    array passes over all rows, with no Generator, and gives the doubles of
    the per-(rule, env) Generator it replaced (``randomize`` module
    docstring).

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

    def __init__(self, env_config, num_envs: int, base_seed: int = 0,
                 randomize_rules: dict | None = None,
                 episode_length: int = 1000, binding_keys=BINDING_KEYS,
                 block_steps: int | None = None):
        self.cfg = cfg = section_config("environment", env_config, EnvError)
        self.n = num_envs
        self.episode_length = episode_length
        self.block_steps = block_steps or max(1, REWARD_ROWS // num_envs)
        wanted = set(binding_keys)
        keys = [k for k in BINDING_KEYS if k in wanted]
        self._builders = [(k, _BINDINGS[k][3]) for k in keys]
        self._fields = sorted({f for k in keys for f in _BINDINGS[k][2].split()})
        self._block: dict = {}  # field -> (block_steps * n, ...) rows, made on first use
        self._filled = 0  # steps in the current block
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
        lo, hi = map(list, zip(cfg.gait_frequency, cfg.foot_height_range))
        if cfg.init_rand:
            lo += [-0.1] * NUM_JOINTS + [0.0]
            hi += [0.1] * NUM_JOINTS + [2.0 * np.pi]
        self._reset_bounds = (np.array(lo + [0.0], dtype=np.float64),
                              np.array(hi + [1.0], dtype=np.float64))
        self._cmd_bounds = tuple(np.array(b, dtype=np.float64) for b in zip(
            cfg.command_lin_vel_x_range, cfg.command_lin_vel_y_range,
            cfg.command_ang_vel_yaw_range))
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
            if not u[k, -1] < self.cfg.command_stand_prob:
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
        self.max_foot_height[rows] = self.cfg.max_foot_height
        if self.cfg.init_rand:
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
        interval = getattr(cfg, f"{key}_kick_interval")
        if interval < 1:  # the table's default: no kicks
            return
        rows = np.flatnonzero(self.t % interval == 0)
        if not rows.size:
            return
        u = np.empty((rows.size, 2))  # (magnitude, direction) per kicked env
        for k, i in enumerate(rows):
            self._rngs[i].random(out=u[k])
        lo = np.array([getattr(cfg, f"{key}_min_kick_vel"), 0.0])
        hi = np.array([getattr(cfg, f"{key}_max_kick_vel"), 2.0 * np.pi])
        draws = _scaled(lo, hi, u)
        mag, theta = draws[:, 0:1], draws[:, 1]
        impulse = mag * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        self.vel[rows] += impulse
        self.tilt[rows] += 0.5 * impulse

    def step(self, actions: np.ndarray):
        """Returns (obs (N, OBS_DIM), done (N,)). ``done`` includes
        truncation; finished rows reset in place before ``obs``. The step's
        bindings join the block that :meth:`bindings` reads."""
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

        self._snapshot({"z": foot_z, "c": contact, "fc": first_contact})

        self.air_time = np.where(first_contact, 0.0, self.air_time)
        self.swing_peak = np.where(first_contact, 0.0, self.swing_peak)
        self.prev_contact = contact

        self.episode_steps += 1
        finished = self.done | (self.episode_steps >= self.episode_length)
        rows = np.flatnonzero(finished)
        if rows.size:
            self._reset_rows(rows)
        return self.observe(), finished

    def _snapshot(self, step_state: dict) -> None:
        """Copy the fields the requested keys read into this step's rows of
        the block; resets and kicks later write the walker's arrays in place.
        A step on a full block that nobody read would lose its steps, so it
        raises."""
        if self._filled == self.block_steps:
            raise EnvError("BLOCK_FULL", f"{self.block_steps} steps since the last "
                           "bindings() read fill the reward block; read it before stepping")
        rows = slice(self._filled * self.n, (self._filled + 1) * self.n)
        for f in self._fields:
            src = step_state[f] if f in step_state else getattr(self, f)
            if f not in self._block:
                self._block[f] = np.empty((self.block_steps * self.n,) + src.shape[1:], src.dtype)
            self._block[f][rows] = src
        self._filled += 1

    def bindings(self) -> dict:
        """The requested binding keys over the steps since the last call (at
        most ``block_steps``), row ``j * n + i`` env i at the j-th of them:
        key -> float64 array (rows, *BINDING_SHAPES[key]). The arrays may be
        views of the block, valid until the next step."""
        rows = self._filled * self.n
        self._filled = 0
        s = _Block({f: buf[:rows] for f, buf in self._block.items()}, rows)
        return {key: np.asarray(build(s), dtype=np.float64) for key, build in self._builders}

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
        noise = self.cfg.obs_noise
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
    stop reading it there. Final scoring reads all of its steps as one
    reward block (``block_steps`` its horizon). Construction resets every row, draws one
    observation and resets again, and the caller's first ``observe`` draws
    the next: the draw sequence that the recorded ``scores.json`` pins.
    ``step`` is defined again here only so that the benchmark's trace can
    time final scoring's steps as their own layer, ``env.desk_walker_step``.
    """

    def __init__(self, env_config, rules: dict | None = None, seed: int = 0,
                 episodes: int = 1, binding_keys=BINDING_KEYS, block_steps: int | None = None):
        super().__init__(env_config, episodes, base_seed=seed, randomize_rules=rules,
                         episode_length=np.iinfo(np.int64).max, binding_keys=binding_keys,
                         block_steps=block_steps)
        self.observe()
        self._reset_rows(np.arange(episodes))

    def _row_keys(self, seed: int) -> tuple[list, list]:
        seeds = [seed + 100 * e for e in range(self.n)]
        return seeds, [(s, 0) for s in seeds]

    def step(self, actions: np.ndarray):
        return super().step(actions)
