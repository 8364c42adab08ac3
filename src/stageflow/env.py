"""Desk-scale planar walker: a kinematic stand-in for a simulated humanoid.

Velocities follow first-order lag dynamics toward action-projected targets,
feet follow a gait oscillator, and kicks inject velocity impulses on a fixed
schedule. The point of the environment is to emit, every step, the complete
binding map the reward programs consume; it is not a physics simulator.

``write_trace``/``read_trace`` store a run of binding maps as JSON-lines (one
binding map per step, tensors as flat arrays with explicit shape) for
``stageflow score``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import EnvError
from . import randomize
from .randomize import SceneParameters, desk_scene
from .tensor import Tensor

DT = 0.02          # 50 Hz control
NUM_JOINTS = 8
ACTION_DIM = NUM_JOINTS
OBS_DIM = 26  # vel(2) + yaw(1) + command(3) + gait phase(2) + joints(8) + last_act(8) + tilt(2)

TILT_LIMIT = 0.7
SPEED_LIMIT = 3.0

DEFAULT_POSE = np.array([0.0, 0.0, -0.3, 0.6, -0.3, 0.6, 0.0, 0.0])


class DeskWalker:
    """Single environment instance. Not thread-shared; one RNG per instance."""

    def __init__(self, env_config: dict, scene: SceneParameters | None = None,
                 seed: int = 0):
        self.cfg = env_config
        self.scene = scene or desk_scene()
        self.seed = seed
        self._rng = np.random.default_rng(seed)

        fric = self.scene["geom_friction"]
        mass = self.scene["body_mass"]
        # lag gain: heavier bodies respond slower, more friction grips better
        fric_factor = float(np.mean(fric[:, 0])) / 0.8
        mass_factor = float(mass.sum()) / 4.2
        self.gain = float(np.clip(0.25 * fric_factor / mass_factor, 0.02, 0.9))
        self.joint_gain = 0.35

        self.reset()

    # -- lifecycle ------------------------------------------------------------
    def reset(self) -> np.ndarray:
        cfg = self.cfg
        self.t = 0
        self.vel = np.zeros(2)
        self.yaw_rate = 0.0
        self.tilt = np.zeros(2)
        self.default_pose = DEFAULT_POSE.copy()
        self.joints = self.default_pose.copy()
        self.action = np.zeros(ACTION_DIM)
        self.last_act = np.zeros(ACTION_DIM)
        self.done = False

        lo, hi = cfg.get("gait_frequency", [2.0, 2.0])
        self.gait_freq = float(self._rng.uniform(lo, hi))
        lo, hi = cfg.get("foot_height_range", [0.03, 0.05])
        self.foot_h = float(self._rng.uniform(lo, hi))
        self.max_foot_height = float(cfg.get("max_foot_height", hi))

        if cfg.get("init_rand", False):
            self.joints = self.default_pose + self._rng.uniform(-0.1, 0.1, NUM_JOINTS)
            self.phase = float(self._rng.uniform(0.0, 2.0 * np.pi))
        else:
            self.phase = 0.0

        self.command = self._sample_command()
        self.air_time = np.zeros(2)
        self.swing_peak = np.zeros(2)
        self.prev_contact = self._foot_heights() <= 1e-12
        return self.observe()

    def _sample_command(self) -> np.ndarray:
        cfg = self.cfg
        if self._rng.uniform() < float(cfg.get("command_stand_prob", 0.0)):
            return np.zeros(3)
        ranges = [
            cfg.get("command_lin_vel_x_range", [0.0, 0.0]),
            cfg.get("command_lin_vel_y_range", [0.0, 0.0]),
            cfg.get("command_ang_vel_yaw_range", [0.0, 0.0]),
        ]
        return np.array([self._rng.uniform(lo, hi) for lo, hi in ranges])

    # -- internals ------------------------------------------------------------
    def _foot_heights(self) -> np.ndarray:
        s = np.sin(self.phase)
        return self.foot_h * np.maximum(0.0, np.array([s, -s]))

    def _kick(self, key: str) -> None:
        cfg = self.cfg
        interval = int(cfg.get(f"{key}_kick_interval", 0) or 0)
        if interval >= 1 and self.t % interval == 0:
            lo = float(cfg.get(f"{key}_min_kick_vel", 0.0))
            hi = float(cfg.get(f"{key}_max_kick_vel", 0.0))
            mag = float(self._rng.uniform(lo, hi))
            theta = float(self._rng.uniform(0.0, 2.0 * np.pi))
            impulse = mag * np.array([np.cos(theta), np.sin(theta)])
            self.vel = self.vel + impulse
            self.tilt = self.tilt + 0.5 * impulse

    # -- stepping -------------------------------------------------------------
    def step(self, action) -> tuple[dict, bool]:
        """Advance one control step. Returns (bindings, done)."""
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (ACTION_DIM,):
            raise EnvError(
                "ACTION_DIM_MISMATCH",
                f"expected action of shape ({ACTION_DIM},), got {action.shape}",
            )
        action = np.clip(action, -1.0, 1.0)
        self.last_act = self.action
        self.action = action
        self.t += 1

        target_vel = 0.6 * action[:2]
        target_yaw = 1.0 * action[2]
        self.vel = self.vel + self.gain * (target_vel - self.vel)
        self.yaw_rate = self.yaw_rate + self.gain * (target_yaw - self.yaw_rate)

        self._kick("big")
        self._kick("small")

        joint_target = self.default_pose + 0.4 * action
        self.joints = self.joints + self.joint_gain * (joint_target - self.joints)

        self.phase = (self.phase + 2.0 * np.pi * self.gait_freq * DT) % (2.0 * np.pi)
        foot_z = self._foot_heights()
        contact = foot_z <= 1e-12
        first_contact = contact & ~self.prev_contact

        airborne = ~contact
        self.air_time = self.air_time + DT * airborne
        self.swing_peak = np.maximum(self.swing_peak, foot_z)

        self.tilt = self.tilt + 0.3 * (0.25 * self.vel - self.tilt)
        speed = float(np.linalg.norm(self.vel))
        self.done = bool(np.linalg.norm(self.tilt) > TILT_LIMIT or speed > SPEED_LIMIT)

        bindings = self._bindings(foot_z, contact, first_contact)

        # air time / swing peak reset on touchdown, after export
        self.air_time = np.where(first_contact, 0.0, self.air_time)
        self.swing_peak = np.where(first_contact, 0.0, self.swing_peak)
        self.prev_contact = contact
        return bindings, self.done

    def _bindings(self, foot_z, contact, first_contact) -> dict:
        cmd_norm = float(np.linalg.norm(self.command[:2]))
        feet_pos = np.zeros((2, 3))
        feet_pos[:, 2] = foot_z
        # swing feet move with the body, grounded feet are planted
        feet_linvel = np.zeros((2, 3))
        feet_linvel[~contact, 0:2] = self.vel
        feet_angvel = np.zeros((2, 3))
        feet_angvel[~contact, 2] = self.yaw_rate
        rot_up = np.array([self.tilt[0], self.tilt[1],
                           np.sqrt(max(0.0, 1.0 - float(self.tilt @ self.tilt)))])
        torque = 80.0 * (0.4 * self.action - (self.joints - self.default_pose))
        xd_vel = np.array([[self.vel[0], self.vel[1], 0.0]])
        xd_ang = np.array([[0.2 * self.tilt[1], -0.2 * self.tilt[0], self.yaw_rate]])

        b = {
            "command": Tensor(self.command),
            "local_vel": Tensor([self.vel[0], self.vel[1], 0.0]),
            "base_ang_vel": Tensor.scalar(self.yaw_rate),
            "xd.vel": Tensor(xd_vel),
            "xd.ang": Tensor(xd_ang),
            "rot_up": Tensor(rot_up),
            "qfrc_actuator": Tensor(torque),
            "action": Tensor(self.action),
            "last_act": Tensor(self.last_act),
            "feet_air_time": Tensor(self.air_time),
            "first_foot_contact": Tensor.boolean(first_contact),
            "command_norm": Tensor.scalar(cmd_norm),
            "commands_norm": Tensor.scalar(cmd_norm),
            "joint_angles": Tensor(self.joints),
            "default_pose": Tensor(self.default_pose),
            "done": Tensor.boolean(1.0 if self.done else 0.0),
            "step": Tensor.scalar(float(self.t)),
            "foot_contact": Tensor.boolean(contact),
            "first_site_contact": Tensor.boolean(contact),
            "feet_pos": Tensor(feet_pos),
            "feet_site_pos": Tensor(feet_pos),
            "feet_site_linvel": Tensor(feet_linvel),
            "feet_site_angvel": Tensor(feet_angvel),
            "rz": Tensor(self._reference_heights()),
            "swing_peak": Tensor(self.swing_peak),
            "max_foot_height": Tensor.scalar(self.max_foot_height),
        }
        return b

    def _reference_heights(self) -> np.ndarray:
        # reference trajectory equals the oscillator's nominal foot height
        s = np.sin(self.phase)
        return self.foot_h * np.maximum(0.0, np.array([s, -s]))

    def observe(self) -> np.ndarray:
        obs = np.concatenate([
            self.vel,
            [self.yaw_rate],
            self.command,
            [np.sin(self.phase), np.cos(self.phase)],
            self.joints - self.default_pose,
            self.last_act,
            self.tilt,
        ])
        noise = float(self.cfg.get("obs_noise", 0.0))
        if noise > 0.0:
            obs = obs + noise * self._rng.standard_normal(obs.shape)
        return obs.astype(np.float64)


BINDING_KEYS = (
    "command", "local_vel", "base_ang_vel", "xd.vel", "xd.ang", "rot_up",
    "qfrc_actuator", "action", "last_act", "feet_air_time",
    "first_foot_contact", "command_norm", "commands_norm", "joint_angles",
    "default_pose", "done", "step", "foot_contact", "first_site_contact",
    "feet_pos", "feet_site_pos", "feet_site_linvel", "feet_site_angvel",
    "rz", "swing_peak", "max_foot_height",
)


# -- trace record / replay ----------------------------------------------------

def _tensor_to_json(t: Tensor) -> dict:
    return {
        "shape": list(t.shape),
        "kind": t.kind,
        "data": np.ravel(t.to_numpy()).tolist(),
    }


def _tensor_from_json(obj) -> Tensor:
    arr = np.array(obj["data"], dtype=np.float64).reshape(obj["shape"])
    return Tensor(arr, kind=obj.get("kind", "numeric"))


def write_trace(path, binding_steps) -> None:
    """Write one binding map per line."""
    with open(path, "w") as f:
        for step, bindings in enumerate(binding_steps):
            rec = {"step": step,
                   "bindings": {k: _tensor_to_json(v) for k, v in bindings.items()}}
            f.write(json.dumps(rec) + "\n")


def read_trace(path) -> list[dict]:
    steps = []
    path = Path(path)
    if not path.is_file():
        raise EnvError("TRACE_FORMAT_ERROR", f"no such trace file: {path}")
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            bindings = {k: _tensor_from_json(v) for k, v in rec["bindings"].items()}
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            raise EnvError("TRACE_FORMAT_ERROR", f"{path}:{lineno}: malformed trace record")
        steps.append(bindings)
    return steps


def _scaled(lo, hi, u: np.ndarray) -> np.ndarray:
    """``Generator.uniform(lo, hi)`` computes ``lo + (hi - lo) * d`` from the
    next double ``d`` that ``random()`` would return. Applied here to rows of
    raw doubles, one per env, it yields the per-env uniform draws exactly."""
    return lo + (hi - lo) * u


class VecEnv:
    """N walkers, each with its own randomized scene, stepped in lockstep by
    the training loop. Environments auto-reset on done or truncation.

    All physics state carries a leading env axis and steps in a handful of
    numpy ops; bindings come back as stacked BatchValue arrays for the batched
    reward evaluator. Scenes come from one ``resample_per_env`` call over all
    env indices. Per-env RNG draws (resets, kicks, obs noise) keep one
    Generator per env and DeskWalker's draw order: each env's generator fills
    a whole row of raw doubles in one call, and scaling, state writes and
    impulses happen once across the env axis (see ``_scaled``). A VecEnv and
    a loop of DeskWalkers therefore agree draw for draw; the tests pin that
    equivalence and a golden digest of a noisy, kicked 64-env rollout
    (``tests/data/vecenv_golden.json``).
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
        fric_factor = np.mean(scenes["geom_friction"][:, :, 0], axis=1) / 0.8
        mass_factor = scenes["body_mass"].sum(axis=1) / 4.2
        self.gain = np.clip(0.25 * fric_factor / mass_factor, 0.02, 0.9)
        self.joint_gain = 0.35

        # Reset draws in DeskWalker order, one double each: gait frequency,
        # foot height, [joint offsets, phase,] stand coin; then the command
        # unless the env stands.
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
        from .reward import BatchValue

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
        rz = self.foot_h[:, None] * np.maximum(
            0.0, np.stack([np.sin(self.phase), -np.sin(self.phase)], axis=1))

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
            "rz": num(rz),
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
