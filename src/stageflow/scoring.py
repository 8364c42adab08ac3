"""Deployment evaluation scores: survival, velocity tracking, feet air time,
computed from the environment's per-step binding maps."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .env import read_trace
from .errors import ScoreError


@dataclass
class Episode:
    """One evaluated episode. Per-step arrays all have length ``survived``."""
    survived: int
    command_vel: np.ndarray   # (T, 2) commanded planar velocity
    local_vel: np.ndarray     # (T, 2) actual planar velocity
    air_time: np.ndarray      # (T,) swing-foot air time, seconds
    swing: np.ndarray         # (T,) 0/1 swing-phase flag
    command_norm: np.ndarray  # (T,) norm of the commanded velocity


@dataclass
class EvalBatch:
    episodes: list
    horizon: int

    def __post_init__(self):
        if not self.episodes:
            raise ScoreError("EMPTY_BATCH", "need at least one episode")
        for ep in self.episodes:
            if not 1 <= ep.survived <= self.horizon:
                raise ScoreError(
                    "BAD_EPISODE", f"survived {ep.survived} outside [1, {self.horizon}]"
                )


@dataclass
class ScoreTriple:
    survival: float
    tracking: float
    air_time: float

    def to_dict(self):
        return {
            "survival_score": self.survival,
            "lin_vel_tracking_score": self.tracking,
            "feet_air_time_score": self.air_time,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def survival_score(batch: EvalBatch) -> float:
    """Mean fractional episode length."""
    return float(np.mean([ep.survived / batch.horizon for ep in batch.episodes]))


def lin_vel_tracking_score(batch: EvalBatch, sigma: float = 0.1) -> float:
    """Per-step exp(-||v_cmd - v_loc||^2 / (2 sigma^2)), summed over the steps
    survived and normalized by the horizon, averaged over episodes."""
    if sigma <= 0:
        raise ScoreError("BAD_SIGMA", "sigma must be positive")
    acc = 0.0
    for ep in batch.episodes:
        diff = ep.command_vel - ep.local_vel
        e = (diff * diff).sum(axis=-1)
        acc += float(np.exp(-e / (2.0 * sigma * sigma)).sum()) / batch.horizon
    return acc / len(batch.episodes)


def feet_air_time_score(batch: EvalBatch, lift_thresh: float = 0.2,
                        vel_thresh: float = 0.05) -> float:
    """Mean over time (per episode length) and episodes of
    1[command_norm > vel_thresh] * (air_time - lift_thresh) * swing.
    Follows the formula as written; it may leave [0, 1]."""
    if lift_thresh < 0:
        raise ScoreError("BAD_SIGMA", "lift threshold must be >= 0")
    acc = 0.0
    for ep in batch.episodes:
        r = (ep.command_norm > vel_thresh) * (ep.air_time - lift_thresh) * ep.swing
        acc += float(r.sum()) / ep.survived
    return acc / len(batch.episodes)


def score_triple(batch: EvalBatch, sigma: float = 0.1, lift_thresh: float = 0.2,
                 vel_thresh: float = 0.05) -> ScoreTriple:
    return ScoreTriple(
        survival=survival_score(batch),
        tracking=lin_vel_tracking_score(batch, sigma),
        air_time=feet_air_time_score(batch, lift_thresh, vel_thresh),
    )


# what episode_from_bindings reads of each step, with its per-step shape
SCORED_BINDINGS = {"command": (3,), "local_vel": (3,), "feet_air_time": (2,),
                   "foot_contact": (2,), "command_norm": ()}


def episode_from_bindings(steps) -> Episode:
    """One episode from its per-step unbatched binding maps, in step order,
    using the ``SCORED_BINDINGS``. Every step counts as survived."""
    cmd, loc, air, swing, cnorm = [], [], [], [], []
    for bindings in steps:
        cmd.append(bindings["command"].arr[:2])
        loc.append(bindings["local_vel"].arr[:2])
        at = bindings["feet_air_time"].arr
        i = int(np.argmax(at))  # the swing foot is the one accumulating air time
        air.append(at[i])
        swing.append(1.0 - bindings["foot_contact"].arr[i])
        cnorm.append(float(bindings["command_norm"].arr))
    return Episode(
        survived=len(steps),
        command_vel=np.array(cmd),
        local_vel=np.array(loc),
        air_time=np.array(air),
        swing=np.array(swing),
        command_norm=np.array(cnorm),
    )


# -- trace I/O ----------------------------------------------------------------

def batch_from_trace(path, horizon: int | None = None) -> EvalBatch:
    """Build an EvalBatch from a binding-trace JSON-lines file (one episode)."""
    steps = read_trace(path, required=SCORED_BINDINGS)
    if not steps:
        raise ScoreError("BAD_EPISODE", f"empty trace {path}")
    return EvalBatch(episodes=[episode_from_bindings(steps)],
                     horizon=len(steps) if horizon is None else horizon)
