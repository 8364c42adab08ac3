"""Deployment evaluation scores: survival, velocity tracking, feet air time,
computed from final scoring's reward block.

``block`` maps each key of ``SCORED_BINDINGS`` to a float64 array of T * E
rows, row ``t * E + e`` episode e at step t, as ``VecEnv.bindings`` gives
them over E episodes. Episode e counts its first ``n_e = lengths[e]`` steps,
with ``1 <= n_e <= T <= horizon``; later steps are never read. With ``a_t``
the larger air time of step t's two feet (the first on a tie) and ``s_t`` 1
while that foot is off the ground:

    survival = (1/E) sum_e n_e / horizon
    tracking = (1/E) sum_e (1/horizon) sum_{t<n_e}
               exp(-||v_cmd,t - v_loc,t||^2 / (2 SIGMA^2))      (planar)
    air_time = (1/E) sum_e (1/n_e) sum_{t<n_e}
               1[||cmd_t|| > MOVING] (a_t - LIFT) s_t

The air-time score may leave [0, 1]. Each row's sums run over its own slice
``[e, :n_e]`` in step order, so no row's score depends on another's length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SIGMA = 0.1    # velocity-tracking kernel width, m/s
LIFT = 0.2     # air time a swing must exceed to score, s
MOVING = 0.05  # command norm above which a step counts, m/s

# what score_triple reads of each step
SCORED_BINDINGS = ("command", "local_vel", "feet_air_time", "foot_contact", "command_norm")


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


def score_triple(block: dict, lengths, horizon: int) -> ScoreTriple:
    """The three scores of ``block``, episode e read for ``lengths[e]`` steps."""
    lengths = np.asarray(lengths)

    def stacked(key):  # (episodes, steps, ...)
        arr = block[key]
        return np.ascontiguousarray(arr.reshape(-1, len(lengths), *arr.shape[1:]).swapaxes(0, 1))

    diff = stacked("command")[..., :2] - stacked("local_vel")[..., :2]
    tracked = np.exp(-(diff * diff).sum(axis=-1) / (2.0 * SIGMA * SIGMA))
    air, contact = stacked("feet_air_time"), stacked("foot_contact")
    swing_foot = np.argmax(air, axis=-1)[..., None]
    lifted = ((stacked("command_norm") > MOVING)
              * (np.take_along_axis(air, swing_foot, -1)[..., 0] - LIFT)
              * (1.0 - np.take_along_axis(contact, swing_foot, -1)[..., 0]))
    track = air_time = 0.0
    for e, n in enumerate(lengths.tolist()):
        track += float(tracked[e, :n].sum()) / horizon
        air_time += float(lifted[e, :n].sum()) / n
    return ScoreTriple(survival=float(np.mean(lengths / horizon)),
                       tracking=track / len(lengths),
                       air_time=air_time / len(lengths))
