"""Final scoring's three scores, read straight from a rollout's reward block."""

import numpy as np
import pytest

from stageflow import scoring
from stageflow.env import ACTION_DIM, DeskWalker

CALM = {"command_lin_vel_x_range": [-0.5, 0.5], "command_lin_vel_y_range": [-0.3, 0.3],
        "command_ang_vel_yaw_range": [-0.5, 0.5]}
LENGTHS = np.array([1, 40, 50])
HORIZON = 50


def rollout(steps=HORIZON):
    """The one reward block of a three-row walker stepped under random
    actions, row ``t * 3 + e`` episode e at step t."""
    env = DeskWalker(CALM, seed=3, episodes=len(LENGTHS),
                     binding_keys=scoring.SCORED_BINDINGS, block_steps=steps)
    act = np.random.default_rng(0)
    for _ in range(steps):
        env.step(act.uniform(-1, 1, (len(LENGTHS), ACTION_DIM)))
    return env.bindings()


def step_rows(block, t):
    """Step t's rows of ``block``, one per episode."""
    return {k: v[t * len(LENGTHS):(t + 1) * len(LENGTHS)] for k, v in block.items()}


class TestScore:
    def test_matches_a_hand_written_reference(self):
        block = rollout()
        got = scoring.score_triple(block, LENGTHS, HORIZON)
        track, air = np.zeros(len(LENGTHS)), np.zeros(len(LENGTHS))
        for e, n in enumerate(LENGTHS):
            for t in range(n):
                row = {k: v[e] for k, v in step_rows(block, t).items()}
                err = row["command"][:2] - row["local_vel"][:2]
                track[e] += np.exp(-(err @ err) / (2 * 0.1 ** 2)) / HORIZON
                at, contact = row["feet_air_time"], row["foot_contact"]
                i = int(np.argmax(at))
                air[e] += ((float(row["command_norm"]) > 0.05) * (at[i] - 0.2)
                           * (1 - contact[i]) / n)
        assert got.survival == pytest.approx(np.mean(LENGTHS / HORIZON))
        assert got.tracking == pytest.approx(track.mean())
        assert got.air_time == pytest.approx(air.mean())
        assert got.air_time != 0.0  # the rollout lifts feet while moving

    def test_steps_after_a_rows_length_are_not_read(self):
        lengths = np.array([1, 40, 45])
        block = rollout()
        want = scoring.score_triple(block, lengths, HORIZON).to_json()
        for t in range(HORIZON):
            for arr in step_rows(block, t).values():
                arr[t >= lengths] = np.nan
        assert scoring.score_triple(block, lengths, HORIZON).to_json() == want
        # nor does the number of steps past the longest row
        first_45 = {k: v[:45 * len(lengths)] for k, v in block.items()}
        assert scoring.score_triple(first_45, lengths, HORIZON).to_json() == want
