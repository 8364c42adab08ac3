"""Final scoring's three scores, read straight from a batched rollout."""

import numpy as np
import pytest

from stageflow import scoring
from stageflow.env import ACTION_DIM, DeskWalker
from stageflow.reward import BatchValue

CALM = {"command_lin_vel_x_range": [-0.5, 0.5], "command_lin_vel_y_range": [-0.3, 0.3],
        "command_ang_vel_yaw_range": [-0.5, 0.5]}
LENGTHS = np.array([1, 40, 50])
HORIZON = 50


def rollout(steps=HORIZON):
    """A three-row walker stepped under random actions."""
    env = DeskWalker(CALM, seed=3, episodes=len(LENGTHS),
                     binding_keys=scoring.SCORED_BINDINGS)
    act = np.random.default_rng(0)
    return [env.step(act.uniform(-1, 1, (len(LENGTHS), ACTION_DIM)))[1]
            for _ in range(steps)]


class TestScore:
    def test_matches_a_hand_written_reference(self):
        steps = rollout()
        got = scoring.score_triple(steps, LENGTHS, HORIZON)
        track, air = np.zeros(len(LENGTHS)), np.zeros(len(LENGTHS))
        for e, n in enumerate(LENGTHS):
            for b in steps[:n]:
                row = {k: v.arr[e] for k, v in b.items()}
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
        steps = rollout()
        want = scoring.score_triple(steps, lengths, HORIZON).to_json()
        for t, b in enumerate(steps):
            for key, value in b.items():
                arr = value.arr.copy()
                arr[t >= lengths] = np.nan
                b[key] = BatchValue(arr, value.kind)
        assert scoring.score_triple(steps, lengths, HORIZON).to_json() == want
        # nor does the number of steps past the longest row
        assert scoring.score_triple(steps[:45], lengths, HORIZON).to_json() == want
