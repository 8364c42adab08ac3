import json

import numpy as np
import pytest

from stageflow.env import (ACTION_DIM, BINDING_KEYS, OBS_DIM, DeskWalker,
                           VecEnv, read_trace, write_trace)

CALM = {"command_lin_vel_x_range": [-0.5, 0.5],
        "command_lin_vel_y_range": [-0.3, 0.3],
        "command_ang_vel_yaw_range": [-0.5, 0.5]}

RICH = dict(CALM, command_stand_prob=0.3, init_rand=True,
            big_kick_interval=7, big_min_kick_vel=0.1, big_max_kick_vel=0.3,
            gait_frequency=[1.5, 2.5], foot_height_range=[0.03, 0.05])


class TestDeskWalker:
    """Final scoring's one walker, and the single-row dynamics it views."""

    def test_obs_shape_and_binding_keys(self):
        env = DeskWalker(CALM, seed=0)
        obs = env.reset()
        assert obs.shape == (OBS_DIM,)
        bindings, done = env.step(np.zeros(ACTION_DIM))
        assert set(bindings) == set(BINDING_KEYS)

    def test_deterministic_under_seed(self):
        def run(seed):
            env = DeskWalker(RICH, seed=seed)
            env.reset()
            out = []
            for _ in range(30):
                b, done = env.step(np.full(ACTION_DIM, 0.1))
                out.append(b["local_vel"].arr.tolist())
            return out
        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_kick_magnitude_exact_at_rest(self):
        cfg = {"command_lin_vel_x_range": [0, 0], "command_lin_vel_y_range": [0, 0],
               "command_ang_vel_yaw_range": [0, 0], "command_stand_prob": 0.0,
               "big_kick_interval": 4, "big_min_kick_vel": 0.3,
               "big_max_kick_vel": 0.3}
        vec = VecEnv(cfg, 2, base_seed=1)
        speeds = []
        for _ in range(4):
            vec.step(np.zeros((2, ACTION_DIM)))
            speeds.append(np.linalg.norm(vec.vel, axis=1).tolist())
        # at rest with a zero command, the kick is the only velocity source
        assert speeds[:3] == [[0.0, 0.0]] * 3
        assert speeds[3] == [0.3, 0.3]  # degenerate interval: exact magnitude

    def test_tilt_termination(self):
        vec = VecEnv(CALM, 2, base_seed=0)
        vec.tilt[0] = [1.5, 0.0]  # decays to 1.05 this step, above the 0.7 limit
        _, bindings, finished = vec.step(np.zeros((2, ACTION_DIM)))
        assert finished.tolist() == [True, False]
        assert bindings["done"].arr.tolist() == [1.0, 0.0]
        assert vec.tilt[0].tolist() == [0.0, 0.0]  # the row reset in place

    def test_speed_termination(self):
        vec = VecEnv(CALM, 2, base_seed=0)
        vec.vel[1] = [5.0, 0.0]  # lag shrinks it this step but it stays above 3
        _, bindings, finished = vec.step(np.zeros((2, ACTION_DIM)))
        assert finished.tolist() == [False, True]
        assert bindings["done"].arr.tolist() == [0.0, 1.0]

    def test_boolean_bindings_are_boolean(self):
        env = DeskWalker(CALM, seed=0)
        env.reset()
        b, _ = env.step(np.zeros(ACTION_DIM))
        for key in ("foot_contact", "first_foot_contact", "done"):
            assert b[key].kind == "boolean"

    def test_golden_final_scoring_digest(self):
        """Every observation, ``done`` and binding of final scoring's
        protocol on the tune stage-1 env match the digest recorded from the
        one-env walker that had its own physics, byte for byte."""
        from deskwalker_golden import GOLDEN, HORIZON, rollout_digest
        expected = json.loads(GOLDEN.read_text())
        lengths = expected["lengths"]
        assert HORIZON in lengths and min(lengths) < HORIZON  # both endings
        got = rollout_digest()
        assert got["lengths"] == lengths
        assert got["digests"] == expected["digests"]


class TestVecEnv:
    def test_golden_rollout_digest(self):
        """Obs, every binding and ``finished`` of a 64-env tune rollout with
        obs noise, kicks, resets and all seven tune rules match the recorded
        digest, byte for byte."""
        from vecenv_golden import GOLDEN, rollout_digest
        expected = json.loads(GOLDEN.read_text())
        got = rollout_digest()
        assert got["resets"] == expected["resets"] > 0
        for key, digest in expected["digests"].items():
            assert got["digests"].get(key) == digest, key
        assert set(got["digests"]) == set(expected["digests"])

    def test_auto_reset_on_truncation(self):
        vec = VecEnv(CALM, 2, base_seed=0, episode_length=5)
        for t in range(5):
            obs, bindings, finished = vec.step(np.zeros((2, ACTION_DIM)))
        assert finished.all()
        assert obs.shape == (2, OBS_DIM)


class TestTrace:
    def test_round_trip(self, tmp_path):
        env = DeskWalker(CALM, seed=2)
        env.reset()
        steps = []
        for _ in range(10):
            b, done = env.step(np.random.default_rng(0).uniform(-1, 1, ACTION_DIM))
            steps.append(b)
        path = tmp_path / "trace.jsonl"
        write_trace(path, steps)
        back = read_trace(path)
        assert len(back) == len(steps)
        for a, b in zip(steps, back):
            assert set(a) == set(b)
            for k in a:
                assert (a[k].kind, a[k].batched) == (b[k].kind, b[k].batched), k
                assert np.array_equal(a[k].arr, b[k].arr), k
