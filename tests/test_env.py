import json

import numpy as np
import pytest

from stageflow.env import (ACTION_DIM, BINDING_KEYS, OBS_DIM, DeskWalker,
                           VecEnv, read_trace, write_trace)
from stageflow.randomize import desk_scene, sample

CALM = {"command_lin_vel_x_range": [-0.5, 0.5],
        "command_lin_vel_y_range": [-0.3, 0.3],
        "command_ang_vel_yaw_range": [-0.5, 0.5]}

RICH = dict(CALM, command_stand_prob=0.3, init_rand=True,
            big_kick_interval=7, big_min_kick_vel=0.1, big_max_kick_vel=0.3,
            gait_frequency=[1.5, 2.5], foot_height_range=[0.03, 0.05])

RULES = {"body_mass": [{"target": "ALL",
                        "distribution": {"uniform": {"minval": 0.9, "maxval": 1.1}},
                        "operation": "scale"}]}


class TestDeskWalker:
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
        env = DeskWalker(cfg, seed=1)
        env.reset()
        speeds = []
        for _ in range(4):
            env.step(np.zeros(ACTION_DIM))
            speeds.append(float(np.linalg.norm(env.vel)))
        # at rest with a zero command, the kick is the only velocity source
        assert speeds[:3] == [0.0, 0.0, 0.0]
        assert speeds[3] == 0.3  # degenerate interval: exact magnitude

    def test_tilt_termination(self):
        env = DeskWalker(CALM, seed=0)
        env.reset()
        env.tilt = np.array([1.5, 0.0])  # decays to 1.05 this step, above the 0.7 limit
        _, done = env.step(np.zeros(ACTION_DIM))
        assert done

    def test_speed_termination(self):
        env = DeskWalker(CALM, seed=0)
        env.reset()
        env.vel = np.array([5.0, 0.0])  # lag shrinks it this step but it stays above 3
        _, done = env.step(np.zeros(ACTION_DIM))
        assert done

    def test_boolean_bindings_are_boolean(self):
        env = DeskWalker(CALM, seed=0)
        env.reset()
        b, _ = env.step(np.zeros(ACTION_DIM))
        for key in ("foot_contact", "first_foot_contact", "done"):
            assert b[key].kind == "boolean"


class TestVecEnv:
    def test_bitwise_equivalence_with_scalar_envs(self):
        """The vectorized fast path is pinned to the per-env reference

        implementation: identical bindings, observations, and terminations
        over 120 steps including kicks, init randomization, command resets,
        and per-env scene randomization."""
        n, base_seed, ep_len = 8, 5, 50
        vec = VecEnv(RICH, n, base_seed=base_seed, randomize_rules=RULES,
                     episode_length=ep_len)
        refs = [DeskWalker(RICH,
                           scene=sample(RULES, desk_scene(), base_seed, env_index=i),
                           seed=base_seed * 100003 + i)
                for i in range(n)]
        np.testing.assert_array_equal(
            vec.observe(), np.stack([r.observe() for r in refs]))
        rng = np.random.default_rng(0)
        for t in range(120):
            acts = rng.uniform(-1, 1, (n, ACTION_DIM))
            obs, bindings, finished = vec.step(acts)
            for i, r in enumerate(refs):
                br, done = r.step(acts[i])
                assert finished[i] == (done or r.t >= ep_len)
                if finished[i]:
                    r.reset()
                for k in BINDING_KEYS:
                    assert np.array_equal(bindings[k].arr[i], br[k].arr), (t, i, k)
            np.testing.assert_array_equal(
                obs, np.stack([r.observe() for r in refs]))

    def test_golden_rollout_digest(self):
        """Obs, every binding and ``finished`` of a 64-env tune rollout with
        obs noise, kicks, resets and all seven tune rules match the digest
        recorded from the per-env reference loops, byte for byte."""
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
