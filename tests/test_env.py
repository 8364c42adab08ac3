import json

import numpy as np
import pytest

from stageflow.env import ACTION_DIM, BINDING_KEYS, OBS_DIM, DeskWalker, VecEnv
from stageflow.errors import EnvError
from stageflow.reward import compile_program, eval_total_batch
from stageflow.schema import parse_bundle

from conftest import DATA, walker_row

CALM = {"command_lin_vel_x_range": [-0.5, 0.5],
        "command_lin_vel_y_range": [-0.3, 0.3],
        "command_ang_vel_yaw_range": [-0.5, 0.5]}

RICH = dict(CALM, command_stand_prob=0.3, init_rand=True,
            big_kick_interval=7, big_min_kick_vel=0.1, big_max_kick_vel=0.3,
            gait_frequency=[1.5, 2.5], foot_height_range=[0.03, 0.05])


class TestDeskWalker:
    """Final scoring's walker, and the single-row dynamics it steps."""

    def test_obs_shape_and_binding_keys(self):
        env = DeskWalker(CALM, seed=0)
        assert env.observe().shape == (1, OBS_DIM)
        obs, bindings, done = env.step(np.zeros((1, ACTION_DIM)))
        assert obs.shape == (1, OBS_DIM) and done.shape == (1,)
        assert set(walker_row(bindings)) == set(BINDING_KEYS)

    def test_deterministic_under_seed(self):
        def run(seed):
            env = DeskWalker(RICH, seed=seed)
            out = []
            for _ in range(30):
                b = walker_row(env.step(np.full((1, ACTION_DIM), 0.1))[1])
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

    def test_rows_run_as_alone(self):
        """Each row of an 8-row walker matches a one-row walker at its seed,
        ``seed + 100 e``, in every observation, binding and ``done`` up to
        its episode's end, on the golden's hard-kick tune scene, where some
        rows end early and step on (resetting, drawing) beside the rest."""
        from deskwalker_golden import EPISODES, HARD_KICKS, HORIZON, SEED
        stage = parse_bundle(DATA / "bundles" / "tune").stages[0]
        cfg = dict(stage.config_doc["environment"], **HARD_KICKS)
        rules = stage.randomize_doc["randomization"]
        rows = DeskWalker(cfg, rules, seed=SEED, episodes=EPISODES)
        alone = [DeskWalker(cfg, rules, seed=SEED + 100 * e) for e in range(EPISODES)]
        actions = np.random.default_rng(0).uniform(-1, 1, (HORIZON, EPISODES, ACTION_DIM))
        obs = rows.observe()
        assert obs.tobytes() == np.concatenate([env.observe() for env in alone]).tobytes()
        alive = np.ones(EPISODES, dtype=bool)
        for t in range(HORIZON):
            obs, bindings, done = rows.step(actions[t])
            for e in np.flatnonzero(alive):
                obs_e, bindings_e, done_e = alone[e].step(actions[t, e:e + 1])
                assert done[e] == done_e[0], (t, e)
                if not done[e]:
                    assert obs[e].tobytes() == obs_e[0].tobytes(), (t, e)
                got, want = walker_row(bindings, e), walker_row(bindings_e)
                assert list(got) == list(want) == list(BINDING_KEYS)
                for key in want:
                    assert got[key].kind == want[key].kind, (t, e, key)
                    assert got[key].arr.tobytes() == want[key].arr.tobytes(), (t, e, key)
            alive &= ~done
        assert 0 < alive.sum() < EPISODES  # some rows ended early, some ran out

    def test_boolean_bindings_are_boolean(self):
        env = DeskWalker(CALM, seed=0)
        b = walker_row(env.step(np.zeros((1, ACTION_DIM)))[1])
        for key in ("foot_contact", "first_foot_contact", "done"):
            assert b[key].kind == "boolean"

    def test_golden_final_scoring_digest(self):
        """Every observation, ``done`` and binding of final scoring's
        protocol on the tune stage-1 env, each episode on a one-row walker,
        match the digest recorded from the one-env walker that had its own
        physics, byte for byte; ``rot_up`` matches its re-recorded digest
        (``deskwalker_golden`` docstring)."""
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

    def test_keyed_bindings_are_the_full_maps_arrays(self):
        """A VecEnv asked for some keys builds exactly those of them that are
        binding keys, each array byte for byte the full map's."""
        keys = {"command", "rot_up", "done", "feet_site_pos", "rz", "not_a_binding"}
        full = VecEnv(RICH, 4, base_seed=3)
        keyed = VecEnv(RICH, 4, base_seed=3, binding_keys=keys)
        act = np.random.default_rng(1).uniform(-1, 1, (30, 4, ACTION_DIM))
        for t in range(30):
            obs, want, done = full.step(act[t])
            obs_k, got, done_k = keyed.step(act[t])
            assert set(got) == keys - {"not_a_binding"}
            assert obs.tobytes() == obs_k.tobytes() and done.tolist() == done_k.tolist()
            for key in got:
                assert got[key].kind == want[key].kind, key
                assert got[key].arr.tobytes() == want[key].arr.tobytes(), (t, key)

    def test_a_term_reading_no_binding_key_gets_its_default(self):
        program = compile_program({
            "speed": {"inputs": {"v": "local_vel"},
                      "evaluations": [{"type": "sum_square", "parameters": {"vector": "v"}}]},
            "ghost": {"inputs": {"g": "ghost_sensor"}, "default_reward": 0.25,
                      "evaluations": [{"type": "norm_L1", "parameters": {"vector": "g"}}]},
        })
        env = VecEnv(CALM, 3, base_seed=0, binding_keys=program.required_variables)
        _, bindings, _ = env.step(np.full((3, ACTION_DIM), 0.5))
        assert set(bindings) == {"local_vel"}
        got = eval_total_batch(program, bindings, 3)
        assert got["per_term"]["ghost"].tolist() == [0.25] * 3
        assert (got["per_term"]["speed"] > 0.0).all()

    def test_a_partial_config_takes_the_table_defaults_and_refuses_bad_values(self):
        env = VecEnv(CALM, 2, base_seed=0)
        assert (env.cfg.obs_noise, env.cfg.init_rand, env.cfg.max_foot_height) == (
            0.0, False, 0.05)
        with pytest.raises(EnvError) as e:
            VecEnv(dict(CALM, init_rand="no"), 2, base_seed=0)
        assert e.value.code == "TYPE_ERROR"

    def test_auto_reset_on_truncation(self):
        vec = VecEnv(CALM, 2, base_seed=0, episode_length=5)
        for t in range(5):
            obs, bindings, finished = vec.step(np.zeros((2, ACTION_DIM)))
        assert finished.all()
        assert obs.shape == (2, OBS_DIM)

