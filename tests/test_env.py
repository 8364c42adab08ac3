import json

import numpy as np
import pytest

from stageflow.env import (ACTION_DIM, BINDING_KEYS, BINDING_KINDS, BINDING_SHAPES, OBS_DIM,
                           DeskWalker, VecEnv)
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
        obs, done = env.step(np.zeros((1, ACTION_DIM)))
        assert obs.shape == (1, OBS_DIM) and done.shape == (1,)
        assert set(walker_row(env.bindings())) == set(BINDING_KEYS)

    def test_deterministic_under_seed(self):
        def run(seed):
            env = DeskWalker(RICH, seed=seed)
            out = []
            for _ in range(30):
                env.step(np.full((1, ACTION_DIM), 0.1))
                out.append(walker_row(env.bindings())["local_vel"].tolist())
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
        _, finished = vec.step(np.zeros((2, ACTION_DIM)))
        assert finished.tolist() == [True, False]
        assert vec.bindings()["done"].tolist() == [1.0, 0.0]
        assert vec.tilt[0].tolist() == [0.0, 0.0]  # the row reset in place

    def test_speed_termination(self):
        vec = VecEnv(CALM, 2, base_seed=0)
        vec.vel[1] = [5.0, 0.0]  # lag shrinks it this step but it stays above 3
        _, finished = vec.step(np.zeros((2, ACTION_DIM)))
        assert finished.tolist() == [False, True]
        assert vec.bindings()["done"].tolist() == [0.0, 1.0]

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
            obs, done = rows.step(actions[t])
            bindings = rows.bindings()
            for e in np.flatnonzero(alive):
                obs_e, done_e = alone[e].step(actions[t, e:e + 1])
                assert done[e] == done_e[0], (t, e)
                if not done[e]:
                    assert obs[e].tobytes() == obs_e[0].tobytes(), (t, e)
                got, want = walker_row(bindings, e), walker_row(alone[e].bindings())
                assert list(got) == list(want) == list(BINDING_KEYS)
                for key in want:
                    assert got[key].tobytes() == want[key].tobytes(), (t, e, key)
            alive &= ~done
        assert 0 < alive.sum() < EPISODES  # some rows ended early, some ran out

    def test_boolean_bindings_are_boolean(self):
        env = DeskWalker(RICH, seed=0)
        seen = set()
        for _ in range(40):
            env.step(np.zeros((1, ACTION_DIM)))
            b = walker_row(env.bindings())
            for key in ("foot_contact", "first_foot_contact", "done"):
                assert BINDING_KINDS[key] == "boolean"
                assert set(b[key].ravel().tolist()) <= {0.0, 1.0}, key
                seen.update(b[key].ravel().tolist())
        assert seen == {0.0, 1.0}

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
            obs, done = full.step(act[t])
            obs_k, done_k = keyed.step(act[t])
            want, got = full.bindings(), keyed.bindings()
            assert set(got) == keys - {"not_a_binding"}
            assert obs.tobytes() == obs_k.tobytes() and done.tolist() == done_k.tolist()
            for key in got:
                assert got[key].tobytes() == want[key].tobytes(), (t, key)

    def test_a_term_reading_no_binding_key_gets_its_default(self):
        program = compile_program({
            "speed": {"inputs": {"v": "local_vel"},
                      "evaluations": [{"type": "sum_square", "parameters": {"vector": "v"}}]},
            "ghost": {"inputs": {"g": "ghost_sensor"}, "default_reward": 0.25,
                      "evaluations": [{"type": "norm_L1", "parameters": {"vector": "g"}}]},
        }, BINDING_SHAPES)
        env = VecEnv(CALM, 3, base_seed=0, binding_keys=program.required_variables)
        env.step(np.full((3, ACTION_DIM), 0.5))
        bindings = env.bindings()
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
            obs, finished = vec.step(np.zeros((2, ACTION_DIM)))
        assert finished.all()
        assert obs.shape == (2, OBS_DIM)



class TestRewardBlocks:
    def test_every_key_has_its_table_shape(self):
        """``BINDING_SHAPES``, which programs compile and validate against,
        is the shape of every key's rows."""
        env = VecEnv(RICH, 3, base_seed=0, block_steps=2)
        for _ in range(2):
            env.step(np.zeros((3, ACTION_DIM)))
        bindings = env.bindings()
        assert list(bindings) == list(BINDING_KEYS) == list(BINDING_SHAPES)
        for key, arr in bindings.items():
            assert arr.dtype == np.float64 and arr.shape == (6, *BINDING_SHAPES[key]), key

    def test_a_step_on_a_full_unread_block_raises(self):
        """Stepping past ``block_steps`` without reading would drop the
        block's steps; a read empties the block and stepping goes on."""
        env = VecEnv(CALM, 2, base_seed=0, block_steps=2)
        for _ in range(2):
            env.step(np.zeros((2, ACTION_DIM)))
        with pytest.raises(EnvError) as e:
            env.step(np.zeros((2, ACTION_DIM)))
        assert e.value.code == "BLOCK_FULL"
        assert env.bindings()["done"].shape == (4,)
        env.step(np.zeros((2, ACTION_DIM)))
        assert env.bindings()["done"].shape == (2,)

    def test_a_block_holds_each_steps_bindings_on_reset_and_kicked_rows(self):
        """Every key of a 4-step block, booleans included, equals, row for row,
        the key built at each step's binding point from copies of what it
        read, on 5-step episodes with both kicks and observation noise: rows
        reset (writing the step's contacts, as ``prev_contact``, in place) and
        are kicked (adding to ``vel`` in place) inside the block."""
        from stageflow import env as env_module
        cfg = dict(RICH, obs_noise=0.05, big_kick_interval=3, small_kick_interval=2,
                   small_min_kick_vel=0.05, small_max_kick_vel=0.2)
        fields = {f for entry in env_module._BINDINGS.values() for f in entry[2].split()}
        at_step = []

        class AtTheStep(VecEnv):
            def _snapshot(self, step_state):
                state = {f: np.array(step_state[f] if f in step_state else getattr(self, f))
                         for f in fields}
                block = env_module._Block(state, self.n)
                at_step.append({k: np.asarray(entry[3](block), dtype=np.float64)
                                for k, entry in env_module._BINDINGS.items()})
                super()._snapshot(step_state)

        n, block = 8, 4
        env = AtTheStep(cfg, n, base_seed=2, episode_length=5, block_steps=block)
        act = np.random.default_rng(3).uniform(-1, 1, (24, n, ACTION_DIM))
        mid_block_resets = mid_block_kicks = 0
        for t in range(24):
            kicked = (env.t + 1) % 2 == 0  # the rows this step kicks
            _, finished = env.step(act[t])
            if t % block != block - 1:
                mid_block_resets += int(finished.sum())
                mid_block_kicks += int(kicked.sum())
                continue
            got = env.bindings()
            assert list(got) == list(BINDING_KEYS)
            for j in range(block):
                want = at_step[t + 1 - block + j]
                for key, arr in got.items():
                    assert arr[j * n:(j + 1) * n].tobytes() == want[key].tobytes(), (t, j, key)
        assert mid_block_resets > 0 and mid_block_kicks > 0
