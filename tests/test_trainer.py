import copy
import dataclasses
import itertools
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stageflow import env, orchestrator, reductions, reward, trainer
from stageflow.errors import TrainerError
from stageflow.schema import parse_bundle
from stageflow.trainer import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, Adam, Policy,
                               RunningNorm, Workspace,
                               gae, load_checkpoint, ppo_loss,
                               restore_policy, save_checkpoint, train_stage)

from stageflow.env import ACTION_DIM, OBS_DIM

from conftest import DESK, TINY_STEPS


def small_policy(seed=0, obs_dim=5, act_dim=3):
    return Policy([8, 8], [8, 8], seed=seed, obs_dim=obs_dim, act_dim=act_dim)


def small_batch(policy, rng, n=16):
    obs = rng.standard_normal((n, policy.obs_dim))
    raw, squashed, logp = policy.act(obs, rng)
    return {
        "obs": obs,
        "raw_actions": raw,
        "old_logp": logp + 0.1 * rng.standard_normal(n),
        "advantages": rng.standard_normal(n),
        "returns": rng.standard_normal(n),
    }


class TestGae:
    def test_length_mismatch(self):
        with pytest.raises(TrainerError) as e:
            gae(np.zeros(3), np.zeros(3), np.zeros(3), 0.97)
        assert e.value.code == "LENGTH_MISMATCH"  # values must have length T+1

    def test_gamma_zero_is_td_residual(self, rng):
        r = rng.standard_normal(4)
        v = rng.standard_normal(5)
        adv, ret = gae(r, v, np.zeros(4), gamma=0.0)
        np.testing.assert_allclose(adv, r - v[:-1], rtol=1e-15)
        np.testing.assert_allclose(ret, adv + v[:-1], rtol=1e-15)

    def test_single_step_zero_value(self):
        adv, ret = gae(np.array([2.5]), np.zeros(2), np.zeros(1), gamma=0.97)
        assert adv[0] == pytest.approx(2.5)
        assert ret[0] == pytest.approx(2.5)

    def test_matches_hand_unrolled_recursion(self, rng):
        gamma, lam = 0.97, 0.95
        T = 9
        r = rng.standard_normal(T)
        v = rng.standard_normal(T + 1)
        d = (rng.uniform(size=T) < 0.3).astype(float)
        adv_o = np.zeros(T)
        acc = 0.0
        for t in reversed(range(T)):
            delta = r[t] + gamma * v[t + 1] * (1 - d[t]) - v[t]
            acc = delta + gamma * lam * (1 - d[t]) * acc
            adv_o[t] = acc
        adv, ret = gae(r, v, d, gamma, lam)
        np.testing.assert_allclose(adv, adv_o, rtol=1e-12)
        np.testing.assert_allclose(ret, adv_o + v[:-1], rtol=1e-12)

    def test_done_blocks_bootstrap(self):
        # a done at t severs all influence of later values/rewards
        r = np.array([1.0, 100.0])
        v = np.array([0.0, 50.0, 50.0])
        adv, _ = gae(r, v, np.array([1.0, 0.0]), gamma=0.97)
        assert adv[0] == pytest.approx(1.0)


def surrogate_loss(ratio, advantages, clip_eps):
    """``ppo_loss``'s ``loss/policy`` on a batch whose old log-probs are set
    so that each row's probability ratio is ``ratio``."""
    policy = small_policy()
    obs = np.random.default_rng(1).standard_normal((len(ratio), policy.obs_dim))
    raw, _, logp = policy.act(obs, np.random.default_rng(2))
    batch = {"obs": obs, "raw_actions": raw, "old_logp": logp - np.log(ratio),
             "advantages": np.asarray(advantages, dtype=np.float64),
             "returns": np.zeros(len(ratio))}
    _, _, parts = ppo_loss(policy, batch, clip_eps, with_grads=False)
    return parts["loss/policy"]


class TestClippedSurrogate:
    def test_fixture_ratio_above_clip(self):
        # r=1.3, A=1, eps=0.2 -> min(1.3, 1.2) = 1.2
        assert surrogate_loss(np.array([1.3]), np.array([1.0]), 0.2) \
            == pytest.approx(-1.2, rel=1e-12)

    def test_fixture_negative_advantage(self):
        # r=0.5, A=-1, eps=0.2 -> min(-0.5, 0.8*(-1)) = -0.8
        assert surrogate_loss(np.array([0.5]), np.array([-1.0]), 0.2) \
            == pytest.approx(0.8, rel=1e-12)

    def test_identity_ratio_is_advantage(self, rng):
        a = rng.standard_normal(10)
        assert surrogate_loss(np.ones(10), a, 0.2) == pytest.approx(-a.mean(), rel=1e-12)

    def test_clipped_term_bounded(self, rng):
        r = rng.uniform(0.1, 3.0, 100)
        a = rng.standard_normal(100)
        clipped_term = np.clip(r, 0.8, 1.2) * a
        assert np.all(np.abs(clipped_term) <= 1.2 * np.abs(a) + 1e-12)
        # the surrogate never exceeds the clipped term (pessimistic bound)
        surrogate = -surrogate_loss(r, a, 0.2)
        assert surrogate == pytest.approx(np.minimum(r * a, clipped_term).mean(), rel=1e-10)
        assert surrogate <= clipped_term.mean() + 1e-12


class TestPpoLoss:
    def test_analytic_gradient_matches_finite_differences(self, rng):
        policy = small_policy()
        batch = small_batch(policy, rng)
        loss, grads, _ = ppo_loss(policy, batch, clip_eps=0.2,
                                  entropy_cost=1e-2)
        h = 1e-6
        worst = 0.0
        for name, g in grads.items():
            flat = policy.params[name].ravel()
            probe = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for j in probe:
                orig = flat[j]
                flat[j] = orig + h
                lp, _, _ = ppo_loss(policy, batch, 0.2, entropy_cost=1e-2,
                                    with_grads=False)
                flat[j] = orig - h
                lm, _, _ = ppo_loss(policy, batch, 0.2, entropy_cost=1e-2,
                                    with_grads=False)
                flat[j] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(g.ravel()[j]), 1e-8)
                worst = max(worst, abs(fd - g.ravel()[j]) / denom)
        assert worst < 1e-4

    def test_infinite_clip_equals_unclipped_surrogate(self, rng):
        policy = small_policy()
        obs = rng.standard_normal((16, policy.obs_dim))
        raw, _, logp = policy.act(obs, rng)  # logp is the new log-prob of raw
        batch = {"obs": obs, "raw_actions": raw,
                 "old_logp": logp + 0.1 * rng.standard_normal(16),
                 "advantages": rng.standard_normal(16), "returns": rng.standard_normal(16)}
        loss_inf, _, parts = ppo_loss(policy, batch, clip_eps=1e12,
                                      value_coef=0.0, entropy_cost=0.0,
                                      with_grads=False)
        ratio = np.exp(logp - batch["old_logp"])
        # advantage normalization happens per minibatch in train_stage,
        # not inside the loss, so compare against the raw advantages
        unclipped = -(ratio * batch["advantages"]).mean()
        assert loss_inf == pytest.approx(unclipped, rel=1e-10, abs=1e-10)

    def test_non_positive_eps_rejected(self, rng):
        policy = small_policy()
        batch = small_batch(policy, rng)
        with pytest.raises(TrainerError) as e:
            ppo_loss(policy, batch, clip_eps=0.0)
        assert e.value.code == "NON_FINITE_LOSS"

    def test_loss_parts_reported(self, rng):
        policy = small_policy()
        batch = small_batch(policy, rng)
        _, _, parts = ppo_loss(policy, batch, 0.2)
        assert set(parts) == {"loss/policy", "loss/value", "loss/entropy"}


class TestPpoUpdate:
    def test_golden_update_digest(self):
        """Every parameter, Adam moment and the last loss parts after 2 epochs
        of 4 minibatches, at 1,283 rows (321/321/321/320) and at 1,280, match
        the digest recorded before the update reused a workspace, byte for
        byte."""
        from ppo_update_golden import GOLDEN, golden
        expected = json.loads(GOLDEN.read_text())
        got = golden()
        assert got["cases"]["1283"]["minibatch_rows"][:4] == [321, 321, 321, 320]
        for rows, case in expected["cases"].items():
            for key, digest in case["digests"].items():
                assert got["cases"][rows]["digests"].get(key) == digest, (rows, key)
        assert got == expected

    def test_golden_multi_block_update_and_inference(self):
        """Minibatches of 4,501 and 4,500 rows and inference on 4,500 and
        4,096 rows run the SiLU over several row blocks, most ending in a
        short one, at the desk nets and at uneven ones, and the minibatches
        run in two chunks of ``ROW_CHUNK`` rows or fewer; every result
        matches the recorded digest byte for byte."""
        from silu_blocks_golden import GOLDEN, INFERENCE_ROWS, UPDATE_ROWS, golden
        for rows in (UPDATE_ROWS // 2, *INFERENCE_ROWS):
            assert rows >= 2 * trainer.SILU_ROWS
        assert (UPDATE_ROWS // 2) % trainer.SILU_ROWS and INFERENCE_ROWS[0] % trainer.SILU_ROWS
        assert UPDATE_ROWS // 2 > trainer.ROW_CHUNK
        expected = json.loads(GOLDEN.read_text())
        got = golden()
        for section in ("update", "inference"):
            for case, digests in expected[section].items():
                for key, digest in digests.items():
                    assert got[section][case].get(key) == digest, (section, case, key)
        assert got == expected

    def test_a_warm_update_allocates_less_than_one_hidden_activation(self):
        """Once the workspace is sized, ppo_loss and Adam.step allocate only
        parameter-sized arrays; every row-sized intermediate is reused."""
        rows, hidden = 5_120, 64
        policy = Policy([hidden, hidden], [hidden, hidden], seed=0)
        batch = small_batch(policy, np.random.default_rng(1), n=rows)
        optimizer = Adam(policy.params, lr=1e-4)
        workspace = Workspace()

        def update():
            _, grads, _ = ppo_loss(policy, batch, 0.2, entropy_cost=1e-3,
                                   workspace=workspace)
            optimizer.step(grads)

        update()  # warm-up sizes the workspace
        tracemalloc.start()
        try:
            update()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * hidden * 8, peak

    def test_an_update_holds_one_activation_set(self):
        """A 20,480-row float32 minibatch, a 4096-env stage's, runs through
        ``ppo_loss`` one chunk of ``ROW_CHUNK`` rows at a time: no workspace
        buffer is taken for more rows, and the workspace holds one
        activation set of a chunk at the wider net's widths, plus the
        chunk's gather and the log-prob scratch. The value net runs over the
        policy net's buffers. A hidden layer keeps two arrays, its
        activation and its SiLU derivative; the sigmoid and ``1 - s`` are
        block scratch."""
        rows, chunk = 20_480, trainer.ROW_CHUNK
        taken = {}

        class Recorded(Workspace):
            def take(self, name, shape, dtype):
                taken[name] = max(taken.get(name, 0), shape[0])
                return super().take(name, shape, dtype)

        policy = Policy([64, 64], [64, 64], seed=0)
        batch = small_batch(policy, np.random.default_rng(1), n=rows)
        batch = {k: v.astype(np.float32) for k, v in batch.items()}
        workspace = Recorded()
        trainer.ppo_update(policy, Adam(policy.params, lr=1e-4), batch,
                           np.random.default_rng(2), 1, 1, 0.2, 1e-3, workspace)
        assert max(taken.values()) == chunk, taken
        widths = [max(p, v) for p, v in zip(policy.policy_sizes[1:], policy.value_sizes[1:])]
        hidden, out = widths[:-1], widths[-1]
        # the derivative over z and a per hidden layer, the output z
        activations = 2 * sum(hidden) + out
        minibatch = OBS_DIM + ACTION_DIM + 3      # obs, raw_actions, old_logp, advantages, returns
        logp = 2 * ACTION_DIM + 5                 # d, term and five per-row vectors
        scratch = 2 * min(chunk, trainer.SILU_ROWS) * max(hidden) * 4  # s and 1 - s
        bound = chunk * 4 * (activations + minibatch + logp) + scratch + chunk  # + the bool mask
        total = sum(b.nbytes for b in workspace._bufs.values())
        assert total <= bound, (total, bound)

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_chunked_gradients_match_one_pass(self, monkeypatch, dtype, rtol):
        """A 9,001-row minibatch run in ten chunks (nine of 1,000 rows, one
        of one) gives the gradients and loss parts of one pass over all its
        rows, to rounding: each array within ``rtol`` of its largest
        element."""
        policy = Policy([64, 64], [64, 64], seed=0)
        batch = small_batch(policy, np.random.default_rng(1), n=9_001)
        batch = {k: v.astype(dtype) for k, v in batch.items()}

        class Recorded:
            def step(self, grads):
                self.grads = {k: g.copy() for k, g in grads.items()}

        got = {}
        for chunk in (1_000, 9_001):
            monkeypatch.setattr(trainer, "ROW_CHUNK", chunk)
            optimizer = Recorded()
            parts = trainer.ppo_update(policy, optimizer, batch, np.random.default_rng(2),
                                       1, 1, 0.2, 1e-3, Workspace())
            got[chunk] = optimizer.grads, parts
        (chunked, chunked_parts), (whole, whole_parts) = got[1_000], got[9_001]
        assert list(chunked) == list(whole)  # the clip sums in this order
        for name, g in whole.items():
            assert chunked[name].dtype == np.float64, name
            np.testing.assert_allclose(chunked[name], g, rtol=0,
                                       atol=rtol * np.abs(g).max(), err_msg=name)
        assert chunked_parts.keys() == whole_parts.keys()
        for name, value in whole_parts.items():
            assert chunked_parts[name] == pytest.approx(value, rel=10 * rtol), name

    def test_loss_without_grads_is_the_loss_with_them(self, rng):
        policy = Policy([64, 64], [64, 64], seed=0)
        batch = small_batch(policy, rng, n=300)
        workspace = Workspace()
        with_grads = ppo_loss(policy, batch, 0.2, entropy_cost=1e-3, workspace=workspace)
        without = ppo_loss(policy, batch, 0.2, entropy_cost=1e-3, with_grads=False,
                           workspace=workspace)
        assert without[0] == with_grads[0]
        assert without[1] is None
        assert without[2] == with_grads[2]

    def test_grads_of_calls_without_a_workspace_do_not_alias(self, rng):
        policy = small_policy()
        batch = small_batch(policy, rng)
        _, first, _ = ppo_loss(policy, batch, 0.2)
        kept = {k: g.copy() for k, g in first.items()}
        batch["returns"] = batch["returns"] + 1.0
        _, second, _ = ppo_loss(policy, batch, 0.2)
        for k, g in first.items():
            assert not np.shares_memory(g, second[k]), k
            np.testing.assert_array_equal(g, kept[k])
        assert any(not np.array_equal(first[k], second[k]) for k in first)


class TestRollouts:
    def test_golden_collect_and_evaluate(self):
        """``_collect`` at 64, 100 and 300 envs (reward blocks of 4 + 3,
        2 + 2 + 2 + 1 and 1 step) and ``_evaluate`` at 16 envs whose episodes
        end on different steps, stopping early, match the record taken when
        each step's reward was evaluated on its own, byte for byte."""
        from rollout_golden import EVAL_MAX_STEPS, GOLDEN, golden
        expected = json.loads(GOLDEN.read_text())
        ends = expected["evaluate"]["first_finish"]
        assert len(set(ends)) > 2 and max(ends) == expected["evaluate"]["steps"] < EVAL_MAX_STEPS
        got = golden()
        for envs, digests in expected["collect"].items():
            for key, digest in digests.items():
                assert got["collect"][envs].get(key) == digest, (envs, key)
        assert got == expected

    def test_inference_on_a_grown_workspace_is_inference_on_a_throwaway_one(self):
        """Rollouts run act/value/act_deterministic on the stage's workspace,
        after an update has grown it to more rows: each forward writes into
        prefixes of the buffers it already has, and every result holds byte
        for byte."""
        policy = Policy([64, 64], [64, 64], seed=0)
        workspace = Workspace()
        ppo_loss(policy, small_batch(policy, np.random.default_rng(1), n=640), 0.2,
                 entropy_cost=1e-3, workspace=workspace)
        bufs = dict(workspace._bufs)
        obs = np.random.default_rng(3).standard_normal((100, OBS_DIM))
        shared = policy.act(obs, np.random.default_rng(4), workspace)
        alone = policy.act(obs, np.random.default_rng(4))
        for got, want in zip(shared, alone):
            assert got.tobytes() == want.tobytes()
        assert policy.value(obs, workspace).tobytes() == policy.value(obs).tobytes()
        assert (policy.act_deterministic(obs, workspace).tobytes()
                == policy.act_deterministic(obs).tobytes())
        assert workspace._bufs.keys() == bufs.keys()
        assert all(workspace._bufs[k] is b for k, b in bufs.items())

    def test_an_inference_forward_takes_no_activation_buffer(self):
        """Without ``grad``, each hidden layer's SiLU is written over its
        pre-activation: act, value and act_deterministic take the ``z{i}``
        buffers and the SiLU block scratch, and no ``a{i}``."""
        policy = Policy([64, 32], [64, 32], seed=0)
        workspace = Workspace()
        obs = np.random.default_rng(1).standard_normal((1_000, OBS_DIM))
        policy.act(obs, np.random.default_rng(2), workspace)
        policy.value(obs, workspace)
        policy.act_deterministic(obs, workspace)
        assert set(workspace._bufs) == {"z0", "z1", "z2", "silu/s"}

    def test_warm_inference_allocates_less_than_one_hidden_activation(self):
        rows, hidden = 5_120, 64
        policy = Policy([hidden, hidden], [hidden, hidden], seed=0)
        obs = np.random.default_rng(1).standard_normal((rows, OBS_DIM))
        rng = np.random.default_rng(2)
        workspace = Workspace()

        def infer():
            policy.act(obs, rng, workspace)
            policy.value(obs, workspace)

        infer()  # warm-up sizes the workspace
        tracemalloc.start()
        try:
            infer()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * hidden * 8, peak

    @pytest.mark.parametrize("hidden", [[64, 64], [512, 256, 128]])
    def test_stacked_one_row_forward_is_the_lone_forward(self, hidden):
        """Final scoring steps its episodes as the rows of one walker, and its
        recorded scores came from one episode at a time: the policy must act
        on each row as on a lone observation. A stack of one-row products,
        (E, 1, OBS_DIM), does so bit for bit; an (E, OBS_DIM) product need
        not, as BLAS may round a matrix product differently."""
        policy = Policy(hidden, hidden, seed=3)
        obs = np.random.default_rng(5).standard_normal((8, OBS_DIM))
        lone = np.stack([policy.act_deterministic(o) for o in obs])
        assert policy.act_deterministic(obs[:, None])[:, 0].tobytes() == lone.tobytes()


class TestDeterministicRollout:
    """Periodic evaluation and final scoring run one rollout,
    ``trainer.deterministic_rollout``."""

    @pytest.mark.parametrize("normalized", [False, True])
    def test_final_scoring_normalizes_only_a_stage_trained_normalized(
            self, tmp_path, monkeypatch, normalized):
        """A stage trained on raw observations is scored on raw ones, byte
        for byte; one trained through its normalizer, through the
        checkpoint's."""
        stage = tiny_stage(normalize_observations=normalized)
        result = train_stage(stage, tmp_path, eval_episodes=2, eval_max_steps=10)
        obs_norm = RunningNorm(OBS_DIM)
        restore_policy(load_checkpoint(result.checkpoint_path), Policy([64, 64], [64, 64], 0),
                       obs_norm)
        events = []  # (method, the observations it returned or was given)

        def spy(cls, name, record):
            def wrapped(self, *args, _real=vars(cls)[name]):
                out = _real(self, *args)
                events.append((name, record(args, out).copy()))
                return out
            monkeypatch.setattr(cls, name, wrapped)
        spy(env.VecEnv, "observe", lambda args, out: out)
        spy(env.DeskWalker, "step", lambda args, out: out[0])
        spy(Policy, "act_deterministic", lambda args, out: args[0][:, 0])
        orchestrator.final_scores(result.checkpoint_path, stage, episodes=2, horizon=10)
        acts = [i for i, (name, _) in enumerate(events) if name == "act_deterministic"]
        assert len(acts) == 10
        for i in acts:
            raw = events[i - 1][1]
            want = obs_norm.normalize(raw) if normalized else raw
            assert events[i][1].tobytes() == want.tobytes()

    def test_evaluation_and_final_scoring_step_only_through_the_shared_rollout(
            self, tmp_path, monkeypatch):
        """No other loop steps either walker; final scoring's steps go
        through ``DeskWalker.step``, which the benchmark's trace times."""
        stage = tiny_stage()
        rollout = trainer.deterministic_rollout.__code__
        walker_step = env.DeskWalker.step.__code__
        callers = set()
        for cls in (env.VecEnv, env.DeskWalker):
            def spy(self, actions, _real=vars(cls)["step"], _cls=cls.__name__):
                callers.add((_cls, sys._getframe(1).f_code))
                return _real(self, actions)
            monkeypatch.setattr(cls, "step", spy)
        program = reward.compile_program(stage.reward_doc["reward"], env.BINDING_SHAPES)
        trainer._evaluate(Policy([64, 64], [64, 64], seed=0), None,
                          stage.config_doc["environment"], {}, program, 0, 2, 5, Workspace())
        assert callers == {("VecEnv", rollout)}
        callers.clear()
        policy = Policy([64, 64], [64, 64], seed=0)
        save_checkpoint(tmp_path / "ckpt.bin", policy, RunningNorm(OBS_DIM), 0, {})
        orchestrator.final_scores(tmp_path / "ckpt.bin", stage, episodes=2, horizon=5)
        assert callers == {("DeskWalker", rollout), ("VecEnv", walker_step)}


class TestAdamAndNorm:
    def test_adam_descends_quadratic(self):
        params = {"x": np.array([5.0, -3.0])}
        opt = Adam(params, lr=0.1)
        for _ in range(500):
            opt.step({"x": 2 * params["x"]})
        np.testing.assert_allclose(params["x"], 0.0, atol=1e-3)

    def test_grad_clipping_bounds_norm(self):
        params = {"x": np.zeros(3)}
        opt = Adam(params, lr=1.0)
        before = params["x"].copy()
        opt.step({"x": np.full(3, 1e9)}, max_grad_norm=1.0)
        assert np.isfinite(params["x"]).all()
        assert np.linalg.norm(params["x"] - before) < 2.0

    def test_running_norm_identical_observations(self):
        norm = RunningNorm(3)
        x = np.tile([1.0, 2.0, 3.0], (100, 1))
        norm.update(x)
        # the epsilon prior (count 1e-8) shifts stats at the 1e-10 level
        np.testing.assert_allclose(norm.mean, [1, 2, 3], rtol=1e-9)
        out = norm.normalize(x[:1])  # variance floor: no division by zero
        assert np.isfinite(out).all()

    def test_running_norm_matches_batch_stats(self, rng):
        norm = RunningNorm(4)
        chunks = [rng.standard_normal((n, 4)) for n in (10, 1, 33)]
        for c in chunks:
            norm.update(c)
        full = np.concatenate(chunks)
        np.testing.assert_allclose(norm.mean, full.mean(0), atol=1e-8)
        np.testing.assert_allclose(norm.var, full.var(0), atol=1e-8)

    @pytest.mark.parametrize("rows,dtype", [(81_920, np.float32), (12_345, np.float64)])
    def test_running_norm_streams_the_one_pass_bytes(self, rows, dtype):
        """81,920 rows are a 4096-env rollout's observations. The update's
        statistics are the bytes of the one-pass ``batch.mean/var(axis=0,
        dtype=np.float64)`` over a prior state, and it holds no float64
        copy of the whole batch."""
        batch = (np.random.default_rng(3).standard_normal((rows, OBS_DIM)) * 2.0
                 + 0.5).astype(dtype)
        norm, ref = RunningNorm(OBS_DIM), RunningNorm(OBS_DIM)
        prior = np.random.default_rng(4).standard_normal((64, OBS_DIM))
        norm.update(prior)
        ref.update(prior)
        b_mean = batch.mean(axis=0, dtype=np.float64)
        b_var = batch.var(axis=0, dtype=np.float64)
        delta, total = b_mean - ref.mean, ref.count + rows
        tracemalloc.start()
        try:
            norm.update(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert norm.mean.tobytes() == (ref.mean + delta * rows / total).tobytes()
        assert norm.var.tobytes() == ((ref.var * ref.count + b_var * rows
                                       + delta * delta * ref.count * rows / total)
                                      / total).tobytes()
        assert norm.count == total
        assert peak < 2 * (trainer.ROW_CHUNK + 1) * OBS_DIM * 8 < rows * OBS_DIM * 8, peak


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        policy = small_policy(seed=3)
        norm = RunningNorm(policy.obs_dim)
        norm.update(rng.standard_normal((20, policy.obs_dim)))
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        state = np.random.default_rng(9).bit_generator.state
        save_checkpoint(p1, policy, norm, 1234, state)
        ckpt = load_checkpoint(p1)
        policy2 = small_policy(seed=99)
        norm2 = RunningNorm(policy.obs_dim)
        restore_policy(ckpt, policy2, norm2)
        obs = rng.standard_normal((4, policy.obs_dim))
        np.testing.assert_array_equal(policy.mean(obs), policy2.mean(obs))
        np.testing.assert_array_equal(policy.value(obs), policy2.value(obs))
        save_checkpoint(p2, policy2, norm2, ckpt.step_count, ckpt.rng_state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch(self, tmp_path):
        policy = small_policy()
        path = tmp_path / "c.bin"
        save_checkpoint(path, policy, RunningNorm(policy.obs_dim), 0,
                        np.random.default_rng(0).bit_generator.state)
        raw = bytearray(path.read_bytes())
        raw[4] ^= 0xFF  # flip the version
        path.write_bytes(bytes(raw))
        with pytest.raises(TrainerError) as e:
            load_checkpoint(path)
        assert e.value.code == "VERSION_MISMATCH"

    def test_truncated_or_padded_file_is_corrupt(self, tmp_path):
        policy = small_policy()
        path = tmp_path / "t.bin"
        save_checkpoint(path, policy, RunningNorm(policy.obs_dim), 0,
                        np.random.default_rng(0).bit_generator.state)
        raw = path.read_bytes()
        head_end = 10 + int.from_bytes(raw[6:10], "little")
        # inside the version, the header length, the header, the arrays
        cuts = [5, 8, head_end - 3, head_end, (head_end + len(raw)) // 2, len(raw) - 1]
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(TrainerError) as e:
                load_checkpoint(path)
            assert e.value.code == "CHECKPOINT_CORRUPT", cut
        path.write_bytes(raw + b"\0")
        with pytest.raises(TrainerError) as e:
            load_checkpoint(path)
        assert e.value.code == "CHECKPOINT_CORRUPT"

    def test_header_missing_keys_is_corrupt(self, tmp_path):
        path = tmp_path / "h.bin"
        for head in (b"{}", b'{"arrays": [{"name": "x"}]}', b"[1]", b"\xff"):
            path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(head))
                             + head)
            with pytest.raises(TrainerError) as e:
                load_checkpoint(path)
            assert e.value.code == "CHECKPOINT_CORRUPT", head

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"garbage here")
        with pytest.raises(TrainerError) as e:
            load_checkpoint(path)
        assert e.value.code == "VERSION_MISMATCH"

    def test_shape_mismatch_on_resume(self, tmp_path):
        policy = small_policy()
        path = tmp_path / "e.bin"
        save_checkpoint(path, policy, RunningNorm(policy.obs_dim), 0,
                        np.random.default_rng(0).bit_generator.state)
        other = Policy([16, 16], [16, 16], seed=0,
                       obs_dim=policy.obs_dim, act_dim=policy.act_dim)
        with pytest.raises(TrainerError) as e:
            restore_policy(load_checkpoint(path), other,
                           RunningNorm(policy.obs_dim))
        assert e.value.code == "CHECKPOINT_SHAPE_MISMATCH"


# -- one BLAS thread --------------------------------------------------------------

def tiny_stage(**trainer_keys):
    """Desk stage 1 at one PPO iteration (64 envs x 20 steps, 4 minibatches
    of 320 rows under the desk profile) and one evaluation."""
    stage = parse_bundle(DESK).stages[0]
    config = copy.deepcopy(stage.config_doc)
    config["trainer"].update(num_timesteps=TINY_STEPS, num_evals=1, **trainer_keys)
    return dataclasses.replace(stage, config_doc=config)


def train_tiny(out_dir, paper_scale=False, **trainer_keys):
    """The tiny stage, trained with two 10-step evaluation episodes; the
    desk config's sizes are the desk profile's, so under ``paper_scale``
    only the compute dtype differs."""
    return train_stage(tiny_stage(**trainer_keys), out_dir, paper_scale=paper_scale,
                       eval_episodes=2, eval_max_steps=10)


def train_paper_nets(out_dir):
    """Tune stage 1 at paper scale, on its [512, 256, 128] nets in float32,
    for one iteration of 64 envs x 80 steps: one epoch of 3 minibatches of
    1,707, 1,707 and 1,706 rows, whose weight gradients round differently on
    two OpenBLAS threads than on one. Two 10-step evaluation episodes."""
    stage = parse_bundle(DESK.parent / "tune").stages[0]
    config = trainer.desk_profile(stage.config_doc, paper_scale=True)
    config["trainer"].update(num_envs=64, unroll_length=80, num_timesteps=64 * 80,
                             num_minibatches=3, num_updates_per_batch=1, num_evals=1)
    return train_stage(dataclasses.replace(stage, config_doc=config), out_dir,
                       paper_scale=True, eval_episodes=2, eval_max_steps=10)


# trains the paper-net stage into argv[1] in a fresh interpreter, with
# argv[2:] put first on its path, after printing the BLAS thread count it
# started on (None: no OpenBLAS to drive)
PAPER_NETS_CHILD = """
import sys
sys.path[:0] = sys.argv[2:]
from stageflow import trainer
from test_trainer import train_paper_nets
fns = trainer._openblas()
print(fns[0]() if fns else None)
train_paper_nets(sys.argv[1])
"""


@pytest.fixture
def blas_threads():
    """The BLAS thread-count getter, with the caller's count set to 2 for
    the test and put back after it."""
    fns = trainer._openblas()
    if fns is None:
        pytest.skip("numpy's BLAS thread count cannot be set here")
    get, set_ = fns
    before = get()
    set_(2)
    yield get
    set_(before)


class TestBlasThreadPolicy:
    @pytest.mark.parametrize("train", [train_tiny, train_paper_nets], ids=["desk", "paper nets"])
    def test_a_desk_stage_trains_on_one_thread_and_restores_the_callers(
            self, tmp_path, monkeypatch, blas_threads, train):
        """Every phase, the paper nets' 1,707-row update chunks included,
        runs on one thread."""
        seen = {}
        for name in ("_collect", "ppo_update", "_evaluate"):
            def spy(*args, _real=getattr(trainer, name), _name=name, **kwargs):
                seen.setdefault(_name, set()).add(blas_threads())
                return _real(*args, **kwargs)
            monkeypatch.setattr(trainer, name, spy)
        train(tmp_path)
        assert seen == {"_collect": {1}, "ppo_update": {1}, "_evaluate": {1}}
        assert blas_threads() == 2

    def test_a_raising_stage_restores_the_callers_count(self, tmp_path, blas_threads):
        # the first Adam step blows the weights up; the next loss is not finite
        with pytest.raises(TrainerError) as e:
            train_tiny(tmp_path, learning_rate=1e12)
        assert e.value.code == "NON_FINITE_LOSS"
        assert blas_threads() == 2

    def test_the_lookup_finds_the_wheels_openblas(self):
        """numpy wheels link scipy-openblas; if the lookup stops finding it,
        every stage silently keeps the caller's thread count."""
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
        if name != "scipy-openblas":
            pytest.skip(f"numpy is built against {name!r}")
        get, set_ = trainer._openblas()
        before = get()
        set_(1)
        try:
            assert get() == 1
        finally:
            set_(before)

    def test_outputs_are_byte_identical_with_the_policy_engaged_or_not(
            self, tmp_path, monkeypatch):
        """With no BLAS found, the stage runs as BLAS is set, and a desk
        stage keeps its bytes."""
        train_tiny(tmp_path / "engaged")
        monkeypatch.setattr(trainer, "_openblas", lambda: None)
        train_tiny(tmp_path / "off")
        for name in ("metrics.jsonl", "checkpoint.bin"):
            assert ((tmp_path / "engaged" / name).read_bytes()
                    == (tmp_path / "off" / name).read_bytes()), name

    def test_a_paper_width_stage_writes_the_same_bytes_on_any_thread_count(self, tmp_path):
        """Three fresh interpreters, started with ``OPENBLAS_NUM_THREADS``
        1, 2 and 4, train the paper-net stage to the same bytes."""
        path = [str(Path(trainer.__file__).resolve().parents[1]),
                str(Path(__file__).resolve().parent)]
        started = []
        for threads in (1, 2, 4):
            child = subprocess.run(
                [sys.executable, "-c", PAPER_NETS_CHILD, str(tmp_path / str(threads)), *path],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads)),
                capture_output=True, text=True, timeout=120)
            assert child.returncode == 0, child.stderr
            started.append(child.stdout.split()[0])
        # where there are cores for them, the children started on other counts
        if started[0] != "None" and len(os.sched_getaffinity(0)) > 1:
            assert started[:2] == ["1", "2"]
        for name in ("metrics.jsonl", "checkpoint.bin"):
            one, two, four = ((tmp_path / t / name).read_bytes() for t in ("1", "2", "4"))
            assert one == two == four, name

def shipped_stages():
    """(bundle, stage index) of every stage of every shipped bundle."""
    return [(name, i) for name in ("desk", "tune", "blind")
            for i in range(len(parse_bundle(DESK.parent / name).stages))]


class TestTrainStage:
    @pytest.mark.parametrize("name,index", shipped_stages())
    def test_every_shipped_stage_trains_one_iteration(self, tmp_path, name, index):
        """Each stage of each shipped bundle, as a first stage, trains one
        4-env PPO iteration: its reward evaluates on the walker's bindings."""
        stage = parse_bundle(DESK.parent / name).stages[index]
        config = copy.deepcopy(stage.config_doc)
        config["trainer"].update(num_envs=4, num_timesteps=80, num_evals=1)
        stage = dataclasses.replace(stage, config_doc=config, resume_from_checkpoint=False)
        result = train_stage(stage, tmp_path, eval_episodes=2, eval_max_steps=10)
        assert result.env_steps == 4 * config["trainer"]["unroll_length"]
        assert len(result.metrics) == 1

    @pytest.mark.parametrize("config_seed,seed", [(0, -1), (-2, None)])
    def test_a_negative_seed_is_refused_before_anything_is_built(
            self, tmp_path, config_seed, seed):
        """numpy refuses negative seeds; the stage says so in a finding
        instead of a bare ValueError, and writes nothing."""
        out = tmp_path / "stage"
        with pytest.raises(TrainerError) as e:
            train_stage(tiny_stage(seed=config_seed), out, seed=seed)
        assert e.value.code == "TYPE_ERROR"
        assert not out.exists()

    @pytest.mark.parametrize("key,value,code", [
        ("normalize_observations", "false", "TYPE_ERROR"),
        ("discounting", 1.5, "GAMMA_RANGE"),
        ("num_envs", 48, "POWER_OF_TWO")])
    def test_a_value_validation_refuses_is_refused_before_anything_is_built(
            self, tmp_path, key, value, code):
        """The stage reads its config through the table ``validate`` walks,
        so it refuses what validation refuses, with the same code, and
        writes nothing."""
        out = tmp_path / "stage"
        with pytest.raises(TrainerError) as e:
            train_stage(tiny_stage(**{key: value}), out)
        assert (e.value.code, e.value.message.split(":")[0]) == (code, f"trainer.{key}")
        assert not out.exists()


# -- the float32 path --------------------------------------------------------------

class TestFloat32Path:
    """Paper-scale stages compute in float32 over float64 master weights."""

    def test_loss_and_gradients_match_float64_within_float32_rounding(self, rng):
        policy = Policy([64, 64], [64, 64], seed=0)
        batch = small_batch(policy, rng, n=512)
        loss64, grads64, _ = ppo_loss(policy, batch, 0.2, entropy_cost=1e-3)
        batch32 = {k: v.astype(np.float32) for k, v in batch.items()}
        loss32, grads32, _ = ppo_loss(policy, batch32, 0.2, entropy_cost=1e-3)
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        assert grads32.keys() == grads64.keys()
        for name, g in grads64.items():
            assert grads32[name].dtype == np.float32, name
            np.testing.assert_allclose(grads32[name], g, rtol=1e-3,
                                       atol=1e-5 * np.abs(g).max(), err_msg=name)

    @pytest.mark.parametrize("paper_scale,dtype", [(False, np.float64), (True, np.float32)])
    def test_every_row_buffer_is_in_the_stages_dtype(self, tmp_path, monkeypatch,
                                                      paper_scale, dtype):
        made = []

        class Recorded(Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(trainer, "Workspace", Recorded)
        train_tiny(tmp_path, paper_scale=paper_scale)
        workspace, = made
        assert {b.dtype for name, b in workspace._bufs.items()
                if name != "unclipped_active"} == {np.dtype(dtype)}

    def test_the_first_minibatch_ratio_is_one(self, tmp_path, monkeypatch):
        """Collection's log-probs and the first loss's agree: the same
        float32 weights, observations and actions."""
        ratios = []
        real = trainer.ppo_loss

        def spy(policy, batch, *args, workspace, **kwargs):
            out = real(policy, batch, *args, workspace=workspace, **kwargs)
            if not ratios:  # ppo_loss computes the ratio over its new_logp buffer
                n = len(batch["obs"])
                ratios.append(workspace.take("new_logp", (n,), np.float32).copy())
            return out

        monkeypatch.setattr(trainer, "ppo_loss", spy)
        train_tiny(tmp_path, paper_scale=True)
        ratio, = ratios
        assert ratio.shape == (320,)
        assert np.abs(ratio - 1.0).max() < 1e-4

    def test_two_paper_scale_stages_give_the_same_bytes(self, tmp_path):
        for run in ("a", "b", "desk"):
            train_tiny(tmp_path / run, paper_scale=run != "desk")
        for name in ("metrics.jsonl", "checkpoint.bin"):
            a, b, desk = ((tmp_path / run / name).read_bytes() for run in ("a", "b", "desk"))
            assert a == b, name
            assert a != desk, name  # float32 differs from the desk stage's float64

    def test_a_paper_scale_checkpoint_is_float64_and_restores_into_a_desk_stage(
            self, tmp_path):
        paper = train_tiny(tmp_path / "paper", paper_scale=True).checkpoint_path
        ckpt = load_checkpoint(paper)
        assert {a.dtype for a in ckpt.arrays.values()} == {np.dtype(np.float64)}
        # the master weights are not float32 values stored as float64
        w = ckpt.arrays["params/policy/W0"]
        assert (w.astype(np.float32).astype(np.float64) != w).any()
        result = train_stage(tiny_stage(), tmp_path / "desk", checkpoint_in=paper,
                             eval_episodes=2, eval_max_steps=10)
        assert load_checkpoint(result.checkpoint_path).step_count == TINY_STEPS

    def test_a_blown_up_paper_scale_stage_is_a_non_finite_loss(self, tmp_path):
        with pytest.raises(TrainerError) as e:
            train_tiny(tmp_path, paper_scale=True, learning_rate=1e12)
        assert e.value.code == "NON_FINITE_LOSS"


# -- exact one-pass reductions ------------------------------------------------

REDUCTION_WIDTHS = list(range(1, 10)) + [26, 64]
REDUCTION_ROWS = [1, 7, 320, 4096, 5000]


def reduction_values(rng, shape, dtype, special):
    """Values of many magnitudes, so that a sum in another order rounds
    differently; ``special`` 1 adds -0.0 entries, 2 also +-inf and NaNs of
    both signs, 3 is all -0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    if special == 3:
        return np.full(shape, -0.0, dtype=dtype)
    u = rng.random(shape)
    if special:
        x[u < 0.3] = -0.0
    if special == 2:
        x[u > 0.97] = np.inf
        x[(u > 0.95) & (u <= 0.97)] = -np.inf
        x[(u > 0.94) & (u <= 0.95)] = np.nan
        x[(u > 0.93) & (u <= 0.94)] = -np.nan
    return x.astype(dtype)


def row_views(base, width):
    """(rows, width) arrays in the layouts a per-row sum meets, cut from one
    (rows, 2, 2 * max width) array: contiguous, every other column, one
    slice of a (rows, 2, width) array, and a transposed copy, whose rows are
    not its outer axis."""
    return {"contiguous": np.ascontiguousarray(base[:, 0, :width]),
            "strided": base[:, 0, :2 * width:2],
            "sliced": base[:, 1, :width],
            "transposed": np.ascontiguousarray(base[:, 0, :width].T).T}


def reduction_cases(rng, dtype):
    """(width, rows, special, layout, array) over every width, row count,
    ``special`` value set and layout."""
    for rows, special in itertools.product(REDUCTION_ROWS, range(4)):
        base = reduction_values(rng, (rows, 2, 2 * max(REDUCTION_WIDTHS)), dtype, special)
        for width in REDUCTION_WIDTHS:
            views = row_views(base, width)
            views["two per row"] = np.ascontiguousarray(base[:, :, :width])
            for layout, x in views.items():
                yield width, rows, special, layout, x


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.filterwarnings("ignore:invalid value")
class TestExactReductions:
    """``reductions.column_sums`` and ``reductions.row_sums`` give numpy's
    ``.sum`` bytes, sign bits and NaNs included (``trainer`` docstring,
    Reductions)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("column_rows", [reductions.COLUMN_SUM_ROWS, 1])
    def test_column_sums_are_sums_down_the_rows(self, dtype, column_rows, monkeypatch):
        """At the shipped row threshold and in one pass at every row count."""
        monkeypatch.setattr(reductions, "COLUMN_SUM_ROWS", column_rows)
        for *case, x in reduction_cases(np.random.default_rng(0), dtype):
            if x.ndim == 2:
                assert same_bytes(reductions.column_sums(x), x.sum(axis=0)), case

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("column_rows", [reductions.COLUMN_SUM_ROWS, 1])
    def test_last_axis_sums_are_row_sums(self, dtype, column_rows, monkeypatch):
        """At the shipped row threshold and with column adds at every row
        count, into a fresh array and into ``out``; per-row axes before the
        last one stay."""
        monkeypatch.setattr(reductions, "COLUMN_SUM_ROWS", column_rows)
        for *case, x in reduction_cases(np.random.default_rng(1), dtype):
            want = x.sum(axis=-1)
            assert same_bytes(reductions.row_sums(x), want), case
            out = np.empty(want.shape, dtype)
            assert reductions.row_sums(x, out=out) is out and same_bytes(out, want), case

    @pytest.mark.parametrize("column_rows", [reductions.COLUMN_SUM_ROWS, 1])
    def test_per_row_sums_over_several_axes(self, column_rows, monkeypatch):
        """A reward value's per-row sum over all its per-row axes, on the
        binding layouts: whole (rows, 2, 3) arrays, ``feet_pos``-style slices
        (one axis, both feet's x and y, one foot), ``xd.vel``'s unit axis."""
        monkeypatch.setattr(reductions, "COLUMN_SUM_ROWS", column_rows)
        rng = np.random.default_rng(2)
        for rows, special in itertools.product(REDUCTION_ROWS, range(4)):
            feet = reduction_values(rng, (rows, 2, 3), np.float64, special)
            vel = reduction_values(rng, (rows, 3), np.float64, special)
            for layout, x in {"whole": feet, "z of both feet": feet[:, :, 2],
                              "xy of both feet": feet[:, :, 0:2], "one foot": feet[:, 0:1, :],
                              "unit axis": vel[:, None, :]}.items():
                axes = tuple(range(1, x.ndim))
                assert same_bytes(reward._row_sum(x, axes), x.sum(axis=axes)), \
                    (rows, special, layout)
