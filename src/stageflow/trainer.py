"""PPO with the clipped surrogate objective over the vectorized desk env.

Everything is plain numpy: MLP forward/backward, the PPO loss and its analytic
gradient, Adam, and GAE. Gradients are hand-derived and pinned against
finite differences in the tests. Single process, CPU, deterministic under a
fixed seed.

One buffer set per stage. ``train_stage`` owns one :class:`Workspace` and
passes it through ``ppo_update`` to ``ppo_loss`` and ``mlp_forward``, which
write every row-sized intermediate (minibatch gather, activations, SiLU
derivatives, log-prob terms) into its buffers in place, in the rounding
order of the plain expressions their comments give. ``mlp_forward`` names
buffers by layer alone (``z0``, ``a0``, ...): ``ppo_loss`` runs the policy
net's forward and backward and the ``log_std`` gradient, then the value
net's over the same buffers, and ``_collect`` and evaluation's
:func:`deterministic_rollout` run ``Policy`` inference on them too, in
prefixes the update has sized. An array taken from a workspace is valid
until its name is taken again: ``Policy.mean``/``value`` return views valid
until the next forward (a throwaway workspace when none is given), and
``mlp_backward`` writes the gradient flowing into each hidden activation
over it. ``ppo_loss`` returns fresh gradient arrays, in the order policy,
``log_std``, value. No buffer of an update or of the observation normalizer
holds more than ``ROW_CHUNK`` (4,096) rows, whatever the minibatch or the
rollout: ``ppo_update`` normalizes a minibatch's advantages over all its
rows, then gathers it and runs ``ppo_loss`` one chunk of at most
``ROW_CHUNK`` rows at a time, adding the chunks' gradients into one float64
set for one Adam step, and ``RunningNorm.update`` sums its float64 mean and
variance over row blocks of ``ROW_CHUNK``. A 4096-env stage's 20,480-row
minibatches then hold a fifth of the activations, and its normalizer no
float64 copy of the 81,920-row rollout (peak RSS: ``BENCH_23.json``).
Inference stays whole, on the rollout's ``num_envs`` or the evaluation's
episodes: a forward pass in chunks rounds differently from a whole one.

SiLU blocks. The backward reads, per hidden layer, only the layer's input
and its SiLU derivative, so that is all a forward keeps: under ``grad``,
which ``ppo_loss(with_grads=True)`` alone sets, two row-sized arrays per
hidden layer, the activation ``a{i}`` and, over the pre-activation
``z{i}``, the derivative ``s * (1 + z * (1 - s))``. Inference keeps one,
the activation written over ``z{i}``, so ``a{i}`` is taken by update chunks
alone (a paper-scale rollout's 8,192 rows: ``BENCH_24.json``). The sigmoid
``s`` and ``1 - s`` live in two scratch arrays of one block of
``SILU_ROWS`` rows, shared by every layer: each block writes
``a = z * s``, then the derivative over its rows of z, and ``mlp_backward``
only multiplies the gradient by it. A layer whose rows fit in one block works
on whole arrays. Block size barely moves time but sets the scratch, so the
block is the smallest size measured (the ``BENCH_15.json`` entry of
CHANGES.md). Each block rounds every element as the whole-array expression
does: ``tests/data/silu_blocks_golden.json``, recorded before the SiLU ran
in blocks, held byte for byte. Re-recorded when updates began to run in row
chunks (Precision), it pins an update and inference across several blocks.

Precision. A stage computes in one dtype, :func:`compute_dtype`: float32
under ``paper_scale``, as GPU PPO frameworks train, and float64 otherwise.
In that dtype are the rollout arrays the update reads (observations, raw
actions, log-probs, and the advantages and returns cast from GAE), the
minibatch gathers and every workspace buffer: every forward and backward of
the rollout, the update and evaluation runs in it (a 4096-env stage on the
desk nets took 36% fewer CPU seconds: ``BENCH_19.json``). ``mlp_forward``
and ``mlp_backward`` run in their input's dtype and cast each weight and
bias to it, as ``ppo_loss`` and ``Policy._logp`` cast ``log_std``; at
float64 the casts are no-ops. ``Policy.act`` draws its noise in float64 and
casts the raw action before the squash and the log-prob, so the env's
action, the stored action and ``old_logp`` agree. The masters stay float64:
the parameters, ``Adam``'s flat buffers (the gradients are copied into its
float64 buffer), ``RunningNorm``'s statistics, GAE, checkpoints and final
scoring. Desk-profile stages are float64 end to end; the ``walker2`` replay
digests and every golden in ``tests/data`` pin their bytes. A minibatch of
at most ``ROW_CHUNK`` rows is one chunk, and keeps the bytes it had before
updates ran in chunks: its gradients are copied into the float64 set, and
its loss parts are its means. A larger one (paper-scale stages, and 4096-env
ones under the desk profile) adds each chunk's gradients, already divided by
the minibatch's rows, in float64 in chunk order, and each chunk's loss
parts, its sums over the minibatch's rows; so it differs from one pass over
its rows in rounding only, and ``tests/data/silu_blocks_golden.json`` pins
such updates. The normalizer's blocks keep every byte at any row count
(``RunningNorm.update``).

Reductions. numpy's ``.sum`` down the rows of a 2-D array, or over a
short last axis, runs its reduce loop once per row; from
``reductions.COLUMN_SUM_ROWS`` (512) rows the update and the reward make
those sums in array passes instead, with numpy's bytes in both dtypes
(``reductions`` docstring). Sums down the rows (the bias gradients of
``mlp_backward``, the ``log_std`` gradient and ``_row_block_sum``) go
through ``reductions.column_sums``: numpy adds a C-contiguous array of two
or more columns one row at a time, in row order, from 0.0, and
``np.einsum("ij->j")`` makes the same adds in one pass. A single column, the
value head's output bias, keeps ``.sum(axis=0)``, as numpy sums a
contiguous column pairwise. The ``ACTION_DIM`` (8) wide log-prob sums of
``ppo_loss`` and ``Policy._logp``, and the reward's row sums and norms, go
through ``reductions.row_sums``, which adds columns in numpy's order: fewer
than 8 in sequence from 0.0, exactly 8 as numpy's pairwise block
``((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))``, and more than 8
through ``.sum``. Both are exact because each output element goes through
the same IEEE adds in the same order; only which of two NaNs an add keeps
follows the compiled operand order, so a NaN result is summed again by
``.sum``. ``TestExactReductions`` in ``tests/test_trainer.py`` and every
golden pin the bytes. Desk-width calls (64-row acts, 256-row reward blocks,
320-row minibatches) stay under the threshold and run numpy's own loop; a
4096-env stage computes the same ``eval_reward`` in less CPU time
(``BENCH_27.json``).

Flat-buffer Adam. ``Adam`` keeps the parameters, both moments and the
gradient in one float64 buffer each, laid out in the order of the params
dict it is built with; that dict's values and ``Adam.m``/``Adam.v`` become
reshaped views into those buffers, so the dict API, checkpoints and the
update golden are unchanged. ``step`` copies the gradient arrays in, then
runs each of its ~14 update ops once over the whole buffer instead of once
per parameter array (13 arrays at the desk nets), in the rounding order of
the per-array expressions its comments give. The global-norm clip still
sums each array's squares on its own, then adds those sums in the order of
the gradient dict. A parameter array rebound after construction (say, by a
restore) is no longer updated; ``train_stage`` restores before it builds
the optimizer.

Reward blocks. No rollout evaluates the reward on every step: the env
copies each step's state into the rows of its current reward block
(``env.VecEnv`` docstring), and once per block the reward is evaluated by
``eval_total_batch`` on the block's bindings, built once over all its rows,
so that a row is a (step, env) pair. A block is as many whole steps as fit
in ``env.REWARD_ROWS`` (256) rows, and at least one: 4 steps at 64 envs, 16
at the 16 evaluation envs, one at 4096 envs; final scoring reads its whole
rollout as one block. This is exact, because neither a reward program
(``reward`` docstring) nor a binding build combines rows, and nothing in a
rollout reads a step's reward before its block is evaluated. What stays per
step: the action, the env step, the state copy and ``done``. The reward
program is compiled once per stage into closures over raw arrays, whose
cost is still mostly per node rather than per row, so a block costs about
what one step would. Compiled programs and block bindings halved a 256-row
``tune`` reward call; their end-to-end effect on ``tune_desk64``'s CPU time
is unresolved, inside that workload's spread (``BENCH_25.json``). The cap
bounds what a block holds, as larger blocks raised peak RSS for no clear
wall-time gain (``BENCH_11.json`` and its probes).
``tests/data/rollout_golden.json`` pins ``_collect`` and ``_evaluate`` byte
for byte, recorded before rewards were blocked.

One deterministic rollout. Periodic evaluation (``_evaluate``) and final
scoring (``orchestrator.final_scores``) step their walkers through one
generator, :func:`deterministic_rollout`: the deterministic policy acts
until every row has finished or the step cap is reached, and each reward
block comes back with the alive mask of each of its steps, so a row's steps
after its first ``done`` are never counted. Evaluation sums the block's
reward terms under those masks in step order; final scoring reads its one
block with ``scoring.score_triple``. The policy sees each observation
through the stage's normalizer only when the stage trained through one
(``trainer.normalize_observations``): a stage is evaluated and scored on
the observations it trained on. The two differ only in the forward's
shape: evaluation acts on all rows in one product, final scoring on a stack
of one-row products, the rounding its recorded scores have.

One BLAS thread. ``train_stage`` runs on one thread of the OpenBLAS numpy
links and restores the caller's count when it returns or raises; with any
other BLAS (MKL, Accelerate) it leaves the count as found. So a stage's
bytes do not depend on the core count: the weight gradient ``h.T @ grad``,
a product over a chunk's rows, can round differently on two OpenBLAS
threads than on one, and a paper-width stage with uneven minibatches wrote
other bytes on 2 and 4 threads than on 1 before stages ran on one thread
(``BENCH_26.json``, ``probes.thread_bytes``). Parallelism belongs to
processes, one stage per core. The price is a lone paper-scale stage's wall
time: ``tools/stage_memory.py --paper-scale`` on 2 vCPUs took 18-33% more
wall time, 2-12% less CPU time and 6 MB less peak RSS than with a second
thread, for the same ``eval_reward`` (``BENCH_26.json``,
``probes.stage_memory_paper_scale``).
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import io
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import ACTION_DIM, BINDING_SHAPES, OBS_DIM, VecEnv
from .errors import TrainerError
from .reductions import column_sums, row_sums
from .reward import RewardProgram, compile_program, eval_total_batch
from .schema import KEYS, StageBundle, stage_config

CHECKPOINT_MAGIC = b"SFCP"
CHECKPOINT_VERSION = 1

GAE_LAMBDA = 0.95       # conventional default
VALUE_LOSS_COEF = 0.5   # c_v default
LOGP_EPS = 1e-6
LOG2PI = math.log(2.0 * math.pi)

# rows of a hidden layer whose SiLU one block computes: the sigmoid and
# ``1 - s`` live in block-sized scratch (module docstring)
SILU_ROWS = 512

# rows one update chunk or one normalizer block holds at most: a minibatch
# runs its forward and backward a chunk at a time (module docstring)
ROW_CHUNK = 4096


# -- generalized advantage estimation -----------------------------------------

def gae(rewards, values, dones, gamma: float, lam: float = GAE_LAMBDA):
    """Backward GAE recursion.

    rewards, dones: (T, ...) ; values: (T+1, ...) with the bootstrap row last.
    delta_t = r_t + gamma * v_{t+1} * (1 - done_t) - v_t
    A_t     = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    T = rewards.shape[0]
    if values.shape[0] != T + 1 or dones.shape[0] != T:
        raise TrainerError(
            "LENGTH_MISMATCH",
            f"need values of length T+1 and dones of length T, got "
            f"rewards {rewards.shape}, values {values.shape}, dones {dones.shape}",
        )
    advantages = np.zeros_like(rewards)
    acc = np.zeros_like(rewards[0] if rewards.ndim > 1 else rewards[:1][0])
    for t in range(T - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * values[t + 1] * nonterminal - values[t]
        acc = delta + gamma * lam * nonterminal * acc
        advantages[t] = acc
    returns = advantages + values[:-1]
    return advantages, returns


# -- MLPs with hand-rolled backprop -------------------------------------------

class Workspace:
    """Named scratch arrays reused across calls.

    ``take(name, shape, dtype)`` returns a C-contiguous array of that shape
    and dtype backed by the name's one buffer, which only grows: a smaller
    request of its dtype reuses a prefix, a larger one or another dtype
    replaces the buffer, so a change of minibatch rows or layer width never
    keeps a second set. The dtype has no default, so that no buffer of a
    float32 pass is float64 by omission."""

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple, dtype) -> np.ndarray:
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._bufs[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def init_mlp(rng: np.random.Generator, sizes: list, prefix: str,
             final_scale: float = 1.0) -> dict:
    """He-initialized dense layers, last layer optionally scaled down."""
    params = {}
    n_layers = len(sizes) - 1
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        scale = math.sqrt(2.0 / fan_in)
        if i == n_layers - 1:
            scale *= final_scale
        params[f"{prefix}/W{i}"] = rng.normal(0.0, scale, (fan_in, fan_out))
        params[f"{prefix}/b{i}"] = np.zeros(fan_out)
    return params


def _mlp_layers(params: dict, prefix: str) -> int:
    n = 0
    while f"{prefix}/W{n}" in params:
        n += 1
    return n


def mlp_forward(params: dict, prefix: str, x: np.ndarray,
                workspace: Workspace | None = None, grad: bool = False):
    """SiLU between layers, linear output, in the dtype of ``x``, to which
    each weight and bias is cast. Returns (y, cache), the cache None unless
    ``grad``.

    y and the cache live in ``workspace`` (a throwaway one when none is given)
    under names of the layer alone: a forward overwrites the last one's. The
    cache holds, per layer, its input and, for a hidden layer under ``grad``,
    its SiLU derivative, written over the layer's pre-activation: what
    ``mlp_backward`` reads, and nothing more (module docstring). Without
    ``grad`` each hidden layer's SiLU is written over its pre-activation, so
    inference takes no ``a{i}`` buffer."""
    ws = Workspace() if workspace is None else workspace
    n = _mlp_layers(params, prefix)
    cache = []
    h = x
    for i in range(n):
        w = params[f"{prefix}/W{i}"].astype(x.dtype, copy=False)
        z = np.matmul(h, w, out=ws.take(f"z{i}", (*h.shape[:-1], w.shape[1]), x.dtype))
        z += params[f"{prefix}/b{i}"].astype(x.dtype, copy=False)
        if i == n - 1:
            cache.append((h, None))
            return z, cache if grad else None
        a = ws.take(f"a{i}", z.shape, z.dtype) if grad else z
        _silu(z, a, ws, grad)
        cache.append((h, z))
        h = a


def _silu(z: np.ndarray, a: np.ndarray, ws: Workspace, grad: bool) -> None:
    """a = z * s with s = 1 / (1 + exp(-z)), one block of ``SILU_ROWS`` rows
    at a time, s in block scratch; ``a`` may be ``z``. Under ``grad`` each
    block's z is then overwritten by the SiLU derivative s * (1 + z * (1 - s))."""
    rows = z.size // z.shape[-1]
    if rows <= SILU_ROWS:
        blocks = ((z, a),)
    else:
        z2, a2 = z.reshape(rows, -1), a.reshape(rows, -1)
        blocks = ((z2[r:r + SILU_ROWS], a2[r:r + SILU_ROWS])
                  for r in range(0, rows, SILU_ROWS))
    for zb, ab in blocks:
        s = np.negative(zb, out=ws.take("silu/s", zb.shape, zb.dtype))
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        np.multiply(zb, s, out=ab)
        if grad:  # z * (1 - s) rounds as (1 - s) * z does
            zb *= np.subtract(1.0, s, out=ws.take("silu/1-s", zb.shape, zb.dtype))
            zb += 1.0
            zb *= s


def mlp_backward(params: dict, prefix: str, cache: list, dy: np.ndarray) -> dict:
    """Gradient of a scalar loss w.r.t. each layer's W/b, given dL/dy and the
    cache of a ``grad`` forward, in the dtype of ``dy``.

    The SiLU derivative of layer i-1's output is applied when the loop
    reaches it. Consumes ``cache``: once layer i has taken its weight
    gradient, the gradient flowing into its input activation is written over
    that activation. The returned gradients are fresh arrays."""
    grads = {}
    grad = dy
    for i in range(len(cache) - 1, -1, -1):
        h, silu_derivative = cache[i]
        if silu_derivative is not None:
            grad *= silu_derivative
        grads[f"{prefix}/W{i}"] = h.T @ grad
        grads[f"{prefix}/b{i}"] = column_sums(grad)
        if i > 0:
            w = params[f"{prefix}/W{i}"].astype(grad.dtype, copy=False)
            grad = np.matmul(grad, w.T, out=h)
    return grads


class Policy:
    """Diagonal-Gaussian policy with tanh squash plus a value head, stored as
    one flat dict of float64 parameter arrays."""

    def __init__(self, policy_hidden, value_hidden, seed: int,
                 obs_dim: int = OBS_DIM, act_dim: int = ACTION_DIM):
        rng = np.random.default_rng(seed)
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.policy_sizes = [obs_dim, *policy_hidden, act_dim]
        self.value_sizes = [obs_dim, *value_hidden, 1]
        self.params = {}
        self.params.update(init_mlp(rng, self.policy_sizes, "policy", final_scale=0.01))
        self.params.update(init_mlp(rng, self.value_sizes, "value"))
        self.params["log_std"] = np.full(act_dim, -0.5)

    def mean(self, obs: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
        y, _ = mlp_forward(self.params, "policy", obs, workspace)
        return y

    def value(self, obs: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
        y, _ = mlp_forward(self.params, "value", obs, workspace)
        return y[..., 0]

    def act(self, obs: np.ndarray, rng: np.random.Generator, workspace: Workspace | None = None):
        """Sample raw (pre-squash) actions: (raw, squashed, logp), in the
        dtype of ``obs``. The normal draws are float64 whatever that dtype;
        raw is cast to it before the squash and the log-prob, so the action
        the env takes, the one stored and its log-prob agree."""
        mean = self.mean(obs, workspace)
        std = np.exp(self.params["log_std"])
        raw = (mean + std * rng.standard_normal(mean.shape)).astype(mean.dtype, copy=False)
        return raw, np.tanh(raw), self._logp(mean, raw)

    def act_deterministic(self, obs: np.ndarray,
                          workspace: Workspace | None = None) -> np.ndarray:
        return np.tanh(self.mean(obs, workspace))

    def _logp(self, mean: np.ndarray, raw: np.ndarray) -> np.ndarray:
        log_std = self.params["log_std"].astype(mean.dtype, copy=False)
        var = np.exp(2.0 * log_std)
        gauss = -0.5 * row_sums(((raw - mean) ** 2) / var + 2.0 * log_std + LOG2PI)
        correction = row_sums(np.log(1.0 - np.tanh(raw) ** 2 + LOGP_EPS))
        return gauss - correction


# -- PPO loss with analytic gradient ------------------------------------------

def ppo_loss(policy: Policy, batch: dict, clip_eps: float,
             value_coef: float = VALUE_LOSS_COEF, entropy_cost: float = 0.0,
             with_grads: bool = True, workspace: Workspace | None = None,
             rows: int | None = None):
    """loss = -L_clip + c_v * value_loss - entropy_cost * entropy.

    ``batch``: obs, raw_actions, old_logp, advantages, returns (numpy arrays
    of one dtype, in which the loss and its gradients are computed).
    Returns (loss, grads, parts); grads is None when with_grads=False.
    Intermediates live in ``workspace`` (a throwaway one when none is given);
    the value net runs after the policy net, over the same activations.

    ``rows`` is the row count of the minibatch that ``batch`` is one chunk
    of (by default its own). The loss, the policy and value parts and the
    gradients are then the chunk's share of the minibatch's: each per-row
    term's chunk mean times the chunk's share of the rows (a sum over the
    chunk divided by ``rows``), and the entropy term, which no row holds,
    weighted by that share. Summed over a minibatch's chunks they are its
    loss and gradients; ``loss/entropy`` is the entropy whatever the chunk.
    """
    if clip_eps <= 0:
        raise TrainerError("NON_FINITE_LOSS", f"clipping epsilon must be > 0, got {clip_eps}")
    ws = Workspace() if workspace is None else workspace
    params = policy.params
    obs = batch["obs"]
    raw = batch["raw_actions"]
    adv = batch["advantages"]
    n, dtype = obs.shape[0], obs.dtype
    rows = n if rows is None else rows
    share = n / rows  # 1.0 for a whole minibatch, which keeps its bytes

    mean, p_cache = mlp_forward(params, "policy", obs, ws, grad=with_grads)
    log_std = params["log_std"].astype(dtype, copy=False)
    var = np.exp(2.0 * log_std)
    # new_logp = gauss - correction, with d = raw - mean,
    #   gauss = -0.5 * ((d * d) / var + 2.0 * log_std + LOG2PI).sum(-1)
    #   correction = np.log(1.0 - np.tanh(raw) ** 2 + LOGP_EPS).sum(-1)
    d = np.subtract(raw, mean, out=ws.take("d", raw.shape, dtype))
    term = np.multiply(d, d, out=ws.take("term", raw.shape, dtype))
    term /= var
    term += 2.0 * log_std
    term += LOG2PI
    new_logp = row_sums(term, out=ws.take("new_logp", (n,), dtype))
    new_logp *= -0.5
    np.tanh(raw, out=term)
    np.square(term, out=term)
    np.subtract(1.0, term, out=term)
    term += LOGP_EPS
    np.log(term, out=term)
    new_logp -= row_sums(term, out=ws.take("correction", (n,), dtype))

    # ratio = exp(new_logp - old_logp); the surrogate is the mean of
    # min(ratio * adv, clip(ratio, 1 - eps, 1 + eps) * adv)
    ratio = np.subtract(new_logp, batch["old_logp"], out=new_logp)
    np.exp(ratio, out=ratio)
    t_unclipped = np.multiply(ratio, adv, out=ws.take("t_unclipped", (n,), dtype))
    t_clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps,
                        out=ws.take("t_clipped", (n,), dtype))
    t_clipped *= adv
    unclipped_active = np.less_equal(t_unclipped, t_clipped,
                                     out=ws.take("unclipped_active", (n,), bool))
    surrogate = float(np.minimum(t_unclipped, t_clipped, out=t_clipped).mean()) * share
    entropy = float((log_std + 0.5 * (LOG2PI + 1.0)).sum())

    grads = None
    if with_grads:
        # dL/dlogp_i = -(1/rows) * r_i * A_i where the unclipped branch is
        # active, else 0.0: np.where(unclipped_active, -(ratio * adv) / rows, 0.0)
        dlogp = np.negative(t_unclipped, out=t_unclipped)
        dlogp /= rows
        np.copyto(dlogp, 0.0, where=np.logical_not(unclipped_active, out=unclipped_active))
        # dlogp/dmean = (raw - mean)/var: dmean = dlogp[:, None] * (d / var)
        dmean = np.divide(d, var, out=term)
        dmean *= dlogp[:, None]
        grads = mlp_backward(params, "policy", p_cache, dmean)
        # dlogp/dlog_std_j = d_j^2/var_j - 1 ; entropy adds a constant -c_e per axis:
        # (dlogp[:, None] * ((d * d) / var - 1.0)).sum(axis=0)
        np.multiply(d, d, out=d)
        d /= var
        d -= 1.0
        d *= dlogp[:, None]
        grads["log_std"] = column_sums(d) - entropy_cost * share * np.ones_like(log_std)

    # the policy net is done with the activations; the value net overwrites them
    v_out, v_cache = mlp_forward(params, "value", obs, ws, grad=with_grads)
    value_err = np.subtract(v_out[..., 0], batch["returns"],
                            out=ws.take("value_err", (n,), dtype))
    value_loss = float(np.multiply(value_err, value_err, out=t_clipped).mean()) * share

    loss = -surrogate + value_coef * value_loss - entropy_cost * share * entropy
    if not math.isfinite(loss):
        raise TrainerError("NON_FINITE_LOSS", "PPO loss is not finite")
    parts = {
        "loss/policy": -surrogate,
        "loss/value": value_loss,
        "loss/entropy": entropy,
    }
    if not with_grads:
        return loss, None, parts

    # dv = value_coef * 2.0 * value_err / rows
    dv = np.multiply(value_err, value_coef * 2.0, out=value_err)
    dv /= rows
    grads.update(mlp_backward(params, "value", v_cache, dv[:, None]))
    return loss, grads, parts


class Adam:
    """Adam on flat buffers (module docstring). Construction makes the
    values of ``params`` views into the parameter buffer, which ``step``
    updates in place."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._spans = {}
        start = 0
        for k, p in params.items():
            self._spans[k] = (start, start + p.size, p.shape)
            start += p.size
        self._p = np.concatenate([np.ravel(p) for p in params.values()], dtype=np.float64)
        self._m, self._v = np.zeros(start), np.zeros(start)
        self._g, self._tmp = np.empty(start), np.empty(start)
        params.update(self._views(self._p))
        self.m, self.v = self._views(self._m), self._views(self._v)
        self.t = 0

    def _views(self, flat: np.ndarray) -> dict:
        return {k: flat[a:b].reshape(shape) for k, (a, b, shape) in self._spans.items()}

    def step(self, grads: dict, max_grad_norm: float = 1.0):
        """One update of the parameters from ``grads``, which must hold every
        parameter; the caller's gradient arrays are left as they are. The
        global-norm clip sums each array's squares, then those sums in the
        order of ``grads``."""
        g, tmp = self._g, self._tmp
        for k, (a, b, _) in self._spans.items():
            g[a:b] = grads[k].ravel()
        if max_grad_norm is not None:
            sq = np.multiply(g, g, out=tmp)
            total = math.sqrt(sum(float(sq[self._spans[k][0]:self._spans[k][1]].sum())
                                  for k in grads))
            if total > max_grad_norm:
                g *= max_grad_norm / (total + 1e-12)
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        m *= self.beta1                         # m = beta1 * m + (1 - beta1) * g
        m += np.multiply(g, 1.0 - self.beta1, out=tmp)
        v *= self.beta2                         # v = beta2 * v + (1 - beta2) * (g * g)
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        # p = p - lr * (m / b1c) / (sqrt(v / b2c) + eps); g is spent, and
        # holds the denominator
        den = np.divide(v, b2c, out=g)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, b1c, out=tmp)
        tmp *= self.lr
        tmp /= den
        self._p -= tmp


class RunningNorm:
    """Streaming observation mean/variance with an epsilon floor, kept and
    accumulated in float64 whatever the batch's dtype."""

    def __init__(self, dim: int, eps: float = 1e-8):
        self.mean = np.zeros(dim)
        self.var = np.ones(dim)
        self.count = eps
        self.eps = eps

    def update(self, batch: np.ndarray):
        """Fold ``batch``'s rows into the statistics. Its float64 mean and
        variance are the bytes of ``batch.mean/var(axis=0, dtype=np.float64)``,
        taken over row blocks of ``ROW_CHUNK`` (:func:`_row_block_sum`)."""
        batch = batch.reshape(-1, batch.shape[-1])
        b_count = batch.shape[0]
        b_mean = _row_block_sum(batch) / b_count
        b_var = _row_block_sum(batch, b_mean) / b_count
        delta = b_mean - self.mean
        total = self.count + b_count
        self.mean = self.mean + delta * b_count / total
        self.var = (self.var * self.count + b_var * b_count
                    + delta * delta * self.count * b_count / total) / total
        self.count = total

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / np.sqrt(self.var + self.eps)


def _row_block_sum(batch: np.ndarray, center: np.ndarray | None = None) -> np.ndarray:
    """Float64 sum over the rows of 2-D ``batch``, or of its squared
    deviations from ``center``, one block of ``ROW_CHUNK`` rows at a time.
    A block's float64 buffer carries the running sum as its first row, and
    numpy sums axis 0 row by row, so the sum has the bytes of the one-pass
    ``batch.sum(axis=0, dtype=np.float64)`` (or of ``np.var``'s sum of
    ``(batch - center) ** 2``) while no buffer holds the whole batch."""
    rows, dim = batch.shape
    buf = np.empty((min(rows, ROW_CHUNK) + 1, dim))
    total = None
    for r in range(0, rows, ROW_CHUNK):
        block = batch[r:r + ROW_CHUNK]
        lead = 0 if total is None else 1
        part = buf[:lead + len(block)]
        if lead:
            part[0] = total
        body = part[lead:]
        if center is None:
            body[...] = block
        else:
            np.subtract(block, center, out=body)
            np.square(body, out=body)
        total = column_sums(part)
    return total


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(path, policy: Policy, obs_norm: RunningNorm,
                    step_count: int, rng_state: dict) -> None:
    arrays = {f"params/{k}": v for k, v in policy.params.items()}
    arrays["obs_norm/mean"] = obs_norm.mean
    arrays["obs_norm/var"] = obs_norm.var
    arrays["obs_norm/count"] = np.array([obs_norm.count])

    names = sorted(arrays)
    header = {
        "arrays": [
            {"name": k, "dtype": str(arrays[k].dtype), "shape": list(arrays[k].shape)}
            for k in names
        ],
        "step_count": step_count,
        "obs_dim": policy.obs_dim,
        "act_dim": policy.act_dim,
        "policy_sizes": policy.policy_sizes,
        "value_sizes": policy.value_sizes,
        "rng_state": rng_state,
    }
    head = json.dumps(header, sort_keys=True).encode()
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(head)))
    buf.write(head)
    for k in names:
        buf.write(np.ascontiguousarray(arrays[k], dtype=np.float64).tobytes())
    Path(path).write_bytes(buf.getvalue())


@dataclass
class Checkpoint:
    arrays: dict
    step_count: int
    obs_dim: int
    act_dim: int
    policy_sizes: list
    value_sizes: list
    rng_state: dict


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise TrainerError("VERSION_MISMATCH", f"{path}: not a checkpoint file")
    if len(raw) < 10:
        raise TrainerError("CHECKPOINT_CORRUPT",
                           f"{path}: truncated inside the {len(raw)}-byte preamble")
    (version,) = struct.unpack("<H", raw[4:6])
    if version != CHECKPOINT_VERSION:
        raise TrainerError(
            "VERSION_MISMATCH", f"{path}: version {version}, expected {CHECKPOINT_VERSION}"
        )
    (head_len,) = struct.unpack("<I", raw[6:10])
    offset = 10 + head_len
    if len(raw) < offset:
        raise TrainerError("CHECKPOINT_CORRUPT",
                           f"{path}: {len(raw)} bytes, header alone declares {offset}")
    try:
        header = json.loads(raw[10:offset])
        specs = []
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"])) if spec["shape"] else 1
            specs.append((spec["name"], spec["shape"], dtype, count * dtype.itemsize))
        meta = {k: header[k] for k in ("step_count", "obs_dim", "act_dim",
                                        "policy_sizes", "value_sizes", "rng_state")}
    except (ValueError, KeyError, TypeError):  # JSONDecodeError is a ValueError
        raise TrainerError("CHECKPOINT_CORRUPT", f"{path}: unreadable header")
    expected = offset + sum(nbytes for *_, nbytes in specs)
    if len(raw) != expected:
        raise TrainerError("CHECKPOINT_CORRUPT",
                           f"{path}: {len(raw)} bytes, header declares {expected}")
    arrays = {}
    for name, shape, dtype, nbytes in specs:
        arrays[name] = np.frombuffer(raw[offset:offset + nbytes], dtype=dtype).reshape(shape).copy()
        offset += nbytes
    return Checkpoint(arrays=arrays, **meta)


def restore_policy(ckpt: Checkpoint, policy: Policy, obs_norm: RunningNorm) -> None:
    for k, current in policy.params.items():
        key = f"params/{k}"
        if key not in ckpt.arrays or tuple(ckpt.arrays[key].shape) != current.shape:
            raise TrainerError(
                "CHECKPOINT_SHAPE_MISMATCH",
                f"checkpoint array {key} does not match network shape {current.shape}",
            )
        policy.params[k] = ckpt.arrays[key].astype(np.float64).copy()
    obs_norm.mean = ckpt.arrays["obs_norm/mean"].astype(np.float64).copy()
    obs_norm.var = ckpt.arrays["obs_norm/var"].astype(np.float64).copy()
    obs_norm.count = float(ckpt.arrays["obs_norm/count"][0])


# -- one BLAS thread ----------------------------------------------------------

# (get, set) thread-count entry points: the numpy wheel's scipy-openblas,
# then a plain OpenBLAS
_OPENBLAS_THREAD_FNS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) of the OpenBLAS numpy's own extension links, or None;
    looked up once, on first use. A symbol lookup through the extension also
    searches the libraries it links, which is where a wheel's OpenBLAS lives."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_FNS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count,
    also when the block raises. A no-op when no OpenBLAS can be driven."""
    fns = _openblas()
    if fns is None:
        yield
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


# -- stage training -----------------------------------------------------------

@dataclass
class StageResult:
    stage_index: int
    checkpoint_path: str
    metrics: list = field(default_factory=list)
    env_steps: int = 0
    budget_exhausted: bool = False

    @property
    def last_eval(self) -> dict:
        return self.metrics[-1] if self.metrics else {}


# trainer keys the desk profile caps at their config-table defaults
DESK_CAPPED = ("num_envs", "num_timesteps", "num_minibatches", "episode_length")


def desk_profile(config: dict, paper_scale: bool = False) -> dict:
    """Shrink the config so stages run on a laptop CPU: [64, 64] nets, and
    each integer of ``DESK_CAPPED`` at most its table default, which a
    missing one takes. The full configured sizes are honored only under
    ``paper_scale``."""
    cfg = copy.deepcopy(config)
    if paper_scale:
        return cfg
    tr = cfg.setdefault("trainer", {})
    cfg.setdefault("ppo_network", {}).update(policy_hidden_layer_sizes=[64, 64],
                                             value_hidden_layer_sizes=[64, 64])
    for name in DESK_CAPPED:
        cap = KEYS[f"trainer.{name}"].default
        if type(tr.setdefault(name, cap)) is int:
            tr[name] = min(tr[name], cap)
    return cfg


def compute_dtype(paper_scale: bool) -> np.dtype:
    """The dtype a stage's rollout, update and evaluation compute in, over
    float64 master weights (module docstring)."""
    return np.dtype(np.float32 if paper_scale else np.float64)


@one_blas_thread()
def train_stage(stage: StageBundle, out_dir, checkpoint_in=None,
                paper_scale: bool = False, seed: int | None = None,
                eval_episodes: int = 16, eval_max_steps: int = 150) -> StageResult:
    """Run one curriculum stage on one BLAS thread (module docstring):
    rollout / GAE / minibatch PPO updates, with ``num_evals`` evaluation
    records written to ``metrics.jsonl`` and a checkpoint at the end. A
    config value validation would refuse raises ``TrainerError`` with that
    finding's code before anything is built."""
    cfg = stage_config(desk_profile(stage.config_doc, paper_scale), TrainerError)
    tr = cfg.trainer

    if stage.resume_from_checkpoint and checkpoint_in is None:
        raise TrainerError(
            "CHECKPOINT_SHAPE_MISMATCH",
            f"stage {stage.index} resumes from a checkpoint but none was given",
        )

    seed = tr.seed if seed is None else int(seed)
    if seed < 0:  # numpy's generators refuse it with a bare ValueError
        raise TrainerError("TYPE_ERROR", f"seed must be an integer >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    program = compile_program(stage.reward_doc["reward"], BINDING_SHAPES)
    rules = stage.randomize_doc.get("randomization") or {}

    num_envs, num_evals = tr.num_envs, tr.num_evals
    envs = VecEnv(cfg.environment, num_envs, base_seed=seed, randomize_rules=rules,
                  episode_length=tr.episode_length, binding_keys=program.required_variables)

    policy = Policy(cfg.ppo_network.policy_hidden_layer_sizes,
                    cfg.ppo_network.value_hidden_layer_sizes, seed=seed)
    obs_norm = RunningNorm(OBS_DIM)
    if checkpoint_in is not None:
        restore_policy(load_checkpoint(checkpoint_in), policy, obs_norm)
    norm = obs_norm if tr.normalize_observations else None

    optimizer = Adam(policy.params, lr=tr.learning_rate)
    workspace = Workspace()
    dtype = compute_dtype(paper_scale)

    steps_per_iter = num_envs * tr.unroll_length
    iters = max(1, math.ceil(tr.num_timesteps / steps_per_iter))
    if num_evals <= 1:
        eval_at = {iters}
    else:
        eval_at = {round(j * iters / (num_evals - 1)) for j in range(num_evals)}

    metrics: list[dict] = []
    last_losses = {"loss/policy": 0.0, "loss/value": 0.0, "loss/entropy": 0.0}
    env_steps = 0

    def run_eval():
        rec = _evaluate(policy, norm, cfg.environment, rules, program, seed,
                        eval_episodes, eval_max_steps, workspace, dtype)
        rec["step"] = env_steps
        rec.update(last_losses)
        metrics.append(rec)

    # a blow-up (say, from a huge learning rate) surfaces as NON_FINITE_LOSS
    # from ppo_loss, not as numpy warnings on the way there
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        obs = envs.observe()
        for it in range(iters):
            if it in eval_at:
                run_eval()
            rollout, obs = _collect(envs, policy, norm, obs, program, tr.reward_scaling,
                                    tr.unroll_length, rng, workspace, dtype)
            env_steps += steps_per_iter

            advantages, returns = gae(
                rollout["rewards"], rollout["values"], rollout["dones"], tr.discounting,
                GAE_LAMBDA)
            flat = {
                "obs": rollout["obs"].reshape(-1, OBS_DIM),
                "raw_actions": rollout["raw_actions"].reshape(-1, ACTION_DIM),
                "old_logp": rollout["logp"].reshape(-1),
                "advantages": advantages.reshape(-1).astype(dtype, copy=False),
                "returns": returns.reshape(-1).astype(dtype, copy=False),
            }
            last_losses = ppo_update(policy, optimizer, flat, rng, tr.num_updates_per_batch,
                                     tr.num_minibatches, tr.clipping_epsilon,
                                     tr.entropy_cost, workspace) or last_losses
        if iters in eval_at:
            run_eval()
        while len(metrics) < num_evals:  # guard against rounding collisions
            run_eval()

    ckpt_path = out_dir / "checkpoint.bin"
    save_checkpoint(ckpt_path, policy, obs_norm, env_steps, rng.bit_generator.state)
    with open(out_dir / "metrics.jsonl", "w") as f:
        for rec in metrics:
            f.write(json.dumps(rec, sort_keys=True) + "\n")

    return StageResult(
        stage_index=stage.index,
        checkpoint_path=str(ckpt_path),
        metrics=metrics,
        env_steps=env_steps,
        budget_exhausted=env_steps >= tr.num_timesteps,
    )


def ppo_update(policy: Policy, optimizer: Adam, batch: dict, rng: np.random.Generator,
               num_updates: int, num_minibatches: int, clip_eps: float,
               entropy_cost: float, workspace: Workspace) -> dict:
    """``num_updates`` epochs over one rollout ``batch``: a fresh permutation
    each, split into ``num_minibatches`` minibatches, each taking one Adam
    step. A minibatch's advantages are normalized over all its rows; it then
    runs through ``ppo_loss`` one chunk of at most ``ROW_CHUNK`` rows at a
    time, each gathered into ``workspace``, and the chunks' gradients and
    loss parts are added, the gradients in one float64 set, in chunk order
    (module docstring). Returns the last minibatch's loss parts."""
    n = batch["obs"].shape[0]
    grads, parts = None, {}
    for _ in range(num_updates):
        perm = rng.permutation(n)
        for minibatch in np.array_split(perm, num_minibatches):
            a = batch["advantages"][minibatch]  # (a - a.mean()) / (a.std() + 1e-8)
            a_mean, a_std = a.mean(), a.std()
            for start in range(0, len(minibatch), ROW_CHUNK):
                chunk = minibatch[start:start + ROW_CHUNK]
                # mode="clip" gathers straight into the buffer ("raise" would
                # buffer a copy); a permutation's indices are all in range
                mb = {k: np.take(v, chunk, axis=0, mode="clip",
                                 out=workspace.take(f"batch/{k}", (len(chunk), *v.shape[1:]),
                                                    v.dtype))
                      for k, v in batch.items()}
                mb["advantages"] -= a_mean
                mb["advantages"] /= a_std + 1e-8
                _, chunk_grads, chunk_parts = ppo_loss(
                    policy, mb, clip_eps, VALUE_LOSS_COEF, entropy_cost,
                    workspace=workspace, rows=len(minibatch))
                if grads is None:
                    grads = {k: np.empty(g.shape) for k, g in chunk_grads.items()}
                if start == 0:  # a copy, so that one chunk keeps its bytes
                    for k, g in chunk_grads.items():
                        np.copyto(grads[k], g)
                    parts = chunk_parts
                else:
                    for k, g in chunk_grads.items():
                        grads[k] += g
                    for k in ("loss/policy", "loss/value"):
                        parts[k] += chunk_parts[k]
            optimizer.step(grads)
    return parts


def _collect(envs: VecEnv, policy: Policy, obs_norm, obs,
             program: RewardProgram, reward_scaling: float, unroll: int,
             rng: np.random.Generator, workspace: Workspace, dtype=np.float64):
    """``unroll`` steps of every env, the policy run in ``dtype``: what the
    update reads (obs, raw actions, log-probs) is kept in it, rewards, dones
    and values in float64 for GAE. Rewards come once per reward block of
    ``envs.block_steps`` steps, counted from the call's first step."""
    T, N = unroll, envs.num_envs
    out = {
        "obs": np.zeros((T, N, OBS_DIM), dtype),
        "raw_actions": np.zeros((T, N, ACTION_DIM), dtype),
        "logp": np.zeros((T, N), dtype),
        "rewards": np.zeros((T, N)),
        "dones": np.zeros((T, N)),
        "values": np.zeros((T + 1, N)),
    }
    block = envs.block_steps
    for t in range(T):
        norm_obs = (obs_norm.normalize(obs) if obs_norm is not None
                    else obs).astype(dtype, copy=False)
        raw, squashed, logp = policy.act(norm_obs, rng, workspace)
        out["obs"][t] = norm_obs
        out["raw_actions"][t] = raw
        out["logp"][t] = logp
        out["values"][t] = policy.value(norm_obs, workspace)
        obs, dones = envs.step(squashed)
        out["dones"][t] = dones.astype(np.float64)
        if (t + 1) % block == 0 or t == T - 1:
            k = t % block + 1
            total = eval_total_batch(program, envs.bindings(), k * N)["total"]
            out["rewards"][t + 1 - k:t + 1] = (total * reward_scaling).reshape(k, N)
    if obs_norm is not None:
        obs_norm.update(out["obs"].reshape(-1, OBS_DIM))
        final_norm = obs_norm.normalize(obs)
    else:
        final_norm = obs
    out["values"][T] = policy.value(final_norm.astype(dtype, copy=False), workspace)
    return out, obs


def deterministic_rollout(walker: VecEnv, policy: Policy, obs_norm, max_steps: int,
                          stacked: bool = False, workspace: Workspace | None = None,
                          dtype=np.float64):
    """Step ``walker`` under ``policy.act_deterministic``, run in ``dtype``,
    until every row has finished or ``max_steps`` steps have run; yield each
    reward block's ``bindings()`` with the alive mask of each of its steps,
    True for a row that had not finished before that step. The policy sees
    the observations through ``obs_norm`` only when the stage trained through
    it; pass None for a stage trained on raw ones. ``stacked`` acts on
    (rows, 1, OBS_DIM), a stack of one-row products, instead of one
    (rows, OBS_DIM) product: final scoring's rounding (module docstring)."""
    alive = np.ones(walker.num_envs, dtype=bool)
    masks = []
    obs = walker.observe()
    for step in range(max_steps):
        if obs_norm is not None:
            obs = obs_norm.normalize(obs)
        obs = obs.astype(dtype, copy=False)
        action = (policy.act_deterministic(obs[:, None], workspace)[:, 0] if stacked
                  else policy.act_deterministic(obs, workspace))
        obs, finished = walker.step(action)
        masks.append(alive)
        alive = alive & ~finished
        done = not alive.any() or step == max_steps - 1
        if len(masks) == walker.block_steps or done:
            yield walker.bindings(), masks
            masks = []
        if done:
            return


def _evaluate(policy: Policy, obs_norm, env_cfg, rules, program, seed: int,
              episodes: int, max_steps: int, workspace: Workspace,
              dtype=np.float64) -> dict:
    """Deterministic-policy rollouts, one env per episode slot
    (:func:`deterministic_rollout`); per-term metrics are mean episode sums
    of each term's contribution, added in step order."""
    envs = VecEnv(env_cfg, episodes, base_seed=seed + 7777, randomize_rules=rules,
                  episode_length=max_steps, binding_keys=program.required_variables)
    totals = np.zeros(episodes)
    lengths = np.zeros(episodes)
    term_sums = {t.name: np.zeros(episodes) for t in program.terms}
    for bindings, masks in deterministic_rollout(envs, policy, obs_norm, max_steps,
                                                 workspace=workspace, dtype=dtype):
        result = eval_total_batch(program, bindings, len(masks) * episodes)
        for j, mask in enumerate(masks):
            rows = slice(j * episodes, (j + 1) * episodes)
            totals += mask * result["total"][rows]
            lengths += mask
            for name, v in result["per_term"].items():
                term_sums[name] += mask * v[rows]
    rec = {
        "eval/episode_reward": float(totals.mean()),
        "eval/episode_length": float(lengths.mean()),
    }
    for name, vals in term_sums.items():
        rec[f"eval/{name}"] = float(vals.mean())
    return rec
