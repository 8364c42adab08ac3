"""PPO with the clipped surrogate objective over the vectorized desk env.

Everything is plain numpy: MLP forward/backward, the PPO loss and its analytic
gradient, Adam, and GAE. Gradients are hand-derived and pinned against
finite differences in the tests. Single process, CPU, deterministic under a
fixed seed.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import ACTION_DIM, OBS_DIM, VecEnv
from .errors import TrainerError
from .reward import RewardProgram, compile_program, eval_total_batch
from .schema import StageBundle

CHECKPOINT_MAGIC = b"SFCP"
CHECKPOINT_VERSION = 1

GAE_LAMBDA = 0.95       # conventional default
VALUE_LOSS_COEF = 0.5   # c_v default
LOGP_EPS = 1e-6
LOG2PI = math.log(2.0 * math.pi)


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


def clipped_surrogate(ratio, advantages, clip_eps):
    """Per-sample clipped surrogate min(r*A, clip(r)*A), for fixtures."""
    r = np.asarray(ratio, dtype=np.float64)
    a = np.asarray(advantages, dtype=np.float64)
    return np.minimum(r * a, np.clip(r, 1.0 - clip_eps, 1.0 + clip_eps) * a)


# -- MLPs with hand-rolled backprop -------------------------------------------

def _silu(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return z * s, s


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
    return sum(1 for k in params if k.startswith(f"{prefix}/W"))


def mlp_forward(params: dict, prefix: str, x: np.ndarray):
    """SiLU between layers, linear output. Returns (y, cache for backward)."""
    n = _mlp_layers(params, prefix)
    cache = []
    h = x
    for i in range(n):
        z = h @ params[f"{prefix}/W{i}"] + params[f"{prefix}/b{i}"]
        if i < n - 1:
            a, s = _silu(z)
            cache.append((h, z, s))
            h = a
        else:
            cache.append((h, z, None))
            h = z
    return h, cache


def mlp_backward(params: dict, prefix: str, cache: list, dy: np.ndarray) -> dict:
    """Gradient of a scalar loss w.r.t. each layer's W/b, given dL/dy.
    The SiLU factor for layer i-1's output is applied when the loop reaches it."""
    n = len(cache)
    grads = {}
    grad = dy
    for i in range(n - 1, -1, -1):
        h, z, s = cache[i]
        if s is not None:  # SiLU derivative: s * (1 + z * (1 - s))
            grad = grad * (s * (1.0 + z * (1.0 - s)))
        grads[f"{prefix}/W{i}"] = h.T @ grad
        grads[f"{prefix}/b{i}"] = grad.sum(axis=0)
        if i > 0:
            grad = grad @ params[f"{prefix}/W{i}"].T
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

    def mean(self, obs: np.ndarray) -> np.ndarray:
        y, _ = mlp_forward(self.params, "policy", obs)
        return y

    def value(self, obs: np.ndarray) -> np.ndarray:
        y, _ = mlp_forward(self.params, "value", obs)
        return y[..., 0]

    def act(self, obs: np.ndarray, rng: np.random.Generator):
        """Sample raw (pre-squash) actions: (raw, squashed, logp)."""
        mean = self.mean(obs)
        std = np.exp(self.params["log_std"])
        raw = mean + std * rng.standard_normal(mean.shape)
        return raw, np.tanh(raw), self._logp(mean, raw)

    def act_deterministic(self, obs: np.ndarray) -> np.ndarray:
        return np.tanh(self.mean(obs))

    def _logp(self, mean: np.ndarray, raw: np.ndarray) -> np.ndarray:
        log_std = self.params["log_std"]
        var = np.exp(2.0 * log_std)
        gauss = -0.5 * (((raw - mean) ** 2) / var + 2.0 * log_std + LOG2PI).sum(-1)
        correction = np.log(1.0 - np.tanh(raw) ** 2 + LOGP_EPS).sum(-1)
        return gauss - correction

    def log_prob(self, obs: np.ndarray, raw: np.ndarray) -> np.ndarray:
        return self._logp(self.mean(obs), raw)


# -- PPO loss with analytic gradient ------------------------------------------

def ppo_loss(policy: Policy, batch: dict, clip_eps: float,
             value_coef: float = VALUE_LOSS_COEF, entropy_cost: float = 0.0,
             with_grads: bool = True):
    """loss = -L_clip + c_v * value_loss - entropy_cost * entropy.

    ``batch``: obs, raw_actions, old_logp, advantages, returns (numpy arrays).
    Returns (loss, grads, parts); grads is None when with_grads=False.
    """
    if clip_eps <= 0:
        raise TrainerError("NON_FINITE_LOSS", f"clipping epsilon must be > 0, got {clip_eps}")
    params = policy.params
    obs = batch["obs"]
    raw = batch["raw_actions"]
    adv = batch["advantages"]
    n = obs.shape[0]

    mean, p_cache = mlp_forward(params, "policy", obs)
    log_std = params["log_std"]
    var = np.exp(2.0 * log_std)
    d = raw - mean
    gauss = -0.5 * ((d * d) / var + 2.0 * log_std + LOG2PI).sum(-1)
    correction = np.log(1.0 - np.tanh(raw) ** 2 + LOGP_EPS).sum(-1)
    new_logp = gauss - correction

    ratio = np.exp(new_logp - batch["old_logp"])
    t_unclipped = ratio * adv
    t_clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    unclipped_active = t_unclipped <= t_clipped
    surrogate = float(np.minimum(t_unclipped, t_clipped).mean())

    v_out, v_cache = mlp_forward(params, "value", obs)
    v = v_out[..., 0]
    value_err = v - batch["returns"]
    value_loss = float((value_err * value_err).mean())

    entropy = float((log_std + 0.5 * (LOG2PI + 1.0)).sum())
    loss = -surrogate + value_coef * value_loss - entropy_cost * entropy
    if not math.isfinite(loss):
        raise TrainerError("NON_FINITE_LOSS", "PPO loss is not finite")
    parts = {
        "loss/policy": -surrogate,
        "loss/value": value_loss,
        "loss/entropy": entropy,
    }
    if not with_grads:
        return loss, None, parts

    # dL/dlogp_i = -(1/n) * r_i * A_i where the unclipped branch is active
    dlogp = np.where(unclipped_active, -(ratio * adv) / n, 0.0)
    dmean = dlogp[:, None] * (d / var)          # dlogp/dmean = (raw - mean)/var
    grads = mlp_backward(params, "policy", p_cache, dmean)
    # dlogp/dlog_std_j = d_j^2/var_j - 1 ; entropy adds a constant -c_e per axis
    grads["log_std"] = (dlogp[:, None] * ((d * d) / var - 1.0)).sum(axis=0) \
        - entropy_cost * np.ones_like(log_std)
    dv = value_coef * 2.0 * value_err / n
    grads.update(mlp_backward(params, "value", v_cache, dv[:, None]))
    return loss, grads, parts


class Adam:
    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict, max_grad_norm: float = 1.0):
        if max_grad_norm is not None:
            total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if total > max_grad_norm:
                scale = max_grad_norm / (total + 1e-12)
                grads = {k: g * scale for k, g in grads.items()}
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            params[k] = params[k] - self.lr * (self.m[k] / b1c) / (
                np.sqrt(self.v[k] / b2c) + self.eps)


class RunningNorm:
    """Streaming observation mean/variance with an epsilon floor."""

    def __init__(self, dim: int, eps: float = 1e-8):
        self.mean = np.zeros(dim)
        self.var = np.ones(dim)
        self.count = eps
        self.eps = eps

    def update(self, batch: np.ndarray):
        batch = batch.reshape(-1, batch.shape[-1])
        b_mean = batch.mean(axis=0)
        b_var = batch.var(axis=0)
        b_count = batch.shape[0]
        delta = b_mean - self.mean
        total = self.count + b_count
        self.mean = self.mean + delta * b_count / total
        self.var = (self.var * self.count + b_var * b_count
                    + delta * delta * self.count * b_count / total) / total
        self.count = total

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / np.sqrt(self.var + self.eps)


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


def desk_profile(config: dict, paper_scale: bool = False) -> dict:
    """Shrink the trainer section so stages run on a laptop CPU. The full
    configured sizes are honored only under ``paper_scale``."""
    import copy

    cfg = copy.deepcopy(config)
    if paper_scale:
        return cfg
    tr = cfg.setdefault("trainer", {})
    net = cfg.setdefault("ppo_network", {})
    net["policy_hidden_layer_sizes"] = [64, 64]
    net["value_hidden_layer_sizes"] = [64, 64]
    tr["num_envs"] = min(int(tr.get("num_envs", 64)), 64)
    tr["num_timesteps"] = min(int(tr.get("num_timesteps", 200_000)), 200_000)
    tr["num_minibatches"] = min(int(tr.get("num_minibatches", 4)), 4)
    tr["episode_length"] = min(int(tr.get("episode_length", 250)), 250)
    return cfg


def train_stage(stage: StageBundle, out_dir, checkpoint_in=None,
                paper_scale: bool = False, seed: int | None = None,
                eval_episodes: int = 16, eval_max_steps: int = 150) -> StageResult:
    """Run one curriculum stage: rollout / GAE / minibatch PPO updates, with
    ``num_evals`` evaluation records written to ``metrics.jsonl`` and a
    checkpoint at the end."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = desk_profile(stage.config_doc, paper_scale)
    tr = cfg["trainer"]
    env_cfg = cfg["environment"]
    net_cfg = cfg["ppo_network"]

    if stage.resume_from_checkpoint and checkpoint_in is None:
        raise TrainerError(
            "CHECKPOINT_SHAPE_MISMATCH",
            f"stage {stage.index} resumes from a checkpoint but none was given",
        )

    seed = int(tr.get("seed", 0)) if seed is None else int(seed)
    rng = np.random.default_rng(seed)

    program = compile_program(stage.reward_doc["reward"])
    rules = stage.randomize_doc.get("randomization") or {}

    num_envs = int(tr["num_envs"])
    unroll = int(tr["unroll_length"])
    num_timesteps = int(tr["num_timesteps"])
    gamma = float(tr["discounting"])
    clip_eps = float(tr["clipping_epsilon"])
    lr = float(tr["learning_rate"])
    entropy_cost = float(tr.get("entropy_cost", 0.0))
    reward_scaling = float(tr.get("reward_scaling", 1.0))
    num_minibatches = int(tr["num_minibatches"])
    num_updates = int(tr["num_updates_per_batch"])
    num_evals = int(tr.get("num_evals", 1))
    normalize_obs = bool(tr.get("normalize_observations", True))

    envs = VecEnv(env_cfg, num_envs, base_seed=seed, randomize_rules=rules,
                  episode_length=int(tr["episode_length"]))

    policy = Policy(net_cfg["policy_hidden_layer_sizes"],
                    net_cfg["value_hidden_layer_sizes"], seed=seed)
    obs_norm = RunningNorm(OBS_DIM)
    if checkpoint_in is not None:
        restore_policy(load_checkpoint(checkpoint_in), policy, obs_norm)

    optimizer = Adam(policy.params, lr=lr)

    steps_per_iter = num_envs * unroll
    iters = max(1, math.ceil(num_timesteps / steps_per_iter))
    if num_evals <= 1:
        eval_at = {iters}
    else:
        eval_at = {round(j * iters / (num_evals - 1)) for j in range(num_evals)}

    metrics: list[dict] = []
    last_losses = {"loss/policy": 0.0, "loss/value": 0.0, "loss/entropy": 0.0}
    env_steps = 0

    def run_eval():
        rec = _evaluate(policy, obs_norm if normalize_obs else None, env_cfg,
                        rules, program, seed, eval_episodes, eval_max_steps)
        rec["step"] = env_steps
        rec.update(last_losses)
        metrics.append(rec)

    obs = envs.observe()
    for it in range(iters):
        if it in eval_at:
            run_eval()
        rollout, obs = _collect(envs, policy, obs_norm if normalize_obs else None,
                                obs, program, reward_scaling, unroll, rng)
        env_steps += steps_per_iter

        advantages, returns = gae(
            rollout["rewards"], rollout["values"], rollout["dones"], gamma, GAE_LAMBDA)
        flat = {
            "obs": rollout["obs"].reshape(-1, OBS_DIM),
            "raw_actions": rollout["raw_actions"].reshape(-1, ACTION_DIM),
            "old_logp": rollout["logp"].reshape(-1),
            "advantages": advantages.reshape(-1),
            "returns": returns.reshape(-1),
        }
        n = flat["obs"].shape[0]
        for _ in range(num_updates):
            perm = rng.permutation(n)
            for chunk in np.array_split(perm, num_minibatches):
                mb = {k: v[chunk] for k, v in flat.items()}
                a = mb["advantages"]
                mb["advantages"] = (a - a.mean()) / (a.std() + 1e-8)
                loss, grads, parts = ppo_loss(
                    policy, mb, clip_eps, VALUE_LOSS_COEF, entropy_cost)
                optimizer.step(policy.params, grads)
                last_losses = {k: parts[k] for k in
                               ("loss/policy", "loss/value", "loss/entropy")}
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
        budget_exhausted=env_steps >= num_timesteps,
    )


def _collect(envs: VecEnv, policy: Policy, obs_norm, obs,
             program: RewardProgram, reward_scaling: float, unroll: int,
             rng: np.random.Generator):
    T, N = unroll, envs.num_envs
    out = {
        "obs": np.zeros((T, N, OBS_DIM)),
        "raw_actions": np.zeros((T, N, ACTION_DIM)),
        "logp": np.zeros((T, N)),
        "rewards": np.zeros((T, N)),
        "dones": np.zeros((T, N)),
        "values": np.zeros((T + 1, N)),
    }
    for t in range(T):
        norm_obs = obs_norm.normalize(obs) if obs_norm is not None else obs
        raw, squashed, logp = policy.act(norm_obs, rng)
        out["obs"][t] = norm_obs
        out["raw_actions"][t] = raw
        out["logp"][t] = logp
        out["values"][t] = policy.value(norm_obs)
        obs, bindings, dones = envs.step(squashed)
        out["rewards"][t] = eval_total_batch(program, bindings, N)["total"] * reward_scaling
        out["dones"][t] = dones.astype(np.float64)
    if obs_norm is not None:
        obs_norm.update(out["obs"].reshape(-1, OBS_DIM))
        final_norm = obs_norm.normalize(obs)
    else:
        final_norm = obs
    out["values"][T] = policy.value(final_norm)
    return out, obs


def _evaluate(policy: Policy, obs_norm, env_cfg, rules, program,
              seed: int, episodes: int, max_steps: int) -> dict:
    """Deterministic-policy rollouts, one env per episode slot; per-term
    metrics are mean episode sums of each term's contribution."""
    envs = VecEnv(env_cfg, episodes, base_seed=seed + 7777,
                  randomize_rules=rules, episode_length=max_steps)
    alive = np.ones(episodes, dtype=bool)
    totals = np.zeros(episodes)
    lengths = np.zeros(episodes)
    term_sums = {t.name: np.zeros(episodes) for t in program.terms}
    obs = envs.observe()
    for _ in range(max_steps):
        norm_obs = obs_norm.normalize(obs) if obs_norm is not None else obs
        action = policy.act_deterministic(norm_obs)
        obs, bindings, finished = envs.step(action)
        result = eval_total_batch(program, bindings, episodes)
        totals += alive * result["total"]
        lengths += alive
        for name, v in result["per_term"].items():
            term_sums[name] += alive * v
        alive &= ~finished
        if not alive.any():
            break
    rec = {
        "eval/episode_reward": float(totals.mean()),
        "eval/episode_length": float(lengths.mean()),
    }
    for name, vals in term_sums.items():
        rec[f"eval/{name}"] = float(vals.mean())
    return rec
