import numpy as np
import pytest

from stageflow.tensor import Tensor

DATA = __import__("pathlib").Path(__file__).resolve().parents[1] / "src/stageflow/data"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_tensor(rng, max_rank=3, max_dim=4, kind="numeric"):
    rank = int(rng.integers(0, max_rank + 1))
    shape = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(rank))
    if kind == "boolean":
        return Tensor.boolean(rng.integers(0, 2, size=shape))
    return Tensor(rng.standard_normal(shape))


DESK = DATA / "bundles" / "desk"
TINY_STEPS = 1_280  # one PPO iteration at 64 envs x 20 unroll steps


def tiny_config(text: str, num_timesteps: int = TINY_STEPS) -> str:
    """A desk config trimmed to a single PPO iteration and one evaluation."""
    return (text.replace("num_timesteps: 200_000", f"num_timesteps: {num_timesteps}")
            .replace("num_evals: 5", "num_evals: 1"))


def desk_stage_texts(x: int) -> dict:
    """The shipped desk bundle's stage ``x`` files, keyed by role, with the
    config trimmed by :func:`tiny_config`."""
    return {
        "reward": (DESK / f"rewards/generated_reward_stage{x}.yaml").read_text(),
        "config": tiny_config(
            (DESK / f"configs/generated_config_stage{x}.yaml").read_text()),
        "randomize": (DESK / f"randomize/generated_randomize_stage{x}.yaml").read_text(),
    }
