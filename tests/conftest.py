import numpy as np
import pytest

from stageflow.reward import BatchValue, compile_term, eval_step_batch

DATA = __import__("pathlib").Path(__file__).resolve().parents[1] / "src/stageflow/data"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def env_value(data, kind="numeric") -> BatchValue:
    """One env's value, without an env axis."""
    return BatchValue(data, kind, batched=False)


def walker_row(bindings: dict, row: int = 0) -> dict:
    """One row of a step's batched bindings, unbatched."""
    return {k: env_value(v.arr[row], v.kind) for k, v in bindings.items()}


def term_for_step(etype, params):
    """A one-step term whose inputs are the names its parameters use."""
    names = sorted({v for v in params.values() if isinstance(v, str)})
    return compile_term("t", {
        "inputs": {n: n for n in names},
        "evaluations": [{"type": etype, "parameters": params}],
    })


def step_value(etype, params, scope) -> BatchValue:
    """The value of one evaluation primitive over ``scope``."""
    return eval_step_batch(term_for_step(etype, params).evaluations[0], scope)


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
