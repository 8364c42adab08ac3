import shutil

import numpy as np
import pytest

from stageflow.expr import parse_expression
from stageflow.reward import Typed, compile_expression, compile_primitive

DATA = __import__("pathlib").Path(__file__).resolve().parents[1] / "src/stageflow/data"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def env_value(data) -> np.ndarray:
    """One env's value as a one-row binding: a leading row axis of 1."""
    return np.asarray(data, dtype=np.float64)[None]


def walker_row(bindings: dict, row: int = 0) -> dict:
    """One row of a block's bindings."""
    return {k: v[row] for k, v in bindings.items()}


def types_of(scope: dict) -> dict:
    """The compile-time types of ``scope``'s arrays, each with a row axis."""
    return {k: Typed(None, v.shape[1:], True) for k, v in scope.items()}


def expr_value(text: str, scope: dict):
    """The value of expression ``text`` over ``scope`` (name -> array with a
    leading row axis); one made of literals alone has no row axis."""
    return compile_expression(parse_expression(text), types_of(scope)).fn(scope)


def step_value(etype, params, scope):
    """The value of one evaluation primitive over ``scope``; a parameter is
    expression text or a literal."""
    types = types_of(scope)
    typed = {p: compile_expression(parse_expression(str(v)), types) for p, v in params.items()}
    return compile_primitive(etype, typed).fn(scope)


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


@pytest.fixture
def tiny_desk(tmp_path):
    """A copy of the shipped 2-stage desk bundle, one PPO iteration a stage."""
    bundle = tmp_path / "bundle"
    shutil.copytree(DESK, bundle)
    for x in (1, 2):
        (bundle / f"configs/generated_config_stage{x}.yaml").write_text(
            desk_stage_texts(x)["config"])
    return bundle
