"""The traced benchmark run wraps package bindings by name
(``perfbench/tracing.py``); a rename or removal must fail here, not crash
the traced run."""

import importlib.util
from pathlib import Path

import numpy as np

from stageflow import env

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_every_binding():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


def test_vecenv_construction_samples_scenes_once():
    """The traced run predicts the randomize layer to move on wide runs, so
    construction must reach ``resample_per_env`` through the module, once."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    rules = {"body_mass": [{"target": "ALL", "operation": "scale",
                            "distribution": {"uniform": {"minval": 0.9, "maxval": 1.1}}}]}
    try:
        tracing.install(tracer)
        vec = env.VecEnv({"obs_noise": 0.01}, 8, base_seed=1, randomize_rules=rules)
        vec.step(np.zeros((8, env.ACTION_DIM)))
    finally:
        tracer.uninstall()
    assert tracer.names.count("env.construct") == 1
    assert tracer.names.count("randomize.resample") == 1
    assert tracer.names.count("env.step") == 1
    assert all(tracer.ok)
