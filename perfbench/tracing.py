"""Span tracing for the traced benchmark run, installed from outside the package.

``install(tracer)`` replaces the module attributes and class methods that the
package's callers actually look up (``trainer.eval_total_batch``,
``orchestrator.train_stage``, ``VecEnv.step``, ...) with wrappers that record
one span per call: name, parent span, start, end and whether the call raised.
Nothing under ``src/`` changes; the wrappers are undone by ``uninstall``.

Some layers are named by where they run:

* ``VecEnv`` construction, ``step`` and ``observe`` inside ``trainer.eval``
  (the periodic evaluation rollout, 16 envs) are ``env.eval_*``; elsewhere
  they run at training width and are ``env.construct``/``env.step``/
  ``env.observe``.
* ``mlp_forward`` directly inside ``trainer.ppo_loss`` is
  ``trainer.mlp_forward``; elsewhere it is the inference forward of
  act/value, ``trainer.mlp_forward_infer``.

Spans stay in memory; ``summarize`` reduces them to per-layer call counts,
totals, self time (duration minus the time covered by child spans) and
per-call p50/p99 when the sample ends.
"""

from __future__ import annotations

import functools
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ok: list[bool] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def wrap(self, fn, namer):
        """Wrap ``fn`` so every call records a span named ``namer(self)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(namer(self))
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self.ok.append(False)
            self._stack.append(idx)
            self.starts.append(_clock())
            try:
                out = fn(*args, **kwargs)
                self.ok[idx] = True
                return out
            finally:
                self.ends[idx] = _clock()
                self._stack.pop()

        return traced

    def patch(self, owner, attr: str, namer) -> None:
        original = vars(owner)[attr]  # the plain function, also for methods
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, namer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _fixed(name):
    return lambda tracer: name


def _by_phase(train_name, eval_name):
    return lambda tracer: eval_name if tracer.inside("trainer.eval") else train_name


def _forward(tracer):
    return ("trainer.mlp_forward" if tracer.parent_name() == "trainer.ppo_loss"
            else "trainer.mlp_forward_infer")


def install(tracer: Tracer) -> None:
    """Wrap every traced binding of the package. Call before the workload's
    set-up so that set-up calls (bundle parsing, validation) are traced too."""
    from stageflow import (agents, env, orchestrator, randomize, schema,
                           scoring, trainer, vdb)

    p = tracer.patch
    p(env.VecEnv, "__init__", _by_phase("env.construct", "env.eval_construct"))
    p(env.VecEnv, "step", _by_phase("env.step", "env.eval_step"))
    p(env.VecEnv, "observe", _by_phase("env.observe", "env.eval_observe"))
    p(env.DeskWalker, "step", _fixed("env.desk_walker_step"))
    p(randomize, "resample_per_env", _fixed("randomize.resample"))

    p(trainer, "compile_program", _fixed("reward.compile"))
    p(trainer, "eval_total_batch", _fixed("reward.eval_total_batch"))

    p(trainer.Policy, "act", _fixed("trainer.act"))
    p(trainer.Policy, "value", _fixed("trainer.value"))
    p(trainer.Policy, "act_deterministic", _fixed("trainer.act_deterministic"))
    p(trainer.RunningNorm, "normalize", _fixed("trainer.obs_norm"))
    p(trainer.RunningNorm, "update", _fixed("trainer.obs_norm_update"))
    p(trainer, "ppo_loss", _fixed("trainer.ppo_loss"))
    p(trainer, "mlp_forward", _forward)
    p(trainer, "mlp_backward", _fixed("trainer.mlp_backward"))
    p(trainer.Adam, "step", _fixed("trainer.adam_step"))
    p(trainer, "gae", _fixed("trainer.gae"))
    p(trainer, "save_checkpoint", _fixed("trainer.checkpoint"))
    p(trainer, "load_checkpoint", _fixed("trainer.checkpoint_load"))
    p(orchestrator, "load_checkpoint", _fixed("trainer.checkpoint_load"))
    p(trainer, "_collect", _fixed("trainer.collect"))
    p(trainer, "_evaluate", _fixed("trainer.eval"))
    p(trainer, "train_stage", _fixed("trainer.train_stage"))
    p(orchestrator, "train_stage", _fixed("trainer.train_stage"))

    p(schema, "parse_bundle", _fixed("schema.parse_bundle"))
    p(schema, "validate", _fixed("schema.validate"))
    p(orchestrator, "parse_bundle", _fixed("schema.parse_bundle"))
    p(orchestrator, "validate", _fixed("schema.validate"))

    p(orchestrator, "run_pipeline", _fixed("orchestrator.run_pipeline"))
    p(orchestrator, "final_scores", _fixed("orchestrator.final_scores"))
    p(scoring, "score_triple", _fixed("scoring.score_triple"))

    p(agents.ReplayTransport, "send", _fixed("agents.send"))
    p(orchestrator, "render", _fixed("agents.render"))
    p(orchestrator, "parse_file_blocks", _fixed("agents.parse_file_blocks"))
    p(orchestrator, "invoke_with_retry", _fixed("agents.invoke"))
    p(vdb.VectorStore, "add_run", _fixed("vdb.add_run"))


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, failed calls, total and self seconds, and the
    p50/p99 of the per-call duration in ms."""
    n = len(tracer.names)
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    child = np.zeros(n)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)
    out = {}
    for name, idx in by_name.items():
        d = dur[idx]
        out[name] = {
            "calls": len(idx),
            "failed": sum(1 for i in idx if not tracer.ok[i]),
            "total_s": float(d.sum()),
            "self_s": float((d - child[idx]).sum()),
            "p50_ms": float(np.percentile(d, 50) * 1e3),
            "p99_ms": float(np.percentile(d, 99) * 1e3),
        }
    return out
