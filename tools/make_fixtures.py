"""Regenerate the shipped replay fixtures for the 2-stage walker pipeline.

The replay transport serves responses keyed by a digest of the exact prompt,
so the fixtures must be re-recorded whenever anything that feeds a prompt
changes: the templates, the docs data files, the seed example bundle, or the
trainer (the feedback prompt embeds training metrics). Run from the repo
root:

    python3 tools/make_fixtures.py

This executes the full pipeline once (including both training stages) with
authored agent responses and records every exchange under
src/stageflow/data/fixtures/walker2/.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stageflow.agents import (GeneratedFileBlock, RecordingTransport, ScriptedTransport,
                              serialize_file_blocks)
from stageflow.orchestrator import run_pipeline, seed_examples
from stageflow.vdb import VectorStore

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src/stageflow/data/fixtures/walker2"

TASK_PROMPT = (
    "Train the desk walker to follow commanded planar velocities, then keep "
    "tracking under mild kicks and sensor noise. Use two training stages."
)

STAGE1_DETAILS = """\
Stage 1: calm velocity tracking.
Objective: learn a stable gait that tracks the commanded planar velocity and
yaw rate on a flat, undisturbed scene.
Disturbances: none (no kicks, no observation noise); small initial pose
randomization only.
Reward: velocity and yaw tracking with a tight exponential-decay sigma plus
an upright-posture penalty.
Configuration: fresh network, 40k environment steps, modest domain
randomization of body mass.
Checkpointing: starts fresh; its checkpoint seeds stage 2.
"""

STAGE2_DETAILS = """\
Stage 2: perturbation resilience.
Objective: keep tracking accuracy under periodic velocity kicks and mild
sensor noise.
Disturbances: kicks of 0.05-0.12 m/s every 80 steps and observation noise
0.01; wider mass and friction randomization.
Reward: unchanged term structure from stage 1 so metrics stay comparable.
Configuration: resumes from the stage 1 checkpoint, 40k additional steps.
Checkpointing: resumes from checkpoint.
"""

FEEDBACK_RESPONSE = """\
DECISION: proceed
RATIONALE: Stage 1 metrics show steady reward growth with stable losses and
no divergence, so the stage 2 files can be used unchanged.
"""


def _trim_trainer(cfg_text: str) -> str:
    out = cfg_text.replace("num_timesteps: 200_000", "num_timesteps: 40_000")
    return out.replace("num_evals: 5", "num_evals: 3")


def authored_responses() -> list:
    """The authored answers in the order a cold run asks for them: the
    curriculum, each stage's files, then the feedback between the stages."""
    desk = Path(__file__).resolve().parents[1] / "src/stageflow/data/bundles/desk"
    ex = seed_examples()
    workflow = ex["workflow"]
    stage_blocks = []
    for x in (1, 2):
        reward = (desk / f"rewards/generated_reward_stage{x}.yaml").read_text()
        config = _trim_trainer(
            (desk / f"configs/generated_config_stage{x}.yaml").read_text())
        randomize = (desk / f"randomize/generated_randomize_stage{x}.yaml").read_text()
        stage_blocks.append(serialize_file_blocks([
            GeneratedFileBlock(f"generated_reward_stage{x}.yaml",
                               f"../rewards/generated_reward_stage{x}.yaml", reward),
            GeneratedFileBlock(f"generated_config_stage{x}.yaml",
                               f"../configs/generated_config_stage{x}.yaml", config),
            GeneratedFileBlock(f"generated_randomize_stage{x}.yaml",
                               f"../randomize/generated_randomize_stage{x}.yaml",
                               randomize),
        ]))
    curriculum = serialize_file_blocks([
        GeneratedFileBlock("generated_workflow.yaml",
                           "../workflows/generated_workflow.yaml", workflow),
        GeneratedFileBlock("generated_stage1_details.txt",
                           "../prompts/tmp/generated_stage1_details.txt",
                           STAGE1_DETAILS),
        GeneratedFileBlock("generated_stage2_details.txt",
                           "../prompts/tmp/generated_stage2_details.txt",
                           STAGE2_DETAILS),
    ])
    return [curriculum, *stage_blocks, FEEDBACK_RESPONSE]


def main() -> int:
    if FIXTURE_DIR.exists():
        shutil.rmtree(FIXTURE_DIR)
    transport = RecordingTransport(ScriptedTransport(authored_responses()), FIXTURE_DIR)
    with tempfile.TemporaryDirectory() as td:
        vdb = VectorStore(Path(td) / "vdb")
        run = run_pipeline(TASK_PROMPT, vdb, transport, Path(td) / "runs", seed=7)
        if run.status != "completed" or len(run.stage_results) != 2:
            print(f"pipeline did not complete: {run.status} "
                  f"({run.failure_stage}: {run.failure_reason})")
            return 1
        print(f"recorded {len(list(FIXTURE_DIR.glob('*.txt')))} fixtures; "
              f"scores {run.scores.to_dict()}")
    (FIXTURE_DIR / "prompt.txt").write_text(TASK_PROMPT + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
