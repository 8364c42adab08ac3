"""End-to-end pipeline runs: the shipped ``walker2`` replay pinned byte for
byte, and scripted agent responses for the paths the replay never takes
(feedback revise and terminate, an invalid generated file, a bad run id)."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from stageflow import orchestrator
from stageflow.agents import (AgentLog, GeneratedFileBlock, ReplayTransport,
                              ScriptedTransport, request_digest,
                              serialize_file_blocks)
from stageflow.errors import StoreError
from stageflow.vdb import RunArtifact, VectorStore

from conftest import DATA, DESK, TINY_STEPS, desk_stage_texts

FIXTURES = DATA / "fixtures" / "walker2"

# sha256 of the walker2 replay outputs (seed 7), first recorded before the
# orchestrator's duplicate paths were merged and rewritten only by
# tools/regenerate.py; a change here means the run no longer produces the
# same bytes.
WALKER2_SHA256 = json.loads((Path(__file__).parent / "data" / "walker2_digests.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def walker2(tmp_path_factory):
    root = tmp_path_factory.mktemp("walker2")
    prompt = (FIXTURES / "prompt.txt").read_text().strip()
    store = VectorStore(root / "vdb")
    run = orchestrator.run_pipeline(prompt, store, ReplayTransport(FIXTURES),
                                    root / "runs", seed=7)
    return run, root


class TestWalker2Replay:
    def test_completes_both_stages(self, walker2):
        run, _ = walker2
        assert (run.status, run.failure_stage, run.failure_reason) == ("completed", "", "")
        assert [r.stage_index for r in run.stage_results] == [1, 2]

    @pytest.mark.parametrize("name", sorted(WALKER2_SHA256))
    def test_outputs_match_recorded_bytes(self, walker2, name):
        run, _ = walker2
        assert _sha256(Path(run.run_dir) / name) == WALKER2_SHA256[name]

    def test_every_prompt_digest_names_a_fixture(self, walker2):
        run, _ = walker2
        log = [json.loads(line) for line in
               (Path(run.run_dir) / "agent_log.jsonl").read_text().splitlines()]
        assert [e["role"] for e in log] == ["curriculum", "per_stage", "per_stage", "feedback"]
        for entry in log:
            assert (FIXTURES / f"{entry['prompt_digest']}.txt").is_file(), entry

    def test_store_holds_the_run(self, walker2):
        run, root = walker2
        store = VectorStore(root / "vdb")
        assert len(store) == 1
        stored = store.get_run(run.run_id)
        run_dir = Path(run.run_dir)
        assert stored.scores == json.loads((run_dir / "scores.json").read_text())
        assert sorted(stored.files) == [
            "stage1/config.yaml", "stage1/randomize.yaml", "stage1/reward.yaml",
            "stage2/config.yaml", "stage2/randomize.yaml", "stage2/reward.yaml",
            "workflow.yaml"]
        for rel, text in stored.files.items():
            assert (run_dir / rel).read_text() == text, rel
        assert stored.metrics_jsonl == "".join(
            (run_dir / f"stage{i}" / "metrics.jsonl").read_text() for i in (1, 2))


# -- scripted runs ---------------------------------------------------------------

def _curriculum_response(workflow: str = (DESK / "workflow.yaml").read_text()) -> str:
    return serialize_file_blocks([
        GeneratedFileBlock("generated_workflow.yaml", "../workflows/generated_workflow.yaml",
                           workflow),
        GeneratedFileBlock("generated_stage1_details.txt", "../prompts/stage1.txt",
                           "Stage 1: calm tracking.\n"),
        GeneratedFileBlock("generated_stage2_details.txt", "../prompts/stage2.txt",
                           "Stage 2: kicks and noise.\n"),
    ])


def _stage_response(x: int, texts: dict) -> str:
    folders = {"reward": "rewards", "config": "configs", "randomize": "randomize"}
    return serialize_file_blocks([
        GeneratedFileBlock(f"generated_{role}_stage{x}.yaml",
                           f"../{folders[role]}/generated_{role}_stage{x}.yaml", text)
        for role, text in texts.items()])


def _run(tmp_path, responses, **kwargs):
    transport = ScriptedTransport(responses)
    run = orchestrator.run_pipeline("walk on the desk", VectorStore(tmp_path / "vdb"),
                                    transport, tmp_path / "runs", **kwargs)
    return run, transport


# the revised config names the randomize file as the per_stage answer did,
# and by the workflow's name for it through a folder the run layout lacks;
# both must pass the check and be rewritten to the stage layout
RANDOMIZE_PATHS = ["../randomize/generated_randomize_stage2.yaml", "../randomize/randomize.yaml"]


def _revised_config(randomize_path: str) -> str:
    return (desk_stage_texts(2)["config"]
            .replace(f"num_timesteps: {TINY_STEPS}", f"num_timesteps: {2 * TINY_STEPS}")
            .replace('"../randomize/generated_randomize_stage2.yaml"', f'"{randomize_path}"'))


def _revise(randomize_path: str = RANDOMIZE_PATHS[0]) -> str:
    return ("DECISION: revise\nRATIONALE: stage 2 needs a longer budget.\n\n"
            + serialize_file_blocks([GeneratedFileBlock(
                "generated_config_stage2.yaml", "../configs/generated_config_stage2.yaml",
                _revised_config(randomize_path))]))


class TestFeedback:
    def test_revise_rewrites_config_paths_and_keeps_other_roles(self, tmp_path):
        s1, s2 = desk_stage_texts(1), desk_stage_texts(2)
        for k, randomize_path in enumerate(RANDOMIZE_PATHS):
            run, _ = _run(tmp_path / str(k), [_curriculum_response(), _stage_response(1, s1),
                                              _stage_response(2, s2), _revise(randomize_path)])
            assert run.status == "completed", (randomize_path, run.failure_reason)
            stage2 = Path(run.run_dir) / "stage2"
            assert (stage2 / "config.yaml").read_text() == (
                _revised_config(randomize_path)
                .replace('"../rewards/generated_reward_stage2.yaml"', '"reward.yaml"')
                .replace(f'"{randomize_path}"', '"randomize.yaml"'))
            assert (stage2 / "reward.yaml").read_text() == s2["reward"]
            assert (stage2 / "randomize.yaml").read_text() == s2["randomize"]
            stage1 = Path(run.run_dir) / "stage1"
            assert (stage1 / "reward.yaml").read_text() == s1["reward"]
            assert (stage1 / "randomize.yaml").read_text() == s1["randomize"]

    def test_revised_next_stage_trains_with_revised_files(self, tmp_path):
        run, _ = _run(tmp_path, [_curriculum_response(), _stage_response(1, desk_stage_texts(1)),
                                 _stage_response(2, desk_stage_texts(2)), _revise()])
        assert run.status == "completed", run.failure_reason
        assert [r.env_steps for r in run.stage_results] == [TINY_STEPS, 2 * TINY_STEPS]

    def test_terminate_stops_after_the_stage_and_still_scores(self, tmp_path):
        run, _ = _run(tmp_path, [
            _curriculum_response(), _stage_response(1, desk_stage_texts(1)),
            _stage_response(2, desk_stage_texts(2)),
            "DECISION: terminate\nRATIONALE: good enough.\n"])
        assert (run.status, run.failure_reason) == ("terminated_by_feedback", "good enough.")
        assert [r.stage_index for r in run.stage_results] == [1]
        assert (Path(run.run_dir) / "scores.json").is_file()
        assert not (Path(run.run_dir) / "stage2" / "checkpoint.bin").exists()
        assert len(VectorStore(tmp_path / "vdb")) == 1


class TestStageValidation:
    def test_invalid_yaml_block_gives_the_same_finding_every_time(self, tmp_path):
        bad = dict(desk_stage_texts(1), reward="reward: [unclosed\n")
        run, transport = _run(tmp_path, [_curriculum_response()]
                              + [_stage_response(1, bad)] * 3)
        assert (run.status, run.failure_stage) == ("failed", "generation")
        retries = [prompt for role, prompt in transport.calls[2:]]
        assert len(retries) == 2 and retries[0] == retries[1]
        assert "- [PARSE_ERROR] generated_reward_stage1.yaml: invalid YAML at line 2, column 1" \
            in retries[0]
        assert tempfile.gettempdir() not in retries[0]

    def test_unknown_randomization_target_is_retried_before_training(self, tmp_path):
        s1 = desk_stage_texts(1)
        bad = dict(s1, randomize=s1["randomize"].replace("target: ALL", "target: left_shin"))
        run, transport = _run(tmp_path, [
            _curriculum_response(), _stage_response(1, bad), _stage_response(1, s1),
            _stage_response(2, desk_stage_texts(2)), "DECISION: proceed\nRATIONALE: fine.\n"])
        assert run.status == "completed", (run.failure_stage, run.failure_reason)
        assert [role for role, _ in transport.calls] == \
            ["curriculum", "per_stage", "per_stage", "per_stage", "feedback"]
        assert ("- [UNKNOWN_FIELD] randomization.body_mass[0].target: "
                "field 'body_mass' has no target named 'left_shin'") in transport.calls[2][1]


def _log(run) -> list:
    return [json.loads(line) for line in
            (Path(run.run_dir) / "agent_log.jsonl").read_text().splitlines()]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestAgentLog:
    """``agent_log.jsonl`` holds one entry per attempt, under the prompt
    actually sent."""

    def test_a_retry_is_logged_under_the_prompt_it_sent(self, tmp_path):
        bad = dict(desk_stage_texts(1), reward="reward: [unclosed\n")
        run, transport = _run(tmp_path, [
            _curriculum_response(), _stage_response(1, bad),
            _stage_response(1, desk_stage_texts(1)), _stage_response(2, desk_stage_texts(2)),
            "DECISION: proceed\nRATIONALE: fine.\n"])
        assert run.status == "completed", (run.failure_stage, run.failure_reason)
        assert [e["prompt_digest"] for e in _log(run)] == \
            [request_digest(role, prompt) for role, prompt in transport.calls]
        assert transport.calls[1][1] != transport.calls[2][1]

    def test_exhausted_retries_log_every_attempt_with_its_findings(self, tmp_path):
        bad = _stage_response(1, dict(desk_stage_texts(1), reward="reward: [unclosed\n"))
        run, transport = _run(tmp_path, [_curriculum_response()] + [bad] * 3)
        assert (run.status, run.failure_stage) == ("failed", "generation")
        assert run.failure_reason.startswith("[RETRIES_EXHAUSTED]")
        entries = [e for e in _log(run) if e["role"] == "per_stage"]
        assert [e["prompt_digest"] for e in entries] == \
            [request_digest(role, prompt) for role, prompt in transport.calls[1:]]
        assert [e["response_digest"] for e in entries] == [_digest(bad)] * 3
        assert [e["findings"] for e in entries] == [[
            "[PARSE_ERROR] generated_reward_stage1.yaml: invalid YAML at line 2, column 1"]] * 3

    def test_a_transport_error_is_logged_once_and_ends_the_run(self, tmp_path):
        run, transport = _run(tmp_path, [])
        assert (run.status, run.failure_stage) == ("failed", "generation")
        (role, prompt), = transport.calls
        assert _log(run) == [{
            "role": "curriculum", "prompt_digest": request_digest(role, prompt),
            "response_digest": _digest(""),
            "findings": ["[RETRIES_EXHAUSTED] scripted transport ran out of responses"]}]


class TestRetrieval:
    def test_blank_query_answers_fail_the_run_in_generation(self, tmp_path):
        store = VectorStore(tmp_path / "vdb")
        store.add_run(RunArtifact("run-0001", "walk on the desk",
                                  {"workflow.yaml": (DESK / "workflow.yaml").read_text()}))
        run, transport = _run(tmp_path, ["", "\n  \n", "   "])
        assert (run.status, run.failure_stage) == ("failed", "generation")
        assert run.failure_reason.startswith("[RETRIES_EXHAUSTED]")
        assert [role for role, _ in transport.calls] == ["vdb_query"] * 3
        log = _log(run)
        assert [e["prompt_digest"] for e in log] == \
            [request_digest(role, prompt) for role, prompt in transport.calls]
        assert all(e["findings"] and e["findings"][0].startswith("[NO_QUERY]") for e in log)

    def test_a_query_with_no_word_is_retried(self, tmp_path):
        # the store embeds only alphanumeric tokens, so '???' cannot be searched by
        store = VectorStore(tmp_path / "vdb")
        store.add_run(RunArtifact("run-0001", "walk on the desk",
                                  {"workflow.yaml": (DESK / "workflow.yaml").read_text()}))
        run, transport = _run(tmp_path, ["???", "walk"])
        assert [role for role, _ in transport.calls] == ["vdb_query", "vdb_query", "selector"]
        assert "- [EMPTY_TEXT]" in transport.calls[1][1]
        assert [e["findings"] for e in _log(run)][:2] == [
            ["[EMPTY_TEXT] query '???' has no ASCII letter or digit to search by"], []]


    def test_examples_come_from_every_retrieved_run(self, tmp_path):
        """Each selected file comes from the highest-ranked run that holds
        it, and per role the selection with the lowest stage index counts
        (stage 2 before stage 10)."""
        store = VectorStore(tmp_path / "vdb")
        store.add_run(RunArtifact("run-a", "walk on the desk", {
            "a_workflow.yaml": "workflow: a\n",
            "a_reward_stage1.yaml": "reward: a1\n",
            "shared_config.yaml": "config: a\n",
        }))
        store.add_run(RunArtifact("run-b", "swim across the pond", {
            "b_workflow.yaml": "workflow: b\n",
            "b_reward_stage2.yaml": "reward: b2\n",
            "b_reward_stage10.yaml": "reward: b10\n",
            "shared_config.yaml": "config: b\n",
            "b_randomize_stage2.yaml": "randomize: b2\n",
        }))
        selection = {"workflow": "b_workflow.yaml",
                     "reward_stage10": "b_reward_stage10.yaml",
                     "reward_stage2": "b_reward_stage2.yaml",
                     "config_stage3": "shared_config.yaml",
                     "randomize_stage2": "b_randomize_stage2.yaml"}
        transport = ScriptedTransport(["walk on the desk",
                                       f"```json\n{json.dumps(selection)}\n```"])
        run = orchestrator.CurriculumRun("run-c", "walk on the desk", str(tmp_path))
        examples, evaluations = orchestrator._retrieve(
            "walk on the desk", store, transport, AgentLog(tmp_path / "log.jsonl"), run)
        assert evaluations.index("run run-a") < evaluations.index("run run-b")
        assert run.retrieved == selection
        assert examples == {"workflow": "workflow: b\n", "reward": "reward: b2\n",
                            "config": "config: a\n", "randomize": "randomize: b2\n"}

    def test_a_stage_selection_takes_that_stage_of_a_pipeline_run(self, tmp_path):
        """Runs the pipeline stores name every stage's files alike
        (``stage2/reward.yaml``), so the selection's stage picks the file,
        from a lower-ranked run when the top run lacks that stage; a bare
        file-name match counts only when no run holds the stage."""
        store = VectorStore(tmp_path / "vdb")
        store.add_run(RunArtifact("run-a", "walk on the desk", {
            "workflow.yaml": "workflow: a\n",
            **{f"stage{i}/{role}.yaml": f"{role}: a{i}\n"
               for i in (1, 2, 10) for role in ("reward", "config", "randomize")}}))
        store.add_run(RunArtifact("run-b", "swim across the pond", {
            f"stage{i}/{role}.yaml": f"{role}: b{i}\n"
            for i in (3, 4) for role in ("reward", "config", "randomize")}))
        selection = {"reward_stage2": "reward.yaml", "config_stage3": "config.yaml",
                     "randomize_stage5": "randomize.yaml"}
        transport = ScriptedTransport(["walk", f"```json\n{json.dumps(selection)}\n```"])
        run = orchestrator.CurriculumRun("run-c", "walk", str(tmp_path))
        examples, evaluations = orchestrator._retrieve(
            "walk", store, transport, AgentLog(tmp_path / "log.jsonl"), run)
        assert evaluations.index("run run-a") < evaluations.index("run run-b")
        assert examples == {**orchestrator.seed_examples(), "reward": "reward: a2\n",
                            "config": "config: b3\n", "randomize": "randomize: a1\n"}


class TestCurriculumCheck:
    @pytest.mark.parametrize("workflow", [
        (DESK / "workflow.yaml").read_text().replace("index: 1", "index: one"),
        "workflow:\n  - index: 1\n",
        "a plain sentence\n",
    ], ids=["index not an integer", "workflow a list", "document a string"])
    def test_bad_workflow_is_retried_with_a_parse_error(self, tmp_path, workflow):
        run, transport = _run(tmp_path, [_curriculum_response(workflow), _curriculum_response()])
        assert (run.status, run.failure_stage) == ("failed", "generation")
        assert [role for role, _ in transport.calls] == ["curriculum", "curriculum", "per_stage"]
        assert "- [PARSE_ERROR] generated_workflow.yaml" in transport.calls[1][1]


class TestRunId:
    @pytest.mark.parametrize("run_id", ["../x", "a/b", "..", "."])
    def test_run_id_must_be_one_path_component(self, tmp_path, run_id):
        with pytest.raises(StoreError) as e:
            _run(tmp_path / "out", [], run_id=run_id)
        assert e.value.code == "BAD_RUN_ID"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["vdb"]

    def test_a_failed_run_does_not_hand_its_id_to_the_next(self, tmp_path):
        # a failed run is not stored, so the store's size alone names the
        # same id again; the next run must not append to the failed run's log
        first, _ = _run(tmp_path, [])
        first_log = (Path(first.run_dir) / "agent_log.jsonl").read_text()
        second, _ = _run(tmp_path, [])
        assert (first.status, second.status) == ("failed", "failed")
        assert (first.run_id, second.run_id) == ("run-0001", "run-0002")
        assert (Path(first.run_dir) / "agent_log.jsonl").read_text() == first_log
        assert (Path(second.run_dir) / "agent_log.jsonl").read_text() == first_log

    def test_an_explicit_run_id_that_exists_is_refused(self, tmp_path):
        (tmp_path / "runs" / "mine").mkdir(parents=True)
        with pytest.raises(StoreError) as e:
            _run(tmp_path, [], run_id="mine")
        assert e.value.code == "RUN_EXISTS"
        assert list((tmp_path / "runs" / "mine").iterdir()) == []
