"""The command line: exit codes, and the commands the pipeline replay does
not run (train, vdb add)."""

import json
from pathlib import Path

import pytest

from stageflow import trainer
from stageflow.cli import main
from stageflow.vdb import VectorStore

from conftest import DATA, DESK, TINY_STEPS


def _cli(capsys, *argv):
    code = main(["--json", *map(str, argv)])
    return code, capsys.readouterr()


def _write_run_dir(root: Path, stages: int) -> Path:
    """A finished run directory in the pipeline's layout."""
    run_dir = root / "run-0007"
    stage_entries = []
    for i in range(1, stages + 1):
        d = run_dir / f"stage{i}"
        d.mkdir(parents=True)
        for role in ("reward", "config", "randomize"):
            (d / f"{role}.yaml").write_text(f"{role}: stage {i}\n")
        (d / "metrics.jsonl").write_text(json.dumps({"stage": i}) + "\n")
        stage_entries.append(f"  - index: {i}\n")
    (run_dir / "workflow.yaml").write_text("workflow:\n  stages:\n" + "".join(stage_entries))
    (run_dir / "scores.json").write_text(json.dumps({"survival_score": 0.5}))
    (run_dir / "prompt.txt").write_text("walk forward")
    return run_dir


class TestExitCodes:
    def test_valid_bundle(self, capsys):
        code, out = _cli(capsys, "validate", DESK)
        assert code == 0
        assert json.loads(out.out)["ok"] is True

    def test_mutant_bundle_is_a_finding(self, capsys, tiny_desk):
        cfg = tiny_desk / "configs/generated_config_stage1.yaml"
        cfg.write_text(cfg.read_text().replace("num_envs: 64", "num_envs: 63"))
        code, out = _cli(capsys, "validate", tiny_desk)
        assert code == 1
        assert "POWER_OF_TWO" in {f["code"] for f in json.loads(out.out)["findings"]}

    @pytest.mark.parametrize("argv", [[], ["validate"], ["frobnicate"],
                                      ["train", "--workflow", "w.yaml"],
                                      ["mutate", "--bundle", str(DESK), "--out", "x"],
                                      ["score", "--trace", "trace.jsonl"]])
    def test_usage_error(self, capsys, argv):
        assert main(argv) == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--prompt", "prompt.txt", "--vdb", "vdb", "--out", "out", "--seed", "-1"],
        ["train", "--workflow", str(DESK / "workflow.yaml"), "--out", "out", "--seed", "-1"],
        ["mutate", "--bundle", str(DESK), "--out", "out", "--seed", "-2"]])
    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["vdb", "query", "walk", "-k", "0", "--vdb", "vdb"], "k must be an integer >= 1"),
        (["vdb", "query", "walk", "-k", "-1", "--vdb", "vdb"], "k must be an integer >= 1"),
        (["vdb", "query", "walk", "-k", "two", "--vdb", "vdb"], "k must be an integer >= 1")],
        ids=["k 0", "k -1", "k two"])
    def test_a_count_below_one_is_a_usage_error(self, capsys, tmp_path, monkeypatch,
                                                argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_runtime_failure(self, capsys, tmp_path):
        code, out = _cli(capsys, "validate", tmp_path / "nope.yaml")
        assert code == 3
        assert "MISSING_FILE" in out.err

    @pytest.mark.parametrize("rel", ["workflow.yaml", "rewards/generated_reward_stage2.yaml"])
    @pytest.mark.parametrize("command", ["validate", "train", "mutate"])
    def test_a_bundle_file_that_is_not_utf8_is_a_parse_error(
            self, capsys, tmp_path, tiny_desk, command, rel):
        bad = tiny_desk / rel
        bad.write_bytes(b"# caf\xe9\n" + bad.read_bytes())  # Latin-1, not UTF-8
        argv = {"validate": [tiny_desk],
                "train": ["--workflow", tiny_desk / "workflow.yaml", "--out", tmp_path / "out"],
                "mutate": ["--bundle", tiny_desk]}[command]
        code, out = _cli(capsys, command, *argv)
        assert code == 3
        assert out.err.startswith("error PARSE_ERROR: ") and str(bad) in out.err
        assert not (tmp_path / "out").exists()

    def test_a_prompt_that_is_not_utf8_is_a_parse_error(self, capsys, tmp_path):
        prompt = tmp_path / "prompt.txt"
        prompt.write_bytes(b"walk \xff forward\n")
        code, out = _cli(capsys, "run", "--prompt", prompt, "--vdb", tmp_path / "vdb",
                         "--out", tmp_path / "out", "--fixtures", DATA / "fixtures" / "walker2")
        assert code == 3
        assert out.err.startswith("error PARSE_ERROR: ") and str(prompt) in out.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rel,content", [
        ("scores.json", b"{not json"),
        ("scores.json", b'{"survival_score": "\xff"}'),
        ("stage1/reward.yaml", b"reward: caf\xe9\n"),
        ("stage1/metrics.jsonl", b'{"stage": 1}\n\xff\n'),
        ("prompt.txt", b"walk \xff forward"),
    ], ids=["scores not JSON", "scores not UTF-8", "stage file not UTF-8",
            "metrics not UTF-8", "prompt not UTF-8"])
    def test_a_run_dir_file_vdb_add_cannot_read_is_a_store_error(
            self, capsys, tmp_path, rel, content):
        run_dir = _write_run_dir(tmp_path, stages=1)
        (run_dir / rel).write_bytes(content)
        code, out = _cli(capsys, "vdb", "add", run_dir, "--vdb", tmp_path / "vdb")
        assert code == 3
        assert out.err.startswith("error CORRUPT_RUN: ") and str(run_dir / rel) in out.err
        assert len(VectorStore(tmp_path / "vdb")) == 0

    def test_live_transport_without_configuration(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("STAGEFLOW_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("STAGEFLOW_LLM_MODEL", raising=False)
        (tmp_path / "prompt.txt").write_text("walk forward\n")
        code, out = _cli(capsys, "run", "--prompt", tmp_path / "prompt.txt",
                         "--vdb", tmp_path / "vdb", "--out", tmp_path / "out",
                         "--transport", "live")
        assert code == 3
        assert out.err.startswith("error MISSING_CONFIG: ")


class TestRunOverrides:
    @pytest.mark.parametrize("override", ["trainer.seed.x=1", "trainer.seed.x.y=1"])
    def test_an_override_through_a_non_mapping_is_a_parse_error(self, capsys, tmp_path,
                                                                 override):
        fixtures = DATA / "fixtures" / "walker2"
        code, out = _cli(capsys, "run", "--prompt", fixtures / "prompt.txt",
                         "--vdb", tmp_path / "vdb", "--out", tmp_path / "out",
                         "--fixtures", fixtures, "--override", override)
        assert code == 3, out.err
        run = json.loads(out.out)
        assert (run["status"], run["failure_stage"]) == ("failed", "generation")
        key = override.split("=")[0]
        assert run["failure_reason"].startswith(
            f"[PARSE_ERROR] override {key!r}: 'seed' holds 7, not a mapping")

    @pytest.mark.parametrize("override,reason", [
        ("trainer.num_envs=63", "[POWER_OF_TWO] override 'trainer.num_envs': "
                                "num_envs must be a power of 2, got 63"),
        ("environment.init_rand=no", "[TYPE_ERROR] override 'environment.init_rand': "
                                     "init_rand must be true or false, got 'no'"),
    ], ids=["num_envs=63", "init_rand=no"])
    def test_an_override_the_schema_refuses_fails_before_any_exchange(
            self, capsys, tmp_path, override, reason):
        """The override is checked against the config table before the
        first agent exchange, so the run names the override, not the
        agent's files, and no prompt is sent."""
        fixtures = DATA / "fixtures" / "walker2"
        code, out = _cli(capsys, "run", "--prompt", fixtures / "prompt.txt",
                         "--vdb", tmp_path / "vdb", "--out", tmp_path / "out",
                         "--fixtures", fixtures, "--override", override)
        assert code == 3, out.err
        run = json.loads(out.out)
        assert (run["status"], run["failure_stage"], run["failure_reason"]) == (
            "failed", "validation", reason)
        log = Path(run["run_dir"]) / "agent_log.jsonl"
        assert (log.read_text() if log.exists() else "") == ""


class TestValidate:
    def test_randomization_rules_are_checked_against_the_scene(self, capsys, tiny_desk):
        rnd = tiny_desk / "randomize/generated_randomize_stage2.yaml"
        text = rnd.read_text()
        rnd.write_text(text.replace("- target: ALL", "- target: left_shin", 1)
                       .replace("[0.6, 0.0, 0.0]", "[0.6, 0.0]")
                       .replace("[1.1, 0.0, 0.0]", "[1.1, 0.0]"))
        code, out = _cli(capsys, "validate", tiny_desk)
        assert code == 1
        found = {(f["code"], f["path"]) for f in json.loads(out.out)["findings"]}
        assert found == {
            ("UNKNOWN_FIELD", "randomization.body_mass[0].target"),
            ("SHAPE_MISMATCH", "randomization.geom_friction[0].distribution.uniform")}

    @pytest.mark.parametrize("old,new,code,path", [
        ("obs_noise: 0.0", "obs_noise: -1", "POSITIVE_REQUIRED", "environment.obs_noise"),
        ("obs_noise: 0.0", "obs_noise: loud", "TYPE_ERROR", "environment.obs_noise"),
        ("num_minibatches: 4", "num_minibatches: 1000000", "TOO_MANY_MINIBATCHES",
         "trainer.num_minibatches"),
        # YAML 1.1 reads an exponent without its sign as a string
        ("learning_rate: 3.0e-4", "learning_rate: 1.0e12", "TYPE_ERROR",
         "trainer.learning_rate"),
        ("discounting: 0.97", "discounting: '0.97 '", "TYPE_ERROR", "trainer.discounting"),
        # YAML reads .nan and .inf as floats that no comparison rejects
        ("learning_rate: 3.0e-4", "learning_rate: .nan", "TYPE_ERROR", "trainer.learning_rate"),
        ("learning_rate: 3.0e-4", "learning_rate: .inf", "TYPE_ERROR", "trainer.learning_rate"),
        ("clipping_epsilon: 0.2", "clipping_epsilon: .inf", "TYPE_ERROR",
         "trainer.clipping_epsilon"),
        ("obs_noise: 0.0", "obs_noise: .inf", "TYPE_ERROR", "environment.obs_noise"),
    ], ids=["negative obs_noise", "non-numeric obs_noise", "more minibatches than rows",
            "learning_rate read as a string", "quoted discounting", "NaN learning_rate",
            "infinite learning_rate", "infinite clipping_epsilon", "infinite obs_noise"])
    def test_config_value_the_trainer_cannot_use(self, capsys, tiny_desk, tmp_path,
                                                 old, new, code, path):
        cfg = tiny_desk / "configs/generated_config_stage1.yaml"
        assert old in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(old, new, 1))
        found, out = _cli(capsys, "validate", tiny_desk)
        assert found == 1
        findings = json.loads(out.out)["findings"]
        assert {(f["code"], f["path"]) for f in findings} == {(code, path)}
        if code == "TYPE_ERROR":  # the message says how to write a number
            assert "must be a finite number" in findings[0]["message"]
            assert "1.0e+12" in findings[0]["message"]
        found, out = _cli(capsys, "train", "--workflow", tiny_desk / "workflow.yaml",
                          "--out", tmp_path / "out", "--paper-scale")
        assert found == 1 and not (tmp_path / "out").exists()  # refused before training

    @pytest.mark.parametrize("old,new", [
        ("- index: 1", "- index: one"),
        ("promotion:\n        mode: timesteps_exhausted",
         "promotion: {reward_threshold: high}"),
        ("promotion:\n        mode: timesteps_exhausted", "promotion: fast"),
        ("reward: rewards/generated_reward_stage1.yaml", "reward: 5"),
    ], ids=["index", "reward_threshold", "promotion", "file path"])
    def test_bad_stage_entry_is_a_parse_error(self, capsys, tiny_desk, old, new):
        wf = tiny_desk / "workflow.yaml"
        text = wf.read_text()
        assert old in text
        wf.write_text(text.replace(old, new, 1))
        code, out = _cli(capsys, "validate", tiny_desk)
        assert code == 3
        assert out.err.startswith("error PARSE_ERROR: ")
        assert str(wf) in out.err
        assert "Traceback" not in out.out + out.err


class TestTrain:
    def test_two_stages_chain_the_checkpoint(self, capsys, tiny_desk, tmp_path, monkeypatch):
        loaded = []
        real_load = trainer.load_checkpoint

        def spy(path):
            loaded.append(Path(path))
            return real_load(path)

        monkeypatch.setattr(trainer, "load_checkpoint", spy)
        out = tmp_path / "out"
        code, printed = _cli(capsys, "train", "--workflow", tiny_desk / "workflow.yaml",
                             "--out", out)
        assert code == 0, printed.err
        records = json.loads(printed.out)["stages"]
        assert [(r["stage"], r["env_steps"], r["promoted"]) for r in records] == \
            [(1, TINY_STEPS, True), (2, TINY_STEPS, True)]
        assert loaded == [out / "stage1" / "checkpoint.bin"]
        for i in (1, 2):
            assert (out / f"stage{i}" / "checkpoint.bin").is_file()
            assert len((out / f"stage{i}" / "metrics.jsonl").read_text().splitlines()) == 1


class TestVdbAdd:
    def test_add_then_get_run(self, capsys, tmp_path):
        run_dir = _write_run_dir(tmp_path, stages=2)
        code, out = _cli(capsys, "vdb", "add", run_dir, "--vdb", tmp_path / "vdb",
                         "--evaluation", "steady gait")
        assert code == 0, out.err
        assert json.loads(out.out) == {"run_id": "run-0007", "files": 7}
        art = VectorStore(tmp_path / "vdb").get_run("run-0007")
        assert art.prompt == "walk forward"
        assert art.evaluation == "steady gait"
        assert art.scores == {"survival_score": 0.5}
        assert art.files == {
            rel: (run_dir / rel).read_text() for rel in
            ["workflow.yaml"] + [f"stage{i}/{role}.yaml" for i in (1, 2)
                                 for role in ("reward", "config", "randomize")]}
        assert art.metrics_jsonl == '{"stage": 1}\n{"stage": 2}\n'

    def test_metrics_follow_numeric_stage_order(self, capsys, tmp_path):
        run_dir = _write_run_dir(tmp_path, stages=11)
        code, out = _cli(capsys, "vdb", "add", run_dir, "--vdb", tmp_path / "vdb")
        assert code == 0, out.err
        art = VectorStore(tmp_path / "vdb").get_run("run-0007")
        assert [json.loads(line)["stage"] for line in art.metrics_jsonl.splitlines()] == \
            list(range(1, 12))


class TestCorruptStore:
    @pytest.mark.parametrize("text", ["not json", '{"dim": 256}'])
    def test_vdb_commands_exit_3_naming_the_index(self, capsys, tmp_path, text):
        (tmp_path / "vdb").mkdir()
        (tmp_path / "vdb" / "index.json").write_text(text)
        (tmp_path / "prompt.txt").write_text("walk forward\n")
        run_dir = _write_run_dir(tmp_path / "src", stages=1)
        for argv in (["vdb", "query", "walk", "--vdb", tmp_path / "vdb"],
                     ["vdb", "add", run_dir, "--vdb", tmp_path / "vdb"],
                     ["run", "--prompt", tmp_path / "prompt.txt", "--vdb", tmp_path / "vdb",
                      "--out", tmp_path / "out", "--fixtures", DATA / "fixtures" / "walker2"]):
            code, out = _cli(capsys, *argv)
            assert code == 3, argv
            assert "CORRUPT_INDEX" in out.err and str(tmp_path / "vdb" / "index.json") in out.err
        assert (tmp_path / "vdb" / "index.json").read_text() == text


class TestRunIdEscape:
    def test_vdb_add_run_id_stays_in_the_store(self, capsys, tmp_path):
        run_dir = _write_run_dir(tmp_path / "src", stages=1)
        code, out = _cli(capsys, "vdb", "add", run_dir, "--vdb", tmp_path / "a" / "vdb",
                         "--run-id", "../../x")
        assert code == 3
        assert "BAD_RUN_ID" in out.err
        assert not (tmp_path / "a" / "x").exists()
        assert not (tmp_path / "x").exists()
        assert len(VectorStore(tmp_path / "a" / "vdb")) == 0

    def test_run_run_id_stays_in_out(self, capsys, tmp_path):
        (tmp_path / "prompt.txt").write_text("a task with no fixture\n")
        code, out = _cli(capsys, "run", "--prompt", tmp_path / "prompt.txt",
                         "--vdb", tmp_path / "vdb", "--out", tmp_path / "out",
                         "--fixtures", DATA / "fixtures" / "walker2", "--run-id", "../x")
        assert code == 3
        assert "BAD_RUN_ID" in out.err
        assert not (tmp_path / "x").exists()

    def test_run_run_id_that_exists_is_refused(self, capsys, tmp_path):
        (tmp_path / "prompt.txt").write_text("a task with no fixture\n")
        (tmp_path / "out" / "taken").mkdir(parents=True)
        code, out = _cli(capsys, "run", "--prompt", tmp_path / "prompt.txt",
                         "--vdb", tmp_path / "vdb", "--out", tmp_path / "out",
                         "--fixtures", DATA / "fixtures" / "walker2", "--run-id", "taken")
        assert code == 3
        assert "RUN_EXISTS" in out.err
        assert list((tmp_path / "out" / "taken").iterdir()) == []
