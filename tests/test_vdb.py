"""The vector store of past runs: what it keeps across a reopen, and how it
refuses and ranks."""

import pytest

from stageflow.errors import StoreError
from stageflow.vdb import RunArtifact, VectorStore


def _artifact(run_id: str, prompt: str = "walk on the desk", evaluation: str = "") -> RunArtifact:
    return RunArtifact(
        run_id=run_id, prompt=prompt,
        files={"workflow.yaml": "workflow: {}\n", "stage1/reward.yaml": "reward: []\n"},
        metrics_jsonl='{"step": 0}\n', scores={"survival": 0.5},
        evaluation=evaluation, created_at="2025-01-01T00:00:00")


def test_a_run_reads_back_after_reopening(tmp_path):
    stored = _artifact("run-0001", evaluation="steady gait")
    VectorStore(tmp_path).add_run(stored)
    store = VectorStore(tmp_path)
    assert len(store) == 1
    assert store.get_run("run-0001") == stored


def test_a_stored_id_is_refused(tmp_path):
    store = VectorStore(tmp_path)
    store.add_run(_artifact("run-0001"))
    with pytest.raises(StoreError) as e:
        VectorStore(tmp_path).add_run(_artifact("run-0001", prompt="another task"))
    assert e.value.code == "DUPLICATE_ID"
    assert store.get_run("run-0001").prompt == "walk on the desk"


def test_query_needs_a_run_and_k_of_one_or_more(tmp_path):
    store = VectorStore(tmp_path)
    with pytest.raises(StoreError) as e:
        store.query_topk("walk", k=1)
    assert e.value.code == "EMPTY_STORE"
    store.add_run(_artifact("run-0001"))
    for k in (0, -1):
        with pytest.raises(StoreError) as e:
            store.query_topk("walk", k=k)
        assert e.value.code == "EMPTY_STORE"


def test_equal_scores_put_the_older_run_first(tmp_path):
    store = VectorStore(tmp_path)
    for run_id in ("run-b", "run-c", "run-a"):
        store.add_run(_artifact(run_id))
    store.add_run(_artifact("run-z", prompt="walk on the desk quickly"))
    top = VectorStore(tmp_path).query_topk("walk on the desk", k=4)
    assert [rid for rid, _ in top] == ["run-b", "run-c", "run-a", "run-z"]
    assert top[0][1] == top[1][1] == top[2][1] > top[3][1]


@pytest.mark.parametrize("text", [
    "not json", '["run-0001"]', '{"dim": 256}', '{"dim": 256, "runs": ["run-0001"]}',
    '{"dim": 256, "runs": {"run-0001": {}}}',
    '{"dim": 256, "runs": {"run-0001": {"order": 0, "embedding": [1.0]}}}',
    '{"dim": 256, "runs": {"run-0001": {"order": 0, "embedding": [%s]}}}'
    % ", ".join(['"x"'] * 256)])
def test_an_ill_formed_index_is_a_corrupt_index(tmp_path, text):
    (tmp_path / "index.json").write_text(text)
    with pytest.raises(StoreError) as e:
        VectorStore(tmp_path)
    assert e.value.code == "CORRUPT_INDEX"
    assert str(tmp_path / "index.json") in e.value.message


@pytest.mark.parametrize("rel,content", [
    ("scores.json", b"{not json"), ("prompt.txt", b"walk \xff"),
    ("metrics.jsonl", b"\xff\n"), ("stage1/reward.yaml", b"reward: caf\xe9\n")],
    ids=["scores not JSON", "prompt not UTF-8", "metrics not UTF-8", "stage file not UTF-8"])
def test_a_stored_file_get_run_cannot_read_is_a_corrupt_run(tmp_path, rel, content):
    VectorStore(tmp_path).add_run(_artifact("run-0001"))
    bad = tmp_path / "runs" / "run-0001" / rel
    bad.write_bytes(content)
    with pytest.raises(StoreError) as e:
        VectorStore(tmp_path).get_run("run-0001")
    assert e.value.code == "CORRUPT_RUN"
    assert str(bad) in e.value.message
