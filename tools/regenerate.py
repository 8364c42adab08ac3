"""Regenerate every pinned byte in one command, for a declared change of
numerics or prompts.

Runs ``tools/make_fixtures.py`` (the ``walker2`` replay fixtures) and every
``tests/*_golden.py`` (the goldens under ``tests/data``), each in its own
process, then replays the new fixtures at seed 7 and writes the sha256 of
the run's ``scores.json`` and ``agent_log.jsonl`` to
``tests/data/walker2_digests.json``, which ``tests/test_pipeline.py`` reads.
It prints every digest that moved: a fixture file by its sha256, a golden by
each of its JSON leaves. On an unchanged tree nothing moves, and every file
is rewritten byte for byte. Run from the repository root:

    python3 tools/regenerate.py

Exits 1 when a step fails or the replay does not complete.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src/stageflow/data/fixtures/walker2"
TEST_DATA = ROOT / "tests/data"
DIGESTS = TEST_DATA / "walker2_digests.json"
REPLAY_SEED = 7


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _leaves(doc, path: str = ""):
    """(path, value) of every scalar of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def snapshot() -> dict:
    """Every pinned digest: each fixture file's sha256, and each leaf of
    each JSON file under ``tests/data``."""
    pins = {f"fixtures/walker2/{p.name}": _sha256(p.read_bytes())
            for p in sorted(FIXTURES.iterdir())}
    for p in sorted(TEST_DATA.glob("*.json")):
        pins.update({f"{p.name}:{k}": v for k, v in _leaves(json.loads(p.read_text()))})
    return pins


def walker2_digests() -> dict:
    """sha256 of the files a replay of the fixtures pins, by file name."""
    sys.path.insert(0, str(ROOT / "src"))
    from stageflow.agents import ReplayTransport
    from stageflow.orchestrator import run_pipeline
    from stageflow.vdb import VectorStore

    with tempfile.TemporaryDirectory() as td:
        run = run_pipeline((FIXTURES / "prompt.txt").read_text().strip(),
                           VectorStore(Path(td) / "vdb"), ReplayTransport(FIXTURES),
                           Path(td) / "runs", seed=REPLAY_SEED)
        if run.status != "completed":
            raise SystemExit(f"walker2 replay did not complete: {run.status} "
                             f"({run.failure_stage}: {run.failure_reason})")
        return {name: _sha256((Path(run.run_dir) / name).read_bytes())
                for name in ("agent_log.jsonl", "scores.json")}


def main() -> int:
    before = snapshot()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    scripts = [ROOT / "tools/make_fixtures.py", *sorted((ROOT / "tests").glob("*_golden.py"))]
    for script in scripts:
        print(f"running {script.relative_to(ROOT)}", flush=True)
        if subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env).returncode:
            print(f"{script.relative_to(ROOT)} failed")
            return 1
    DIGESTS.write_text(json.dumps(walker2_digests(), indent=1, sort_keys=True) + "\n")
    after = snapshot()
    moved = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    for key in moved:
        print(f"moved {key}: {before.get(key)} -> {after.get(key)}")
    print(f"{len(moved)} of {len(after)} pinned digests moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
