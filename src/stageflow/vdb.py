"""On-disk vector store of past runs for the retrieval loop.

Embeddings are hashed token frequencies (deterministic, offline); search is
exact brute-force cosine. One directory per run holds the original bundle
files, metrics, scores, and the user evaluation text; a store-level index maps
run id to embedding.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import StoreError

EMBED_DIM = 256

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """The runs of ASCII letters and digits in lower-cased ``text``: all that
    :func:`embed` sees of it."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def embed(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Hashed token-count embedding, L2-normalized. Empty-after-tokenization
    text is an error (the zero vector would break the normalization invariant)."""
    tokens = tokenize(text)
    if not tokens:
        raise StoreError("EMPTY_TEXT", "nothing to embed after tokenization")
    v = np.zeros(dim)
    for tok in tokens:
        bucket = int.from_bytes(hashlib.sha256(tok.encode()).digest()[:8], "little") % dim
        v[bucket] += 1.0
    return v / np.linalg.norm(v)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


@dataclass
class RunArtifact:
    run_id: str
    prompt: str
    files: dict  # relative path -> text (workflow + per-stage yaml files)
    metrics_jsonl: str = ""
    scores: dict = field(default_factory=dict)
    evaluation: str = ""
    created_at: str = ""

    @property
    def embed_text(self) -> str:
        # the prompt plus the user evaluation drive retrieval; files are payload
        return f"{self.prompt}\n{self.evaluation}".strip()


def check_run_id(run_id: str) -> str:
    """A run id names one directory under a run or store root, so it must be
    a single path component."""
    if run_id in ("", ".", "..") or any(c in run_id for c in "/\\\0"):
        raise StoreError("BAD_RUN_ID", f"run id {run_id!r} is not a single path component")
    return run_id


_STAGE_DIR_RE = re.compile(r"stage(\d+)")


def run_artifact(run_dir, run_id: str, prompt: str, evaluation: str = "") -> RunArtifact:
    """Read a finished run directory in the pipeline's layout: its
    ``workflow.yaml``, each ``stageN/{reward,config,randomize}.yaml``, the
    ``stageN/metrics.jsonl`` files joined in stage order, and ``scores.json``."""
    run_dir = Path(run_dir)
    numbered = sorted((int(m.group(1)), d) for d in run_dir.iterdir()
                      if d.is_dir() and (m := _STAGE_DIR_RE.fullmatch(d.name)))
    stage_dirs = [d for _, d in numbered]
    files = [run_dir / "workflow.yaml"] + [
        d / f"{role}.yaml" for d in stage_dirs for role in ("reward", "config", "randomize")]
    metrics = [d / "metrics.jsonl" for d in stage_dirs]
    scores = run_dir / "scores.json"
    return RunArtifact(
        run_id=run_id,
        prompt=prompt,
        files={p.relative_to(run_dir).as_posix(): p.read_text() for p in files if p.is_file()},
        metrics_jsonl="".join(p.read_text() for p in metrics if p.is_file()),
        scores=json.loads(scores.read_text()) if scores.is_file() else {},
        evaluation=evaluation,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )


class VectorStore:
    """Many readers, single writer; index updates are write-temp-then-rename."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.json"
        self._index = self._load_index()

    def _load_index(self) -> dict:
        if not self.index_path.is_file():
            return {"dim": EMBED_DIM, "runs": {}}
        try:
            index = json.loads(self.index_path.read_text())
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise StoreError("CORRUPT_INDEX", f"{self.index_path}: not JSON ({e})") from e
        runs = index.get("runs") if isinstance(index, dict) else None
        if not isinstance(runs, dict):
            raise StoreError("CORRUPT_INDEX",
                             f"{self.index_path}: not an object with a 'runs' mapping")
        for run_id, meta in runs.items():
            meta = meta if isinstance(meta, dict) else {}
            vec = meta.get("embedding")
            if not (isinstance(meta.get("order"), int) and isinstance(vec, list)
                    and len(vec) == EMBED_DIM and all(isinstance(x, (int, float)) for x in vec)):
                raise StoreError("CORRUPT_INDEX", f"{self.index_path}: run {run_id!r} lacks "
                                 f"an integer 'order' or a {EMBED_DIM}-number 'embedding'")
        return index

    def _write_index(self):
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(self._index, f, indent=1, sort_keys=True)
        os.replace(tmp, self.index_path)

    def __len__(self):
        return len(self._index["runs"])

    def add_run(self, artifact: RunArtifact) -> str:
        check_run_id(artifact.run_id)
        if artifact.run_id in self._index["runs"]:
            raise StoreError("DUPLICATE_ID", f"run id {artifact.run_id!r} already stored")
        vec = embed(artifact.embed_text)
        run_dir = self.root / "runs" / artifact.run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        for rel, text in artifact.files.items():
            dest = run_dir / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text)
        (run_dir / "metrics.jsonl").write_text(artifact.metrics_jsonl)
        (run_dir / "scores.json").write_text(json.dumps(artifact.scores, indent=2))
        (run_dir / "evaluation.txt").write_text(artifact.evaluation)
        (run_dir / "prompt.txt").write_text(artifact.prompt)
        self._index["runs"][artifact.run_id] = {
            "embedding": vec.tolist(),
            "order": len(self._index["runs"]),
            "created_at": artifact.created_at,
        }
        self._write_index()
        return artifact.run_id

    def get_run(self, run_id: str) -> RunArtifact:
        if run_id not in self._index["runs"]:
            raise StoreError("EMPTY_STORE", f"no run {run_id!r}")
        run_dir = self.root / "runs" / run_id
        files = {}
        for p in sorted(run_dir.rglob("*")):
            if p.is_file() and p.name not in (
                "metrics.jsonl", "scores.json", "evaluation.txt", "prompt.txt",
            ):
                files[str(p.relative_to(run_dir))] = p.read_text()
        scores_file = run_dir / "scores.json"
        return RunArtifact(
            run_id=run_id,
            prompt=(run_dir / "prompt.txt").read_text(),
            files=files,
            metrics_jsonl=(run_dir / "metrics.jsonl").read_text(),
            scores=json.loads(scores_file.read_text()) if scores_file.is_file() else {},
            evaluation=(run_dir / "evaluation.txt").read_text(),
            created_at=self._index["runs"][run_id].get("created_at", ""),
        )

    def query_topk(self, text: str, k: int = 3) -> list[tuple[str, float]]:
        """Exact cosine search, best first; ties broken by older run first."""
        if k < 1:
            raise StoreError("EMPTY_STORE", "k must be >= 1")
        if not self._index["runs"]:
            raise StoreError("EMPTY_STORE", "the store holds no runs")
        q = embed(text)
        scored = [
            (rid, cosine(q, np.asarray(meta["embedding"])), meta["order"])
            for rid, meta in self._index["runs"].items()
        ]
        scored.sort(key=lambda t: (-t[1], t[2]))
        return [(rid, score) for rid, score, _ in scored[:k]]
