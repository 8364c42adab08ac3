"""Prompt templating, chat transports, and strict parsers for agent output.

Five agent roles cooperate in a pipeline: vdb_query (summarize the task into a
retrieval query), selector (pick past-run files), curriculum (emit the
workflow plus stage descriptions), per_stage (emit one stage's three YAML
files), and feedback (decide between stages). Templates live as data files
with <INSERT_..._HERE> placeholders; transports are pluggable so the whole
pipeline replays offline from fixtures.
"""

from __future__ import annotations

import hashlib
import json
import os
import posixpath
import re
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AgentError

ROLES = ("vdb_query", "selector", "curriculum", "per_stage", "feedback")

_TEMPLATE_DIR = Path(__file__).parent / "data" / "templates"

_ANGLE_RE = re.compile(r"<(INSERT_[A-Z0-9_]+)>")
_BRACE_RE = re.compile(r"\{(X|current_stage)\}")

# block content is indented by this when serializing
_INDENT = "  "

_SELECTOR_KEY_RE = re.compile(r"^(workflow|reward_stage\d+|config_stage\d+|randomize_stage\d+)$")


@dataclass(frozen=True)
class PromptTemplate:
    role: str
    text: str

    @property
    def required(self) -> frozenset:
        return frozenset(_ANGLE_RE.findall(self.text)) | \
            frozenset(_BRACE_RE.findall(self.text))


def load_template(role: str) -> PromptTemplate:
    if role not in ROLES:
        raise AgentError("MISSING_PLACEHOLDER", f"unknown agent role {role!r}")
    path = _TEMPLATE_DIR / f"{role}.txt"
    return PromptTemplate(role, path.read_text())


def render(template: PromptTemplate, values: dict) -> str:
    """Pure textual substitution; every placeholder must be covered and none
    may survive into the rendered prompt."""
    missing = sorted(template.required - values.keys())
    if missing:
        raise AgentError(
            "MISSING_PLACEHOLDER",
            f"template {template.role!r} is missing values for: {', '.join(missing)}",
            missing=missing,
        )
    out = _ANGLE_RE.sub(lambda m: str(values[m.group(1)]), template.text)
    out = _BRACE_RE.sub(lambda m: str(values[m.group(1)]), out)
    if "<INSERT_" in out:
        raise AgentError(
            "MISSING_PLACEHOLDER",
            f"template {template.role!r}: unresolved placeholder after render",
        )
    return out


# -- generated file blocks -----------------------------------------------------

@dataclass(frozen=True)
class GeneratedFileBlock:
    file_name: str
    file_path: str
    content: str  # verbatim text, newline-terminated


_QUOTED_RE = re.compile(r'^\s*"?(.*?)"?\s*$')


def _unquote(raw: str) -> str:
    return _QUOTED_RE.match(raw.strip()).group(1)


def _check_sandbox(file_path: str) -> None:
    """Paths resolve against a work/ subdirectory of the run sandbox; one
    leading ``..`` is allowed (the corpus uses ``../rewards/...``), escaping
    the run directory itself is not."""
    resolved = posixpath.normpath(posixpath.join("work", file_path))
    if resolved.startswith("..") or posixpath.isabs(file_path):
        raise AgentError(
            "PATH_ESCAPE",
            f"file_path {file_path!r} escapes the run sandbox",
            file_path=file_path,
        )


def parse_file_blocks(response: str) -> list:
    """Extract every file_name / file_path / content: | triple, in order.

    Content is preserved byte-for-byte after removing the common block indent;
    prose outside blocks is ignored (models sometimes add it despite the
    instructions), but a started block must be complete.
    """
    lines = response.split("\n")
    blocks = []
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        if not line.startswith("file_name:"):
            i += 1
            continue
        where = f"line {i + 1}"
        file_name = _unquote(line[len("file_name:"):])
        if not file_name:
            raise AgentError("MALFORMED_BLOCK", f"{where}: empty file_name")
        i += 1
        if i >= n or not lines[i].startswith("file_path:"):
            raise AgentError(
                "MALFORMED_BLOCK", f"{where}: file_name not followed by file_path")
        file_path = _unquote(lines[i][len("file_path:"):])
        _check_sandbox(file_path)
        i += 1
        if i >= n or lines[i].strip() != "content: |":
            raise AgentError(
                "MALFORMED_BLOCK", f"{where}: file_path not followed by 'content: |'")
        i += 1
        # find this block's indent from its first non-empty content line
        indent = None
        content_lines = []
        while i < n:
            cur = lines[i]
            if cur.strip() == "":
                content_lines.append("")
                i += 1
                continue
            if indent is None:
                m = re.match(r"^[ \t]+", cur)
                if m is None:
                    break
                indent = m.group(0)
            if not cur.startswith(indent):
                break
            content_lines.append(cur[len(indent):])
            i += 1
        if indent is None:
            raise AgentError("MALFORMED_BLOCK", f"{where}: block has no content")
        # trailing blank lines belong to the gap between blocks, not content
        while content_lines and content_lines[-1] == "":
            content_lines.pop()
        content = "\n".join(content_lines) + "\n"
        blocks.append(GeneratedFileBlock(file_name, file_path, content))
    if not blocks:
        raise AgentError("NO_BLOCKS", "response contains no file blocks")
    return blocks


def _carried(content: str) -> bool:
    """Whether a block carries ``content`` unchanged through
    :func:`parse_file_blocks`, which takes the first non-blank line's indent
    as the block's, reads whitespace-only lines as blank and drops trailing
    blank lines."""
    lines = content[:-1].split("\n")
    first = next((line for line in lines if line), "")
    return (content.endswith("\n") and bool(lines[-1])
            and all(line.strip() for line in lines if line)
            and not first.startswith((" ", "\t")))


def serialize_file_blocks(blocks) -> str:
    """Canonical text form; parse_file_blocks(serialize(x)) == x.

    Its domain: single-line, unpadded names and paths, and content that is
    newline-terminated, ends in a non-blank line, has no whitespace-only
    line and does not indent its first non-blank line. Other content raises
    ``MALFORMED_BLOCK`` rather than coming back changed.
    """
    parts = []
    for b in blocks:
        if not _carried(b.content):
            raise AgentError(
                "MALFORMED_BLOCK",
                f"{b.file_name}: a file block cannot carry this content unchanged")
        indented = "\n".join(
            _INDENT + line if line else "" for line in b.content[:-1].split("\n"))
        parts.append(
            f'file_name: "{b.file_name}"\n'
            f'file_path: "{b.file_path}"\n'
            f"content: |\n{indented}\n"
        )
    return "\n".join(parts)


# -- selector JSON -------------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)
_TRAILING_COMMA_RE = re.compile(r",(\s*[}\]])")


def parse_selector_json(response: str, candidates) -> dict:
    """Exactly one fenced JSON object mapping selector keys to filenames from
    the candidate set. Trailing commas (a common model artifact) are stripped."""
    fences = _FENCE_RE.findall(response)
    if len(fences) != 1:
        raise AgentError(
            "NO_JSON",
            f"expected exactly one fenced JSON block, found {len(fences)}",
        )
    text = _TRAILING_COMMA_RE.sub(r"\1", fences[0])
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise AgentError("NO_JSON", f"fenced block is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise AgentError("NO_JSON", "fenced JSON must be an object")
    candidates = set(candidates)
    out = {}
    for key, value in obj.items():
        if not _SELECTOR_KEY_RE.match(str(key)):
            raise AgentError("BAD_KEY", f"unexpected selector key {key!r}", key=key)
        if value not in candidates:
            raise AgentError(
                "UNKNOWN_FILE",
                f"selector named {value!r} which is not among the candidates",
                key=key, file=value,
            )
        out[key] = value
    return out


# -- transports ----------------------------------------------------------------

def request_digest(role: str, prompt: str) -> str:
    return hashlib.sha256(f"{role}\n{prompt}".encode()).hexdigest()


class ScriptedTransport:
    """Returns queued responses in order; used by tests."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def send(self, role: str, prompt: str) -> str:
        self.calls.append((role, prompt))
        if not self.responses:
            raise AgentError("RETRIES_EXHAUSTED", "scripted transport ran out of responses")
        return self.responses.pop(0)


class ReplayTransport:
    """Deterministic, network-free: responses come from fixture files keyed by
    the request digest."""

    def __init__(self, fixture_dir):
        self.fixture_dir = Path(fixture_dir)
        self.calls = []

    def send(self, role: str, prompt: str) -> str:
        self.calls.append((role, prompt))
        path = self.fixture_dir / f"{request_digest(role, prompt)}.txt"
        if not path.exists():
            raise AgentError(
                "NO_BLOCKS",
                f"no replay fixture for a {role!r} request "
                f"(digest {request_digest(role, prompt)[:12]}...)",
                role=role,
            )
        return path.read_text()


class RecordingTransport:
    """Wraps another transport and writes its responses as replay fixtures."""

    def __init__(self, inner, fixture_dir):
        self.inner = inner
        self.fixture_dir = Path(fixture_dir)
        self.fixture_dir.mkdir(parents=True, exist_ok=True)

    def send(self, role: str, prompt: str) -> str:
        response = self.inner.send(role, prompt)
        path = self.fixture_dir / f"{request_digest(role, prompt)}.txt"
        path.write_text(response)
        return response


class LiveTransport:
    """Generic chat-completion HTTP endpoint; configuration via env vars
    STAGEFLOW_LLM_ENDPOINT, STAGEFLOW_LLM_API_KEY, STAGEFLOW_LLM_MODEL."""

    def __init__(self, endpoint=None, api_key=None, model=None, temperature=0.2):
        self.endpoint = endpoint or os.environ.get("STAGEFLOW_LLM_ENDPOINT")
        self.api_key = api_key or os.environ.get("STAGEFLOW_LLM_API_KEY")
        self.model = model or os.environ.get("STAGEFLOW_LLM_MODEL")
        self.temperature = temperature
        if not self.endpoint or not self.model:
            raise AgentError(
                "RETRIES_EXHAUSTED",
                "live transport needs STAGEFLOW_LLM_ENDPOINT and STAGEFLOW_LLM_MODEL",
            )

    def send(self, role: str, prompt: str) -> str:
        payload = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
        }).encode()
        req = urllib.request.Request(
            self.endpoint, data=payload,
            headers={"Content-Type": "application/json",
                     **({"Authorization": f"Bearer {self.api_key}"} if self.api_key else {})},
        )
        with urllib.request.urlopen(req) as resp:
            body = json.loads(resp.read())
        return body["choices"][0]["message"]["content"]


# -- retry loop ----------------------------------------------------------------

@dataclass
class Attempt:
    response: str
    findings: list = field(default_factory=list)


def invoke_with_retry(transport, role: str, prompt: str, parse_fn,
                      validate_fn=None, max_retries: int = 2):
    """Call, parse, validate; on failure re-prompt with the consolidated
    finding list appended to the original prompt. Returns (parsed, attempts)."""
    attempts = []
    current = prompt
    for _ in range(max_retries + 1):
        response = transport.send(role, current)
        findings = []
        parsed = None
        try:
            parsed = parse_fn(response)
        except AgentError as e:
            findings.append(f"[{e.code}] {e.message}")
        if parsed is not None and validate_fn is not None:
            findings.extend(str(f) for f in validate_fn(parsed))
        attempts.append(Attempt(response, findings))
        if not findings:
            return parsed, attempts
        bullet = "\n".join(f"- {f}" for f in findings)
        current = (
            f"{prompt}\n\n"
            f"Your previous response had the following problems; "
            f"fix all of them and answer again:\n{bullet}\n"
        )
    all_findings = [f for a in attempts for f in a.findings]
    raise AgentError(
        "RETRIES_EXHAUSTED",
        f"{role!r} agent failed after {len(attempts)} attempts: "
        + "; ".join(all_findings),
        attempts=len(attempts),
        findings=all_findings,
    )
