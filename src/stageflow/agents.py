"""Prompt templating, chat transports, strict parsers for agent output, and
the one exchange path.

Five agent roles cooperate in a pipeline: vdb_query (summarize the task into a
retrieval query), selector (pick past-run files), curriculum (emit the
workflow plus stage descriptions), per_stage (emit one stage's three YAML
files), and feedback (decide between stages). Templates live as data files
with <INSERT_..._HERE> placeholders; transports are pluggable so the whole
pipeline replays offline from fixtures.

Every exchange, for every role, goes through :func:`invoke_with_retry`: it
sends the prompt, parses and checks the answer, re-prompts with the findings,
and writes one :class:`AgentLog` entry per attempt under the prompt that
attempt actually sent, so each logged digest names a replayable request.
"""

from __future__ import annotations

import hashlib
import json
import os
import posixpath
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import AgentError, StageflowError

ROLES = ("vdb_query", "selector", "curriculum", "per_stage", "feedback")

_TEMPLATE_DIR = Path(__file__).parent / "data" / "templates"

_ANGLE_RE = re.compile(r"<(INSERT_[A-Z0-9_]+)>")

# block content is indented by this when serializing
_INDENT = "  "

_SELECTOR_KEY_RE = re.compile(r"^(workflow|reward_stage\d+|config_stage\d+|randomize_stage\d+)$")


@dataclass(frozen=True)
class PromptTemplate:
    role: str
    text: str

    @property
    def required(self) -> frozenset:
        return frozenset(_ANGLE_RE.findall(self.text))


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

    Content is preserved byte-for-byte after removing the block indent, which
    its first non-blank line sets; an unindented line ends the block. Prose
    outside blocks is ignored (models sometimes add it despite the
    instructions), but a started block must be complete, and a line indented
    by anything but the block indent is refused rather than dropped.
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
                if cur[0] in " \t":
                    raise AgentError(
                        "MALFORMED_BLOCK",
                        f"line {i + 1}: indented, but not by the block's indent {indent!r}")
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


def parse_query(response: str) -> str:
    """The vdb_query agent's retrieval query: its answer's last non-blank
    line."""
    lines = response.strip().splitlines()
    if not lines:
        raise AgentError("NO_QUERY", "the answer holds no query line")
    return lines[-1].strip()


# -- transports ----------------------------------------------------------------

def request_digest(role: str, prompt: str) -> str:
    return hashlib.sha256(f"{role}\n{prompt}".encode()).hexdigest()


class ScriptedTransport:
    """Returns queued responses in order; used by tests and to record the
    shipped replay fixtures (``tools/make_fixtures.py``)."""

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

    def send(self, role: str, prompt: str) -> str:
        """The recorded response; ``NO_FIXTURE`` when none is recorded."""
        digest = request_digest(role, prompt)
        path = self.fixture_dir / f"{digest}.txt"
        if not path.exists():
            raise AgentError("NO_FIXTURE", f"no replay fixture for a {role!r} request "
                                           f"(digest {digest})", role=role)
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


# seconds a live request may take, connecting and reading, before it fails
LIVE_TIMEOUT_S = 120


class LiveTransport:
    """Generic chat-completion HTTP endpoint; configuration via env vars
    STAGEFLOW_LLM_ENDPOINT, STAGEFLOW_LLM_API_KEY, STAGEFLOW_LLM_MODEL; with
    no endpoint or model it raises ``MISSING_CONFIG``. A failed request or a
    reply without a message text raises ``TRANSPORT_ERROR``."""

    def __init__(self, endpoint=None, api_key=None, model=None, temperature=0.2):
        self.endpoint = endpoint or os.environ.get("STAGEFLOW_LLM_ENDPOINT")
        self.api_key = api_key or os.environ.get("STAGEFLOW_LLM_API_KEY")
        self.model = model or os.environ.get("STAGEFLOW_LLM_MODEL")
        self.temperature = temperature
        if not self.endpoint or not self.model:
            raise AgentError(
                "MISSING_CONFIG",
                "live transport needs STAGEFLOW_LLM_ENDPOINT and STAGEFLOW_LLM_MODEL",
            )

    def send(self, role: str, prompt: str) -> str:
        import urllib.request  # here: ~25 ms that no import of the package should pay

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
        try:
            with urllib.request.urlopen(req, timeout=LIVE_TIMEOUT_S) as resp:
                raw = resp.read()
        except OSError as e:  # URLError, HTTPError and timeouts alike
            raise AgentError("TRANSPORT_ERROR", f"{role!r} request failed: {e}") from None
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError):
            content = None
        if not isinstance(content, str):
            raise AgentError(
                "TRANSPORT_ERROR",
                f"{role!r} reply has no choices[0].message.content text: {raw[:200]!r}")
        return content


# -- the exchange --------------------------------------------------------------

class AgentLog:
    """Append-only jsonl of every agent exchange in a run."""

    def __init__(self, path):
        self.path = Path(path)

    def record(self, role: str, prompt: str, response: str, findings=()):
        entry = {
            "role": role,
            "prompt_digest": request_digest(role, prompt),
            "response_digest": hashlib.sha256(response.encode()).hexdigest(),
            "findings": list(findings),
        }
        with open(self.path, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")


# re-prompts after the first attempt
MAX_RETRIES = 2


def invoke_with_retry(transport, log: AgentLog, role: str, prompt: str,
                      parse_fn, validate_fn=None):
    """Send, parse, check; on findings, re-prompt with them appended to the
    original prompt, up to ``MAX_RETRIES`` times. ``parse_fn`` turns the
    answer into what the caller uses, and a ``StageflowError`` it raises is
    the attempt's one finding, ``[CODE] message``. Every attempt is logged
    under the prompt it sent, before deciding whether to retry; an
    ``AgentError`` from the transport is logged with an empty response and
    raised. Returns the accepted answer's parsed form."""
    sent = prompt
    all_findings = []
    for attempt in range(1, MAX_RETRIES + 2):
        try:
            response = transport.send(role, sent)
        except AgentError as e:
            log.record(role, sent, "", [f"[{e.code}] {e.message}"])
            raise
        try:
            parsed = parse_fn(response)
        except StageflowError as e:
            findings = [f"[{e.code}] {e.message}"]
        else:
            findings = [str(f) for f in validate_fn(parsed)] if validate_fn else []
        log.record(role, sent, response, findings)
        if not findings:
            return parsed
        all_findings += findings
        bullet = "\n".join(f"- {f}" for f in findings)
        sent = (
            f"{prompt}\n\n"
            f"Your previous response had the following problems; "
            f"fix all of them and answer again:\n{bullet}\n"
        )
    raise AgentError(
        "RETRIES_EXHAUSTED",
        f"{role!r} agent failed after {attempt} attempts: " + "; ".join(all_findings),
        attempts=attempt,
        findings=all_findings,
    )
