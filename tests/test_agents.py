"""Agent exchanges: the parsers for agent output (file blocks, the
selector's JSON, the retrieval query), the retry loop and its log, and the
live transport's error handling."""

import io
import json
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stageflow import agents
from stageflow.agents import (AgentLog, GeneratedFileBlock, LiveTransport,
                              ScriptedTransport, invoke_with_retry,
                              parse_file_blocks, parse_query,
                              parse_selector_json, request_digest,
                              serialize_file_blocks)
from stageflow.errors import AgentError

NAMES = st.text("abc_019", min_size=1, max_size=8).map(lambda s: f"{s}.yaml")


def _blocks(contents):
    return st.lists(st.builds(
        lambda name, content: GeneratedFileBlock(name, f"../configs/{name}", content),
        NAMES, contents), min_size=1, max_size=3)


# printable lines that do not start with a space: the first non-blank line
# of a block sets its indent, so only later lines may be indented
PRINTABLE = "".join(map(chr, range(0x21, 0x7f)))
LINE = st.builds(str.__add__, st.text(PRINTABLE, min_size=1, max_size=1),
                 st.text(PRINTABLE + " ", max_size=30))


@st.composite
def carried_content(draw):
    lines = (draw(st.lists(st.just(""), max_size=2)) + [draw(LINE)]
             + draw(st.lists(st.one_of(LINE, LINE.map("  ".__add__), LINE.map("\t".__add__),
                                       st.just("")), max_size=6))
             + [draw(LINE)])
    return "".join(line + "\n" for line in lines)


class TestFileBlocks:
    @settings(max_examples=200, deadline=None)
    @given(_blocks(carried_content()))
    def test_round_trip(self, blocks):
        assert parse_file_blocks(serialize_file_blocks(blocks)) == blocks

    @settings(max_examples=300, deadline=None)
    @given(_blocks(st.text(max_size=40)))
    def test_round_trip_or_refuse(self, blocks):
        """Any text either comes back unchanged or is refused when
        serializing; nothing is dropped silently."""
        try:
            text = serialize_file_blocks(blocks)
        except AgentError as e:
            assert e.code == "MALFORMED_BLOCK"
            return
        assert parse_file_blocks(text) == blocks

    @pytest.mark.parametrize("content", [
        "a\n\n",           # a trailing blank line reads as the gap after the block
        "  x: 1\ny: 2\n",  # the first line sets the indent; y: 2 would end the block
        "\n  x: 1\n",     # ... and loses its own
        "a\n  \nb\n",      # a whitespace-only line reads back blank
        "a",               # content is newline-terminated
        "\n",              # a block needs one non-blank line
    ])
    def test_refuses_content_it_cannot_carry(self, content):
        with pytest.raises(AgentError) as e:
            serialize_file_blocks([GeneratedFileBlock("a.yaml", "../configs/a.yaml", content)])
        assert e.value.code == "MALFORMED_BLOCK"


    @pytest.mark.parametrize("indent", ["  ", "\t"])
    def test_a_line_indented_off_the_block_indent_is_refused(self, indent):
        response = ('file_name: "a.yaml"\nfile_path: "../configs/a.yaml"\n'
                    f"content: |\n    x: 1\n{indent}y: 2\n{indent}z: 3")
        with pytest.raises(AgentError) as e:
            parse_file_blocks(response)
        assert e.value.code == "MALFORMED_BLOCK"
        assert "line 5" in e.value.message

    def test_an_unindented_line_ends_the_block(self):
        response = ('file_name: "a.yaml"\nfile_path: "../configs/a.yaml"\n'
                    "content: |\n  x: 1\n    y: 2\nThat is the file.\n")
        assert parse_file_blocks(response) == [
            GeneratedFileBlock("a.yaml", "../configs/a.yaml", "x: 1\n  y: 2\n")]


CANDIDATES = ["generated_reward_stage1.yaml", "generated_config_stage1.yaml"]


class TestSelectorJson:
    def test_fenced_object(self):
        got = parse_selector_json(
            'pick:\n```json\n{"reward_stage1": "generated_reward_stage1.yaml"}\n```\n',
            CANDIDATES)
        assert got == {"reward_stage1": "generated_reward_stage1.yaml"}

    def test_trailing_comma_is_stripped(self):
        got = parse_selector_json(
            '```\n{"reward_stage1": "generated_reward_stage1.yaml",\n'
            ' "config_stage1": "generated_config_stage1.yaml",}\n```', CANDIDATES)
        assert got == {"reward_stage1": "generated_reward_stage1.yaml",
                       "config_stage1": "generated_config_stage1.yaml"}

    @pytest.mark.parametrize("response", [
        '{"reward_stage1": "generated_reward_stage1.yaml"}',
        '```json\n{}\n```\n```json\n{}\n```',
    ], ids=["no fence", "two fences"])
    def test_exactly_one_fence(self, response):
        with pytest.raises(AgentError) as e:
            parse_selector_json(response, CANDIDATES)
        assert e.value.code == "NO_JSON"

    @pytest.mark.parametrize("body,code", [
        ('["generated_reward_stage1.yaml"]', "NO_JSON"),
        ('{"reward_stage1": }', "NO_JSON"),
        ('{"reward": "generated_reward_stage1.yaml"}', "BAD_KEY"),
        ('{"reward_stage1": "generated_reward_stage9.yaml"}', "UNKNOWN_FILE"),
    ], ids=["not an object", "not json", "bad key", "unknown file"])
    def test_rejects(self, body, code):
        with pytest.raises(AgentError) as e:
            parse_selector_json(f"```json\n{body}\n```", CANDIDATES)
        assert e.value.code == code


class TestQuery:
    def test_last_non_blank_line(self):
        assert parse_query("Here is the query:\n  desk walker velocity  \n\n") == \
            "desk walker velocity"


class TestInvokeWithRetry:
    def test_reprompt_appends_the_last_attempts_findings(self, tmp_path):
        transport = ScriptedTransport(["no blocks", "\n", "last line\n"])
        log = AgentLog(tmp_path / "log.jsonl")
        assert invoke_with_retry(transport, log, "vdb_query", "P", parse_query,
                                 lambda q: [] if q == "last line" else ["too short"]) == "last line"
        assert transport.calls == [
            ("vdb_query", "P"),
            ("vdb_query", "P\n\nYour previous response had the following problems; "
                          "fix all of them and answer again:\n- too short\n"),
            ("vdb_query", "P\n\nYour previous response had the following problems; "
                          "fix all of them and answer again:\n"
                          "- [NO_QUERY] the answer holds no query line\n"),
        ]
        entries = [json.loads(line) for line in log.path.read_text().splitlines()]
        assert [(e["role"], e["prompt_digest"], e["findings"]) for e in entries] == [
            ("vdb_query", request_digest(role, prompt), findings)
            for (role, prompt), findings in zip(transport.calls, [
                ["too short"], ["[NO_QUERY] the answer holds no query line"], []])]


class _Reply(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.fixture
def live(monkeypatch):
    """A LiveTransport whose ``urlopen`` serves ``replies`` (bytes, or an
    exception to raise) and records the timeout it was called with."""
    replies, timeouts = [], []

    def urlopen(request, timeout=None):
        timeouts.append(timeout)
        reply = replies.pop(0)
        if isinstance(reply, BaseException):
            raise reply
        return _Reply(reply)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return LiveTransport("http://localhost:1/v1", model="m"), replies, timeouts


class TestLiveTransport:
    def test_returns_the_message_content_within_the_timeout(self, live):
        transport, replies, timeouts = live
        replies.append(json.dumps({"choices": [{"message": {"content": "hi"}}]}).encode())
        assert transport.send("vdb_query", "P") == "hi"
        assert timeouts == [agents.LIVE_TIMEOUT_S]

    @pytest.mark.parametrize("reply", [
        b'{"error": "overloaded"}',
        b"<html>502 Bad Gateway</html>",
        b'{"choices": []}',
        b'{"choices": [{"message": {"content": null}}]}',
        b'{"choices": [{"message": {"content": ["hi"]}}]}',
        b'["choices"]',
        urllib.error.URLError("connection refused"),
        TimeoutError("timed out"),
    ], ids=["error reply", "not json", "no choices", "content null",
            "content not a string", "not an object", "url error", "timeout"])
    def test_failures_raise_agent_errors(self, live, reply):
        transport, replies, _ = live
        replies.append(reply)
        with pytest.raises(AgentError) as e:
            transport.send("vdb_query", "P")
        assert e.value.code == "TRANSPORT_ERROR"

    @pytest.mark.parametrize("unset", ["STAGEFLOW_LLM_ENDPOINT", "STAGEFLOW_LLM_MODEL"])
    def test_missing_configuration_is_named(self, monkeypatch, unset):
        monkeypatch.setenv("STAGEFLOW_LLM_ENDPOINT", "http://localhost:1/v1")
        monkeypatch.setenv("STAGEFLOW_LLM_MODEL", "m")
        monkeypatch.delenv(unset)
        with pytest.raises(AgentError) as e:
            LiveTransport()
        assert e.value.code == "MISSING_CONFIG"
        assert unset in e.value.message
