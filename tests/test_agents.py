"""Parsers for agent output: file blocks and the selector's JSON."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stageflow.agents import (GeneratedFileBlock, parse_file_blocks,
                              parse_selector_json, serialize_file_blocks)
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
