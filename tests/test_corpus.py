"""The byte-identity corpus: every corpus input (``conftest.corpus_inputs``)
still gives its golden exit code, text and structured output, and
``numerical_rank`` decisions.

Everything compares byte for byte except residual values, which follow
``conftest.residual_matches``.  The goldens are rewritten by
``tests/corpus/regenerate.py``; a change that moves one lists the moved
records.
"""

import json

import pytest

from conftest import CORPUS, corpus_mismatches, residual_matches

GOLDEN = CORPUS / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))
SUFFIX = {"text": "txt", "structured": "jsonl"}


def golden(key: str, fmt: str) -> str:
    return (GOLDEN / f"{key}.{SUFFIX[fmt]}").read_text(encoding="utf-8")


def test_corpus_runs_every_golden_input(corpus):
    assert list(corpus) == list(INDEX)
    assert len(INDEX) == 18


@pytest.mark.parametrize("key", list(INDEX))
def test_outputs_match_their_goldens(corpus, key):
    assert corpus[key]["exit"] == INDEX[key]["exit"]
    for fmt in SUFFIX:
        assert corpus_mismatches(golden(key, fmt), corpus[key][fmt], fmt) == []


@pytest.mark.parametrize("key", list(INDEX))
def test_rank_decisions_match_their_goldens(corpus, key):
    assert [[site, rank] for site, rank, _ in corpus[key]["ranks"]] == INDEX[key]["ranks"]


class TestComparisonRule:
    @pytest.mark.parametrize("old, new, same", [
        (0.0, 0.0, True),
        (0.0, 1e-300, False),
        (0.5, 0.5 + 1e-14, True),
        (0.123456789012, 0.123456789013, False),
        (2.3e-10, 2.3e-10, True),
        (1e-11, 1e-11, False),
        (3e-13, 8e-13, True),
        (3e-13, 2e-12, False),
        (float("inf"), float("inf"), True),
        (None, None, True),
        (None, 0.0, False),
    ])
    def test_residual_rule(self, old, new, same):
        assert residual_matches(old, new) is same

    def mutated(self, key, fmt, old, new):
        text = golden(key, fmt)
        assert old in text
        return corpus_mismatches(text, text.replace(old, new, 1), fmt)

    @pytest.mark.parametrize("key, fmt, old, new", [
        ("demo-timotin-nonsplitting", "text", "PASS", "FAIL"),
        ("demo-timotin-nonsplitting", "structured", '"pass": true', '"pass": false'),
        ("demo-cyclic-kernel", "text", "window=3", "window=4"),
        ("demo-splitting-scalar", "text", "splitting=True", "splitting=False"),
        ("operators-wide-seed0-replicated-1-2-rot0", "text", "upper=['1']", "upper=['1.00000000001']"),
        ("operators-wide-seed0-replicated-1-2-rot0", "text", "range=0", "range=1e-16"),
    ])
    def test_a_moved_record_is_a_mismatch(self, key, fmt, old, new):
        assert self.mutated(key, fmt, old, new)

    def test_a_float_level_residual_may_move_within_its_band(self):
        line = "  nehari             n=256  residual=2.22044604925e-16 PASS"
        assert not corpus_mismatches(line, line.replace("2.22044604925e-16", "4.4e-16"), "text")
        assert corpus_mismatches(line, line.replace("2.22044604925e-16", "1e-11"), "text")
