"""Rewrite the byte-identity corpus's goldens from the current code.

    PYTHONPATH=src python tests/corpus/regenerate.py

For every corpus input (``conftest.corpus_inputs``) it writes
``golden/<id>.txt`` and ``golden/<id>.jsonl``, the text and the structured
output of ``shiftlab``, and one entry of ``golden/index.json``: the exit
code and the (site, rank) of every ``numerical_rank`` decision of the
run.  ``tests/test_corpus.py`` holds the code to these files.  A change
that moves a golden record reruns this script and lists every moved
record: before it rewrites anything, the script prints each output line
that ``corpus_mismatches`` flags against the committed goldens and each
(site, rank) decision that differs from them, by the rule the test uses.

The scenario files under ``tests/corpus/*-seed*`` are data, not
regenerated here: they were written once by ``perfbench/workloads.py``'s
``generate`` for seeds 0 and 7 of both workloads, so a change of numpy's
random streams cannot move them.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from conftest import CORPUS, corpus_mismatches, run_corpus  # noqa: E402

SUFFIX = {"text": "txt", "structured": "jsonl"}


def moved(golden: Path, results: dict[str, dict]) -> list[str]:
    """Every record and (site, rank) decision of results that differs from
    the goldens committed under golden, one line each; an input with no
    golden is listed as new, a golden with no input as gone."""
    path = golden / "index.json"
    index = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    lines = [f"{key}: golden with no input" for key in index if key not in results]
    for key, result in results.items():
        if key not in index:
            lines.append(f"{key}: new input")
            continue
        if result["exit"] != index[key]["exit"]:
            lines.append(f"{key}: exit {result['exit']}, golden {index[key]['exit']}")
        for fmt, suffix in SUFFIX.items():
            old = (golden / f"{key}.{suffix}").read_text(encoding="utf-8")
            lines += [f"{key}.{suffix}: {bad}" for bad in corpus_mismatches(old, result[fmt], fmt)]
        ranks, old_ranks = [[site, rank] for site, rank, _ in result["ranks"]], index[key]["ranks"]
        lines += [f"{key}: decision {i}: {new}, golden {old}"
                  for i, (new, old) in enumerate(zip(ranks, old_ranks)) if new != old]
        if len(ranks) != len(old_ranks):
            lines.append(f"{key}: {len(ranks)} decisions, golden {len(old_ranks)}")
    return lines


def main() -> None:
    golden = CORPUS / "golden"
    golden.mkdir(exist_ok=True)
    results = run_corpus()
    for line in moved(golden, results):
        print(line)
    for stale in golden.iterdir():
        stale.unlink()
    index = []
    for key, result in results.items():
        for fmt, suffix in SUFFIX.items():
            (golden / f"{key}.{suffix}").write_text(result[fmt], encoding="utf-8")
        ranks = ",\n".join(f"   {json.dumps([site, rank])}" for site, rank, _ in result["ranks"])
        index.append(f' {json.dumps(key)}: {{"exit": {result["exit"]}, "ranks": [\n{ranks}\n  ]}}')
    (golden / "index.json").write_text("{\n" + ",\n".join(index) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
