"""Rewrite the byte-identity corpus's goldens from the current code.

    PYTHONPATH=src python tests/corpus/regenerate.py

For every corpus input (``conftest.corpus_inputs``) it writes
``golden/<id>.txt`` and ``golden/<id>.jsonl``, the text and the structured
output of ``shiftlab``, and one entry of ``golden/index.json``: the exit
code and the (site, rank) of every ``numerical_rank`` decision of the
run.  ``tests/test_corpus.py`` holds the code to these files.  A change
that moves a golden record reruns this script and lists every moved
record.

The scenario files under ``tests/corpus/*-seed*`` are data, not
regenerated here: they were written once by ``perfbench/workloads.py``'s
``generate`` for seeds 0 and 7 of both workloads, so a change of numpy's
random streams cannot move them.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from conftest import CORPUS, run_corpus  # noqa: E402


def main() -> None:
    golden = CORPUS / "golden"
    golden.mkdir(exist_ok=True)
    for stale in golden.iterdir():
        stale.unlink()
    index = []
    for key, result in run_corpus().items():
        (golden / f"{key}.txt").write_text(result["text"], encoding="utf-8")
        (golden / f"{key}.jsonl").write_text(result["structured"], encoding="utf-8")
        ranks = ",\n".join(f"   {json.dumps([site, rank])}" for site, rank, _ in result["ranks"])
        index.append(f' {json.dumps(key)}: {{"exit": {result["exit"]}, "ranks": [\n{ranks}\n  ]}}')
    (golden / "index.json").write_text("{\n" + ",\n".join(index) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
