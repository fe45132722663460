"""Verdict corpus: what ``check_randomized`` decides on seeded postulate
cells, pinned per cell in ``data/verdict_corpus.json``.

The cells are every operator and postulate at the default generator bounds
for seeds 0-3 with 25 trials each, plus Maj, MI and IC5 for every operator
at 5 variables and 8 KBs (seed 0, 20 trials), where Maj merges the longest
profiles.  A cell pins its verdict and, per violation, the trial index with
a short hash of the whole violation record: the serialised instance, its
vocabulary and both decided sides as model lists.  A rewrite of the
postulate harness that keeps this file byte-identical draws the same
instances and decides them the same way.

The file changes only when verdicts are meant to change.  Regenerate it
from the repository root with

    PYTHONPATH=src python tests/test_verdict_corpus.py > tests/data/verdict_corpus.json
"""

import hashlib
import json
import pathlib

import pytest

from beliefmerge import GeneratorBounds, OPERATORS, PostulateId, check_randomized

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "verdict_corpus.json"
SEEDS = range(4)
TRIALS = 25
WIDE = GeneratorBounds(max_vars=5, max_kbs=8, seed=0)
WIDE_POSTULATES = (PostulateId.MAJ, PostulateId.MI, PostulateId.IC5)
WIDE_TRIALS = 20


def corpus_cells():
    """Every cell by its id, as (postulate, operator, trials, bounds)."""
    cells = {}
    for seed in SEEDS:
        for tag in sorted(OPERATORS):
            for pid in PostulateId:
                cells[f"{tag} {pid.value} seed={seed}"] = (
                    pid, tag, TRIALS, GeneratorBounds(seed=seed))
    for tag in sorted(OPERATORS):
        for pid in WIDE_POSTULATES:
            cells[f"{tag} {pid.value} wide"] = (pid, tag, WIDE_TRIALS, WIDE)
    return cells


def record_hash(record):
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:10]


def cell_entry(report):
    return {"verdict": report.verdict,
            "violations": [[r["trial"], record_hash(r)] for r in report.violations]}


def corpus_text(cells):
    """The corpus file: one line per cell."""
    lines = [f"{json.dumps(cid)}: "
             + json.dumps(cell_entry(check_randomized(*cell)))
             for cid, cell in cells.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def cells():
    return corpus_cells()


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS_PATH.read_text())


def test_corpus_pins_every_cell(cells, corpus):
    assert list(corpus) == list(cells)
    assert len(cells) == 275
    assert any(entry["violations"] for entry in corpus.values())


@pytest.mark.parametrize("tag", sorted(OPERATORS))
def test_verdicts_match_the_corpus(cells, corpus, tag):
    wrong = [cid for cid, cell in cells.items()
             if cell[1] == tag and cell_entry(check_randomized(*cell)) != corpus[cid]]
    assert not wrong, f"{tag} changed its verdicts on cells {wrong[:10]}"


if __name__ == "__main__":
    print(corpus_text(corpus_cells()), end="")
