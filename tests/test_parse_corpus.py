"""Parse corpus: what ``parse`` makes of seeded, mostly malformed strings,
pinned as one short hash per string in ``data/parse_corpus.json``, plus the
CLI's exit codes on malformed formulas and profile files.

String ``i`` is drawn from ``Random(f"parse:{i}")``.  About two thirds are
runs of fragments: identifiers, ``true``/``false``, every connective, the
near misses ``<-``, ``-`` and ``<``, blanks, ``\\t``, ``\\r``, ``\\n``, a
``#c`` comment, ``@``, ``,``, ``é`` and a byte-order mark.  The rest are
well-formed token sequences joined by random blanks, newlines and comments,
some with one token deleted or replaced by a fragment, so that errors land
on later lines too.  The ``nest-*`` strings are the four nest shapes at
``MAX_DEPTH`` and ``MAX_DEPTH + 1``, and the ``comment-end-*`` strings end
inside a comment.  A hash covers ``format_formula(parse(s))`` or the
error's message, line, column and token.

The file changes only when the parser is meant to change.  Regenerate it
from the repository root with

    PYTHONPATH=src python tests/test_parse_corpus.py > tests/data/parse_corpus.json
"""

import hashlib
import json
import pathlib
import random

import pytest

from beliefmerge import ParseError, format_formula, parse
from beliefmerge.cli import main
from beliefmerge.formula import MAX_DEPTH
from beliefmerge.merging import OPERATORS

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "parse_corpus.json"
RANDOM_STRINGS = 5000
CLI_CASES = 300
NAMES = ("p", "q", "r", "x1", "_y", "truely")
ATOMS = NAMES + ("true", "false")
FRAGMENTS = ATOMS + ("!", "&", "|", "->", "<->", "(", ")", "<-", "-", "<",
                     " ", "  ", "\t", "\r", "\n", "#c", "@", ",", "é", "\ufeff")
SEPARATORS = ("", " ", " ", "  ", "\t", "\n", "\r\n", " #c\n", "\n\n  ")
NESTS = (
    lambda depth: "!" * depth + "p",
    lambda depth: "(" * (depth - 1) + "p | q" + ")" * (depth - 1),
    lambda depth: " <-> ".join(["p"] * (depth + 1)),
    lambda depth: " -> ".join(["p"] * (depth + 1)),
)
COMMENT_ENDS = ("p #c", "p &  #c", "(p\n  | q #c", "p q #c", "#c", "p\n#",
                "p &\n\t#c \r")


def _tokens(rng, depth):
    """A well-formed formula as a list of tokens."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return [rng.choice(ATOMS)]
    if roll < 0.45:
        return ["!", *_tokens(rng, depth - 1)]
    if roll < 0.6:
        return ["(", *_tokens(rng, depth - 1), ")"]
    op = rng.choice(("&", "|", "->", "<->"))
    return [*_tokens(rng, depth - 1), op, *_tokens(rng, depth - 1)]


def random_string(rng):
    if rng.random() < 0.65:
        return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 12)))
    tokens = _tokens(rng, rng.randint(1, 4))
    roll = rng.random()
    if roll < 0.25:
        del tokens[rng.randrange(len(tokens))]
    elif roll < 0.5:
        tokens[rng.randrange(len(tokens))] = rng.choice(FRAGMENTS)
    text = rng.choice(("", " ", "\n"))
    for token in tokens:
        text += token + rng.choice(SEPARATORS)
    return text + rng.choice(("", "", "\n", " #c"))


def corpus_strings():
    """Every corpus string by its id, random ones first."""
    strings = {str(i): random_string(random.Random(f"parse:{i}"))
               for i in range(RANDOM_STRINGS)}
    for k, nest in enumerate(NESTS):
        for depth in (MAX_DEPTH, MAX_DEPTH + 1):
            strings[f"nest-{k}-{depth}"] = nest(depth)
    strings.update((f"comment-end-{j}", text) for j, text in enumerate(COMMENT_ENDS))
    return strings


def outcome(text):
    """What ``parse`` makes of ``text``: its printed tree, or the error."""
    try:
        return ["formula", format_formula(parse(text))]
    except ParseError as exc:
        return ["error", exc.message, exc.line, exc.column, exc.token]


def outcome_hash(result):
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:10]


def corpus_text(strings):
    """The corpus file: one line per string id."""
    lines = [f"{json.dumps(sid)}: {json.dumps(outcome_hash(outcome(text)))}"
             for sid, text in strings.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def strings():
    return corpus_strings()


@pytest.fixture(scope="module")
def outcomes(strings):
    return {sid: outcome(text) for sid, text in strings.items()}


def test_corpus_pins_every_string(outcomes):
    corpus = json.loads(CORPUS_PATH.read_text())
    assert list(corpus) == list(outcomes)
    wrong = [sid for sid, result in outcomes.items() if outcome_hash(result) != corpus[sid]]
    assert not wrong, f"parse changed its outcome on strings {wrong[:10]}"


def test_corpus_covers_what_it_claims(strings, outcomes):
    drawn = [outcomes[str(i)] for i in range(RANDOM_STRINGS)]
    assert sum(o[0] == "formula" for o in drawn) >= 1000
    messages = [o[1] for o in outcomes.values() if o[0] == "error"]
    for start, least in (("unexpected character", 100), ("unexpected token", 100),
                         ("expected ')'", 50), ("expected a formula", 100),
                         ("formula nested deeper", 4)):
        assert sum(m.startswith(start) for m in messages) >= least
    assert sum(o[0] == "error" and o[2] > 2 for o in drawn) >= 100
    for fragment in FRAGMENTS:
        assert sum(fragment in strings[str(i)] for i in range(RANDOM_STRINGS)) >= 50


def test_end_of_input_inside_a_comment_sits_at_its_hash(outcomes):
    ends = 0
    for j, text in enumerate(COMMENT_ENDS):
        result = outcomes[f"comment-end-{j}"]
        if result[0] == "error" and result[1].endswith("end of input"):
            hash_at = text.rindex("#")
            line = text.count("\n", 0, hash_at) + 1
            assert (result[2], result[3]) == (line, hash_at - text.rfind("\n", 0, hash_at))
            ends += 1
    assert ends >= 3


def test_printed_formulas_parse_back(strings, outcomes):
    for sid, result in outcomes.items():
        if result[0] == "formula":
            assert parse(result[1]) == parse(strings[sid]), sid


def test_nest_shapes_stop_at_the_bound(outcomes):
    for k in range(len(NESTS)):
        assert outcomes[f"nest-{k}-{MAX_DEPTH}"][0] == "formula"
        assert outcomes[f"nest-{k}-{MAX_DEPTH + 1}"][1].startswith("formula nested deeper")


def _profile_text(rng):
    lines = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.5:
            lines.append("kb: " + random_string(rng).replace("\n", " "))
        elif roll < 0.65:
            lines.append("constraint:" + random_string(rng).replace("\n", " "))
        elif roll < 0.8:
            lines.append("vars: " + ", ".join(rng.sample(FRAGMENTS, rng.randint(0, 3))))
        else:
            lines.append(random_string(rng).replace("\n", " "))
    return "\n".join(lines) + rng.choice(("", "\n"))


def test_equiv_exits_2_exactly_when_parse_raises(capsys):
    for i in range(CLI_CASES):
        text = random_string(random.Random(f"cli-equiv:{i}"))
        try:
            parse(text)
            raises = False
        except ParseError:
            raises = True
        code = main(["equiv", "--", text, "p"])  # "--": a formula may start with "-"
        capsys.readouterr()
        assert (code == 2) == raises, (text, code)
        assert code != 1, text


def test_merge_on_malformed_profiles_never_exits_1(capsys, tmp_path):
    path = tmp_path / "random.profile"
    codes = set()
    for i in range(CLI_CASES):
        rng = random.Random(f"cli-merge:{i}")
        path.write_text(_profile_text(rng), encoding="utf-8")
        code = main(["merge", "-f", str(path), "-o", rng.choice(sorted(OPERATORS))])
        capsys.readouterr()
        assert code in (0, 2, 3, 4), (path.read_text(encoding="utf-8"), code)
        codes.add(code)
    assert {0, 2} <= codes


if __name__ == "__main__":
    print(corpus_text(corpus_strings()), end="")
