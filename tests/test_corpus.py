"""Answer corpus: every operator's answer on seeded profiles, pinned as one
short hash per profile and operator in ``data/answer_corpus.json``.

The profiles come from this module's own ``random.Random`` generator, not
from ``beliefmerge.postulates``, so the corpus stays put when the postulate
harness changes how it draws instances.  Random profile ``i`` is drawn from
``Random(f"corpus:{i}")`` over 1-9 variables, sometimes with extra ``vars:``
names, and has 1-6 KBs, among them repeated and ``true`` ones; about a
third of the constraints are ``true`` and some are inconsistent.  The
``threshold-m`` profiles (m = 4, 6, 8, 10) pair KB1 = x0 & !y1 & ... & !ym
with KB2 = x0 -> (at least m/2 of the y), whose f2 family has C(m, m/2) + 1
sets.  A hash covers the vocabulary, the truth table, ``k``, ``T``, the
forgetting family and the degenerate flag, but not the operator tag, so the
forgetting twins of sigma, max and gmax must reproduce their distance form's
hash; they run on the profiles with at most 6 variables and 4 KBs.

The file changes only when answers are meant to change.  Regenerate it from
the repository root with

    PYTHONPATH=src python tests/test_corpus.py > tests/data/answer_corpus.json
"""

import hashlib
import json
import pathlib
import random
from itertools import combinations
from math import comb

import pytest

from beliefmerge import (
    FORGETTING_FORMS,
    OPERATORS,
    TRUE,
    Atom,
    Iff,
    Implies,
    Not,
    Profile,
    conj,
    disj,
    merge_f2,
)

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "answer_corpus.json"
RANDOM_PROFILES = 2000
THRESHOLD_WIDTHS = (4, 6, 8, 10)
NAMES = tuple("abcdefghi")
EXTRA_NAMES = ("e1", "e2", "e3")
TWIN_VARS, TWIN_KBS = 6, 4


def _cube(rng, names):
    chosen = rng.sample(names, rng.randint(1, len(names)))
    return conj([Atom(n) if rng.random() < 0.5 else Not(Atom(n)) for n in chosen])


def _kb(rng, names):
    """A DNF of 1-3 cubes over a random subset of ``names``; consistent,
    since each cube has distinct variables."""
    own = rng.sample(names, rng.randint(1, len(names)))
    return disj([_cube(rng, own) for _ in range(rng.randint(1, 3))])


def _formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        atom = Atom(rng.choice(names))
        return atom if rng.random() < 0.5 else Not(atom)
    kind = rng.choice((conj, disj, Implies, Iff, Not))
    if kind is Not:
        return Not(_formula(rng, names, depth - 1))
    if kind in (Implies, Iff):
        return kind(_formula(rng, names, depth - 1), _formula(rng, names, depth - 1))
    return kind([_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))])


def random_profile(seed):
    rng = random.Random(f"corpus:{seed}")
    names = list(NAMES[: rng.randint(1, len(NAMES))])
    kbs = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if kbs and roll < 0.2:
            kbs.append(rng.choice(kbs))
        elif roll < 0.3:
            kbs.append(TRUE)
        else:
            kbs.append(_kb(rng, names))
    roll = rng.random()
    if roll < 0.3:
        constraint = TRUE
    elif roll < 0.4:
        body = _formula(rng, names, 2)
        constraint = conj([body, Not(body)])
    else:
        constraint = _formula(rng, names, rng.randint(1, 3))
    extra = rng.sample(EXTRA_NAMES + tuple(names), rng.randint(0, 2))
    return Profile(tuple(kbs), constraint, extra_vars=extra)


def threshold_profile(m):
    ys = [Atom(f"y{j:02}") for j in range(1, m + 1)]
    x0 = Atom("x0")
    first = conj([x0, *(Not(y) for y in ys)])
    second = Implies(x0, disj([conj(chosen) for chosen in combinations(ys, m // 2)]))
    return Profile((first, second))


def corpus_profiles():
    """Every corpus profile by its id, random ones first."""
    profiles = {str(seed): random_profile(seed) for seed in range(RANDOM_PROFILES)}
    profiles.update((f"threshold-{m}", threshold_profile(m)) for m in THRESHOLD_WIDTHS)
    return profiles


def answer_hash(result):
    """Short hash of everything an answer holds except its operator tag."""
    model_set = result.model_set
    payload = [model_set.vocabulary, hex(model_set.table), result.k,
               result.distance_tuple, result.forgetting_family,
               result.degenerate_constraint]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:10]


def corpus_text(profiles):
    """The corpus file: one line per profile, operators in name order."""
    lines = [f"{json.dumps(pid)}: "
             + json.dumps({tag: answer_hash(OPERATORS[tag](prof))
                           for tag in sorted(OPERATORS)})
             for pid, prof in profiles.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def small(profile):
    return len(profile.vocabulary) <= TWIN_VARS and len(profile.kbs) <= TWIN_KBS


@pytest.fixture(scope="module")
def profiles():
    return corpus_profiles()


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS_PATH.read_text())


def test_corpus_pins_every_profile(profiles, corpus):
    assert list(corpus) == list(profiles)
    assert all(sorted(hashes) == sorted(OPERATORS) for hashes in corpus.values())


def test_corpus_covers_what_it_claims(profiles):
    drawn = [profiles[str(seed)] for seed in range(RANDOM_PROFILES)]
    assert {len(p.vocabulary) for p in drawn} >= set(range(1, 10))
    assert {len(p.kbs) for p in drawn} == set(range(1, 7))
    assert sum(len(set(p.kbs)) < len(p.kbs) for p in drawn) >= 100
    assert sum(TRUE in p.kbs for p in drawn) >= 100
    assert sum(p.constraint_table == 0 for p in drawn) >= 100
    assert sum(not set(p.vocabulary).isdisjoint(EXTRA_NAMES) for p in drawn) >= 100
    assert sum(small(p) for p in drawn) >= 500
    for m in THRESHOLD_WIDTHS:
        family = merge_f2(profiles[f"threshold-{m}"]).forgetting_family
        assert len(family) == comb(m, m // 2) + 1


@pytest.mark.parametrize("tag", sorted(OPERATORS))
def test_answers_match_the_corpus(profiles, corpus, tag):
    wrong = [pid for pid, prof in profiles.items()
             if answer_hash(OPERATORS[tag](prof)) != corpus[pid][tag]]
    assert not wrong, f"{tag} changed its answer on profiles {wrong[:10]}"


@pytest.mark.parametrize("tag", sorted(FORGETTING_FORMS))
def test_forgetting_twins_reproduce_the_distance_forms(profiles, corpus, tag):
    checked = [pid for pid, prof in profiles.items() if small(prof)]
    wrong = [pid for pid in checked
             if answer_hash(FORGETTING_FORMS[tag](profiles[pid])) != corpus[pid][tag]]
    assert len(checked) >= 500
    assert not wrong, f"{tag}'s forgetting twin differs on profiles {wrong[:10]}"


if __name__ == "__main__":
    print(corpus_text(corpus_profiles()), end="")
