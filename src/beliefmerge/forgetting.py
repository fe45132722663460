"""Variable forgetting and dilation.

``forget`` is purely syntactic (substitution plus disjunction); its model
characterisation as a switch-closure is exposed separately through
``switch_models`` so the two routes can be checked against each other.
``dilate`` grows a formula's model set by Hamming distance and
``dilate_via_forgetting`` rebuilds the same ball out of forgetting alone.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .formula import Formula, Or, fold_constants, disj, substitute, variables
from .semantics import (
    DEFAULT_VOCAB_CAP,
    InconsistentFormulaError,
    ModelSet,
    UnknownVariableError,
    _dilate_once,
    _width_tables,
    to_dnf,
    truth_vector,
)


def forget(formula: Formula, names: Iterable[str]) -> Formula:
    """Existentially forget ``names`` in ``formula``.

    Each variable x is removed by rewriting the formula to
    ``formula[x:=false] | formula[x:=true]``; constants are folded after
    every step to contain the doubling.  Names absent from the formula are
    permitted and change nothing; the result never mentions any of them.
    """
    result = formula
    for name in sorted(set(names)):
        result = fold_constants(Or((substitute(result, name, False),
                                    substitute(result, name, True))))
    return result


def switch_models(model_set: ModelSet, name: str) -> ModelSet:
    """Close a model set under flipping the value of one variable."""
    vocab = model_set.vocabulary
    if name not in vocab:
        raise UnknownVariableError(name)
    bit = 1 << (len(vocab) - 1 - vocab.index(name))
    members = model_set.masks
    return ModelSet(vocab, sum(1 << m for m in members | {m ^ bit for m in members}))


def dilate(formula: Formula, rounds: int, vocabulary: Iterable[str] | None = None) -> Formula:
    """Formula whose models lie within Hamming distance ``rounds`` of some
    model of ``formula``, as a full-minterm DNF over ``vocabulary``."""
    return to_dnf(_dilated_models(formula, rounds, vocabulary))


def _dilated_models(formula: Formula, rounds: int,
                    vocabulary: Iterable[str] | None = None,
                    cap: int = DEFAULT_VOCAB_CAP) -> ModelSet:
    """The model set that :func:`dilate` prints, read off the grown ball's
    truth table, for callers that also need its size."""
    if rounds < 0:
        raise ValueError("dilation distance must be non-negative")
    vocab = tuple(vocabulary) if vocabulary is not None else variables(formula)
    vector = truth_vector(formula, vocab, cap)
    if not vector:
        raise InconsistentFormulaError("cannot dilate an inconsistent formula")
    _, flips = _width_tables(len(vocab))
    for _ in range(min(rounds, len(vocab))):
        vector = _dilate_once(vector, flips)
    return ModelSet(vocab, vector)


def dilate_via_forgetting(formula: Formula, rounds: int) -> Formula:
    """Dilation assembled from forgetting alone: the disjunction of
    ``forget(formula, V)`` over every variable set V of size
    ``min(rounds, |vars|)``.  Equivalent to :func:`dilate` by construction
    of the distance ball; kept separate so that equivalence stays testable.
    """
    if rounds < 0:
        raise ValueError("dilation distance must be non-negative")
    names = variables(formula)
    if not truth_vector(formula, names):
        raise InconsistentFormulaError("cannot dilate an inconsistent formula")
    size = min(rounds, len(names))
    return fold_constants(disj([forget(formula, chosen)
                                for chosen in combinations(names, size)]))
