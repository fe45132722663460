"""Model-level semantics by exhaustive truth-table enumeration.

Every operation here walks the full assignment space of its vocabulary.
Assignments are indexed 0 .. 2^n - 1 in increasing binary value with the
lexicographically first variable as the most significant bit, and a
formula's truth table is held as one big integer whose bit m is set iff
assignment m satisfies the formula.  The vocabulary cap is the only
resource guard; there is no SAT or BDD shortcut anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    Constant,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    variables,
)

DEFAULT_VOCAB_CAP = 24

# the widest vocabulary whose cached assignment space (n + 1 tables of
# 2^n bits, see _assignment_space) fits in 1 GiB: 29 x 32 MiB at n = 28
MAX_VOCAB_CAP = 28

# merging a profile above this many variables is legal but loud (see cli)
MERGE_WARN_VARS = 16


class VocabularyCapError(Exception):
    """The working vocabulary exceeds the enumeration cap."""


class UnknownVariableError(Exception):
    """A formula mentions a variable outside the working vocabulary."""


class InconsistentFormulaError(Exception):
    """An operation needed a consistent formula but got an unsatisfiable one."""


def _checked_vocabulary(names: Iterable[str]) -> tuple[str, ...]:
    vocab = tuple(names)
    if list(vocab) != sorted(set(vocab)):
        raise ValueError("vocabulary must be sorted and free of duplicates")
    return vocab


@dataclass(frozen=True)
class Interpretation:
    """A total truth assignment over a fixed, sorted vocabulary."""

    vocabulary: tuple[str, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vocabulary", _checked_vocabulary(self.vocabulary))
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if len(self.bits) != len(self.vocabulary):
            raise ValueError("one truth value per variable, in vocabulary order")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("truth values are 0 or 1")

    @classmethod
    def from_assignment(cls, assignment: Mapping[str, int]) -> "Interpretation":
        vocab = tuple(sorted(assignment))
        return cls(vocab, tuple(int(assignment[v]) for v in vocab))

    @classmethod
    def from_mask(cls, vocabulary: tuple[str, ...], mask: int) -> "Interpretation":
        n = len(vocabulary)
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask} out of range for {n} variables")
        bits = tuple((mask >> (n - 1 - j)) & 1 for j in range(n))
        return cls(vocabulary, bits)

    @property
    def mask(self) -> int:
        value = 0
        for bit in self.bits:
            value = (value << 1) | bit
        return value

    def value(self, name: str) -> int:
        try:
            return self.bits[self.vocabulary.index(name)]
        except ValueError:
            raise UnknownVariableError(name) from None

    def switched(self, name: str) -> "Interpretation":
        """Same assignment with the value of ``name`` flipped."""
        j = self.vocabulary.index(name) if name in self.vocabulary else -1
        if j < 0:
            raise UnknownVariableError(name)
        bits = list(self.bits)
        bits[j] ^= 1
        return Interpretation(self.vocabulary, tuple(bits))

    def __str__(self) -> str:
        return " ".join(f"{v}={b}" for v, b in zip(self.vocabulary, self.bits))


@dataclass(frozen=True)
class ModelSet:
    """The set of interpretations over one vocabulary satisfying a formula.

    Held as its truth table: bit m of ``table`` is set iff assignment m is a
    member.  Iteration yields :class:`Interpretation` objects in increasing
    binary value.
    """

    vocabulary: tuple[str, ...]
    table: int

    def __post_init__(self):
        object.__setattr__(self, "vocabulary", _checked_vocabulary(self.vocabulary))
        if self.table < 0 or self.table.bit_length() > 1 << len(self.vocabulary):
            raise ValueError("truth table out of range for the vocabulary")

    @property
    def masks(self) -> frozenset[int]:
        return frozenset(_iter_masks(self.table))

    def __len__(self) -> int:
        return self.table.bit_count()

    def __iter__(self) -> Iterator[Interpretation]:
        for mask in _iter_masks(self.table):
            yield Interpretation.from_mask(self.vocabulary, mask)

    def __contains__(self, interpretation: object) -> bool:
        return (isinstance(interpretation, Interpretation)
                and interpretation.vocabulary == self.vocabulary
                and self.table >> interpretation.mask & 1 == 1)

    def bitstrings(self) -> list[str]:
        n = len(self.vocabulary)
        return [format(mask, f"0{n}b") if n else "" for mask in _iter_masks(self.table)]


def vocabulary_union(*formulas: Formula, extra: Iterable[str] = ()) -> tuple[str, ...]:
    """Sorted union of the formulas' variables plus any extra names."""
    names = set(extra)
    for formula in formulas:
        names.update(variables(formula))
    return tuple(sorted(names))


@lru_cache(maxsize=256)
def _assignment_space(vocabulary: tuple[str, ...]) -> tuple[int, dict[str, int]]:
    """All-ones truth table plus, per variable, the table of the variable itself."""
    n = len(vocabulary)
    size = 1 << n
    space = (1 << size) - 1
    patterns: dict[str, int] = {}
    for j, name in enumerate(vocabulary):
        weight = 1 << (n - 1 - j)
        pattern = ((1 << weight) - 1) << weight
        shift = weight << 1
        while shift < size:
            pattern |= pattern << shift
            shift <<= 1
        patterns[name] = pattern
    return space, patterns


def _flip(table: int, weight: int, pattern: int, space: int) -> int:
    """``table`` with one variable negated in every member: ``pattern`` is
    that variable's own truth table and ``weight`` its bit in a mask."""
    return ((table & pattern) >> weight) | ((table & (space ^ pattern)) << weight)


def _dilate_once(table: int, space: int, patterns: dict[str, int]) -> int:
    """Assignments within Hamming distance one of a member of ``table``;
    ``patterns`` is in vocabulary order, as :func:`_assignment_space` gives."""
    grown = table
    weight = space.bit_length() >> 1  # the first variable's: 2^(n-1)
    for pattern in patterns.values():
        grown |= _flip(table, weight, pattern, space)
        weight >>= 1
    return grown


def truth_vector(formula: Formula, vocabulary: Iterable[str],
                 cap: int = DEFAULT_VOCAB_CAP) -> int:
    """Dense truth table of ``formula`` over ``vocabulary`` as a big integer."""
    vocab = _checked_vocabulary(vocabulary)
    if len(vocab) > cap:
        raise VocabularyCapError(
            f"{len(vocab)} variables exceed the enumeration cap of {cap}")
    space, patterns = _assignment_space(vocab)
    return _vector(formula, space, patterns)


def _vector(formula: Formula, space: int, patterns: dict[str, int]) -> int:
    if isinstance(formula, Constant):
        return space if formula.value else 0
    if isinstance(formula, Atom):
        try:
            return patterns[formula.name]
        except KeyError:
            raise UnknownVariableError(formula.name) from None
    if isinstance(formula, Not):
        return space ^ _vector(formula.child, space, patterns)
    if isinstance(formula, And):
        out = space
        for child in formula.children:
            out &= _vector(child, space, patterns)
            if not out:
                break
        return out
    if isinstance(formula, Or):
        out = 0
        for child in formula.children:
            out |= _vector(child, space, patterns)
            if out == space:
                break
        return out
    if isinstance(formula, Implies):
        return (space ^ _vector(formula.lhs, space, patterns)) | _vector(formula.rhs, space, patterns)
    if isinstance(formula, Iff):
        return space ^ _vector(formula.lhs, space, patterns) ^ _vector(formula.rhs, space, patterns)
    raise TypeError(f"not a formula node: {formula!r}")


def _iter_masks(vector: int) -> Iterator[int]:
    """Set bit positions of ``vector``, ascending.

    One scan of the binary digits from the low end; clearing one bit at a
    time instead would copy the whole table per member."""
    digits = bin(vector)
    last = len(digits) - 1  # the digit of bit 0
    index = digits.rfind("1")
    while index > 1:  # digits[:2] is the "0b" prefix
        yield last - index
        index = digits.rfind("1", 2, index)


def evaluate(formula: Formula, interpretation: Interpretation) -> bool:
    """Classical truth value of ``formula`` under one assignment.

    Deliberately independent of :func:`truth_vector`: this is the
    one-assignment-at-a-time recursion the table engine is tested against.
    """
    if isinstance(formula, Constant):
        return formula.value
    if isinstance(formula, Atom):
        return bool(interpretation.value(formula.name))
    if isinstance(formula, Not):
        return not evaluate(formula.child, interpretation)
    if isinstance(formula, And):
        return all(evaluate(c, interpretation) for c in formula.children)
    if isinstance(formula, Or):
        return any(evaluate(c, interpretation) for c in formula.children)
    if isinstance(formula, Implies):
        return (not evaluate(formula.lhs, interpretation)) or evaluate(formula.rhs, interpretation)
    if isinstance(formula, Iff):
        return evaluate(formula.lhs, interpretation) == evaluate(formula.rhs, interpretation)
    raise TypeError(f"not a formula node: {formula!r}")


def models(formula: Formula, vocabulary: Iterable[str] | None = None,
           cap: int = DEFAULT_VOCAB_CAP) -> ModelSet:
    """All interpretations over ``vocabulary`` (default: the formula's own
    variables) that satisfy ``formula``."""
    vocab = _checked_vocabulary(vocabulary) if vocabulary is not None else variables(formula)
    return ModelSet(vocab, truth_vector(formula, vocab, cap))


def is_consistent(formula: Formula, cap: int = DEFAULT_VOCAB_CAP) -> bool:
    return truth_vector(formula, variables(formula), cap) != 0


def dalal(first: Interpretation, second: Interpretation) -> int:
    """Hamming distance between two assignments over the same vocabulary."""
    if first.vocabulary != second.vocabulary:
        raise ValueError("interpretations must share a vocabulary")
    return sum(a != b for a, b in zip(first.bits, second.bits))


def distance_to_formula(interpretation: Interpretation, formula: Formula,
                        cap: int = DEFAULT_VOCAB_CAP) -> int:
    """Least Hamming distance from ``interpretation`` to a model of ``formula``."""
    vector = truth_vector(formula, interpretation.vocabulary, cap)
    if not vector:
        raise InconsistentFormulaError(
            "distance to an inconsistent formula is undefined")
    mask = interpretation.mask
    return min((mask ^ m).bit_count() for m in _iter_masks(vector))


def formula_distance(first: Formula, second: Formula,
                     cap: int = DEFAULT_VOCAB_CAP) -> int:
    """Least Hamming distance between a model of ``first`` and one of
    ``second``, over the union of their vocabularies."""
    vocab = vocabulary_union(first, second)
    va = truth_vector(first, vocab, cap)
    vb = truth_vector(second, vocab, cap)
    if not va or not vb:
        raise InconsistentFormulaError(
            "formula distance needs both operands consistent")
    masks_b = list(_iter_masks(vb))
    return min((a ^ b).bit_count() for a in _iter_masks(va) for b in masks_b)


def entails(first: Formula, second: Formula, cap: int = DEFAULT_VOCAB_CAP) -> bool:
    """Model-set inclusion over the union vocabulary."""
    vocab = vocabulary_union(first, second)
    return truth_vector(first, vocab, cap) & ~truth_vector(second, vocab, cap) == 0


def equivalent(first: Formula, second: Formula, cap: int = DEFAULT_VOCAB_CAP) -> bool:
    """Model-set equality over the union vocabulary."""
    vocab = vocabulary_union(first, second)
    return truth_vector(first, vocab, cap) == truth_vector(second, vocab, cap)


def to_dnf(model_set: ModelSet) -> Formula:
    """Full-minterm disjunctive normal form of a model set.

    One minterm per member, members ordered by the binary encoding of their
    bits; the empty set becomes ``false`` and the empty vocabulary's single
    assignment becomes ``true``.
    """
    if not model_set.table:
        return FALSE
    vocab = model_set.vocabulary
    n = len(vocab)
    terms: list[Formula] = []
    for mask in _iter_masks(model_set.table):
        literals: list[Formula] = [
            Atom(name) if (mask >> (n - 1 - j)) & 1 else Not(Atom(name))
            for j, name in enumerate(vocab)
        ]
        if not literals:
            terms.append(TRUE)
        elif len(literals) == 1:
            terms.append(literals[0])
        else:
            terms.append(And(tuple(literals)))
    return terms[0] if len(terms) == 1 else Or(tuple(terms))
