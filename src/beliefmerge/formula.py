"""Propositional formula language: syntax trees, parser, printer, substitution.

Connectives are ``!``, ``&``, ``|``, ``->`` and ``<->`` plus the constants
``true`` and ``false``.  Precedence is ``!`` over ``&`` over ``|`` over
``->`` over ``<->``; ``->`` associates to the right, ``<->`` to the left.
Trees are immutable and never simplified on construction, so a substitution
like (p & q)[p := false] really yields ``false & q``; callers squeeze
constants out explicitly with :func:`fold_constants` when they want to.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterable


class Formula:
    """Base class of all formula nodes.  Nodes are immutable and hashable."""

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Constant(Formula):
    value: bool


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("And needs at least two children")


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Or needs at least two children")


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


TRUE = Constant(True)
FALSE = Constant(False)


def conj(parts: Iterable[Formula]) -> Formula:
    """Conjunction of ``parts``, flattening nested Ands; true when empty."""
    return _flattened(And, parts, TRUE)


def disj(parts: Iterable[Formula]) -> Formula:
    """Disjunction of ``parts``, flattening nested Ors; false when empty."""
    return _flattened(Or, parts, FALSE)


def _flattened(kind: type, parts: Iterable[Formula], empty: Formula) -> Formula:
    flat: list[Formula] = []
    for part in parts:
        if isinstance(part, kind):
            flat.extend(part.children)
        else:
            flat.append(part)
    if not flat:
        return empty
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


def variables(formula: Formula) -> tuple[str, ...]:
    """Names of the atoms occurring in ``formula``, sorted, without duplicates."""
    seen: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            seen.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, (Implies, Iff)):
            stack.append(node.lhs)
            stack.append(node.rhs)
    return tuple(sorted(seen))


def substitute(formula: Formula, name: str, value: bool) -> Formula:
    """Replace every occurrence of atom ``name`` by the constant ``value``.

    Nothing else changes: no simplification happens, and a name absent from
    the formula is allowed (the formula comes back untouched).
    """
    if isinstance(formula, Atom):
        return Constant(value) if formula.name == name else formula
    if isinstance(formula, Constant):
        return formula
    if isinstance(formula, Not):
        return Not(substitute(formula.child, name, value))
    if isinstance(formula, (And, Or)):
        return type(formula)(tuple(substitute(c, name, value) for c in formula.children))
    if isinstance(formula, (Implies, Iff)):
        return type(formula)(substitute(formula.lhs, name, value),
                             substitute(formula.rhs, name, value))
    raise TypeError(f"not a formula node: {formula!r}")


def fold_constants(formula: Formula) -> Formula:
    """Equivalence-preserving cleanup: absorb true/false, drop double
    negations, flatten nested And/Or chains."""
    if isinstance(formula, (Atom, Constant)):
        return formula
    if isinstance(formula, Not):
        child = fold_constants(formula.child)
        if isinstance(child, Constant):
            return FALSE if child.value else TRUE
        if isinstance(child, Not):
            return child.child
        return Not(child)
    if isinstance(formula, (And, Or)):
        absorber = isinstance(formula, Or)
        parts: list[Formula] = []
        for child in map(fold_constants, formula.children):
            if isinstance(child, Constant):
                if child.value == absorber:
                    return child
                continue  # neutral element
            parts.append(child)
        return _flattened(type(formula), parts, FALSE if absorber else TRUE)
    if isinstance(formula, Implies):
        lhs = fold_constants(formula.lhs)
        rhs = fold_constants(formula.rhs)
        if isinstance(lhs, Constant):
            return rhs if lhs.value else TRUE
        if isinstance(rhs, Constant):
            return TRUE if rhs.value else fold_constants(Not(lhs))
        return Implies(lhs, rhs)
    if isinstance(formula, Iff):
        lhs = fold_constants(formula.lhs)
        rhs = fold_constants(formula.rhs)
        if isinstance(lhs, Constant):
            return rhs if lhs.value else fold_constants(Not(rhs))
        if isinstance(rhs, Constant):
            return lhs if rhs.value else fold_constants(Not(lhs))
        return Iff(lhs, rhs)
    raise TypeError(f"not a formula node: {formula!r}")


# ---------------------------------------------------------------------------
# printing

_PRECEDENCE = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Atom: 6, Constant: 6}


def format_formula(formula: Formula) -> str:
    """Render with minimal parentheses; ``parse`` inverts this exactly."""
    if isinstance(formula, Constant):
        return "true" if formula.value else "false"
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Not):
        return "!" + _child_text(formula.child, 5)
    if isinstance(formula, And):
        return " & ".join(_child_text(c, 5) for c in formula.children)
    if isinstance(formula, Or):
        return " | ".join(_child_text(c, 4) for c in formula.children)
    if isinstance(formula, Implies):
        return f"{_child_text(formula.lhs, 3)} -> {_child_text(formula.rhs, 2)}"
    if isinstance(formula, Iff):
        return f"{_child_text(formula.lhs, 1)} <-> {_child_text(formula.rhs, 2)}"
    raise TypeError(f"not a formula node: {formula!r}")


def _child_text(formula: Formula, floor: int) -> str:
    text = format_formula(formula)
    if _PRECEDENCE[type(formula)] < floor:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# parsing

class ParseError(Exception):
    """Raised on malformed input; carries the position of the offence."""

    def __init__(self, message: str, line: int, column: int, token: str | None = None):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.token = token


# one match per identifier, connective, parenthesis or comment; any other
# character that is not blank matches the last alternative alone
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|<->|->|[&|!()]|#.*|[^ \t\r\n]")

# the one-character texts that are tokens; any other is a bad character
_SINGLES = frozenset(string.ascii_letters + "_&|!()")

# how tightly each binary connective binds
_BINDING = {"<->": 1, "->": 2, "|": 3, "&": 4}

_CONSTANTS = {"true": TRUE, "false": FALSE}

# The parser and every walk over a tree recurse at least once per level;
# this keeps them well inside Python's default limit of 1000 frames.
MAX_DEPTH = 100


class _Parser:
    """Precedence climbing over the token texts, which end in ``""`` for
    end of input.  Each rule returns its node and the node's depth, where
    every connective and every pair of parentheses is one level.  ``open``
    counts the levels the recursion is inside of, so that it stops as soon
    as they alone cross the bound.  An error names its token by index."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        if "#" in text:
            self.tokens = [word for word in self.tokens if word[0] != "#"]
        strange = set(self.tokens).difference(_SINGLES)
        if strange and min(map(len, strange)) == 1:
            at = next(i for i, word in enumerate(self.tokens)
                      if len(word) == 1 and word in strange)
            raise self._error(f"unexpected character {self.tokens[at]!r}", at)
        self.tokens.append("")
        self.pos = 0
        self.open = 0

    def _error(self, message: str, at: int) -> ParseError:
        """The error at token ``at``.  Only here is its offset found, by
        scanning the text again; input that ends in a comment ends at its
        '#'.  Line and column follow from the offset."""
        text, token, count = self.text, self.tokens[at], at
        offset = len(text)
        for match in _TOKEN_RE.finditer(text):
            if match.group()[0] == "#":
                if match.end() == len(text):
                    offset = match.start()
            elif count:
                count -= 1
            else:
                offset = match.start()
                break
        line_start = text.rfind("\n", 0, offset)
        return ParseError(message, text.count("\n", 0, offset) + 1,
                          offset - line_start, token)

    def parse(self) -> Formula:
        node, _ = self._binary(1)
        if self.tokens[self.pos]:
            raise self._error(f"unexpected token {self.tokens[self.pos]!r} after formula",
                              self.pos)
        return node

    def _deep(self, at: int) -> ParseError:
        return self._error(f"formula nested deeper than {MAX_DEPTH} levels", at)

    def _binary(self, floor: int) -> tuple[Formula, int]:
        """The longest formula from here whose connectives outside
        parentheses bind at least as tightly as ``floor``.  ``&`` and ``|``
        join flat chains in one loop; a chain's depth is checked at its
        first token, an arrow's at the arrow, and ``->`` opens a level."""
        tokens, start = self.tokens, self.pos
        node, depth = self._unary()
        binding = _BINDING.get(tokens[self.pos], 0)
        while binding >= floor:
            at = self.pos
            word = tokens[at]
            if binding >= 3:
                parts = [node]
                while tokens[self.pos] == word:
                    self.pos += 1
                    part, part_depth = self._unary() if binding == 4 else self._binary(4)
                    parts.append(part)
                    if part_depth > depth:
                        depth = part_depth
                node = (And if binding == 4 else Or)(tuple(parts))
                mark = start
            else:
                self.pos += 1
                if binding == 2:  # groups to the right
                    if self.open == MAX_DEPTH:
                        raise self._deep(at)
                    self.open += 1
                    rhs, rhs_depth = self._binary(2)
                    self.open -= 1
                    node = Implies(node, rhs)
                else:  # groups to the left
                    rhs, rhs_depth = self._binary(2)
                    node = Iff(node, rhs)
                if rhs_depth > depth:
                    depth = rhs_depth
                mark = at
            if depth == MAX_DEPTH:
                raise self._deep(mark)
            depth += 1
            binding = _BINDING.get(tokens[self.pos], 0)
        return node, depth

    def _unary(self) -> tuple[Formula, int]:
        """``!``, an atom or a parenthesised formula; ``!`` and ``(`` each
        open a level."""
        at = self.pos
        word = self.tokens[at]
        self.pos = at + 1
        if word == "!" or word == "(":
            if self.open == MAX_DEPTH:
                raise self._deep(at)
            self.open += 1
            if word == "!":
                child, depth = self._unary()
                node = Not(child)
            else:
                node, depth = self._binary(1)
                closing = self.tokens[self.pos]
                if closing != ")":
                    found = repr(closing) if closing else "end of input"
                    raise self._error(f"expected ')', found {found}", self.pos)
                self.pos += 1
            self.open -= 1
            if depth == MAX_DEPTH:
                raise self._deep(at)
            return node, depth + 1
        if word in _BINDING or word == ")" or not word:
            found = repr(word) if word else "end of input"
            raise self._error(f"expected a formula, found {found}", at)
        return _CONSTANTS.get(word) or Atom(word), 0


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula tree.

    Grammar (whitespace insignificant, ``#`` comments to end of line)::

        formula := iff
        iff     := implies ("<->" implies)*
        implies := or ("->" implies)?
        or      := and ("|" and)*
        and     := not ("&" not)*
        not     := "!" not | atom
        atom    := IDENT | "true" | "false" | "(" formula ")"

    More than ``MAX_DEPTH`` levels of connectives and parentheses is a
    :class:`ParseError`.
    """
    return _Parser(text).parse()
