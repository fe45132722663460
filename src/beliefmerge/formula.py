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
from dataclasses import dataclass
from typing import Iterable, NamedTuple


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


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int


# one match per identifier, connective, parenthesis, blank run or comment;
# any other character matches the last group alone
_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct><->|->|[&|!()])"
                       r"|[ \t\r\n]+|(?P<comment>#.*)|(?P<bad>.)")


# The parser and every walk over a tree recurse at least once per level;
# this keeps them well inside Python's default limit of 1000 frames.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent.  Each rule returns its node and the node's depth,
    where every connective and every pair of parentheses is one level.
    ``open`` counts the levels the recursion is inside of, so that it stops
    as soon as they alone cross the bound."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[_Token] = []
        self.pos = 0
        self.open = 0
        end = len(text)
        for match in _TOKEN_RE.finditer(text):
            kind, word, offset = match.lastgroup, match.group(), match.start()
            if kind == "ident":
                self.tokens.append(_Token(kind, word, offset))
            elif kind == "punct":
                self.tokens.append(_Token(word, word, offset))
            elif kind == "bad":
                raise self._error(f"unexpected character {word!r}", _Token(kind, word, offset))
            elif kind == "comment" and match.end() == end:
                end = offset  # input that ends in a comment ends at its '#'
        self.tokens.append(_Token("eof", "", end))

    def _error(self, message: str, tok: _Token) -> ParseError:
        """The error at ``tok``; only here are line and column worked out."""
        line_start = self.text.rfind("\n", 0, tok.offset)
        return ParseError(message, self.text.count("\n", 0, tok.offset) + 1,
                          tok.offset - line_start, tok.text)

    def parse(self) -> Formula:
        node, _ = self._iff()
        tok = self._peek()
        if tok.kind != "eof":
            raise self._error(f"unexpected token {tok.text!r} after formula", tok)
        return node

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _level(self, depth: int, tok: _Token) -> int:
        if depth > MAX_DEPTH:
            raise self._error(f"formula nested deeper than {MAX_DEPTH} levels", tok)
        return depth

    def _iff(self) -> tuple[Formula, int]:
        node, depth = self._implies()
        while self._peek().kind == "<->":
            tok = self._advance()
            rhs, rhs_depth = self._implies()
            node, depth = Iff(node, rhs), self._level(max(depth, rhs_depth) + 1, tok)
        return node, depth

    def _implies(self) -> tuple[Formula, int]:
        node, depth = self._or()
        if self._peek().kind == "->":
            tok = self._advance()
            self.open = self._level(self.open + 1, tok)
            rhs, rhs_depth = self._implies()
            self.open -= 1
            return Implies(node, rhs), self._level(max(depth, rhs_depth) + 1, tok)
        return node, depth

    def _or(self) -> tuple[Formula, int]:
        first = self._peek()
        parts = [self._and()]
        while self._peek().kind == "|":
            self._advance()
            parts.append(self._and())
        return self._joined(Or, parts, first)

    def _and(self) -> tuple[Formula, int]:
        first = self._peek()
        parts = [self._not()]
        while self._peek().kind == "&":
            self._advance()
            parts.append(self._not())
        return self._joined(And, parts, first)

    def _joined(self, build, parts, tok: _Token) -> tuple[Formula, int]:
        if len(parts) == 1:
            return parts[0]
        nodes, depths = zip(*parts)
        return build(nodes), self._level(max(depths) + 1, tok)

    def _not(self) -> tuple[Formula, int]:
        tok = self._peek()
        if tok.kind == "!":
            self._advance()
            self.open = self._level(self.open + 1, tok)
            child, depth = self._not()
            self.open -= 1
            return Not(child), self._level(depth + 1, tok)
        return self._atom()

    def _atom(self) -> tuple[Formula, int]:
        tok = self._peek()
        if tok.kind == "ident":
            self._advance()
            if tok.text == "true":
                return TRUE, 0
            if tok.text == "false":
                return FALSE, 0
            return Atom(tok.text), 0
        if tok.kind == "(":
            self._advance()
            self.open = self._level(self.open + 1, tok)
            node, depth = self._iff()
            self.open -= 1
            closing = self._peek()
            if closing.kind != ")":
                found = repr(closing.text) if closing.kind != "eof" else "end of input"
                raise self._error(f"expected ')', found {found}", closing)
            self._advance()
            return node, self._level(depth + 1, tok)
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise self._error(f"expected a formula, found {found}", tok)


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
