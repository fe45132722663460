import random

import pytest

from beliefmerge import (
    And,
    Atom,
    Constant,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    TRUE,
    conj,
    disj,
    fold_constants,
    format_formula,
    parse,
    substitute,
    variables,
)
from beliefmerge.formula import MAX_DEPTH
from beliefmerge.postulates import VAR_POOL, random_formula
from beliefmerge.semantics import equivalent


def count_nodes(formula):
    if isinstance(formula, (Atom, Constant)):
        return 1
    if isinstance(formula, Not):
        return 1 + count_nodes(formula.child)
    if isinstance(formula, (And, Or)):
        return 1 + sum(count_nodes(c) for c in formula.children)
    return 1 + count_nodes(formula.lhs) + count_nodes(formula.rhs)


class TestParse:
    def test_constants(self):
        assert parse("true") == TRUE
        assert parse("false") == FALSE

    def test_flat_conjunction(self):
        assert parse("S & T & P") == And((Atom("S"), Atom("T"), Atom("P")))

    def test_co_owners_constraint_shape(self):
        got = parse("((S&T)|(S&P)|(T&P)) -> I")
        expected = Implies(
            Or((And((Atom("S"), Atom("T"))),
                And((Atom("S"), Atom("P"))),
                And((Atom("T"), Atom("P"))))),
            Atom("I"))
        assert got == expected

    def test_precedence(self):
        assert parse("!p & q") == And((Not(Atom("p")), Atom("q")))
        assert parse("p & q | r") == Or((And((Atom("p"), Atom("q"))), Atom("r")))
        assert parse("p | q -> r") == Implies(Or((Atom("p"), Atom("q"))), Atom("r"))
        assert parse("p -> q <-> r") == Iff(Implies(Atom("p"), Atom("q")), Atom("r"))

    def test_implies_right_associative(self):
        assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))

    def test_iff_left_associative(self):
        assert parse("a <-> b <-> c") == Iff(Iff(Atom("a"), Atom("b")), Atom("c"))

    def test_double_negation_kept(self):
        assert parse("!!p") == Not(Not(Atom("p")))

    def test_parenthesised_subchain_stays_nested(self):
        assert parse("(a & b) & c") == And((And((Atom("a"), Atom("b"))), Atom("c")))

    def test_comments_and_whitespace(self):
        assert parse("p  &\n\t q # trailing words\n") == And((Atom("p"), Atom("q")))
        assert parse("# whole line\np") == Atom("p")

    def test_keyword_prefix_is_an_identifier(self):
        assert parse("truely") == Atom("truely")
        assert parse("_false") == Atom("_false")

    @pytest.mark.parametrize("text, line, column", [
        ("p &", 1, 4),
        ("(p", 1, 3),
        ("p @ q", 1, 3),
        ("p q", 1, 3),
        ("\n  | q", 2, 3),
    ])
    def test_errors_carry_positions(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == line
        assert info.value.column == column
        assert f"line {line}, column {column}" in str(info.value)

    @pytest.mark.parametrize("join, kind", [(" & ", And), (" | ", Or)])
    def test_long_flat_chain_is_one_node(self, join, kind):
        # a chain is a loop, not a recursion per operand
        names = [f"p{i}" for i in range(20000)]
        got = parse(join.join(names))
        assert isinstance(got, kind) and len(got.children) == 20000
        assert got.children[-1] == Atom("p19999")

    @pytest.mark.parametrize("join", [" & ", " | "])
    def test_chain_over_the_bound_fails_at_its_first_token(self, join):
        deep = "(" * (MAX_DEPTH - 1) + "p | q" + ")" * (MAX_DEPTH - 1)
        with pytest.raises(ParseError, match="nested deeper than") as info:
            parse("r -> " + deep + join + "s")
        assert (info.value.line, info.value.column, info.value.token) == (1, 6, "(")

    def test_error_position_on_the_last_of_many_lines(self):
        # comments holding tokens sit on every line; the error's position
        # must match a plain scan of the characters up to the offence
        lines = [f"x{i} &  # ( ) & x{i}" for i in range(1999)] + ["  (y | ) & z"]
        text = "\n".join(lines)
        offset = text.rindex(")")
        line, column = 1, 1
        for char in text[:offset]:
            line, column = (line + 1, 1) if char == "\n" else (line, column + 1)
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.line, info.value.column, info.value.token) == (line, column, ")")
        assert line == 2000 and info.value.message == "expected a formula, found ')'"

    @pytest.mark.parametrize("nest", [
        lambda depth: "!" * depth + "p",
        lambda depth: "(" * (depth - 1) + "p | q" + ")" * (depth - 1),
        lambda depth: " <-> ".join(["p"] * (depth + 1)),
        lambda depth: " -> ".join(["p"] * (depth + 1)),
    ])
    def test_depth_bound(self, nest):
        inside = parse(nest(MAX_DEPTH))
        assert parse(format_formula(inside)) == inside
        with pytest.raises(ParseError, match="nested deeper than"):
            parse(nest(MAX_DEPTH + 1))


class TestPrint:
    @pytest.mark.parametrize("formula, text", [
        (And((Atom("p"), Atom("q"))), "p & q"),
        (Not(And((Atom("p"), Atom("q")))), "!(p & q)"),
        (Implies(Atom("p"), Implies(Atom("q"), Atom("r"))), "p -> q -> r"),
        (Implies(Implies(Atom("p"), Atom("q")), Atom("r")), "(p -> q) -> r"),
        (Or((And((Atom("p"), Atom("q"))), Atom("r"))), "p & q | r"),
        (And((Or((Atom("p"), Atom("q"))), Atom("r"))), "(p | q) & r"),
        (Iff(Atom("a"), Iff(Atom("b"), Atom("c"))), "a <-> (b <-> c)"),
        (TRUE, "true"),
    ])
    def test_minimal_parentheses(self, formula, text):
        assert format_formula(formula) == text

    def test_round_trip_on_random_formulas(self):
        rng = random.Random("round-trip")
        for _ in range(300):
            names = VAR_POOL[: rng.randint(1, 5)]
            formula = random_formula(rng, names, depth=rng.randint(1, 4))
            assert parse(format_formula(formula)) == formula


class TestSubstitute:
    def test_replacement_is_literal(self):
        pq = And((Atom("p"), Atom("q")))
        assert substitute(pq, "p", False) == And((FALSE, Atom("q")))
        assert substitute(pq, "p", True) == And((TRUE, Atom("q")))
        assert substitute(Atom("q"), "p", True) == Atom("q")

    def test_no_simplification_on_substitution(self):
        got = substitute(parse("p & q"), "p", True)
        assert got == And((TRUE, Atom("q")))  # stays literal, never folds to q

    def test_node_count_preserved(self):
        rng = random.Random("subst-count")
        for _ in range(100):
            formula = random_formula(rng, VAR_POOL[:4], depth=3)
            name = rng.choice(VAR_POOL[:4])
            replaced = substitute(formula, name, rng.random() < 0.5)
            assert count_nodes(replaced) == count_nodes(formula)

    def test_variable_removed(self):
        rng = random.Random("subst-vars")
        for _ in range(100):
            formula = random_formula(rng, VAR_POOL[:4], depth=3)
            for name in variables(formula):
                replaced = substitute(formula, name, True)
                assert name not in variables(replaced)
                assert set(variables(replaced)) == set(variables(formula)) - {name}


class TestVariables:
    def test_cases(self):
        assert variables(TRUE) == ()
        assert variables(parse("S & T & P")) == ("P", "S", "T")
        assert variables(parse("p | !p")) == ("p",)


class TestBuilders:
    def test_conj_disj_flatten_and_degenerate(self):
        assert conj([]) == TRUE
        assert disj([]) == FALSE
        assert conj([Atom("p")]) == Atom("p")
        assert conj([And((Atom("p"), Atom("q"))), Atom("r")]) == parse("p & q & r")
        assert disj([Or((Atom("p"), Atom("q"))), Atom("r")]) == parse("p | q | r")

    def test_narrow_nodes_rejected(self):
        with pytest.raises(ValueError):
            And((Atom("p"),))
        with pytest.raises(ValueError):
            Or(())


class TestFoldConstants:
    @pytest.mark.parametrize("text, expected", [
        ("true & q", "q"),
        ("false & q", "false"),
        ("false | q", "q"),
        ("!!p", "p"),
        ("!true", "false"),
        ("true -> q", "q"),
        ("q -> false", "!q"),
        ("p <-> true", "p"),
        ("p <-> false", "!p"),
    ])
    def test_cases(self, text, expected):
        assert fold_constants(parse(text)) == parse(expected)

    def test_equivalence_preserved(self):
        rng = random.Random("fold")
        for _ in range(200):
            formula = random_formula(rng, VAR_POOL[:4], depth=4)
            assert equivalent(fold_constants(formula), formula)
