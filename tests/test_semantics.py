import random
import tracemalloc
from itertools import product

import pytest

from beliefmerge import (
    FALSE,
    InconsistentFormulaError,
    Interpretation,
    ModelSet,
    TRUE,
    UnknownVariableError,
    VocabularyCapError,
    dalal,
    distance_to_formula,
    entails,
    equivalent,
    evaluate,
    format_dnf,
    formula_distance,
    is_consistent,
    models,
    parse,
    to_dnf,
    truth_vector,
    vocabulary_union,
)
from beliefmerge import cli
from beliefmerge.formula import format_formula
from beliefmerge.merging import MergeResult
from beliefmerge.postulates import VAR_POOL, random_formula
from beliefmerge.semantics import _compiler


def interp(**assignment):
    return Interpretation.from_assignment(assignment)


class TestInterpretation:
    def test_mask_round_trip(self):
        vocab = ("p", "q", "r")
        for mask in range(8):
            i = Interpretation.from_mask(vocab, mask)
            assert i.mask == mask
            assert len(i.bits) == 3

    def test_value_and_switch(self):
        i = interp(p=1, q=0)
        assert i.value("p") == 1 and i.value("q") == 0
        assert i.switched("q").bits == (1, 1)
        with pytest.raises(UnknownVariableError):
            i.value("z")

    def test_validation(self):
        with pytest.raises(ValueError):
            Interpretation(("q", "p"), (0, 1))  # unsorted vocabulary
        with pytest.raises(ValueError):
            Interpretation(("p",), (0, 1))


class TestEvaluate:
    def test_basic(self):
        assert evaluate(parse("p & q"), interp(p=1, q=1)) is True
        assert evaluate(FALSE, interp(p=0)) is False

    def test_co_owners_constraint(self):
        # two projects built and no rent increase breaks the constraint
        mu = parse("((S & T) | (S & P) | (T & P)) -> I")
        assert evaluate(mu, interp(S=1, T=1, P=1, I=0)) is False
        assert evaluate(mu, interp(S=1, T=1, P=1, I=1)) is True
        assert evaluate(mu, interp(S=0, T=0, P=1, I=0)) is True

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            evaluate(parse("p & z"), interp(p=1))


class TestModels:
    def test_counting(self):
        assert len(models(TRUE, ("p",))) == 2
        assert len(models(parse("S & T & P"), ("I", "P", "S", "T"))) == 2
        assert len(models(parse("p & !p"), ("p",))) == 0

    def test_enumeration_order_is_binary_ascending(self):
        got = [i.mask for i in models(TRUE, ("p", "q"))]
        assert got == [0, 1, 2, 3]

    def test_against_per_assignment_evaluation(self):
        # the truth-table engine versus the one-assignment recursion
        rng = random.Random("models-vs-evaluate")
        for _ in range(150):
            names = VAR_POOL[: rng.randint(1, 4)]
            formula = random_formula(rng, names, depth=3)
            vocab = vocabulary_union(formula, extra=names)
            by_table = {i.mask for i in models(formula, vocab)}
            by_eval = {m for m in range(1 << len(vocab))
                       if evaluate(formula, Interpretation.from_mask(vocab, m))}
            assert by_table == by_eval

    def test_vocabulary_extension_projects_back(self):
        rng = random.Random("models-extend")
        for _ in range(80):
            names = VAR_POOL[: rng.randint(1, 3)]
            formula = random_formula(rng, names, depth=3)
            vocab = vocabulary_union(formula, extra=names)
            wide = tuple(sorted((*vocab, "zz")))
            narrow = models(formula, vocab)
            extended = models(formula, wide)
            assert len(extended) == 2 * len(narrow)
            j = wide.index("zz")
            shift = len(wide) - 1 - j
            projected = set()
            for mask in extended.masks:
                low = mask & ((1 << shift) - 1)
                projected.add(((mask >> (shift + 1)) << shift) | low)
            assert projected == set(narrow.masks)

    def test_cap(self):
        with pytest.raises(VocabularyCapError):
            models(TRUE, ("a", "b", "c", "d"), cap=3)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            models(parse("p"), ("q",))

    def test_one_compiler_per_vocabulary_agrees_with_truth_vector(self):
        rng = random.Random("compiler")
        compilers = {width: _compiler(VAR_POOL[:width])
                     for width in range(1, len(VAR_POOL) + 1)}
        for _ in range(500):
            width = rng.randint(1, len(VAR_POOL))
            vocab = VAR_POOL[:width]
            formula = random_formula(rng, vocab)
            table = compilers[width](formula)
            assert table == truth_vector(formula, vocab)
            assert table == sum(1 << m.mask for m in models(TRUE, vocab)
                                if evaluate(formula, m))

    def test_compiler_checks_its_vocabulary_once_made(self):
        with pytest.raises(ValueError, match="sorted and free of duplicates"):
            _compiler(("q", "p"))
        with pytest.raises(ValueError, match="sorted and free of duplicates"):
            _compiler(("p", "p"))
        with pytest.raises(VocabularyCapError, match="4 variables exceed the enumeration cap of 3"):
            _compiler(("a", "b", "c", "d"), cap=3)
        with pytest.raises(VocabularyCapError, match="4 variables exceed the enumeration cap of 3"):
            truth_vector(TRUE, ("a", "b", "c", "d"), cap=3)

    def test_assignment_tables_are_shared_per_width(self):
        # one 18-variable assignment space is 19 tables of 32 KiB; a copy
        # per vocabulary would retain about 39 MB here
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(64):
                vocab = tuple(f"w{k:02}_{i:02}" for i in range(18))
                truth_vector(parse(vocab[0]), vocab)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 4 << 20


class TestDalal:
    def test_cases(self):
        a = interp(I=1, P=1, S=1, T=1)
        b = interp(I=0, P=0, S=0, T=0)
        assert dalal(a, a) == 0
        assert dalal(a, b) == 4
        assert dalal(interp(p=1, q=1, r=1), interp(p=0, q=1, r=1)) == 1

    def test_vocabulary_mismatch(self):
        with pytest.raises(ValueError):
            dalal(interp(p=1), interp(q=1))

    def test_metric_axioms_exhaustively(self):
        vocab = ("a", "b", "c", "d")
        points = [Interpretation.from_mask(vocab, m) for m in range(16)]
        for x, y in product(points, repeat=2):
            assert dalal(x, y) == dalal(y, x)
            assert (dalal(x, y) == 0) == (x == y)
        for x, y, z in product(points, repeat=3):
            assert dalal(x, z) <= dalal(x, y) + dalal(y, z)


class TestDistanceToFormula:
    def test_zero_iff_model(self):
        rng = random.Random("dist-zero")
        for _ in range(100):
            names = VAR_POOL[: rng.randint(1, 4)]
            formula = random_formula(rng, names, depth=3)
            vocab = vocabulary_union(formula, extra=names)
            sat = models(formula, vocab)
            if not sat.masks:
                continue
            for mask in range(1 << len(vocab)):
                i = Interpretation.from_mask(vocab, mask)
                assert (distance_to_formula(i, formula) == 0) == (i in sat)

    def test_hand_values(self):
        allfalse = interp(S=0, T=0, P=0, I=0)
        assert distance_to_formula(allfalse, parse("S & T & P")) == 3
        assert distance_to_formula(allfalse, parse("T & P & !I")) == 2

    def test_inconsistent_formula_rejected(self):
        with pytest.raises(InconsistentFormulaError):
            distance_to_formula(interp(p=0), parse("p & !p"))


class TestEntailment:
    def test_cases(self):
        assert equivalent(parse("p -> q"), parse("!p | q"))
        assert entails(parse("p & q"), parse("p"))
        assert not entails(parse("p"), parse("p & q"))
        # vacuous extra variables do not matter
        assert equivalent(parse("p"), parse("p & (q | !q)"))

    def test_consistency(self):
        assert is_consistent(parse("p | !p"))
        assert not is_consistent(parse("p & !p"))


class TestFormulaDistance:
    def test_cases(self):
        assert formula_distance(parse("p"), parse("!p")) == 1
        assert formula_distance(parse("p & q"), parse("!p & !q")) == 2
        assert formula_distance(parse("p"), parse("p | q")) == 0

    def test_inconsistent_operand_rejected(self):
        with pytest.raises(InconsistentFormulaError):
            formula_distance(parse("p & !p"), parse("p"))


class TestToDnf:
    def test_fixed_points(self):
        assert to_dnf(ModelSet(("p",), 0)) == FALSE
        single = models(parse("p & !q"), ("p", "q"))
        assert to_dnf(single) == parse("p & !q")
        both = models(TRUE, ("p",))
        assert to_dnf(both) == parse("!p | p")

    def test_empty_vocabulary(self):
        assert to_dnf(ModelSet((), 0b1)) == TRUE

    def test_equivalence_on_random_formulas(self):
        rng = random.Random("dnf")
        for _ in range(150):
            names = VAR_POOL[: rng.randint(1, 4)]
            formula = random_formula(rng, names, depth=3)
            vocab = vocabulary_union(formula, extra=names)
            assert equivalent(formula, to_dnf(models(formula, vocab)))


class TestFormatDnf:
    """``format_dnf`` against its oracle, the printed ``to_dnf`` tree."""

    @staticmethod
    def assert_matches(width, table):
        model_set = ModelSet(tuple(f"x{i:02d}" for i in range(width)), table)
        assert format_dnf(model_set) == format_formula(to_dnf(model_set)), (width, table)

    def test_fixed_points(self):
        assert format_dnf(ModelSet(("p",), 0)) == "false"
        assert format_dnf(ModelSet((), 0b1)) == "true"
        assert format_dnf(ModelSet(("p",), 0b10)) == "p"
        assert format_dnf(ModelSet(("p",), 0b11)) == "!p | p"
        assert format_dnf(models(parse("p & !q"), ("p", "q"))) == "p & !q"

    def test_every_table_up_to_three_variables(self):
        for width in range(4):
            for table in range(1 << (1 << width)):
                self.assert_matches(width, table)

    def test_random_tables_across_slice_boundaries(self):
        # slices are 8 variables wide from 128 members up and narrower
        # below, so 8, 9, 16 and 17 variables sit either side of a boundary
        rng = random.Random("format_dnf")

        def sparse(width, count):  # keeps the oracle's tree small
            return sum(1 << m for m in rng.sample(range(1 << width), count))

        samples = [(4, 0), (17, 0), (8, (1 << 256) - 1), (9, (1 << 512) - 1)]
        samples += [(width, rng.getrandbits(1 << width)) for width in [8, 9] * 10]
        samples += [(width, sparse(width, rng.randint(128, 256)))
                    for width in [16, 17] * 10]
        for _ in range(260):
            width = rng.randint(4, 20)
            if width <= 9:
                samples.append((width, rng.getrandbits(1 << width)))
            else:  # log-uniform counts give every slice width from 1 to 8
                count = rng.randint(1, 1 << rng.randint(0, 8))
                samples.append((width, sparse(width, count)))
        for width, table in samples:
            self.assert_matches(width, table)


class TestRenderersAgainstReferees:
    """``format_dnf``, ``bitstrings`` and the table rows against their
    referees: the printed ``to_dnf`` tree and one ``format`` call per
    member.  Members that share their high variables share one printed
    prefix, a chunk of 2^w assignments with w = min(8, the member count's
    bit length), so the tables put members on both edges of chunks, at
    every w, with n a multiple of w and not."""

    @staticmethod
    def table_with_edges(rng, n, count):
        """``count`` members over ``n`` variables, about half of them the
        first or the last assignment of a chunk, as a sorted list."""
        size = 1 << n
        if count > size // 2:
            return sorted(set(range(size)) - set(rng.sample(range(size), size - count)))
        chunk = 1 << min(8, count.bit_length(), n)
        edges = [e for base in range(0, size, chunk) for e in (base, base + chunk - 1)]
        members = set(rng.sample(edges, min(len(edges), count // 2)))
        while len(members) < count:
            members.add(rng.randrange(size))
        return sorted(members)

    @staticmethod
    def assert_same(actual, expected, case):
        # pytest's own diff of two texts of many kilobytes takes minutes,
        # so a failure names only where they part
        if actual != expected:
            at = next(i for i, (a, b) in enumerate(zip(actual + "\0", expected + "\1"))
                      if a != b)
            pytest.fail(f"{case}: the texts part at character {at}: "
                        f"{actual[at:at + 60]!r} != {expected[at:at + 60]!r}")

    def assert_renders(self, n, members):
        model_set = ModelSet(tuple(f"x{i:02d}" for i in range(n)),
                             sum(1 << m for m in members))
        case = f"{len(members)} models over {n} variables"
        self.assert_same(format_dnf(model_set), format_formula(to_dnf(model_set)), case)
        rows = [format(m, f"0{n}b") if n else "" for m in members]
        self.assert_same("\n".join(model_set.bitstrings()), "\n".join(rows), case)
        header = " ".join(model_set.vocabulary)
        self.assert_same(cli._render(MergeResult("referee", model_set), "table"), "\n".join(
            [header, "-" * len(header), *(" ".join(row) for row in rows)]), case)

    def test_every_width_on_0_to_16_variables(self):
        rng = random.Random("renderers")
        cases = 0
        for n in range(17):
            size = 1 << n
            counts = {0, 1, 2, 3, size} if n <= 10 else {0, 1, 2, 3}
            # one count per chunk width w: its bit length is w, or 8 from 128 up
            counts.update(rng.randint(1 << (w - 1), (1 << w) - 1) for w in range(1, 8))
            counts.add(rng.randint(128, 1100 if n == 13 else 300))
            counts.add(rng.randint(1, 1 << rng.randint(0, 10)))
            for count in sorted(c for c in counts if c <= size):
                self.assert_renders(n, self.table_with_edges(rng, n, count))
                cases += 1
        assert cases > 150

    def test_members_on_every_chunk_edge(self):
        # (n, members): w is 8 from 128 members up, 3 for 4-7 members, so n
        # is a multiple of w at 8, 16, 3 and 6 and not at 13 and 9
        rng = random.Random("chunk edges")
        for n, count in ((8, 200), (16, 600), (13, 200), (9, 255), (3, 5), (6, 7)):
            chunk = 1 << min(8, count.bit_length(), n)
            members = {e for base in range(0, 1 << n, chunk) for e in (base, base + chunk - 1)}
            members = set(sorted(members)[:count])
            while len(members) < count:
                members.add(rng.randrange(1 << n))
            self.assert_renders(n, sorted(members))


class TestModelSet:
    def test_membership_and_bitstrings(self):
        ms = models(parse("p | q"), ("p", "q"))
        assert interp(p=1, q=0) in ms
        assert interp(p=0, q=0) not in ms
        assert ms.bitstrings() == ["01", "10", "11"]

    def test_table_range_is_checked(self):
        with pytest.raises(ValueError):
            ModelSet(("p",), -1)
        with pytest.raises(ValueError):
            ModelSet(("p",), 0b10000)
        with pytest.raises(ValueError):
            ModelSet(("p",), 0b100)  # two assignments, three bits
        both = ModelSet(("p",), 0b11)
        assert len(both) == 2
        assert both.bitstrings() == ["0", "1"]
