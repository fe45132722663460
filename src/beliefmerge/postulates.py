"""Executable rationality postulates for merge operators.

Each postulate is one function over one concrete instance (profile groups,
constraints, possibly a literal).  It decides on truth tables over the
instance's whole vocabulary and returns the two sides it compared, or
nothing when its antecedent is false; a false antecedent counts as
satisfied.  ``check_randomized`` drives seeded random instances built to
the postulate's preconditions and records each violation, from the sides
that decided it, in a replayable serialisation.

The generator works out each formula's truth table over its pool of names,
and the formula's own-variable mask, while it draws the formula, and keeps
them on the instance.  When the instance's formulas mention every pool name,
the pool is the instance's vocabulary and nothing is walked or compiled
again; other instances are compiled as they stand.  Within one instance,
merges by ``max``, ``f1`` and ``f2``, which ignore KB repetition, are
memoised by their distinct KBs and constraint.

Two quantifiers are necessarily truncated: the majority property searches
its existential repetition count up to ``MAJORITY_BOUND`` and majority
independence samples n from ``MI_SAMPLES``, so clean runs of those two are
reported as ``bounded-pass`` rather than ``pass``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Callable, Mapping, Sequence

from .formula import (
    And,
    Atom,
    Constant,
    FALSE,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    conj,
    fold_constants,
    format_formula,
    parse,
    variables,
)
from .merging import MergeResult, OPERATORS, Profile
from .profile_io import format_profile, parse_profile_parts
from .semantics import (
    DEFAULT_VOCAB_CAP,
    ModelSet,
    _check_cap,
    _compiler,
    _width_tables,
)


class PostulateId(Enum):
    IC0 = "IC0"
    IC1 = "IC1"
    IC2 = "IC2"
    IC3 = "IC3"
    IC4 = "IC4"
    IC5 = "IC5"
    IC6 = "IC6"
    IC7 = "IC7"
    IC8 = "IC8"
    MAJ = "Maj"
    MI = "MI"
    A1 = "A1"
    A2 = "A2"


MAJORITY_BOUND = 8
MI_SAMPLES = (2, 3)

MergeOperator = Callable[..., MergeResult]


@dataclass(frozen=True)
class PostulateInstance:
    """The objects one postulate quantifies over.

    ``groups`` holds the KB groups in the postulate's own order (a single
    group for IC0-IC2/IC7/IC8/A2, two groups for the union-shaped
    postulates, the distinguished subgroup first for A1).  ``constraints``
    holds one constraint, or two for IC3/IC7/IC8.  ``drawn`` is set only by
    the generator, to the rows it worked out while drawing (:class:`_Draw`);
    it takes no part in equality, and hand-built or replayed instances have
    none.
    """

    groups: tuple[tuple[Formula, ...], ...]
    constraints: tuple[Formula, ...]
    literal: Formula | None = None
    drawn: _Draw | None = field(default=None, init=False, compare=False, repr=False)


# A row is a formula with its truth table over some vocabulary and its
# own-variable mask, bit j standing for the vocabulary's j-th name.
Row = tuple[Formula, int, int]


class _Draw:
    """The rows of a drawn instance's formulas over the pool it was drawn
    from, by formula identity; each row holds its formula, so no id is
    reused while the draw lives."""

    __slots__ = ("pool", "rows")

    def __init__(self, pool: _Pool, rows: dict[int, Row]):
        self.pool, self.rows = pool, rows


# merges of these operators ignore KB repetition (tests/test_merging.py holds
# them to it), so one instance memoises them by distinct KBs
_REPETITION_BLIND = ("max", "f1", "f2")


class _Tables:
    """Formulas and merges of one instance as truth tables over its whole
    vocabulary.  Variables a merge's own KBs and constraint do not mention
    are free, so its winners are the cylinder of the narrower answer.

    Each formula of the instance has one row.  A drawn instance whose rows'
    masks cover the pool takes the pool as its vocabulary and its rows as
    drawn; any other instance walks each formula once for its names, which
    give the vocabulary and its own-variable mask, and compiles it once.
    Rows are kept by formula identity, and each merge's profile is built
    from them.  Operators are compared with ``OPERATORS`` when the tables
    are made, so a rebound operator is still recognised as blind to
    repetition."""

    def __init__(self, operator: MergeOperator, instance: PostulateInstance, cap: int):
        literal = () if instance.literal is None else (instance.literal,)
        formulas = [kb for group in instance.groups for kb in group]
        formulas += [*instance.constraints, *literal]
        self.operator, self.cap = operator, cap
        blind = any(operator is OPERATORS[tag] for tag in _REPETITION_BLIND)
        self._merged: dict | None = {} if blind else None
        drawn = instance.drawn
        rows = drawn and [drawn.rows.get(id(f)) for f in formulas]
        if rows and all(rows) and _union(rows) == drawn.pool.full:
            _check_cap(len(drawn.pool.names), cap)
            self.vocabulary, self.space = drawn.pool.names, drawn.pool.space
        else:
            own = {id(f): (f, variables(f)) for f in formulas}
            self.vocabulary = tuple(sorted(set().union(*(names for _, names in own.values()))))
            table_of = _compiler(self.vocabulary, cap)
            bit = {name: 1 << j for j, name in enumerate(self.vocabulary)}
            rows = [(f, table_of(f), sum(bit[name] for name in names))
                    for f, names in own.values()]
            self.space = _width_tables(len(self.vocabulary))[0]
        self._rows = {id(row[0]): row for row in rows}

    def of(self, formula: Formula) -> int:
        return self._rows[id(formula)][1]

    def mask(self, formula: Formula) -> int:
        """Own-variable mask of a formula of the instance."""
        return self._rows[id(formula)][2]

    def conj(self, parts: Sequence[Formula]) -> Formula:
        """``conj(parts)`` of formulas that have rows, with a row made
        from theirs."""
        formula, table, mask = conj(parts), self.space, 0
        for part in parts:
            _, part_table, part_mask = self._rows[id(part)]
            table &= part_table
            mask |= part_mask
        self._rows[id(formula)] = formula, table, mask
        return formula

    def merge(self, kbs: Sequence[Formula], constraint: Formula) -> int:
        rows = [self._rows[id(kb)] for kb in kbs]
        bound = self.of(constraint)
        if self._merged is None:
            return self._merge(kbs, constraint, rows, bound)
        key = frozenset([row[1:] for row in rows]), bound
        if key not in self._merged:
            self._merged[key] = self._merge(kbs, constraint, rows, bound)
        return self._merged[key]

    def _merge(self, kbs, constraint, rows, bound) -> int:
        profile = Profile.compiled(kbs, constraint, self.vocabulary,
                                   [table for _, table, _ in rows],
                                   [mask for _, _, mask in rows], bound, self.cap)
        return self.operator(profile).model_set.table


def _union(rows: Sequence[Row]) -> int:
    """The union of the rows' own-variable masks."""
    mask = 0
    for _, _, own in rows:
        mask |= own
    return mask


def _entails(first: int, second: int) -> bool:
    return first & ~second == 0


# ---------------------------------------------------------------------------
# the postulates: each returns None when its antecedent is false, otherwise
# (lhs, rhs, holds), the two tables whose comparison decides it


def _ic0(inst, t):
    (group,), (mu,) = inst.groups, inst.constraints
    merged, bound = t.merge(group, mu), t.of(mu)
    return merged, bound, _entails(merged, bound)


def _ic1(inst, t):
    (group,), (mu,) = inst.groups, inst.constraints
    bound = t.of(mu)
    if not bound:
        return None
    merged = t.merge(group, mu)
    return merged, bound, merged != 0


def _ic2(inst, t):
    (group,), (mu,) = inst.groups, inst.constraints
    whole = t.of(t.conj([*group, mu]))
    if not whole:
        return None
    merged = t.merge(group, mu)
    return merged, whole, merged == whole


def _ic3(inst, t):
    (g1, g2), (mu1, mu2) = inst.groups, inst.constraints
    # equal multisets of KB tables: a KB-by-KB matching up to equivalence
    if sorted(map(t.of, g1)) != sorted(map(t.of, g2)) or t.of(mu1) != t.of(mu2):
        return None
    lhs, rhs = t.merge(g1, mu1), t.merge(g2, mu2)
    return lhs, rhs, lhs == rhs


def _ic4(inst, t):
    (pair,), (mu,) = inst.groups, inst.constraints
    phi, psi = map(t.of, pair)
    if not _entails(phi | psi, t.of(mu)):
        return None
    merged = t.merge(pair, mu)
    if not merged & phi:
        return None
    return merged & phi, merged & psi, merged & psi != 0


def _ic5(inst, t):
    (g1, g2), (mu,) = inst.groups, inst.constraints
    both = t.merge(g1, mu) & t.merge(g2, mu)
    joint = t.merge(g1 + g2, mu)
    return both, joint, _entails(both, joint)


def _ic6(inst, t):
    (g1, g2), (mu,) = inst.groups, inst.constraints
    both = t.merge(g1, mu) & t.merge(g2, mu)
    if not both:
        return None
    joint = t.merge(g1 + g2, mu)
    return joint, both, _entails(joint, both)


def _ic7(inst, t):
    (group,), (mu1, mu2) = inst.groups, inst.constraints
    narrowed = t.merge(group, mu1) & t.of(mu2)
    joint = t.merge(group, t.conj([mu1, mu2]))
    return narrowed, joint, _entails(narrowed, joint)


def _ic8(inst, t):
    (group,), (mu1, mu2) = inst.groups, inst.constraints
    narrowed = t.merge(group, mu1) & t.of(mu2)
    if not narrowed:
        return None
    joint = t.merge(group, t.conj([mu1, mu2]))
    return joint, narrowed, _entails(joint, narrowed)


def _maj(inst, t):
    """Maj searches n = 1 .. MAJORITY_BOUND, and for sigma also n =
    |g1|·|V| + 1, which always succeeds: every Hamming distance over the
    instance's vocabulary V is at most |V|, so 0 <= D1 <= |g1|·|V|.  A
    constraint model w outside merge(g2) has D2(w) >= D2* + 1, so its total
    D1(w) + n·D2(w) exceeds n·D2* + |g1|·|V|, which bounds the total of a
    model of merge(g2).  Trying one more n is sound for any operator,
    since Maj is existential; the other operators keep the bounded search.
    The evidence is the last n tried."""
    (g1, g2), (mu,) = inst.groups, inst.constraints
    target = t.merge(g2, mu)
    counts = range(1, MAJORITY_BOUND + 1)
    if t.operator is OPERATORS["sigma"]:
        counts = (*counts, len(g1) * len(t.vocabulary) + 1)
    for n in counts:
        merged = t.merge(g1 + g2 * n, mu)
        if _entails(merged, target):
            return merged, target, True
    return merged, target, False


def _mi(inst, t):
    # the evidence is the first n that differs
    (g1, g2), (mu,) = inst.groups, inst.constraints
    base = t.merge(g1 + g2, mu)
    for n in MI_SAMPLES:
        merged = t.merge(g1 + g2 * n, mu)
        if merged != base:
            return merged, base, False
    return merged, base, True


def _a1(inst, t):
    (special, rest), (mu,) = inst.groups, inst.constraints
    literal = inst.literal
    if literal is None or not special:
        return None
    fixed = t.of(literal)
    if any(not _entails(t.of(kb), fixed) for kb in special):
        return None
    if any(t.mask(literal) & t.mask(kb) for kb in rest):
        return None
    bound = fixed & t.of(mu)
    if not bound:
        return None
    merged = t.merge(special + rest, mu)
    return merged, bound, _entails(merged, bound)


def _a2(inst, t):
    (group,), (mu,) = inst.groups, inst.constraints
    if inst.literal is None:
        return None
    fixed = t.of(inst.literal)
    opposite = t.space ^ fixed
    kbs = list(map(t.of, group))
    if not (any(_entails(kb, fixed) for kb in kbs)
            and any(_entails(kb, opposite) for kb in kbs)):
        return None
    merged = t.merge(group, mu)
    return merged, fixed, not _entails(merged, fixed) and not _entails(merged, opposite)


_POSTULATES: Mapping[PostulateId, Callable] = {
    PostulateId.IC0: _ic0,
    PostulateId.IC1: _ic1,
    PostulateId.IC2: _ic2,
    PostulateId.IC3: _ic3,
    PostulateId.IC4: _ic4,
    PostulateId.IC5: _ic5,
    PostulateId.IC6: _ic6,
    PostulateId.IC7: _ic7,
    PostulateId.IC8: _ic8,
    PostulateId.MAJ: _maj,
    PostulateId.MI: _mi,
    PostulateId.A1: _a1,
    PostulateId.A2: _a2,
}


def _decide(postulate: PostulateId, operator: MergeOperator,
            instance: PostulateInstance, cap: int = DEFAULT_VOCAB_CAP):
    """The instance's vocabulary and the postulate's outcome over it."""
    tables = _Tables(operator, instance, cap)
    return tables.vocabulary, _POSTULATES[postulate](instance, tables)


def check(postulate: PostulateId, operator: MergeOperator,
          instance: PostulateInstance) -> bool:
    """Truth of one postulate on one instance; a false antecedent counts
    as satisfied."""
    _, outcome = _decide(postulate, operator, instance)
    return outcome is None or outcome[2]


# ---------------------------------------------------------------------------
# claimed verdicts

_P = PostulateId
_ALL_IC = (_P.IC0, _P.IC1, _P.IC2, _P.IC3, _P.IC4, _P.IC5, _P.IC6, _P.IC7, _P.IC8)

CLAIMED_PASS: dict[str, frozenset[PostulateId]] = {
    "sigma": frozenset((*_ALL_IC, _P.MAJ)),
    "max": frozenset((_P.IC0, _P.IC1, _P.IC2, _P.IC3, _P.IC4, _P.IC5,
                      _P.IC7, _P.IC8, _P.MI)),
    "gmax": frozenset(_ALL_IC),
    "f1": frozenset((_P.IC0, _P.IC1, _P.IC2, _P.IC3, _P.IC4,
                     _P.IC7, _P.IC8, _P.MI, _P.A1, _P.A2)),
    "f2": frozenset((_P.IC0, _P.IC1, _P.IC2, _P.IC3, _P.IC4,
                     _P.IC7, _P.MI, _P.A1, _P.A2)),
}

# cells where a counterexample is the interesting outcome
EXPECTED_FAIL: dict[str, frozenset[PostulateId]] = {
    "max": frozenset((_P.IC6, _P.MAJ)),
    "f1": frozenset((_P.IC5, _P.IC6)),
    "f2": frozenset((_P.IC8,)),
}


# ---------------------------------------------------------------------------
# random instance generation

VAR_POOL = ("p", "q", "r", "s", "t", "u", "v", "w")
# a full default check (13 postulates x 100 trials) at 64 KBs takes a few
# seconds per operator; the cost of more KBs has no other bound
MAX_KBS = 64


@dataclass(frozen=True)
class GeneratorBounds:
    max_vars: int = 4
    max_kbs: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.max_vars <= len(VAR_POOL):
            raise ValueError(f"max_vars must be in 1..{len(VAR_POOL)}")
        if not 1 <= self.max_kbs <= MAX_KBS:
            raise ValueError(f"max_kbs must be in 1..{MAX_KBS}")


def _trial_rng(seed: int, trial: int) -> random.Random:
    # string seeding is deterministic across processes, unlike hash()
    return random.Random(f"{seed}:{trial}")


class _Pool:
    """The literals of the sorted, distinct ``names``, each as a row over
    them: ``literals[name]`` holds the negative row, then the positive, so
    a draw indexes it with its coin.  ``constants`` holds false's row, then
    true's.  With ``tabled=False`` every table is 0, for the public drawers,
    which return only the formula and take names of any number."""

    def __init__(self, names: tuple[str, ...], tabled: bool = True):
        if tabled:
            _check_cap(len(names), DEFAULT_VOCAB_CAP)
            space, flips = _width_tables(len(names))
        else:
            space, flips = 0, ((0, 0),) * len(names)
        self.names, self.space, self.full = names, space, (1 << len(names)) - 1
        self.constants = ((FALSE, 0, 0), (TRUE, space, 0))
        self.literals: dict[str, tuple[Row, Row]] = {}
        for j, (name, (_, pattern)) in enumerate(zip(names, flips)):
            atom = Atom(name)
            self.literals[name] = ((Not(atom), space ^ pattern, 1 << j), (atom, pattern, 1 << j))

    def mask(self, names: Sequence[str]) -> int:
        """The mask of ``names``: the sum of their positive rows' bits."""
        return sum(self.literals[name][1][2] for name in names)


@lru_cache(maxsize=len(VAR_POOL))
def _var_pool(width: int) -> _Pool:
    return _Pool(VAR_POOL[:width])


def random_dnf(rng: random.Random, names: Sequence[str]) -> Formula:
    """Random DNF over ``names``; consistent by construction, since each
    term conjoins literals over distinct variables."""
    return _draw_dnf(rng, names, _Pool(tuple(names), tabled=False))[0]


def _draw_dnf(rng: random.Random, names: Sequence[str], pool: _Pool) -> Row:
    """:func:`random_dnf` over ``names``, as a row over ``pool``, which
    holds them."""
    terms, table, mask = [], 0, 0
    for _ in range(rng.randint(1, 3)):
        literals, term = [], pool.space
        for name in rng.sample(names, rng.randint(1, len(names))):
            literal, literal_table, bit = pool.literals[name][rng.random() < 0.5]
            literals.append(literal)
            term &= literal_table
            mask |= bit
        terms.append(literals[0] if len(literals) == 1 else And(tuple(literals)))
        table |= term
    return (terms[0] if len(terms) == 1 else Or(tuple(terms))), table, mask


def random_formula(rng: random.Random, names: Sequence[str], depth: int = 3) -> Formula:
    """Random formula tree over all connectives, for parser and property
    exercises; not guaranteed consistent."""
    return _draw_formula(rng, names, _Pool(tuple(names), tabled=False), depth)[0]


def _draw_formula(rng: random.Random, names: Sequence[str], pool: _Pool,
                  depth: int = 3) -> Row:
    """:func:`random_formula` over ``names``, as a row over ``pool``, which
    holds them."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.08:
            return pool.constants[rng.random() < 0.5]
        return pool.literals[rng.choice(names)][1]
    kind = rng.choice(("not", "and", "or", "implies", "iff"))
    if kind == "not":
        child, table, mask = _draw_formula(rng, names, pool, depth - 1)
        return Not(child), pool.space ^ table, mask
    if kind in ("and", "or"):
        parts, tables, masks = zip(*[_draw_formula(rng, names, pool, depth - 1)
                                     for _ in range(rng.randint(2, 3))])
        if kind == "and":
            return And(parts), reduce(and_, tables), reduce(or_, masks)
        return Or(parts), reduce(or_, tables), reduce(or_, masks)
    lhs, lhs_table, lhs_mask = _draw_formula(rng, names, pool, depth - 1)
    rhs, rhs_table, rhs_mask = _draw_formula(rng, names, pool, depth - 1)
    if kind == "implies":
        return Implies(lhs, rhs), (pool.space ^ lhs_table) | rhs_table, lhs_mask | rhs_mask
    return Iff(lhs, rhs), pool.space ^ lhs_table ^ rhs_table, lhs_mask | rhs_mask


def random_consistent_formula(rng: random.Random, names: Sequence[str],
                              depth: int = 3) -> Formula:
    """Rejection-sampled consistent formula; falls back to a DNF, which is
    consistent by construction, if rejection drags on."""
    return _consistent_formula(rng, names, _Pool(tuple(sorted(set(names)))), depth)[0]


def _consistent_formula(rng: random.Random, names: Sequence[str], pool: _Pool,
                        depth: int = 3) -> Row:
    """:func:`random_consistent_formula` over ``names``, as a row over
    ``pool``, which holds them: a formula is consistent over any vocabulary
    that holds its own names, so the drawn table is the rejection test."""
    for _ in range(50):
        row = _draw_formula(rng, names, pool, depth)
        if row[1]:
            return row
    return _draw_dnf(rng, names, pool)


def generate_instance(bounds: GeneratorBounds,
                      seed: int | random.Random = 0) -> PostulateInstance:
    """Generic random instance: two groups of consistent KBs (random DNFs)
    and two consistent constraints.  Deterministic for a fixed seed."""
    rng = seed if isinstance(seed, random.Random) else random.Random(f"{seed}:instance")
    pool = _var_pool(bounds.max_vars)
    return _drawn_instance(pool, *_draw_base(bounds, rng, pool))


def _draw_base(bounds: GeneratorBounds, rng: random.Random,
               pool: _Pool) -> tuple[list[list[Row]], list[Row]]:
    """The rows of :func:`generate_instance`'s groups and constraints."""
    names = pool.names
    groups = [[_draw_dnf(rng, names, pool) for _ in range(rng.randint(1, bounds.max_kbs))]
              for _ in range(2)]
    constraints = [_consistent_formula(rng, names, pool) for _ in range(2)]
    return groups, constraints


def _drawn_instance(pool: _Pool, groups: Sequence[Sequence[Row]],
                    constraints: Sequence[Row], literal: Row | None = None) -> PostulateInstance:
    """The instance of these rows, which keeps them as its draw."""
    rows = [row for group in groups for row in group] + [*constraints]
    if literal is not None:
        rows.append(literal)
    instance = PostulateInstance(tuple(tuple(row[0] for row in group) for group in groups),
                                 tuple(row[0] for row in constraints),
                                 None if literal is None else literal[0])
    object.__setattr__(instance, "drawn", _Draw(pool, {id(row[0]): row for row in rows}))
    return instance


def _consistent_rows(rows: Sequence[Row], cap: int) -> bool:
    """Whether the conjunction of the rows' formulas is consistent.  Like
    :func:`~beliefmerge.semantics.is_consistent` on it, this refuses a
    conjunction that mentions more names than ``cap``."""
    table = rows[0][1]
    for _, part, _ in rows[1:]:
        table &= part
    _check_cap(_union(rows).bit_count(), cap)
    return table != 0


def equivalent_rewrite(formula: Formula, rng: random.Random) -> Formula:
    """Random syntax-only rewrite preserving logical equivalence: double
    negation, child reversal, material-implication and biconditional
    unfolding, and both directions of negation pushing."""
    rewritten = _rewrite_structure(formula, rng)
    if rng.random() < 0.2:
        rewritten = Not(Not(rewritten))
    return rewritten


def _rewritten(row: Row, rng: random.Random) -> Row:
    """An :func:`equivalent_rewrite` of the row's formula, which keeps its
    table and its names."""
    formula, table, mask = row
    return equivalent_rewrite(formula, rng), table, mask


def _rewrite_structure(formula: Formula, rng: random.Random) -> Formula:
    roll = rng.random()
    if isinstance(formula, (Atom, Constant)):
        return formula
    if isinstance(formula, Not):
        child = formula.child
        if isinstance(child, (And, Or)) and roll < 0.5:
            dual = Or if isinstance(child, And) else And
            return dual(tuple(Not(_rewrite_structure(c, rng)) for c in child.children))
        return Not(_rewrite_structure(child, rng))
    if isinstance(formula, (And, Or)):
        parts = [_rewrite_structure(c, rng) for c in formula.children]
        if roll < 0.5:
            parts.reverse()
        return type(formula)(tuple(parts))
    if isinstance(formula, Implies):
        lhs = _rewrite_structure(formula.lhs, rng)
        rhs = _rewrite_structure(formula.rhs, rng)
        if roll < 0.5:
            return Or((Not(lhs), rhs))
        return Implies(lhs, rhs)
    if isinstance(formula, Iff):
        lhs = _rewrite_structure(formula.lhs, rng)
        rhs = _rewrite_structure(formula.rhs, rng)
        if roll < 0.5:
            return And((Implies(lhs, rhs), Implies(rhs, lhs)))
        return Iff(lhs, rhs)
    return formula


def require_bounds(postulate: PostulateId, bounds: GeneratorBounds) -> None:
    """Raise ``ValueError`` if no instance of ``postulate`` fits ``bounds``:
    A1 and A2 need a spare literal variable, A2 a KB on each side of it."""
    if postulate == PostulateId.A2 and bounds.max_kbs < 2:
        raise ValueError("contested-literal instances need at least 2 KBs")
    if postulate in (PostulateId.A1, PostulateId.A2) and bounds.max_vars < 2:
        raise ValueError("literal-property instances need at least 2 variables")


def instance_for(postulate: PostulateId, bounds: GeneratorBounds,
                 rng: random.Random, cap: int = DEFAULT_VOCAB_CAP) -> PostulateInstance:
    """Random instance shaped to the postulate's preconditions, drawn with
    its rows over ``VAR_POOL[:bounds.max_vars]``."""
    require_bounds(postulate, bounds)
    pool = _var_pool(bounds.max_vars)
    names = pool.names
    groups, constraints = _draw_base(bounds, rng, pool)
    if postulate in (PostulateId.IC0, PostulateId.IC1):
        return _drawn_instance(pool, groups[:1], constraints[:1])
    if postulate == PostulateId.IC2:
        group, mu = groups[0], constraints[0]
        for _ in range(25):  # bias toward a live antecedent
            if _consistent_rows([*group, mu], cap):
                break
            group = [_draw_dnf(rng, names, pool) for _ in range(len(group))]
        return _drawn_instance(pool, [group], [mu])
    if postulate == PostulateId.IC3:
        group, mu = groups[0], constraints[0]
        order = rng.sample(range(len(group)), len(group))
        twin = [_rewritten(group[j], rng) for j in order]
        return _drawn_instance(pool, [group, twin], [mu, _rewritten(mu, rng)])
    if postulate == PostulateId.IC4:
        mu = constraints[0]
        # each KB is fold_constants(conj([dnf, mu])), which is conj([dnf,
        # folded]), or the DNF alone when mu folds to true: the DNF has no
        # constants, and mu is consistent, so no conjunct folds to false
        folded = fold_constants(mu[0])
        folded_mask = pool.mask(variables(folded))
        pair = []
        for _ in range(2):
            for _ in range(50):
                dnf, table, mask = _draw_dnf(rng, names, pool)
                candidate = (dnf if folded == TRUE else conj([dnf, folded]),
                             table & mu[1], mask | folded_mask)
                if _consistent_rows([candidate], cap):
                    pair.append(candidate)
                    break
            else:
                pair.append(mu)  # mu itself is a consistent KB entailing mu
        return _drawn_instance(pool, [pair], [mu])
    if postulate in (PostulateId.IC5, PostulateId.IC6, PostulateId.MAJ, PostulateId.MI):
        return _drawn_instance(pool, groups, constraints[:1])
    if postulate in (PostulateId.IC7, PostulateId.IC8):
        return _drawn_instance(pool, groups[:1], constraints)
    if postulate == PostulateId.A1:
        return _a1_instance(bounds, rng, pool)
    if postulate == PostulateId.A2:
        return _a2_instance(bounds, rng, pool)
    raise ValueError(f"no generator for {postulate}")


def _fresh_literal(rng: random.Random, pool: _Pool) -> tuple[Row, Row, tuple[str, ...]]:
    """A literal on the last pool variable, its negation, and the other
    names; the literal is kept out of everything else so that it is
    genuinely uncontested outside the constructed KBs."""
    negative, positive = pool.literals[pool.names[-1]]
    if rng.random() < 0.5:
        return positive, negative, pool.names[:-1]
    return negative, positive, pool.names[:-1]


def _with_literal(row: Row, literal: Row) -> Row:
    """The row of ``conj([formula, literal])``; the formula is a DNF, so the
    conjunction has no constant to fold."""
    formula, table, mask = row
    return conj([formula, literal[0]]), table & literal[1], mask | literal[2]


def _a1_instance(bounds, rng, pool) -> PostulateInstance:
    literal, _, body = _fresh_literal(rng, pool)
    total = rng.randint(1, bounds.max_kbs)
    supporters = rng.randint(1, total)
    special = [_with_literal(_draw_dnf(rng, body, pool), literal) for _ in range(supporters)]
    rest = [_draw_dnf(rng, body, pool) for _ in range(total - supporters)]
    mu = _consistent_formula(rng, body, pool)
    return _drawn_instance(pool, [special, rest], [mu], literal)


def _a2_instance(bounds, rng, pool) -> PostulateInstance:
    literal, opposite, body = _fresh_literal(rng, pool)
    kbs = [_with_literal(_draw_dnf(rng, body, pool), literal),
           _with_literal(_draw_dnf(rng, body, pool), opposite)]
    kbs.extend(_draw_dnf(rng, body, pool) for _ in range(rng.randint(0, bounds.max_kbs - 2)))
    rng.shuffle(kbs)
    mu = _consistent_formula(rng, body, pool)
    return _drawn_instance(pool, [kbs], [mu], literal)


# ---------------------------------------------------------------------------
# randomized suites, serialisation, replay

@dataclass
class CheckReport:
    """Outcome of one randomized cell.  ``verdict`` is ``fail`` exactly when
    violations were recorded; clean Maj/MI cells are ``bounded-pass``
    because their quantifiers are truncated.  ``vacuous_trials`` counts the
    trials that passed only because their antecedent was false; the rest
    are live."""

    postulate: PostulateId
    operator: str
    trials: int
    violations: tuple[dict, ...]
    vacuous_trials: int

    @property
    def live_trials(self) -> int:
        return self.trials - self.vacuous_trials

    @property
    def verdict(self) -> str:
        if self.violations:
            return "fail"
        if self.postulate in (PostulateId.MAJ, PostulateId.MI):
            return "bounded-pass"
        return "pass"


def check_randomized(postulate: PostulateId, operator: str, trials: int,
                     bounds: GeneratorBounds,
                     cap: int = DEFAULT_VOCAB_CAP) -> CheckReport:
    """Run ``trials`` seeded random instances of one postulate against one
    operator.  Deterministic for fixed bounds; trial i draws its randomness
    from (seed, i) alone.  Each violation is recorded from the outcome that
    decided it, with no second run."""
    op = OPERATORS[operator]
    violations, vacuous = [], 0
    for trial in range(trials):
        rng = _trial_rng(bounds.seed, trial)
        instance = instance_for(postulate, bounds, rng, cap)
        vocab, outcome = _decide(postulate, op, instance, cap)
        if outcome is None:
            vacuous += 1
        elif not outcome[2]:
            violations.append(_record(postulate, operator, trial, instance,
                                      vocab, outcome))
    return CheckReport(postulate, operator, trials, tuple(violations), vacuous)


def serialize_violation(postulate: PostulateId, operator: str, trial: int,
                        instance: PostulateInstance) -> dict:
    """JSON-friendly record of a violating instance: each KB group in the
    profile file format, both decided sides as model lists over the
    instance's vocabulary.  An instance whose antecedent is false has no
    sides and raises ``ValueError``."""
    vocab, outcome = _decide(postulate, OPERATORS[operator], instance)
    if outcome is None:
        raise ValueError(f"the {postulate.value} antecedent is false on this instance")
    return _record(postulate, operator, trial, instance, vocab, outcome)


def _record(postulate: PostulateId, operator: str, trial: int,
            instance: PostulateInstance, vocab: tuple[str, ...],
            outcome: tuple[int, int, bool]) -> dict:
    lhs, rhs, _ = outcome
    return {
        "postulate": postulate.value,
        "operator": operator,
        "trial": trial,
        "profiles": [format_profile(group, instance.constraints[min(i, len(instance.constraints) - 1)])
                     for i, group in enumerate(instance.groups)],
        "constraints": [format_formula(c) for c in instance.constraints],
        "literal": None if instance.literal is None else format_formula(instance.literal),
        "vocabulary": list(vocab),
        "lhs_models": ModelSet(vocab, lhs).bitstrings(),
        "rhs_models": ModelSet(vocab, rhs).bitstrings(),
    }


def instance_from_record(record: Mapping) -> PostulateInstance:
    """Rebuild the instance a violation record serialised."""
    groups = []
    for text in record["profiles"]:
        kbs, _constraint, _extra = parse_profile_parts(text)
        groups.append(kbs)
    constraints = tuple(parse(text) for text in record["constraints"])
    literal = parse(record["literal"]) if record.get("literal") else None
    return PostulateInstance(tuple(groups), constraints, literal)


def replay_violation(record: Mapping) -> bool:
    """Re-evaluate a stored violation from its serialisation; True means it
    still violates."""
    instance = instance_from_record(record)
    operator = OPERATORS[record["operator"]]
    return not check(PostulateId(record["postulate"]), operator, instance)
