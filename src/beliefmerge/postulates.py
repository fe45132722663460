"""Executable rationality postulates for merge operators.

Each postulate is one function over one concrete instance (profile groups,
constraints, possibly a literal).  It decides on truth tables over the
instance's whole vocabulary and returns the two sides it compared, or
nothing when its antecedent is false; a false antecedent counts as
satisfied.  ``check_randomized`` drives seeded random instances built to
the postulate's preconditions and records each violation, from the sides
that decided it, in a replayable serialisation.

Two quantifiers are necessarily truncated: the majority property searches
its existential repetition count up to ``MAJORITY_BOUND`` and majority
independence samples n from ``MI_SAMPLES``, so clean runs of those two are
reported as ``bounded-pass`` rather than ``pass``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
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
    disj,
    fold_constants,
    format_formula,
    parse,
    variables,
)
from .merging import MergeResult, OPERATORS, Profile
from .profile_io import parse_profile_parts
from .semantics import (
    DEFAULT_VOCAB_CAP,
    ModelSet,
    is_consistent,
    truth_vector,
    vocabulary_union,
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
    holds one constraint, or two for IC3/IC7/IC8.
    """

    groups: tuple[tuple[Formula, ...], ...]
    constraints: tuple[Formula, ...]
    literal: Formula | None = None


def _negated(literal: Formula) -> Formula:
    if isinstance(literal, Not):
        return literal.child
    return Not(literal)


class _Tables:
    """Formulas and merges of one instance as truth tables over its whole
    vocabulary.  Variables a merge's own KBs and constraint do not mention
    are free, so its winners are the cylinder of the narrower answer."""

    def __init__(self, operator: MergeOperator, instance: PostulateInstance, cap: int):
        literal = () if instance.literal is None else (instance.literal,)
        kbs = [kb for group in instance.groups for kb in group]
        self.vocabulary = vocabulary_union(*kbs, *instance.constraints, *literal)
        self.operator, self.cap = operator, cap

    def of(self, formula: Formula) -> int:
        return truth_vector(formula, self.vocabulary, self.cap)

    def merge(self, kbs: Sequence[Formula], constraint: Formula) -> int:
        profile = Profile(tuple(kbs), constraint, self.vocabulary, self.cap)
        return self.operator(profile).model_set.table


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
    whole = t.of(conj([*group, mu]))
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
    joint = t.merge(group, conj([mu1, mu2]))
    return narrowed, joint, _entails(narrowed, joint)


def _ic8(inst, t):
    (group,), (mu1, mu2) = inst.groups, inst.constraints
    narrowed = t.merge(group, mu1) & t.of(mu2)
    if not narrowed:
        return None
    joint = t.merge(group, conj([mu1, mu2]))
    return joint, narrowed, _entails(joint, narrowed)


def _maj(inst, t):
    # the evidence is the last n tried
    (g1, g2), (mu,) = inst.groups, inst.constraints
    target = t.merge(g2, mu)
    for n in range(1, MAJORITY_BOUND + 1):
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
    if set(variables(literal)) & set(vocabulary_union(*rest)):
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
    fixed, opposite = t.of(inst.literal), t.of(_negated(inst.literal))
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
            instance: PostulateInstance, cap: int):
    """The instance's vocabulary and the postulate's outcome over it."""
    tables = _Tables(operator, instance, cap)
    return tables.vocabulary, _POSTULATES[postulate](instance, tables)


def check(postulate: PostulateId, operator: MergeOperator,
          instance: PostulateInstance, cap: int = DEFAULT_VOCAB_CAP) -> bool:
    """Truth of one postulate on one instance; a false antecedent counts
    as satisfied."""
    _, outcome = _decide(postulate, operator, instance, cap)
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


@dataclass(frozen=True)
class GeneratorBounds:
    max_vars: int = 4
    max_kbs: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.max_vars <= len(VAR_POOL):
            raise ValueError(f"max_vars must be in 1..{len(VAR_POOL)}")
        if self.max_kbs < 1:
            raise ValueError("max_kbs must be at least 1")


def _trial_rng(seed: int, trial: int) -> random.Random:
    # string seeding is deterministic across processes, unlike hash()
    return random.Random(f"{seed}:{trial}")


def _random_term(rng: random.Random, names: Sequence[str]) -> Formula:
    chosen = rng.sample(names, rng.randint(1, len(names)))
    return conj([Atom(n) if rng.random() < 0.5 else Not(Atom(n)) for n in chosen])


def random_dnf(rng: random.Random, names: Sequence[str]) -> Formula:
    """Random DNF over ``names``; consistent by construction, since each
    term conjoins literals over distinct variables."""
    return disj([_random_term(rng, names) for _ in range(rng.randint(1, 3))])


def random_formula(rng: random.Random, names: Sequence[str], depth: int = 3) -> Formula:
    """Random formula tree over all connectives, for parser and property
    exercises; not guaranteed consistent."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.08:
            return TRUE if rng.random() < 0.5 else FALSE
        return Atom(rng.choice(list(names)))
    kind = rng.choice(("not", "and", "or", "implies", "iff"))
    if kind == "not":
        return Not(random_formula(rng, names, depth - 1))
    if kind in ("and", "or"):
        parts = tuple(random_formula(rng, names, depth - 1)
                      for _ in range(rng.randint(2, 3)))
        return And(parts) if kind == "and" else Or(parts)
    lhs = random_formula(rng, names, depth - 1)
    rhs = random_formula(rng, names, depth - 1)
    return Implies(lhs, rhs) if kind == "implies" else Iff(lhs, rhs)


def random_consistent_formula(rng: random.Random, names: Sequence[str],
                              depth: int = 3) -> Formula:
    """Rejection-sampled consistent formula; falls back to a DNF, which is
    consistent by construction, if rejection drags on."""
    for _ in range(50):
        candidate = random_formula(rng, names, depth)
        if truth_vector(candidate, variables(candidate)):
            return candidate
    return random_dnf(rng, names)


def generate_instance(bounds: GeneratorBounds,
                      seed: int | random.Random = 0) -> PostulateInstance:
    """Generic random instance: two groups of consistent KBs (random DNFs)
    and two consistent constraints.  Deterministic for a fixed seed."""
    rng = seed if isinstance(seed, random.Random) else random.Random(f"{seed}:instance")
    names = VAR_POOL[:bounds.max_vars]
    groups = tuple(
        tuple(random_dnf(rng, names) for _ in range(rng.randint(1, bounds.max_kbs)))
        for _ in range(2))
    constraints = tuple(random_consistent_formula(rng, names) for _ in range(2))
    return PostulateInstance(groups, constraints)


def equivalent_rewrite(formula: Formula, rng: random.Random) -> Formula:
    """Random syntax-only rewrite preserving logical equivalence: double
    negation, child reversal, material-implication and biconditional
    unfolding, and both directions of negation pushing."""
    rewritten = _rewrite_structure(formula, rng)
    if rng.random() < 0.2:
        rewritten = Not(Not(rewritten))
    return rewritten


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


def instance_for(postulate: PostulateId, bounds: GeneratorBounds,
                 rng: random.Random, cap: int = DEFAULT_VOCAB_CAP) -> PostulateInstance:
    """Random instance shaped to the postulate's preconditions."""
    names = VAR_POOL[:bounds.max_vars]
    base = generate_instance(bounds, rng)
    if postulate in (PostulateId.IC0, PostulateId.IC1):
        return PostulateInstance(base.groups[:1], base.constraints[:1])
    if postulate == PostulateId.IC2:
        group, mu = base.groups[0], base.constraints[0]
        for _ in range(25):  # bias toward a live antecedent
            if is_consistent(conj([*group, mu]), cap=cap):
                break
            group = tuple(random_dnf(rng, names) for _ in range(len(group)))
        return PostulateInstance((group,), (mu,))
    if postulate == PostulateId.IC3:
        group, mu = base.groups[0], base.constraints[0]
        order = rng.sample(range(len(group)), len(group))
        twin = tuple(equivalent_rewrite(group[j], rng) for j in order)
        return PostulateInstance((group, twin), (mu, equivalent_rewrite(mu, rng)))
    if postulate == PostulateId.IC4:
        mu = base.constraints[0]
        pair = []
        for _ in range(2):
            for _ in range(50):
                candidate = fold_constants(conj([random_dnf(rng, names), mu]))
                if is_consistent(candidate, cap=cap):
                    pair.append(candidate)
                    break
            else:
                pair.append(mu)  # mu itself is a consistent KB entailing mu
        return PostulateInstance(((pair[0], pair[1]),), (mu,))
    if postulate in (PostulateId.IC5, PostulateId.IC6, PostulateId.MAJ, PostulateId.MI):
        return PostulateInstance(base.groups, base.constraints[:1])
    if postulate in (PostulateId.IC7, PostulateId.IC8):
        return PostulateInstance(base.groups[:1], base.constraints)
    if postulate == PostulateId.A1:
        return _a1_instance(bounds, rng, names)
    if postulate == PostulateId.A2:
        return _a2_instance(bounds, rng, names)
    raise ValueError(f"no generator for {postulate}")


def _fresh_literal(rng: random.Random, names: Sequence[str]) -> tuple[Formula, tuple[str, ...]]:
    """A literal on the last pool variable, kept out of everything else so
    that it is genuinely uncontested outside the constructed KBs."""
    if len(names) < 2:
        raise ValueError("literal-property instances need at least 2 variables")
    body = tuple(names[:-1])
    atom = Atom(names[-1])
    literal = atom if rng.random() < 0.5 else Not(atom)
    return literal, body


def _a1_instance(bounds, rng, names) -> PostulateInstance:
    literal, body = _fresh_literal(rng, names)
    total = rng.randint(1, bounds.max_kbs)
    supporters = rng.randint(1, total)
    special = tuple(fold_constants(conj([random_dnf(rng, body), literal]))
                    for _ in range(supporters))
    rest = tuple(random_dnf(rng, body) for _ in range(total - supporters))
    mu = random_consistent_formula(rng, body)
    return PostulateInstance((special, rest), (mu,), literal)


def _a2_instance(bounds, rng, names) -> PostulateInstance:
    if bounds.max_kbs < 2:
        raise ValueError("contested-literal instances need at least 2 KBs")
    literal, body = _fresh_literal(rng, names)
    kbs = [fold_constants(conj([random_dnf(rng, body), literal])),
           fold_constants(conj([random_dnf(rng, body), _negated(literal)]))]
    kbs.extend(random_dnf(rng, body) for _ in range(rng.randint(0, bounds.max_kbs - 2)))
    rng.shuffle(kbs)
    mu = random_consistent_formula(rng, body)
    return PostulateInstance((tuple(kbs),), (mu,), literal)


# ---------------------------------------------------------------------------
# randomized suites, serialisation, replay

@dataclass
class CheckReport:
    """Outcome of one randomized cell.  ``verdict`` is ``fail`` exactly when
    violations were recorded; clean Maj/MI cells are ``bounded-pass``
    because their quantifiers are truncated."""

    postulate: PostulateId
    operator: str
    trials: int
    violations: tuple[dict, ...]

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
    violations = []
    for trial in range(trials):
        rng = _trial_rng(bounds.seed, trial)
        instance = instance_for(postulate, bounds, rng, cap)
        vocab, outcome = _decide(postulate, op, instance, cap)
        if outcome is not None and not outcome[2]:
            violations.append(_record(postulate, operator, trial, instance,
                                      vocab, outcome))
    return CheckReport(postulate, operator, trials, tuple(violations))


def _group_text(kbs: Sequence[Formula], constraint: Formula) -> str:
    lines = [f"constraint: {format_formula(constraint)}"]
    lines.extend(f"kb: {format_formula(kb)}" for kb in kbs)
    return "\n".join(lines) + "\n"


def serialize_violation(postulate: PostulateId, operator: str, trial: int,
                        instance: PostulateInstance,
                        cap: int = DEFAULT_VOCAB_CAP) -> dict:
    """JSON-friendly record of a violating instance: each KB group in the
    profile file format, both decided sides as model lists over the
    instance's vocabulary.  An instance whose antecedent is false has no
    sides and raises ``ValueError``."""
    vocab, outcome = _decide(postulate, OPERATORS[operator], instance, cap)
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
        "profiles": [_group_text(group, instance.constraints[min(i, len(instance.constraints) - 1)])
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


def replay_violation(record: Mapping, cap: int = DEFAULT_VOCAB_CAP) -> bool:
    """Re-evaluate a stored violation from its serialisation; True means it
    still violates."""
    instance = instance_from_record(record)
    operator = OPERATORS[record["operator"]]
    return not check(PostulateId(record["postulate"]), operator, instance, cap=cap)
