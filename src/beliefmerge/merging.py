"""Merge operators over profiles of knowledge bases.

Three operators pick constraint models by minimising an aggregate of
Hamming distances to the KBs (sum, worst case, sorted-vector
lexicographic).  Each of those also has a second, forgetting-based
construction that searches over per-KB sets of forgotten variables; the
two constructions are provably equivalent and the tests hold them to it.
The last two operators, f1 and f2, forget one *shared* variable set from
every KB, minimal by cardinality (f1) or by set inclusion (f2).

A :class:`Profile` compiles its KBs and constraint to truth tables once,
and the operators read only those.  All searches run over switch-closures
of truth tables, which is exactly the model characterisation of
forgetting; the syntactic ``forget`` in :mod:`beliefmerge.forgetting` is
the operator the closure is validated against.  Each distinct KB memoises
its closures by a vocabulary mask (bit j: ``vocabulary[j]``) restricted
to its own variables.  Forgetting more never loses consistency, so f2
finds its minimal sets by joint generation: it tests the largest sets that contain
no set found so far (complements of minimal hitting sets) and shrinks
any that succeeds.  Every least-size successful set is also minimal by
inclusion, so f1 keeps the smallest members of f2's family and costs what
f2 costs on the same profile; :func:`_least_sets` gives a profile where
that is far more than a search by size would take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, permutations, product
from operator import or_
from typing import Callable, Iterator, Sequence

from .formula import Formula, TRUE, variables
from .semantics import (
    DEFAULT_VOCAB_CAP,
    ModelSet,
    _compiler,
    _dilate_once,
    _flip,
    _iter_masks,
    _width_tables,
    to_dnf,
)


class InconsistentKBError(Exception):
    """A knowledge base in a profile has no models."""

    def __init__(self, index: int):
        super().__init__(f"knowledge base #{index + 1} is inconsistent")
        self.index = index


@dataclass(frozen=True)
class Profile:
    """An ordered multiset of consistent KBs plus one integrity constraint.

    Repetition is meaningful: majority-sensitive operators react to it.
    Every KB must be consistent (checked here); the constraint may be
    inconsistent, in which case merging degenerates to ``false``.

    Construction refuses a vocabulary wider than ``cap``, then compiles
    the KBs and the constraint to truth tables over it.  ``kb_masks`` holds
    each KB's own variables as a mask, bit j standing for ``vocabulary[j]``.
    ``extra_vars`` is held sorted and free of duplicates.  A caller that has
    compiled the pieces already builds the profile with :meth:`compiled`.
    """

    kbs: tuple[Formula, ...]
    constraint: Formula = TRUE
    extra_vars: tuple[str, ...] = ()
    cap: int = field(default=DEFAULT_VOCAB_CAP, compare=False, repr=False)
    # derived once at construction; identical for equal profiles
    vocabulary: tuple[str, ...] = field(init=False, compare=False, repr=False)
    constraint_table: int = field(init=False, compare=False, repr=False)
    kb_tables: tuple[int, ...] = field(init=False, compare=False, repr=False)
    kb_masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kbs, extra = tuple(self.kbs), tuple(sorted(set(self.extra_vars)))
        own = [variables(kb) for kb in kbs]
        vocab = tuple(sorted(set(extra).union(variables(self.constraint), *own)))
        table_of = _compiler(vocab, self.cap)
        tables = tuple(map(table_of, kbs))
        bit = {name: 1 << j for j, name in enumerate(vocab)}
        self._settle(kbs, self.constraint, extra, self.cap, vocab, tables,
                     tuple(sum(bit[name] for name in names) for names in own),
                     table_of(self.constraint))

    @classmethod
    def compiled(cls, kbs: Sequence[Formula], constraint: Formula,
                 vocabulary: tuple[str, ...], kb_tables: Sequence[int],
                 kb_masks: Sequence[int], constraint_table: int,
                 cap: int) -> "Profile":
        """The profile ``Profile(kbs, constraint, vocabulary, cap)`` from
        tables the caller has compiled over the sorted ``vocabulary``,
        which holds every name the formulas mention; nothing is walked or
        evaluated again."""
        profile = cls.__new__(cls)
        profile._settle(tuple(kbs), constraint, vocabulary, cap, vocabulary,
                        tuple(kb_tables), tuple(kb_masks), constraint_table)
        return profile

    def _settle(self, kbs, constraint, extra_vars, cap, vocabulary,
                kb_tables, kb_masks, constraint_table) -> None:
        if not kbs:
            raise ValueError("a profile needs at least one knowledge base")
        if 0 in kb_tables:
            raise InconsistentKBError(kb_tables.index(0))
        for name, value in (("kbs", kbs), ("constraint", constraint),
                            ("extra_vars", extra_vars), ("cap", cap),
                            ("vocabulary", vocabulary), ("kb_tables", kb_tables),
                            ("kb_masks", kb_masks), ("constraint_table", constraint_table)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MergeResult:
    """Winning models of one merge and the operator's evidence: the minimal
    aggregate ``k``, the minimal sorted distance tuple, or the family of
    forgotten-variable sets.  The canonical DNF is built on first access."""

    operator: str
    model_set: ModelSet
    k: int | None = None
    distance_tuple: tuple[int, ...] | None = None
    forgetting_family: tuple[tuple[str, ...], ...] | None = None
    degenerate_constraint: bool = False

    @cached_property
    def formula(self) -> Formula:
        return to_dnf(self.model_set)


def _result(tag: str, profile: Profile, table: int, **evidence) -> MergeResult:
    return MergeResult(tag, ModelSet._settled(profile.vocabulary, table), **evidence)


# ---------------------------------------------------------------------------
# distance-minimising forms, read off dilation layers
#
# The k-th dilation of a KB (its models' Hamming ball of radius k) is the
# disjunction, over every set of k variables, of the KB with that set
# forgotten; distances come from growing the balls one flip at a time.  Per-model integers are held bit-sliced: a counter is a
# list of truth tables, least significant plane first, and bit m of plane j
# is bit j of assignment m's value.

def _dilation_layers(profile: Profile) -> list[list[int]]:
    """Per KB position, the balls ``balls[k]`` of radius k around that KB,
    grown until the last covers the constraint.  KBs with equal tables
    share one list."""
    _, flips = _width_tables(len(profile.vocabulary))
    grown: dict[int, list[int]] = {}
    for table in profile.kb_tables:
        if table not in grown:
            balls = [table]
            while profile.constraint_table & ~balls[-1]:
                balls.append(_dilate_once(balls[-1], flips))
            grown[table] = balls
    return [grown[table] for table in profile.kb_tables]


def _ball(balls: list[int], k: int) -> int:
    """Radius-k ball; past the last layer it agrees with the last on the
    constraint models, which is all any caller reads."""
    return balls[min(k, len(balls) - 1)]


def _distance_planes(balls: list[int]) -> list[int]:
    """Bit-sliced distance to the KB: ring k (``balls[k]`` minus
    ``balls[k-1]``) holds the assignments at distance exactly k."""
    planes = [0] * (len(balls) - 1).bit_length()
    inner = 0
    for k, ball in enumerate(balls):
        ring = ball ^ inner
        inner = ball
        for j in range(k.bit_length()):
            if k >> j & 1:
                planes[j] |= ring
    return planes


def _add(first: list[int], second: list[int]) -> list[int]:
    """Ripple-carry sum of two bit-sliced counters."""
    if len(first) < len(second):
        first, second = second, first
    total, carry = [], 0
    for j, plane in enumerate(first):
        other = second[j] if j < len(second) else 0
        total.append(plane ^ other ^ carry)
        carry = (plane & other) | (carry & (plane ^ other))
    if carry:
        total.append(carry)
    return total


def _least(planes: list[int], candidates: int) -> tuple[int, int]:
    """Least counter value over the ``candidates`` table and the candidates
    that hold it, deciding one bit at a time from the top plane down."""
    value = 0
    for j in range(len(planes) - 1, -1, -1):
        below = candidates & ~planes[j]
        if below:
            candidates = below
        else:
            value |= 1 << j
    return value, candidates


def merge_sigma(profile: Profile) -> MergeResult:
    """Keep the constraint models with the least summed distance to the KBs."""
    mu_vector = profile.constraint_table
    if not mu_vector:
        return _result("sigma", profile, 0, degenerate_constraint=True)
    total: list[int] = []
    for balls in _dilation_layers(profile):
        total = _add(total, _distance_planes(balls))
    best, winners = _least(total, mu_vector)
    return _result("sigma", profile, winners, k=best)


def merge_max(profile: Profile) -> MergeResult:
    """Keep the constraint models with the least worst-case distance: grow
    the distinct KBs' balls one radius at a time until they meet on a
    constraint model.  Every ball is the whole space by radius |V|."""
    mu_vector = profile.constraint_table
    if not mu_vector:
        return _result("max", profile, 0, degenerate_constraint=True)
    _, flips = _width_tables(len(profile.vocabulary))
    balls = list(dict.fromkeys(profile.kb_tables))
    k = 0
    while True:
        winners = mu_vector
        for ball in balls:
            winners &= ball
        if winners:
            return _result("max", profile, winners, k=k)
        balls = [_dilate_once(ball, flips) for ball in balls]
        k += 1


def merge_gmax(profile: Profile) -> MergeResult:
    """Keep the constraint models whose descending-sorted distance vectors
    are lexicographically least."""
    mu_vector = profile.constraint_table
    if not mu_vector:
        return _result("gmax", profile, 0, degenerate_constraint=True)
    layers = _dilation_layers(profile)
    # Comparing sorted vectors leximax-first is comparing, from the largest
    # k down, how many KBs lie at distance k or more.
    candidates, worst = mu_vector, []
    for k in range(max(len(balls) for balls in layers) - 1, 0, -1):
        count: list[int] = []
        for balls in layers:
            count = _add(count, [candidates & ~_ball(balls, k - 1)])
        at_least_k, candidates = _least(count, candidates)
        worst.extend([k] * (at_least_k - len(worst)))
    worst.extend([0] * (len(layers) - len(worst)))
    return _result("gmax", profile, candidates, distance_tuple=tuple(worst))


# ---------------------------------------------------------------------------
# forgetting-based forms

class _ClosureTable:
    """Per distinct KB (equal table and own variables), switch-closures of
    its truth table, memoised by a mask over the vocabulary (bit j:
    ``vocabulary[j]``) restricted to the KB's own variables.  Closing a
    table under flips of V is the model-level form of forgetting V.
    Variables foreign to a KB are flip-free in its table, so a shared
    forgotten set projects onto each KB as ``mask & own``."""

    def __init__(self, profile: Profile):
        _, self._flips = _width_tables(len(profile.vocabulary))
        kbs = list(zip(profile.kb_tables, profile.kb_masks))
        distinct = list(dict.fromkeys(kbs))
        self.position = [distinct.index(kb) for kb in kbs]
        self.own = [mask for _, mask in distinct]
        self._memo = [{0: table} for table, _ in distinct]
        self.pool = reduce(or_, self.own)

    def closed(self, kb: int, mask: int) -> int:
        """Truth table of distinct KB ``kb`` closed under flips of the own
        variables in ``mask``: the closure of the mask without its highest
        bit, flipped once more in that bit.  Recursion runs at most one
        level per vocabulary position."""
        memo = self._memo[kb]
        table = memo.get(mask)
        if table is None:
            top = mask.bit_length() - 1
            weight, pattern = self._flips[top]
            table = self.closed(kb, mask ^ 1 << top)
            table |= _flip(table, weight, pattern)
            memo[mask] = table
        return table

    def shared(self, mask: int, vector: int) -> int:
        """``vector`` narrowed to the models of every KB with the variables
        in ``mask`` forgotten."""
        for kb, own in enumerate(self.own):
            vector &= self.closed(kb, mask & own)
            if not vector:
                break
        return vector


def _selection_union(table: _ClosureTable, mu_vector: int,
                     counts: Sequence[int]) -> int:
    """Union over all per-KB choices of ``counts[i]`` forgotten variables of
    the conjunction of closures with the constraint.  Counts beyond a KB's
    own variable count saturate at forgetting everything it has."""
    choices = []
    for kb, count in zip(table.position, counts):
        bits = [1 << j for j in _iter_masks(table.own[kb])]
        choices.append([(kb, sum(chosen))
                        for chosen in combinations(bits, min(count, len(bits)))])
    union = 0
    for selection in product(*choices):
        vector = mu_vector
        for kb, mask in selection:
            vector &= table.closed(kb, mask)
            if not vector:
                break
        union |= vector
    return union


def _compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All tuples with sum ``total`` and 0 <= c_i <= caps[i], lexicographic."""
    if not caps:
        if total == 0:
            yield ()
        return
    rest = caps[1:]
    rest_total = sum(rest)
    for first in range(max(0, total - rest_total), min(caps[0], total) + 1):
        for tail in _compositions(total - first, rest):
            yield (first, *tail)


def _descending_tuples(length: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples over 0..bound in ascending lexicographic order."""
    if length == 0:
        yield ()
        return
    for first in range(bound + 1):
        for tail in _descending_tuples(length - 1, first):
            yield (first, *tail)


def _forgetting_form(profile: Profile, tag: str, levels) -> MergeResult:
    """Try the levels ``levels(sizes)`` yields, in order, until one is
    consistent; ``sizes`` holds the KBs' own variable counts, and a level is
    its evidence plus the per-KB forget counts whose unions it joins."""
    mu_vector = profile.constraint_table
    if not mu_vector:
        return _result(tag, profile, 0, degenerate_constraint=True)
    table = _ClosureTable(profile)
    for evidence, splits in levels([mask.bit_count() for mask in profile.kb_masks]):
        union = 0
        for counts in splits:
            union |= _selection_union(table, mu_vector, counts)
        if union:
            return _result(tag, profile, union, **evidence)
    raise AssertionError("unreachable: forgetting every variable always succeeds")


def merge_sigma_forget(profile: Profile) -> MergeResult:
    """Sum merge rebuilt from forgetting: raise the total number of
    variables forgotten across the KBs until some split of that total makes
    the forgotten KBs jointly consistent with the constraint."""
    return _forgetting_form(profile, "sigma-forget", lambda sizes: (
        ({"k": k}, _compositions(k, sizes)) for k in range(sum(sizes) + 1)))


def merge_max_forget(profile: Profile) -> MergeResult:
    """Worst-case merge rebuilt from forgetting: every KB forgets the same
    number of variables, the least number that restores joint consistency."""
    return _forgetting_form(profile, "max-forget", lambda sizes: (
        ({"k": k}, [(k,) * len(sizes)]) for k in range(max(sizes) + 1)))


def merge_gmax_forget(profile: Profile) -> MergeResult:
    """Leximax merge rebuilt from forgetting: per-KB forget counts are drawn
    from the permutations of one descending tuple, and tuples are tried in
    ascending lexicographic order until the disjunction is consistent."""
    return _forgetting_form(profile, "gmax-forget", lambda sizes: (
        ({"distance_tuple": tup}, sorted(set(permutations(tup))))
        for tup in _descending_tuples(len(sizes), max(sizes))))


# ---------------------------------------------------------------------------
# shared-forgetting-set operators

def _least_sets(table: _ClosureTable, mu_vector: int) -> list[tuple[int, int]]:
    """f1: every successful shared set of the least size, as a vocabulary
    mask with its winners.  Successful sets are closed upward, so each
    least-size one is inclusion-minimal: f1's family is the smallest
    members of f2's, and f1 costs what f2 costs.  That can be far more than
    a search by size would take when one small set succeeds beside many
    larger minimal ones: with KB1 = x & !y1 & ... & !ym and KB2 = x -> (at
    least m/2 of the y), f1 is {x} but f2's family has C(m, m/2) + 1 sets
    (m = 12: 0.09-0.11 s, against 0.1 ms for a search by size)."""
    family = _minimal_sets(table, mu_vector)
    least = min(mask.bit_count() for mask, _ in family)
    return [(mask, vector) for mask, vector in family if mask.bit_count() == least]


def _minimal_sets(table: _ClosureTable, mu_vector: int) -> list[tuple[int, int]]:
    """f2: every inclusion-minimal successful shared set, as a vocabulary
    mask with its winners, by joint generation.  A set containing no member
    of the family found so far lies inside ``pool - h`` for some minimal
    hitting set h of that family, so the family is complete once every such
    top fails; a top that succeeds is shrunk, one variable at a time from
    the highest down, to a new minimal member.  A trial then keeps the
    bits kept above it plus the top's bits below it, a prefix whose
    closure the memo built with the top's, so it flips only the kept bits
    above.  Successful sets are closed upward, so a failed
    top's h hits every later member and Berge's update keeps it in front:
    the first ``tested`` transversals are exactly the failed tops."""
    found: list[tuple[int, int]] = []
    transversals, tested = [0], 0
    while tested < len(transversals):
        top = table.pool ^ transversals[tested]
        vector = table.shared(top, mu_vector)
        if not vector:
            tested += 1
            continue
        minimal = top
        for i in reversed(list(_iter_masks(top))):
            trial = minimal ^ 1 << i
            narrowed = table.shared(trial, mu_vector)
            if narrowed:
                minimal, vector = trial, narrowed
        found.append((minimal, vector))
        transversals = _transversals_with(transversals, minimal)
    return found


def _transversals_with(transversals: list[int], new: int) -> list[int]:
    """Minimal hitting sets of a family with ``new`` added, from those of
    the family before (Berge): keep the ones that hit ``new``, in order,
    and extend each other h by each v in ``new`` unless h | {v} holds a
    kept set.  Grown sets are distinct and hold no other: h' | {v'} inside
    h | {v} puts h' inside h (h' misses ``new``), so h' = h and v' = v."""
    kept = [h for h in transversals if h & new]
    grown = (h | 1 << i for h in transversals if not h & new for i in _iter_masks(new))
    return kept + [g for g in grown if not any(k & g == k for k in kept)]


def _family_merge(profile: Profile, tag: str,
                  search: Callable[[_ClosureTable, int], list[tuple[int, int]]]) -> MergeResult:
    mu_vector = profile.constraint_table
    if not mu_vector:
        return _result(tag, profile, 0, degenerate_constraint=True,
                       forgetting_family=())
    family, union = [], 0
    for mask, vector in search(_ClosureTable(profile), mu_vector):
        family.append(tuple(_iter_masks(mask)))
        union |= vector
    family.sort(key=lambda chosen: (len(chosen), chosen))
    names = tuple(tuple(profile.vocabulary[j] for j in chosen) for chosen in family)
    return _result(tag, profile, union, forgetting_family=names)


def merge_f1(profile: Profile) -> MergeResult:
    """Forget one shared variable set of minimal cardinality from every KB;
    the result is the disjunction over all such sets of the forgotten KBs
    conjoined with the constraint."""
    return _family_merge(profile, "f1", _least_sets)


def merge_f2(profile: Profile) -> MergeResult:
    """As f1, but the shared forgotten sets are minimal by set inclusion."""
    return _family_merge(profile, "f2", _minimal_sets)


OPERATORS: dict[str, Callable[..., MergeResult]] = {
    "sigma": merge_sigma,
    "max": merge_max,
    "gmax": merge_gmax,
    "f1": merge_f1,
    "f2": merge_f2,
}

FORGETTING_FORMS: dict[str, Callable[..., MergeResult]] = {
    "sigma": merge_sigma_forget,
    "max": merge_max_forget,
    "gmax": merge_gmax_forget,
}
