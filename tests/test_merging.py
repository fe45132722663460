import random
from itertools import combinations

import pytest

from beliefmerge import (
    FALSE,
    FORGETTING_FORMS,
    InconsistentKBError,
    OPERATORS,
    Profile,
    TRUE,
    VocabularyCapError,
    conj,
    disj,
    distance_to_formula,
    entails,
    equivalent,
    forget,
    merge_f1,
    merge_f2,
    merge_gmax,
    merge_gmax_forget,
    merge_max,
    merge_max_forget,
    merge_sigma,
    merge_sigma_forget,
    models,
    parse,
    to_dnf,
    truth_vector,
    variables,
)
from beliefmerge.postulates import VAR_POOL, random_consistent_formula, random_dnf


AGGREGATES = {
    "sigma": sum,
    "max": max,
    "gmax": lambda distances: tuple(sorted(distances, reverse=True)),
}


def hand_oracle(profile, aggregate):
    """Least ``aggregate`` of per-KB distances over the constraint models,
    each distance scored one model pair at a time, and the models at it."""
    scored = {}
    for omega in models(profile.constraint, profile.vocabulary):
        scored[omega.mask] = aggregate([distance_to_formula(omega, kb)
                                        for kb in profile.kbs])
    best = min(scored.values())
    return best, {m for m, score in scored.items() if score == best}


def oracle_profiles():
    """Seeded profiles over 5-8 variables with 1-5 KBs.  The last variable
    appears only in the constraint; KBs repeat and ``true`` KBs occur.  Full
    cubes of opposite sign put KBs up to n flips from every constraint
    model, so summed distances run to 40 and carry across six planes."""
    rng = random.Random("distance-oracle")
    for _ in range(40):
        names = VAR_POOL[: rng.randint(5, 8)]
        kbs = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if kbs and roll < 0.25:
                kbs.append(rng.choice(kbs))
            elif roll < 0.35:
                kbs.append(TRUE)
            else:
                kbs.append(random_dnf(rng, names[:-1]))
        foreign = parse(names[-1] if rng.random() < 0.5 else "!" + names[-1])
        mu = conj([random_consistent_formula(rng, names[:-1]), foreign])
        yield Profile(tuple(kbs), mu, extra_vars=names)
    for n in (5, 8):
        up = conj([parse(name) for name in VAR_POOL[:n]])
        down = conj([parse("!" + name) for name in VAR_POOL[:n]])
        half = conj([parse("!" + name) for name in VAR_POOL[: n // 2]])
        yield Profile((up,) * 5, down)
        yield Profile((up, up, up, TRUE), half)
        yield Profile((up, down, up, random_dnf(rng, VAR_POOL[:n])), TRUE)


def family_oracle(profile):
    """f1's and f2's families and winners from syntactic forgetting alone:
    every subset V of the KBs' variables is tried with ``forget(kb, V)``,
    and the families are read off the subsets that leave the KBs jointly
    consistent with the constraint."""
    vocab = profile.vocabulary
    pool = sorted({name for kb in profile.kbs for name in variables(kb)})
    mu = truth_vector(profile.constraint, vocab)
    forgotten = {}
    succeeded = {}
    for size in range(len(pool) + 1):
        for chosen in combinations(pool, size):
            vector = mu
            for kb in profile.kbs:
                own = tuple(name for name in chosen if name in variables(kb))
                if (kb, own) not in forgotten:
                    forgotten[kb, own] = truth_vector(forget(kb, own), vocab)
                vector &= forgotten[kb, own]
            if vector:
                succeeded[chosen] = vector
    least = min(len(chosen) for chosen in succeeded)
    by_size = [c for c in succeeded if len(c) == least]
    by_inclusion = [c for c in succeeded
                    if not any(set(other) < set(c) for other in succeeded)]

    def winners(family):
        union = 0
        for chosen in family:
            union |= succeeded[chosen]
        return {m for m in range(1 << len(vocab)) if union >> m & 1}

    return {"f1": (tuple(by_size), winners(by_size)),
            "f2": (tuple(by_inclusion), winners(by_inclusion))}


def near_cube(rng, world, names):
    """A cube over some of ``names`` that agrees with ``world`` except on
    up to three flipped variables."""
    body = rng.sample(names, rng.randint(3, len(names)))
    flipped = set(rng.sample(body, rng.randint(0, 3)))
    return conj([parse(name if world[name] != (name in flipped) else "!" + name)
                 for name in body])


def family_profiles():
    """Seeded profiles over 5-8 variables with 1-5 KBs: disjunctions of
    cubes near one hidden world, whose flips give minimal sets of several
    sizes, plus repeated and ``true`` KBs and a last variable only the
    constraint mentions.  Then the split vote and two jointly consistent
    profiles, one with no KB variables at all."""
    rng = random.Random("family-oracle")
    for _ in range(40):
        names = VAR_POOL[: rng.randint(5, 8)]
        world = {name: rng.random() < 0.5 for name in names}
        kbs = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if kbs and roll < 0.2:
                kbs.append(rng.choice(kbs))
            elif roll < 0.3:
                kbs.append(TRUE)
            else:
                kbs.append(disj([near_cube(rng, world, names[:-1])
                                 for _ in range(rng.randint(1, 3))]))
        foreign = parse(names[-1] if rng.random() < 0.5 else "!" + names[-1])
        mu = conj([random_consistent_formula(rng, names[:-1], depth=2), foreign])
        yield Profile(tuple(kbs), mu, extra_vars=names)
    yield Profile((parse("!p & !q & !r & !s"),
                   parse("((p & !q & !r) | (!p & q & r)) & !s")))
    yield Profile((parse("p"), parse("p | q")), parse("q | !q"))
    yield Profile((TRUE, TRUE), parse("p & !q"))


class TestProfile:
    def test_vocabulary_covers_constraint_and_extras(self):
        prof = Profile((parse("p"),), parse("q"), extra_vars=("z",))
        assert prof.vocabulary == ("p", "q", "z")

    def test_inconsistent_kb_rejected(self):
        with pytest.raises(InconsistentKBError) as info:
            Profile((parse("p"), parse("q & !q")))
        assert info.value.index == 1

    def test_needs_a_kb(self):
        with pytest.raises(ValueError):
            Profile(())

    def test_inconsistent_constraint_is_allowed(self):
        Profile((parse("p"),), parse("q & !q"))  # degenerate, but constructible

    def test_tables_are_compiled_over_the_vocabulary(self):
        prof = Profile((parse("p"), parse("r -> p")), parse("q"))
        assert prof.vocabulary == ("p", "q", "r")
        assert prof.kb_masks == (0b001, 0b101)  # bit j stands for vocabulary[j]
        assert prof.kb_tables == tuple(truth_vector(kb, prof.vocabulary)
                                       for kb in prof.kbs)
        assert prof.constraint_table == truth_vector(parse("q"), prof.vocabulary)

    def test_cap_comes_before_any_table(self):
        wide = tuple(f"x{i:02}" for i in range(40))
        with pytest.raises(VocabularyCapError):
            Profile((parse("p"),), extra_vars=wide)
        with pytest.raises(VocabularyCapError):
            Profile((parse("p & q"), parse("r | s")), cap=3)

    def test_cap_is_not_part_of_equality(self):
        assert Profile((parse("p"),), cap=1) == Profile((parse("p"),))


class TestCoOwners:
    def test_sigma(self, co_owners):
        result = merge_sigma(co_owners)
        assert equivalent(result.formula, parse("S & T & P & I"))
        assert result.k == 5

    def test_max_matches_a_hand_oracle(self, co_owners):
        result = merge_max(co_owners)
        best, oracle = hand_oracle(co_owners, max)
        assert result.model_set.masks == oracle
        assert result.k == best == 2

    def test_gmax(self, co_owners):
        result = merge_gmax(co_owners)
        assert equivalent(result.formula, parse("!S & !I & ((!T & P) | (T & !P))"))
        assert result.distance_tuple == (2, 2, 1, 1)

    def test_f1_and_f2(self, co_owners):
        constrained_quiet = conj([parse("!I"), co_owners.constraint])
        for op in (merge_f1, merge_f2):
            result = op(co_owners)
            assert equivalent(result.formula, constrained_quiet)
            assert result.forgetting_family == (("P", "S", "T"),)

    def test_gmax_worst_entry_matches_max_k(self, co_owners):
        assert max(merge_gmax(co_owners).distance_tuple) == merge_max(co_owners).k


class TestDistanceOracle:
    @pytest.mark.parametrize("tag", sorted(AGGREGATES))
    def test_matches_a_hand_oracle(self, tag):
        for prof in oracle_profiles():
            result = OPERATORS[tag](prof)
            best, oracle = hand_oracle(prof, AGGREGATES[tag])
            assert result.model_set.masks == oracle, (tag, prof)
            evidence = result.distance_tuple if tag == "gmax" else result.k
            assert evidence == best, (tag, prof)

    def test_far_profiles_need_many_planes(self):
        sums = [hand_oracle(prof, sum)[0] for prof in oracle_profiles()]
        assert max(sums) == 40
        assert sum(k >= 8 for k in sums) >= 3


class TestFamilyOracle:
    def test_f1_and_f2_match_syntactic_forgetting(self):
        minimal_families = []
        for prof in family_profiles():
            oracle = family_oracle(prof)
            for tag in ("f1", "f2"):
                result = OPERATORS[tag](prof)
                family, winners = oracle[tag]
                assert result.forgetting_family == family, (tag, prof)
                assert result.model_set.masks == winners, (tag, prof)
            minimal_families.append(oracle["f2"][0])
        # the cases a search for minimal sets can get wrong are all present
        assert ((),) in minimal_families  # jointly consistent
        assert sum(len({len(c) for c in family}) > 1
                   for family in minimal_families) >= 5
        assert max(len(family) for family in minimal_families) >= 4


class TestSplitVote:
    def test_f1(self, split_vote):
        result = merge_f1(split_vote)
        assert result.forgetting_family == (("p",),)
        assert equivalent(result.formula, parse("!q & !r & !s"))

    def test_f2(self, split_vote):
        result = merge_f2(split_vote)
        assert result.forgetting_family == (("p",), ("q", "r"))
        assert equivalent(result.formula, parse("(!q & !r & !s) | (!p & !s)"))

    def test_f1_strictly_stronger_than_f2(self, split_vote):
        f1 = merge_f1(split_vote).formula
        f2 = merge_f2(split_vote).formula
        assert entails(f1, f2)
        assert not equivalent(f1, f2)


class TestSmallProfiles:
    def test_jointly_consistent_profiles_conjoin(self):
        prof = Profile((parse("p"), parse("p | q")), parse("q | !q"))
        expected = conj([*prof.kbs, prof.constraint])
        for tag, op in OPERATORS.items():
            assert equivalent(op(prof).formula, expected), tag

    def test_flat_contradiction(self):
        prof = Profile((parse("p"), parse("!p")))
        assert equivalent(merge_sigma(prof).formula, TRUE)
        assert merge_sigma(prof).k == 1
        assert equivalent(merge_max(prof).formula, TRUE)
        f1 = merge_f1(prof)
        assert f1.forgetting_family == (("p",),)
        assert equivalent(f1.formula, TRUE)
        forget_form = merge_sigma_forget(prof)
        assert forget_form.k == 1
        assert equivalent(forget_form.formula, TRUE)

    def test_single_kb(self):
        prof = Profile((parse("p & q"),))
        for tag, op in OPERATORS.items():
            assert equivalent(op(prof).formula, parse("p & q")), tag

    def test_degenerate_constraint(self):
        prof = Profile((parse("p"),), parse("q & !q"))
        for tag, op in OPERATORS.items():
            result = op(prof)
            assert result.degenerate_constraint, tag
            assert result.formula == FALSE
            assert len(result.model_set) == 0
        assert merge_f1(prof).forgetting_family == ()

    def test_sigma_is_majority_sensitive_where_f_operators_are_not(self):
        base = (parse("p"), parse("!p"))
        doubled = (parse("p"), parse("!p"), parse("!p"))
        assert equivalent(merge_sigma(Profile(base)).formula, TRUE)
        assert equivalent(merge_sigma(Profile(doubled)).formula, parse("!p"))
        for op in (merge_f1, merge_f2):
            assert equivalent(op(Profile(base)).formula, op(Profile(doubled)).formula)
            assert (op(Profile(base)).forgetting_family
                    == op(Profile(doubled)).forgetting_family)


class TestResultInvariants:
    def test_result_entails_constraint_and_dnf_matches_models(self):
        rng = random.Random("merge-invariants")
        for _ in range(40):
            names = VAR_POOL[: rng.randint(1, 4)]
            kbs = tuple(random_dnf(rng, names) for _ in range(rng.randint(1, 3)))
            mu = random_consistent_formula(rng, names)
            prof = Profile(kbs, mu)
            mu_masks = models(mu, prof.vocabulary).masks
            for tag, op in OPERATORS.items():
                result = op(prof)
                assert result.model_set.masks <= mu_masks, tag
                assert result.model_set.masks, tag  # consistent constraint
                assert to_dnf(result.model_set) == result.formula, tag

    def test_sigma_k_matches_an_independent_sum(self):
        rng = random.Random("sigma-k")
        for _ in range(40):
            names = VAR_POOL[: rng.randint(1, 4)]
            kbs = tuple(random_dnf(rng, names) for _ in range(rng.randint(1, 3)))
            mu = random_consistent_formula(rng, names)
            prof = Profile(kbs, mu)
            best = min(sum(distance_to_formula(omega, kb) for kb in kbs)
                       for omega in models(mu, prof.vocabulary))
            assert merge_sigma(prof).k == best

    def test_f_family_members_restore_consistency(self):
        from beliefmerge import forget

        rng = random.Random("fs-invariant")
        for _ in range(30):
            names = VAR_POOL[: rng.randint(2, 4)]
            kbs = tuple(random_dnf(rng, names) for _ in range(rng.randint(1, 3)))
            mu = random_consistent_formula(rng, names)
            prof = Profile(kbs, mu)
            r1, r2 = merge_f1(prof), merge_f2(prof)
            cards = {len(v) for v in r1.forgetting_family}
            assert len(cards) == 1  # cardinality-minimal family is uniform
            family2 = [set(v) for v in r2.forgetting_family]
            assert not any(a < b for a in family2 for b in family2)  # antichain
            assert set(r1.forgetting_family) <= set(r2.forgetting_family)
            assert entails(r1.formula, r2.formula)
            for family in (r1.forgetting_family, r2.forgetting_family):
                for chosen in family:
                    merged = conj([*(forget(kb, chosen) for kb in kbs), mu])
                    assert models(merged, prof.vocabulary).masks

    def test_all_kbs_agreeing_on_a_literal_keeps_it_out_of_the_family(self):
        rng = random.Random("agreed-literal")
        for _ in range(30):
            body = VAR_POOL[1:4]
            lit = parse("p") if rng.random() < 0.5 else parse("!p")
            kbs = tuple(conj([random_dnf(rng, body), lit])
                        for _ in range(rng.randint(1, 3)))
            mu = random_consistent_formula(rng, body)
            prof = Profile(kbs, mu)
            for result in (merge_f1(prof), merge_f2(prof)):
                assert all("p" not in chosen for chosen in result.forgetting_family)


class TestForgettingForms:
    def test_agree_on_the_co_owners_profile(self, co_owners):
        assert (merge_sigma_forget(co_owners).model_set.masks
                == merge_sigma(co_owners).model_set.masks)
        assert merge_sigma_forget(co_owners).k == 5
        assert (merge_max_forget(co_owners).model_set.masks
                == merge_max(co_owners).model_set.masks)
        assert merge_max_forget(co_owners).k == 2
        gm = merge_gmax_forget(co_owners)
        assert gm.model_set.masks == merge_gmax(co_owners).model_set.masks
        assert gm.distance_tuple == (2, 2, 1, 1)

    def test_agree_on_random_profiles(self):
        rng = random.Random("forms")
        for _ in range(60):
            names = VAR_POOL[: rng.randint(2, 4)]
            kbs = tuple(random_dnf(rng, names) for _ in range(rng.randint(1, 3)))
            mu = random_consistent_formula(rng, names)
            prof = Profile(kbs, mu)
            for tag, forget_form in FORGETTING_FORMS.items():
                base = OPERATORS[tag](prof)
                other = forget_form(prof)
                assert base.model_set.masks == other.model_set.masks, tag
                assert base.k == other.k, tag
                assert base.distance_tuple == other.distance_tuple, tag

    def test_degenerate_constraint(self):
        prof = Profile((parse("p"),), parse("q & !q"))
        for forget_form in FORGETTING_FORMS.values():
            result = forget_form(prof)
            assert result.degenerate_constraint
            assert result.formula == FALSE
