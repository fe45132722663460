import hashlib
import itertools
import json
import random

import pytest

from beliefmerge import (
    CLAIMED_PASS,
    CheckReport,
    EXPECTED_FAIL,
    GeneratorBounds,
    PostulateId,
    PostulateInstance,
    check,
    check_randomized,
    conj,
    entails,
    equivalent,
    format_formula,
    generate_instance,
    instance_for,
    is_consistent,
    merge_f1,
    merge_gmax,
    merge_max,
    merge_sigma,
    parse,
    replay_violation,
    serialize_violation,
    truth_vector,
    variables,
)
from beliefmerge import postulates
from beliefmerge.merging import OPERATORS
from beliefmerge.semantics import DEFAULT_VOCAB_CAP
from beliefmerge.postulates import (
    VAR_POOL,
    _below,
    _decide,
    _sample,
    _trial_rng,
    equivalent_rewrite,
    instance_from_record,
    random_consistent_formula,
    random_dnf,
    random_formula,
    require_bounds,
)

CO_OWNERS_CONSTRAINT = "((S & T) | (S & P) | (T & P)) -> I"
CO_OWNERS_KBS = ("S & T & P", "S & T & P", "!S & !T & !P & !I", "T & P & !I")


def co_owners_instance_a1():
    kbs = tuple(parse(kb) for kb in CO_OWNERS_KBS)
    mu = parse(CO_OWNERS_CONSTRAINT)
    # the two I-silent KBs form the complement; the literal !I is uncontested
    return PostulateInstance(((kbs[2], kbs[3]), (kbs[0], kbs[1])), (mu,), parse("!I"))


def co_owners_instance_a2():
    kbs = tuple(parse(kb) for kb in CO_OWNERS_KBS)
    mu = parse(CO_OWNERS_CONSTRAINT)
    return PostulateInstance((kbs,), (mu,), parse("S"))


class TestHandInstances:
    def test_ic0_on_anything(self, co_owners):
        inst = PostulateInstance((co_owners.kbs,), (co_owners.constraint,))
        for op in OPERATORS.values():
            assert check(PostulateId.IC0, op, inst)

    def test_ic2_live_antecedent(self):
        inst = PostulateInstance(((parse("p"), parse("p | q")),), (parse("q"),))
        for op in OPERATORS.values():
            assert check(PostulateId.IC2, op, inst)

    def test_a1_separates_the_operators(self):
        inst = co_owners_instance_a1()
        assert check(PostulateId.A1, merge_f1, inst)
        assert check(PostulateId.A1, merge_gmax, inst)  # gmax keeps !I here
        assert not check(PostulateId.A1, merge_sigma, inst)
        assert not check(PostulateId.A1, merge_max, inst)

    def test_a2_separates_the_operators(self):
        inst = co_owners_instance_a2()
        assert check(PostulateId.A2, merge_f1, inst)
        assert not check(PostulateId.A2, merge_gmax, inst)  # gmax settles on !S

    def test_false_antecedent_counts_as_satisfied(self):
        # profiles that are not pairwise equivalent: IC3 holds vacuously
        inst = PostulateInstance(((parse("p"),), (parse("q"),)),
                                 (parse("true"), parse("true")))
        for op in OPERATORS.values():
            assert check(PostulateId.IC3, op, inst)

    def test_ic3_matches_kb_multisets(self):
        true = parse("true")
        same = PostulateInstance(((parse("p"), parse("p | q"), parse("p")),
                                  (parse("p | q"), parse("p"), parse("p"))),
                                 (true, true))
        # same KBs, other multiplicities: the antecedent is false
        recounted = PostulateInstance(((parse("p"), parse("p"), parse("q")),
                                       (parse("p"), parse("q"), parse("q"))),
                                      (true, true))
        for op in OPERATORS.values():
            _, outcome = _decide(PostulateId.IC3, op, same, DEFAULT_VOCAB_CAP)
            assert outcome is not None and outcome[2]
            assert _decide(PostulateId.IC3, op, recounted, DEFAULT_VOCAB_CAP)[1] is None


class TestGenerators:
    def test_generate_instance_is_deterministic(self):
        bounds = GeneratorBounds(seed=11)
        assert generate_instance(bounds, 5) == generate_instance(bounds, 5)
        assert generate_instance(bounds, 5) != generate_instance(bounds, 6)

    def test_generated_material_is_consistent(self):
        bounds = GeneratorBounds(max_vars=4, max_kbs=3, seed=3)
        for trial in range(60):
            inst = generate_instance(bounds, trial)
            for group in inst.groups:
                for kb in group:
                    assert is_consistent(kb)
            for mu in inst.constraints:
                assert is_consistent(mu)

    def test_equivalent_rewrite_preserves_meaning(self):
        rng = random.Random("rewrite")
        for _ in range(150):
            formula = random_consistent_formula(rng, ("p", "q", "r"))
            assert equivalent(formula, equivalent_rewrite(formula, rng))

    def test_ic3_instances_satisfy_their_precondition(self):
        bounds = GeneratorBounds(seed=9)
        for trial in range(40):
            inst = instance_for(PostulateId.IC3, bounds, _trial_rng(9, trial))
            g1, g2 = inst.groups
            assert len(g1) == len(g2)
            assert equivalent(inst.constraints[0], inst.constraints[1])
            assert any(
                all(equivalent(a, g2[j]) for a, j in zip(g1, perm))
                for perm in itertools.permutations(range(len(g2))))

    def test_ic4_instances_entail_the_constraint(self):
        bounds = GeneratorBounds(seed=9)
        for trial in range(40):
            inst = instance_for(PostulateId.IC4, bounds, _trial_rng(9, trial))
            (pair,), (mu,) = inst.groups, inst.constraints
            assert entails(pair[0], mu) and entails(pair[1], mu)

    def test_a1_instances_meet_all_preconditions(self):
        bounds = GeneratorBounds(seed=9)
        for trial in range(40):
            inst = instance_for(PostulateId.A1, bounds, _trial_rng(9, trial))
            special, rest = inst.groups
            lit = inst.literal
            assert special
            assert all(entails(kb, lit) for kb in special)
            rest_vars = set().union(*(variables(kb) for kb in rest)) if rest else set()
            assert not set(variables(lit)) & rest_vars
            assert is_consistent(conj([lit, inst.constraints[0]]))

    @pytest.mark.parametrize("postulate, bounds, message", [
        (PostulateId.A1, GeneratorBounds(max_vars=1), "at least 2 variables"),
        (PostulateId.A2, GeneratorBounds(max_vars=1), "at least 2 variables"),
        (PostulateId.A2, GeneratorBounds(max_kbs=1), "at least 2 KBs"),
        (PostulateId.A2, GeneratorBounds(max_vars=1, max_kbs=1), "at least 2 KBs"),
    ])
    def test_literal_instances_refuse_bounds_too_small(self, postulate, bounds, message):
        with pytest.raises(ValueError, match=message):
            require_bounds(postulate, bounds)
        with pytest.raises(ValueError, match=message):
            instance_for(postulate, bounds, _trial_rng(0, 0))

    def test_other_postulates_take_any_bounds(self):
        bounds = GeneratorBounds(max_vars=1, max_kbs=1)
        for postulate in PostulateId:
            if postulate not in (PostulateId.A1, PostulateId.A2):
                require_bounds(postulate, bounds)

    def test_a2_instances_contest_the_literal(self):
        bounds = GeneratorBounds(seed=9)
        for trial in range(40):
            inst = instance_for(PostulateId.A2, bounds, _trial_rng(9, trial))
            (group,), lit = inst.groups, inst.literal
            negated = parse(f"!({lit})")
            assert any(entails(kb, lit) for kb in group)
            assert any(entails(kb, negated) for kb in group)


def draw_digests():
    """A short hash per drawer of what it draws from seeded generators,
    each draw followed by one more number from its generator, so that a
    change in the calls a drawer makes shows as well as a change in what it
    returns."""
    hashes = {}

    def add(key, drawn, rng):
        text = f"{drawn!r} {rng.random()!r}\n"
        hashes.setdefault(key, hashlib.sha256()).update(text.encode())

    for i in range(200):
        rng = random.Random(f"draws:{i}")
        names = VAR_POOL[:1 + i % 5]
        add("random_dnf", random_dnf(rng, names), rng)
        add("random_formula", random_formula(rng, names, depth=i % 5), rng)
        add("random_consistent_formula", random_consistent_formula(rng, names, i % 4), rng)
        add("generate_instance",
            generate_instance(GeneratorBounds(1 + i % 8, 1 + i % 6, i), rng), rng)
    for bounds in (GeneratorBounds(seed=3), GeneratorBounds(5, 8, seed=3)):
        for pid in PostulateId:
            for trial in range(40):
                rng = _trial_rng(bounds.seed, trial)
                add(pid.value, instance_for(pid, bounds, rng), rng)
    return {key: digest.hexdigest()[:10] for key, digest in hashes.items()}


def drawn_rows(instance):
    """Each formula of a drawn instance with its drawn table and mask."""
    literal = () if instance.literal is None else (instance.literal,)
    formulas = [kb for group in instance.groups for kb in group]
    for formula in [*formulas, *instance.constraints, *literal]:
        yield instance.drawn.rows[id(formula)]


class TestDraws:
    """The generator draws each formula with its truth table and
    own-variable mask over the pool.  What it draws is pinned as recorded
    on the generator that compiled every formula after drawing it."""

    PINNED = {"random_dnf": "d29f56e582", "random_formula": "52a3d24a68",
              "random_consistent_formula": "6233c4f5ee",
              "generate_instance": "56394a1f76",
              "IC0": "c5787e0cd0", "IC1": "c5787e0cd0", "IC2": "a26043d820",
              "IC3": "f8e4064158", "IC4": "498d8bd90b", "IC5": "7837ef5b57",
              "IC6": "7837ef5b57", "IC7": "d9b6de6ccb", "IC8": "d9b6de6ccb",
              "Maj": "7837ef5b57", "MI": "7837ef5b57", "A1": "b3267b8cde",
              "A2": "d60d7fd2a4"}

    def test_draws_are_pinned(self):
        assert draw_digests() == self.PINNED

    @pytest.mark.parametrize("bounds", [GeneratorBounds(seed=7),
                                        GeneratorBounds(5, 8, seed=7)],
                             ids=["default", "5-vars-8-kbs"])
    def test_drawn_rows_match_the_compiler(self, bounds):
        pool = VAR_POOL[:bounds.max_vars]
        bit = {name: 1 << j for j, name in enumerate(pool)}
        compiled = 0
        for pid in PostulateId:
            for trial in range(30):
                inst = instance_for(pid, bounds, _trial_rng(bounds.seed, trial))
                for formula, table, mask in drawn_rows(inst):
                    assert table == truth_vector(formula, pool), (pid, trial)
                    assert mask == sum(bit[name] for name in variables(formula)), (pid, trial)
                bare = PostulateInstance(inst.groups, inst.constraints, inst.literal)
                assert bare == inst and bare.drawn is None
                for op in OPERATORS.values():
                    assert _decide(pid, op, inst) == _decide(pid, op, bare), (pid, trial)
                vocabulary, _ = _decide(pid, OPERATORS["sigma"], bare)
                compiled += vocabulary != pool
        assert compiled  # some instances miss a pool name and are compiled


class TestStdlibStream:
    """The drawers' integer helpers read ``getrandbits`` as the stdlib's
    ``randrange``, ``randint``, ``choice`` and ``sample`` do: each call is
    made on one generator and its stdlib form on a twin seeded alike, and
    the two must agree on the value and on the generator state after it."""

    SEEDS = range(4)

    def test_below_is_randrange_randint_and_choice(self):
        for seed in self.SEEDS:
            rng, twin = random.Random(f"below:{seed}"), random.Random(f"below:{seed}")
            for n in range(1, 65):
                seq = tuple(range(100, 100 + n))
                assert _below(rng.getrandbits, n) == twin.randrange(n), (seed, n)
                assert rng.getstate() == twin.getstate()
                assert 1 + _below(rng.getrandbits, n) == twin.randint(1, n), (seed, n)
                assert rng.getstate() == twin.getstate()
                assert seq[_below(rng.getrandbits, n)] == twin.choice(seq), (seed, n)
                assert rng.getstate() == twin.getstate()

    def test_sample_is_sample(self):
        # populations over 21 cover the fallback to the stdlib's own sample
        for seed in self.SEEDS:
            rng, twin = random.Random(f"sample:{seed}"), random.Random(f"sample:{seed}")
            for n in range(31):
                population = tuple(f"x{j}" for j in range(n))
                for k in range(n + 1):
                    assert _sample(rng.getrandbits, population, k) == twin.sample(population, k)
                    assert rng.getstate() == twin.getstate(), (seed, n, k)

    def test_nothing_to_draw_raises(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            _below(rng.getrandbits, 0)
        with pytest.raises(ValueError):
            random_dnf(rng, ())


class TestRandomizedSuites:
    BOUNDS = GeneratorBounds(max_vars=4, max_kbs=3, seed=42)

    def test_ic0_everywhere(self):
        for tag in OPERATORS:
            report = check_randomized(PostulateId.IC0, tag, 30, self.BOUNDS)
            assert report.verdict == "pass"
            assert report.violations == ()

    def test_maj_is_bounded_pass_for_sigma(self):
        report = check_randomized(PostulateId.MAJ, "sigma", 60, self.BOUNDS)
        assert report.verdict == "bounded-pass"
        assert not report.violations

    def test_mi_is_bounded_pass_for_max(self):
        report = check_randomized(PostulateId.MI, "max", 60, self.BOUNDS)
        assert report.verdict == "bounded-pass"

    def test_maj_fails_for_max_with_replayable_witness(self):
        report = check_randomized(PostulateId.MAJ, "max", 100, self.BOUNDS)
        assert report.verdict == "fail"
        assert report.violations
        record = report.violations[0]
        assert record["postulate"] == "Maj"
        assert record["operator"] == "max"
        assert replay_violation(record)
        # serialisation survives a JSON round trip
        assert replay_violation(json.loads(json.dumps(record)))

    def test_max_majority_merges_are_memoised_under_a_rebound_operator(self, monkeypatch):
        # a tracer rebinds the values of OPERATORS; the rebound max is still
        # blind to repetition, so each trial merges g2 and g1 + g2 once and
        # n = 2..8 are lookups
        plain = check_randomized(PostulateId.MAJ, "max", 20, self.BOUNDS)
        calls = []
        original = OPERATORS["max"]
        monkeypatch.setitem(OPERATORS, "max",
                            lambda profile: calls.append(1) or original(profile))
        report = check_randomized(PostulateId.MAJ, "max", 20, self.BOUNDS)
        assert report == plain and report.violations
        assert len(calls) <= 2 * 20

    def test_report_invariant(self):
        assert CheckReport(PostulateId.IC0, "sigma", 10, ({},), 0).verdict == "fail"
        assert CheckReport(PostulateId.IC0, "sigma", 10, (), 0).verdict == "pass"
        assert CheckReport(PostulateId.MAJ, "sigma", 10, (), 0).verdict == "bounded-pass"

    def test_live_and_vacuous_trials_on_the_co_owners_instance(self, monkeypatch):
        # the four co-owners KBs are jointly inconsistent, so IC2 is vacuous;
        # A1's !I is entailed by its supporters and foreign to the rest
        instances = {PostulateId.IC2: co_owners_instance_a2(),
                     PostulateId.A1: co_owners_instance_a1()}
        monkeypatch.setattr(postulates, "instance_for",
                            lambda pid, *_: instances[pid])
        vacuous = check_randomized(PostulateId.IC2, "sigma", 3, self.BOUNDS)
        assert (vacuous.live_trials, vacuous.vacuous_trials) == (0, 3)
        assert vacuous.verdict == "pass"
        live = check_randomized(PostulateId.A1, "sigma", 3, self.BOUNDS)
        assert (live.live_trials, live.vacuous_trials) == (3, 0)
        assert len(live.violations) == 3

    def test_vacuous_trials_are_the_false_antecedents(self):
        # IC2's antecedent is the joint consistency of the KBs and constraint;
        # with up to 8 KBs the generator's bias toward it often gives up
        bounds = GeneratorBounds(max_vars=4, max_kbs=8, seed=42)
        report = check_randomized(PostulateId.IC2, "sigma", 40, bounds)
        false = 0
        for trial in range(40):
            inst = instance_for(PostulateId.IC2, bounds, _trial_rng(42, trial))
            (group,), (mu,) = inst.groups, inst.constraints
            false += not is_consistent(conj([*group, mu]))
        assert 0 < report.vacuous_trials == false < 40
        assert report.live_trials == 40 - false
        # IC3's twin is an equivalent rewrite, so its antecedent always holds
        assert check_randomized(PostulateId.IC3, "sigma", 40, bounds).live_trials == 40

    def test_sampled_matrix_rows(self):
        # one claimed-pass cell per operator at a reduced budget; the full
        # 300-trial matrix runs in the acceptance suite
        picks = {"sigma": PostulateId.IC5, "max": PostulateId.IC4,
                 "gmax": PostulateId.IC6, "f1": PostulateId.IC8,
                 "f2": PostulateId.IC7}
        for tag, pid in picks.items():
            assert pid in CLAIMED_PASS[tag]
            report = check_randomized(pid, tag, 60, self.BOUNDS)
            assert report.verdict == "pass", (tag, pid)

    def test_expected_fail_cells_do_find_witnesses(self):
        for tag, pids in EXPECTED_FAIL.items():
            for pid in pids:
                report = check_randomized(pid, tag, 300, self.BOUNDS)
                assert report.verdict == "fail", (tag, pid)
                assert all(replay_violation(r) for r in report.violations[:3])


class TestSerialization:
    def test_instance_round_trip(self):
        bounds = GeneratorBounds(seed=4)
        inst = instance_for(PostulateId.IC7, bounds, _trial_rng(4, 0))
        record = serialize_violation(PostulateId.IC7, "sigma", 0, inst)
        rebuilt = instance_from_record(record)
        assert rebuilt.groups == inst.groups
        assert rebuilt.constraints == inst.constraints
        assert rebuilt.literal == inst.literal

    def test_record_carries_model_lists(self):
        inst = co_owners_instance_a1()
        record = serialize_violation(PostulateId.A1, "sigma", 0, inst)
        assert record["lhs_models"]
        assert record["rhs_models"]
        assert record["vocabulary"] == ["I", "P", "S", "T"]
        assert record["literal"] == "!I"
        assert replay_violation(record)  # sigma really does violate A1 here

    def test_empty_group_is_a_bare_constraint_line(self):
        kbs = tuple(parse(kb) for kb in CO_OWNERS_KBS)
        mu = parse(CO_OWNERS_CONSTRAINT)
        inst = PostulateInstance(((kbs[2], kbs[3]), ()), (mu,), parse("!I"))
        record = serialize_violation(PostulateId.A1, "sigma", 0, inst)
        assert record["profiles"][1] == f"constraint: {format_formula(mu)}\n"
        assert instance_from_record(record) == inst

    def test_vacuous_instance_has_no_record(self):
        inst = PostulateInstance(((parse("p"),), (parse("q"),)),
                                 (parse("true"), parse("true")))
        with pytest.raises(ValueError, match="antecedent is false"):
            serialize_violation(PostulateId.IC3, "sigma", 0, inst)

    def test_mi_records_keep_the_sample_that_failed(self):
        # trial 8 holds for n = 2 copies and fails for n = 3
        bounds = GeneratorBounds(max_vars=4, max_kbs=3, seed=0)
        report = check_randomized(PostulateId.MI, "sigma", 15, bounds)
        assert 8 in [record["trial"] for record in report.violations]
        for record in report.violations:
            assert record["lhs_models"] != record["rhs_models"], record["trial"]
