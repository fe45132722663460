"""Seeded request generators for the four workloads.

``generate(workload, seed, workdir)`` writes every input file under
``workdir`` and returns the request list.  The same seed writes the same
bytes.  Each request carries an independent check of its answer and the
input properties the report prints.  Every request is drawn inside a stated
cost band, measured by counts computed here rather than by timing, so that
one request costs about as much as the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref
from beliefmerge import Interpretation, evaluate, parse
from beliefmerge.postulates import CLAIMED_PASS, EXPECTED_FAIL, PostulateId

# merge-distance: 11 variables, 4 KBs, sigma/max/gmax in turn
DIST_VARS = 11
DIST_PAIRS = (285_000, 315_000)   # band on merging.pair_evals
DIST_MU_MODELS = (448, 704)
DIST_MAX_WINNERS = 8
DIST_REQUESTS = 120

# merge-forget: f1, f2, f2 in turn; three KBs agree with a hidden world and a
# fourth, listed last, dissents, so every candidate set checks all four KBs
FORGET_PLAN = {"f1": (14, 14, 5), "f2": (14, 12, 3)}  # op -> (vars, pool, |FS set|)
FORGET_CYCLE = ("f1", "f2", "f2")
FORGET_OWN_VARS = 8
FORGET_MAX_WINNERS = 64
FORGET_REQUESTS = 120

# wide-results: f1 --format dnf, f1 --format models and dilate -n 1 in this
# cycle; each cycle is dominated by one kind, so that the median and the tail
# each fall inside one kind's cost band rather than between two of them
WIDE_CYCLE = ("dnf", "models", "dnf", "dilate", "dnf")
WIDE_F1_VARS = 13
WIDE_F1_MODELS = 1024
WIDE_DILATE_VARS = 12
WIDE_DILATE_MODELS = (1100, 1300)
WIDE_REQUESTS = 60

# check-matrix: every operator x postulate cell, at the default bounds
CHECK_TRIALS = 10
CHECK_CYCLES = 20                 # many cell seeds, so the tail sees many Maj cells
CHECK_OPERATORS = ("sigma", "max", "gmax", "f1", "f2")


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable[[int, str, str], str | None]
    props: dict = field(default_factory=dict)


def _names(n: int) -> list[str]:
    return [f"x{i:02d}" for i in range(n)]


def _cube(rng: random.Random, names, size: int) -> dict:
    return {name: rng.random() < 0.5 for name in sorted(rng.sample(names, size))}


def _dnf(rng: random.Random, names, terms: tuple[int, int], size: tuple[int, int]) -> list:
    return [_cube(rng, names, rng.randint(*size)) for _ in range(rng.randint(*terms))]


def _profile_text(names, mu, kbs) -> str:
    lines = ["vars: " + ", ".join(names), "constraint: " + ref.dnf_text(mu)]
    lines.extend("kb: " + ref.dnf_text(kb) for kb in kbs)
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> str:
    path.write_bytes(text.encode("utf-8"))
    return str(path)


# ---------------------------------------------------------------------------
# answer checks

def _read_models(out: str, space: ref.Space, fmt: str) -> list[int]:
    if fmt == "models":
        return ref.parse_bitstrings(out.rstrip("\n").split("\n"), space)
    return ref.parse_minterms(out, space)


def _merge_check(space: ref.Space, mu_text: str, fmt: str, winners: list[int],
                 evidence: str):
    """The answer lists exactly the reference winners, each of which
    satisfies the constraint under the engine's per-assignment oracle, and
    the evidence line matches the reference."""
    expected = sorted(winners)

    def check(rc, out, err):
        if rc != 0:
            return f"exit code {rc}"
        if err != evidence + "\n":
            return f"evidence {err!r}, expected {evidence!r}"
        try:
            got = sorted(_read_models(out, space, fmt))
        except ValueError as exc:
            return f"unreadable answer: {exc}"
        if got != expected:
            return f"{len(got)} winners, expected {len(expected)}"
        mu = parse(mu_text)
        for mask in got:
            if not evaluate(mu, Interpretation.from_mask(space.names, mask)):
                return f"winner {mask} violates the constraint"
        return None
    return check


def _dilate_check(space: ref.Space, ball: list[int]):
    expected = sorted(ball)

    def check(rc, out, err):
        if rc != 0:
            return f"exit code {rc}"
        if err:
            return f"unexpected stderr {err!r}"
        body, _, tail = out.rstrip("\n").rpartition("\n")
        if tail != f"models: {len(expected)}":
            return f"count line {tail!r}"
        try:
            got = sorted(ref.parse_minterms(body, space))
        except ValueError as exc:
            return f"unreadable answer: {exc}"
        return None if got == expected else f"{len(got)} models, expected {len(expected)}"
    return check


def _cell_check(operator: str, postulate: PostulateId):
    """A claimed-pass cell exits 0 with no violations; every cell prints its
    verdict line first and nothing on stderr."""
    head = f"{operator} {postulate.value}: "
    claimed = postulate in CLAIMED_PASS.get(operator, frozenset())
    expected_fail = postulate in EXPECTED_FAIL.get(operator, frozenset())
    tail = f" in {CHECK_TRIALS} trials)"

    def check(rc, out, err):
        if rc != 0:
            return f"exit code {rc}"
        if err:
            return f"unexpected stderr {err!r}"
        first = out.split("\n", 1)[0]
        if not first.startswith(head):
            return f"verdict line {first!r}"
        verdict = first[len(head):]
        if claimed and not (verdict.startswith(("pass (0 violations", "bounded-pass (0 violations"))
                            and verdict.endswith(tail)):
            return f"claimed-pass cell reads {verdict!r}"
        if expected_fail and not verdict.startswith(("witness found (", "no witness found (")):
            return f"expected-fail cell reads {verdict!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# generators

def _merge_distance(rng: random.Random, workdir: Path) -> list[Request]:
    names = _names(DIST_VARS)
    space = ref.Space(names)
    operators = ("sigma", "max", "gmax")
    requests = []
    while len(requests) < DIST_REQUESTS:
        operator = operators[len(requests) % 3]
        kbs = [_dnf(rng, names, (1, 3), (3, 7)) for _ in range(4)]
        mu = _dnf(rng, names, (1, 2), (1, 3))
        mu_models = space.dnf(mu).bit_count()
        if not DIST_MU_MODELS[0] <= mu_models <= DIST_MU_MODELS[1]:
            continue
        pairs = ref.pair_evals(space, kbs, mu)
        if not DIST_PAIRS[0] <= pairs <= DIST_PAIRS[1]:
            continue
        winners, evidence = ref.distance_merge(space, kbs, mu, operator)
        if len(winners) > DIST_MAX_WINNERS:
            continue
        path = _write(workdir / f"distance-{len(requests):03d}.profile",
                      _profile_text(names, mu, kbs))
        requests.append(Request(
            f"merge -o {operator}", ["merge", "-f", path, "-o", operator],
            _merge_check(space, ref.dnf_text(mu), "dnf", winners, evidence),
            {"vars": len(names), "kbs": len(kbs),
             "kb_models": [space.dnf(kb).bit_count() for kb in kbs],
             "constraint_models": mu_models, "winners": len(winners),
             "pair_evals": pairs}))
    return requests


def _family_request(workdir, name, names, kbs, mu, operator, fmt, family,
                    table, pool) -> Request:
    space = ref.Space(names)
    winners = ref.masks_of(table)
    path = _write(workdir / name, _profile_text(names, mu, kbs))
    argv = ["merge", "-f", path, "-o", operator]
    if fmt != "dnf":
        argv += ["--format", fmt]
    return Request(
        f"merge -o {operator} --format {fmt}", argv,
        _merge_check(space, ref.dnf_text(mu), fmt, winners, ref.family_text(family)),
        {"vars": len(names), "kbs": len(kbs),
         "kb_models": [space.dnf(kb).bit_count() for kb in kbs],
         "constraint_models": space.dnf(mu).bit_count(), "winners": len(winners),
         "pool": pool, "family": len(family),
         "subsets_bound": ref.subsets_bound(pool, family)})


def _agreeing_kb(rng, own, world) -> list:
    """One or two cubes that agree with ``world`` and together mention
    exactly the variables ``own``."""
    if rng.random() < 0.5:
        return [{v: world[v] for v in own}]
    first = set(rng.sample(own, len(own) - 2))
    second = (set(own) - first) | set(rng.sample(sorted(first), 3))
    return [{v: world[v] for v in sorted(part)} for part in (first, second)]


def _dissent_profile(rng, pool, own_size, flips):
    """Three KBs and a constraint that agree with a hidden world, then a
    fourth KB that contradicts it on ``flips`` of its variables."""
    world = {v: rng.random() < 0.5 for v in pool}
    order = rng.sample(pool, len(pool))
    owns = [set(order[i::4]) for i in range(4)]   # every pool variable is used
    for own in owns:
        own.update(rng.sample([v for v in pool if v not in own], own_size - len(own)))
    kbs = [_agreeing_kb(rng, sorted(own), world) for own in owns[:3]]
    dissent = sorted(owns[3])
    flipped = set(rng.sample(dissent, flips))
    kbs.append([{v: world[v] != (v in flipped) for v in dissent}])
    mu = [{v: world[v] for v in sorted(rng.sample(pool, 2))}]
    return kbs, mu


def _merge_forget(rng: random.Random, workdir: Path) -> list[Request]:
    requests = []
    while len(requests) < FORGET_REQUESTS:
        operator = FORGET_CYCLE[len(requests) % len(FORGET_CYCLE)]
        n, pool_size, size = FORGET_PLAN[operator]
        names = _names(n)
        kbs, mu = _dissent_profile(rng, names[:pool_size], FORGET_OWN_VARS,
                                   rng.randint(size, size + 2))
        space = ref.Space(names)
        family, table, pool = ref.family_merge(space, kbs, mu, operator == "f2")
        if (len(family) != 1 or len(family[0]) != size
                or table.bit_count() > FORGET_MAX_WINNERS):
            continue
        requests.append(_family_request(
            workdir, f"forget-{len(requests):03d}.profile", names, kbs, mu,
            operator, "dnf", family, table, pool))
    return requests


def _wide_results(rng: random.Random, workdir: Path) -> list[Request]:
    requests = []
    while len(requests) < WIDE_REQUESTS:
        kind = WIDE_CYCLE[len(requests) % len(WIDE_CYCLE)]
        if kind != "dilate":
            names = _names(WIDE_F1_VARS)
            kbs = [[_cube(rng, names, rng.randint(2, 3))] for _ in range(3)]
            mu = [_cube(rng, names, 1)]
            space = ref.Space(names)
            family, table, pool = ref.family_merge(space, kbs, mu, False)
            if len(family) != 1 or table.bit_count() != WIDE_F1_MODELS:
                continue
            requests.append(_family_request(
                workdir, f"wide-{len(requests):03d}.profile", names, kbs, mu,
                "f1", kind, family, table, pool))
            continue
        names = _names(WIDE_DILATE_VARS)
        formula = _dnf(rng, names, (2, 3), (5, 8))
        if ref.dnf_vars(formula) != set(names):
            continue
        space = ref.Space(names)
        ball = space.dilate(space.dnf(formula))
        if not WIDE_DILATE_MODELS[0] <= ball.bit_count() <= WIDE_DILATE_MODELS[1]:
            continue
        path = _write(workdir / f"wide-{len(requests):03d}.formula",
                      ref.dnf_text(formula) + "\n")
        models = ref.masks_of(ball)
        requests.append(Request(
            "dilate -n 1", ["dilate", "-f", path, "-n", "1"],
            _dilate_check(space, models),
            {"vars": len(names), "kbs": 1,
             "kb_models": [space.dnf(formula).bit_count()], "winners": len(models)}))
    return requests


def _check_matrix(rng: random.Random, workdir: Path) -> list[Request]:
    requests = []
    for _ in range(CHECK_CYCLES):
        cell_seed = rng.randrange(1_000_000)
        for operator in CHECK_OPERATORS:
            for postulate in PostulateId:
                requests.append(Request(
                    f"check -o {operator}",
                    ["check", "-o", operator, "--postulates", postulate.value,
                     "--trials", str(CHECK_TRIALS), "--seed", str(cell_seed)],
                    _cell_check(operator, postulate),
                    {"seed": cell_seed}))
    return requests


GENERATORS = {
    "merge-distance": _merge_distance,
    "merge-forget": _merge_forget,
    "wide-results": _wide_results,
    "check-matrix": _check_matrix,
}

BANDS = {
    "merge-distance": f"merging.pair_evals in {DIST_PAIRS[0]}..{DIST_PAIRS[1]}, "
                      f"constraint models in {DIST_MU_MODELS[0]}..{DIST_MU_MODELS[1]}, "
                      f"at most {DIST_MAX_WINNERS} winners",
    "merge-forget": "cycle " + "/".join(FORGET_CYCLE) + "; " + ", ".join(f"{op} over {n} variables (pool {p}) with one FS set of {k}"
                              for op, (n, p, k) in FORGET_PLAN.items())
                    + f", KBs of {FORGET_OWN_VARS} variables, the dissenter last, "
                      f"at most {FORGET_MAX_WINNERS} winners",
    "wide-results": "cycle " + "/".join(WIDE_CYCLE) + "; " + f"f1 with exactly {WIDE_F1_MODELS} winners over {WIDE_F1_VARS} "
                    f"variables, dilate -n 1 balls of {WIDE_DILATE_MODELS[0]}.."
                    f"{WIDE_DILATE_MODELS[1]} models over {WIDE_DILATE_VARS} variables",
    "check-matrix": f"{len(CHECK_OPERATORS)} operators x {len(PostulateId)} postulates, "
                    f"{CHECK_TRIALS} trials a cell, default generator bounds, "
                    f"{CHECK_CYCLES} cell seeds",
}


def generate(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Write the inputs of ``workload`` for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
