"""Benchmark-local reference answers, independent of the engine's algorithms.

Inputs are DNFs: a formula is a list of cubes and a cube maps a variable
name to its required value.  Truth tables use the engine's public encoding
(bit ``m`` is set iff assignment mask ``m`` is a model, the first variable
is the most significant bit of the mask), but everything is computed here
by other means: distances come from Hamming balls grown one flip at a time,
and the forgetting operators come from the conflict sets of cube choices,
which is exact for DNF knowledge bases.
"""

from __future__ import annotations

from itertools import product
from math import comb

Cube = dict
Dnf = list


class Space:
    """All assignments over a sorted vocabulary, as big-int truth tables."""

    def __init__(self, names):
        self.names = tuple(names)
        self.n = len(self.names)
        size = 1 << self.n
        self.full = (1 << size) - 1
        self.weight = {}
        self.pattern = {}
        for j, name in enumerate(self.names):
            weight = 1 << (self.n - 1 - j)
            self.weight[name] = weight
            self.pattern[name] = _pattern(weight, size)

    def cube(self, cube: Cube) -> int:
        table = self.full
        for name, value in cube.items():
            table &= self.pattern[name] if value else self.full ^ self.pattern[name]
        return table

    def dnf(self, cubes: Dnf) -> int:
        table = 0
        for cube in cubes:
            table |= self.cube(cube)
        return table

    def flip(self, table: int, name: str) -> int:
        weight, high = self.weight[name], self.pattern[name]
        return ((table & high) >> weight) | ((table & (self.full ^ high)) << weight)

    def dilate(self, table: int) -> int:
        """Models within Hamming distance one of a model of ``table``."""
        grown = table
        for name in self.names:
            grown |= self.flip(table, name)
        return grown

    def balls(self, table: int) -> list[int]:
        """``balls[k]`` holds the assignments within distance k of ``table``,
        up to the first k whose ball is the whole space."""
        layers = [table]
        while layers[-1] != self.full:
            layers.append(self.dilate(layers[-1]))
        return layers

    def mask(self, cube: Cube) -> int:
        """Mask of a cube that fixes every variable."""
        return sum(self.weight[name] for name, value in cube.items() if value)


def _pattern(weight: int, size: int) -> int:
    block = ((1 << weight) - 1) << weight
    pattern, span = block, weight << 1
    while span < size:
        pattern |= pattern << span
        span <<= 1
    return pattern


def masks_of(table: int) -> list[int]:
    out = []
    while table:
        low = table & -table
        out.append(low.bit_length() - 1)
        table ^= low
    return out


def cube_text(cube: Cube) -> str:
    return " & ".join(name if value else "!" + name for name, value in sorted(cube.items()))


def dnf_text(cubes: Dnf) -> str:
    if len(cubes) == 1:
        return cube_text(cubes[0])
    return " | ".join("(" + cube_text(cube) + ")" for cube in cubes)


def dnf_vars(cubes: Dnf) -> set:
    return set().union(*(cube.keys() for cube in cubes))


# ---------------------------------------------------------------------------
# distance operators

def distance_merge(space: Space, kbs: list[Dnf], mu: Dnf, operator: str):
    """Winning masks and the evidence line of ``sigma``, ``max`` or ``gmax``."""
    mu_masks = masks_of(space.dnf(mu))
    layers = [space.balls(space.dnf(kb)) for kb in kbs]
    best, winners = None, []
    for mask in mu_masks:
        bit = 1 << mask
        dists = [next(k for k, ball in enumerate(balls) if ball & bit) for balls in layers]
        if operator == "sigma":
            key = sum(dists)
        elif operator == "max":
            key = max(dists)
        else:
            key = tuple(sorted(dists, reverse=True))
        if best is None or key < best:
            best, winners = key, [mask]
        elif key == best:
            winners.append(mask)
    if operator == "gmax":
        evidence = "T = (" + ", ".join(str(d) for d in best) + ")"
    else:
        evidence = f"k = {best}"
    return winners, evidence


def pair_evals(space: Space, kbs: list[Dnf], mu: Dnf) -> int:
    """Distance evaluations of the pairwise loop: constraint models times the
    summed model counts of the distinct KBs."""
    distinct = {dnf_text(kb): space.dnf(kb) for kb in kbs}
    return space.dnf(mu).bit_count() * sum(t.bit_count() for t in distinct.values())


# ---------------------------------------------------------------------------
# shared-forgetting operators

def _conflicts(cubes) -> frozenset:
    seen, clash = {}, set()
    for cube in cubes:
        for name, value in cube.items():
            if seen.setdefault(name, value) != value:
                clash.add(name)
    return frozenset(clash)


def family_merge(space: Space, kbs: list[Dnf], mu: Dnf, by_inclusion: bool):
    """Forgotten-set family and winning table of ``f1`` (cardinality-minimal)
    or ``f2`` (inclusion-minimal).

    A choice of one cube per KB and one constraint cube becomes consistent
    after forgetting V from the KBs exactly when V covers the variables on
    which the chosen cubes clash; the successful V are the supersets of
    those clash sets.
    """
    pool = sorted(set().union(*(dnf_vars(kb) for kb in kbs)))
    index = {name: i for i, name in enumerate(pool)}
    choices = list(product(*kbs, mu))
    clashes = {_conflicts(choice) for choice in choices}
    if by_inclusion:
        found = [c for c in clashes if not any(o < c for o in clashes)]
    else:
        least = min(len(c) for c in clashes)
        found = [c for c in clashes if len(c) == least]
    family = sorted((tuple(sorted(c, key=index.__getitem__)) for c in found),
                    key=lambda names: (len(names), [index[v] for v in names]))
    table = 0
    for names in family:
        forgotten = set(names)
        for choice in choices:
            if _conflicts(choice) <= forgotten:
                *kb_cubes, mu_cube = choice
                kept = [{v: b for v, b in cube.items() if v not in forgotten}
                        for cube in kb_cubes]
                term = space.cube(mu_cube)
                for cube in kept:
                    term &= space.cube(cube)
                table |= term
    return family, table, len(pool)


def family_text(family) -> str:
    rendered = ", ".join("{" + ", ".join(names) + "}" for names in family)
    return f"FS = {rendered if rendered else '(none)'}"


def subsets_bound(pool_size: int, family) -> int:
    """Candidate shared sets up to the largest reported forgotten set."""
    top = max((len(names) for names in family), default=0)
    return sum(comb(pool_size, i) for i in range(top + 1))


def parse_family(line: str):
    """Forgotten-set family from the ``FS = ...`` evidence line."""
    body = line.partition("=")[2].strip()
    if body in ("", "(none)"):
        return []
    return [tuple(v.strip() for v in part.strip(" {}").split(",") if v.strip())
            for part in body.split("}")[:-1]]


# ---------------------------------------------------------------------------
# reading answers back

def parse_minterms(text: str, space: Space) -> list[int]:
    """Masks of a full-minterm DNF over ``space``; raises ValueError if a
    term is not a full minterm of the vocabulary."""
    text = text.strip()
    if text == "false":
        return []
    out = []
    for term in text.split(" | "):
        bits = {}
        for literal in term.split(" & "):
            name = literal.lstrip("!")
            if name not in space.weight or name in bits:
                raise ValueError(f"bad literal {literal!r}")
            bits[name] = not literal.startswith("!")
        if len(bits) != space.n:
            raise ValueError(f"term {term!r} is not a full minterm")
        out.append(space.mask(bits))
    return out


def parse_bitstrings(lines: list[str], space: Space) -> list[int]:
    if not lines or lines[0] != "vars: " + " ".join(space.names):
        raise ValueError("missing or wrong 'vars:' header")
    out = []
    for row in lines[1:]:
        if len(row) != space.n or set(row) - {"0", "1"}:
            raise ValueError(f"bad model row {row!r}")
        out.append(int(row, 2))
    return out

