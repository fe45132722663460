"""Batch command line: merge, forget, dilate, equiv, check.

Primary output goes to stdout and is byte-identical across identical
invocations; diagnostics and warnings go to stderr.  Exit codes:

    0  success
    1  a claimed-pass postulate cell recorded a violation
    2  parse error (formula or profile file), including a formula nested
       deeper than ``formula.MAX_DEPTH`` levels
    3  invalid input: inconsistent KB, a vocabulary over the cap, a
       ``--max-vocab`` outside 0..``semantics.MAX_VOCAB_CAP``, bad bounds,
       or a file that cannot be read or written
    4  inconsistent integrity constraint (degenerate false result printed)
    5  the two formulas of ``equiv`` are not equivalent
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from typing import Sequence

from .formula import ParseError, format_formula, parse, variables
from .forgetting import _dilated_models, forget
from .merging import InconsistentKBError, MergeResult, OPERATORS
from .postulates import (
    CLAIMED_PASS,
    EXPECTED_FAIL,
    GeneratorBounds,
    PostulateId,
    check_randomized,
)
from .profile_io import parse_profile
from .semantics import (
    DEFAULT_VOCAB_CAP,
    InconsistentFormulaError,
    Interpretation,
    MAX_VOCAB_CAP,
    MERGE_WARN_VARS,
    UnknownVariableError,
    VocabularyCapError,
    _iter_masks,
    models,
    to_dnf,
    truth_vector,
    vocabulary_union,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE_ERROR = 2
EXIT_INVALID_INPUT = 3
EXIT_INCONSISTENT_CONSTRAINT = 4
EXIT_NOT_EQUIVALENT = 5


@functools.cache  # built on the first main() call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefmerge",
        description="Merge propositional knowledge bases under integrity constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    merge = sub.add_parser("merge", help="merge the KBs of a profile file")
    merge.add_argument("-f", "--input", required=True, help="profile file")
    merge.add_argument("-o", "--operator", required=True, choices=sorted(OPERATORS))
    merge.add_argument("--format", choices=("dnf", "models", "table"), default="dnf")
    merge.set_defaults(func=_cmd_merge)

    forget_cmd = sub.add_parser("forget", help="forget variables in a formula")
    forget_cmd.add_argument("formula", nargs="?", help="formula text")
    forget_cmd.add_argument("-f", "--input", help="file holding one formula")
    forget_cmd.add_argument("--vars", required=True,
                            help="comma-separated variables to forget")
    forget_cmd.set_defaults(func=_cmd_forget)

    dilate_cmd = sub.add_parser("dilate", help="grow a formula's models by distance n")
    dilate_cmd.add_argument("formula", nargs="?", help="formula text")
    dilate_cmd.add_argument("-f", "--input", help="file holding one formula")
    dilate_cmd.add_argument("-n", type=int, required=True, help="distance bound")
    dilate_cmd.set_defaults(func=_cmd_dilate)

    equiv = sub.add_parser("equiv", help="decide equivalence of two formulas")
    equiv.add_argument("left")
    equiv.add_argument("right")
    equiv.set_defaults(func=_cmd_equiv)

    check = sub.add_parser("check", help="run randomized postulate suites")
    check.add_argument("-o", "--operator", required=True, choices=sorted(OPERATORS))
    check.add_argument("--postulates", default="all",
                       help="comma-separated postulate names, or 'all'")
    check.add_argument("--trials", type=int, default=100)
    check.add_argument("--max-vars", type=int, default=4)
    check.add_argument("--max-kbs", type=int, default=3)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--report", help="write violation records to this JSON file")
    check.set_defaults(func=_cmd_check)

    for command in sub.choices.values():
        command.add_argument("--max-vocab", type=int, default=DEFAULT_VOCAB_CAP)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not 0 <= args.max_vocab <= MAX_VOCAB_CAP:
            raise ValueError(f"--max-vocab must be between 0 and {MAX_VOCAB_CAP}")
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (InconsistentKBError, VocabularyCapError, UnknownVariableError,
            InconsistentFormulaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def run() -> None:
    raise SystemExit(main())


# ---------------------------------------------------------------------------
# commands

def _cmd_merge(args) -> int:
    with open(args.input, encoding="utf-8") as handle:
        profile = parse_profile(handle.read(), cap=args.max_vocab)
    if len(profile.vocabulary) > MERGE_WARN_VARS:
        print(f"warning: merging over {len(profile.vocabulary)} variables "
              f"enumerates 2^{len(profile.vocabulary)} assignments",
              file=sys.stderr)
    result = OPERATORS[args.operator](profile)
    print(_render(result, args.format))
    _print_evidence(result)
    if result.degenerate_constraint:
        print("warning: the integrity constraint is inconsistent; "
              "the merge is degenerate", file=sys.stderr)
        return EXIT_INCONSISTENT_CONSTRAINT
    return EXIT_OK


def _render(result: MergeResult, fmt: str) -> str:
    if fmt == "dnf":
        return format_formula(result.formula)
    model_set = result.model_set
    if fmt == "models":
        lines = ["vars: " + " ".join(model_set.vocabulary)]
        lines.extend(model_set.bitstrings())
        return "\n".join(lines)
    header = " ".join(model_set.vocabulary)
    lines = [header, "-" * len(header)]
    lines.extend(" ".join(row) for row in model_set.bitstrings())
    return "\n".join(lines)


def _print_evidence(result: MergeResult) -> None:
    if result.k is not None:
        print(f"k = {result.k}", file=sys.stderr)
    if result.distance_tuple is not None:
        print("T = (" + ", ".join(str(d) for d in result.distance_tuple) + ")",
              file=sys.stderr)
    if result.forgetting_family is not None:
        rendered = ", ".join("{" + ", ".join(v) + "}" for v in result.forgetting_family)
        print(f"FS = {rendered if rendered else '(none)'}", file=sys.stderr)


def _load_formula(args):
    if (args.formula is None) == (args.input is None):
        raise ValueError("give exactly one of: a formula argument, --input FILE")
    if args.input is not None:
        with open(args.input, encoding="utf-8") as handle:
            return parse(handle.read())
    return parse(args.formula)


def _split_names(listing: str) -> tuple[str, ...]:
    names = tuple(dict.fromkeys(n.strip() for n in listing.split(",") if n.strip()))
    if not names:
        raise ValueError("--vars needs at least one variable name")
    return names


def _cmd_forget(args) -> int:
    formula = _load_formula(args)
    names = _split_names(args.vars)
    kept = tuple(v for v in variables(formula) if v not in set(names))
    remainder = forget(formula, names)
    model_set = models(remainder, kept, cap=args.max_vocab)
    print(format_formula(to_dnf(model_set)))
    print(f"models: {len(model_set)}")
    return EXIT_OK


def _cmd_dilate(args) -> int:
    formula = _load_formula(args)
    ball = _dilated_models(formula, args.n, cap=args.max_vocab)
    print(format_formula(to_dnf(ball)))
    print(f"models: {len(ball)}")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    left = parse(args.left)
    right = parse(args.right)
    vocab = vocabulary_union(left, right)
    left_vec = truth_vector(left, vocab, cap=args.max_vocab)
    right_vec = truth_vector(right, vocab, cap=args.max_vocab)
    if left_vec == right_vec:
        print("equivalent")
        return EXIT_OK
    rendered = str(Interpretation.from_mask(vocab, next(_iter_masks(left_vec ^ right_vec))))
    print("not equivalent")
    print(f"differs at: {rendered if rendered else '(the empty assignment)'}")
    return EXIT_NOT_EQUIVALENT


def _parse_postulates(listing: str) -> list[PostulateId]:
    if listing.strip().lower() == "all":
        return list(PostulateId)
    chosen = []
    for token in listing.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            chosen.append(PostulateId(token))
        except ValueError:
            known = ", ".join(p.value for p in PostulateId)
            raise ValueError(f"unknown postulate {token!r}; known: {known}") from None
    if not chosen:
        raise ValueError("--postulates selected nothing")
    return chosen


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    postulates = _parse_postulates(args.postulates)
    bounds = GeneratorBounds(max_vars=args.max_vars, max_kbs=args.max_kbs,
                             seed=args.seed)
    # opened before the first cell, so an unwritable path costs no run
    with (open(args.report, "w", encoding="utf-8") if args.report
          else nullcontext()) as report:
        cells, gate_failures = _run_cells(args, postulates, bounds)
        if report is not None:
            payload = {
                "operator": args.operator,
                "trials": args.trials,
                "seed": args.seed,
                "max_vars": args.max_vars,
                "max_kbs": args.max_kbs,
                "cells": [{
                    "postulate": cell.postulate.value,
                    "verdict": cell.verdict,
                    "trials": cell.trials,
                    "violations": list(cell.violations),
                } for cell in cells],
            }
            json.dump(payload, report, indent=2, sort_keys=True)
            report.write("\n")
    return EXIT_VIOLATION if gate_failures else EXIT_OK


def _run_cells(args, postulates, bounds):
    """Run and print every cell; return the reports and how many
    claimed-pass cells recorded a violation."""
    claimed = CLAIMED_PASS.get(args.operator, frozenset())
    expected_fail = EXPECTED_FAIL.get(args.operator, frozenset())
    gate_failures = 0
    cells = []
    for pid in postulates:
        report = check_randomized(pid, args.operator, args.trials, bounds,
                                  cap=args.max_vocab)
        cells.append(report)
        hits = len(report.violations)
        if pid in expected_fail:
            if hits:
                print(f"{args.operator} {pid.value}: witness found "
                      f"({hits} violations in {report.trials} trials)")
                _print_witness(report.violations[0])
            else:
                print(f"{args.operator} {pid.value}: no witness found "
                      f"(inconclusive) ({report.trials} trials)")
            continue
        print(f"{args.operator} {pid.value}: {report.verdict} "
              f"({hits} violations in {report.trials} trials)")
        if hits:
            _print_witness(report.violations[0])
            if pid in claimed:
                gate_failures += 1
    return cells, gate_failures


def _print_witness(record: dict) -> None:
    print(f"  witness (trial {record['trial']}):")
    for i, text in enumerate(record["profiles"], start=1):
        print(f"    group {i}:")
        for line in text.strip().splitlines():
            print(f"      {line}")
    if len(record["constraints"]) > 1:
        print(f"    second constraint: {record['constraints'][1]}")
    if record.get("literal"):
        print(f"    literal: {record['literal']}")


if __name__ == "__main__":
    run()
