"""The profile file format: one constraint, one ``kb:`` line per KB.

::

    # comments run to end of line
    vars: a, b, c          # optional, widens the vocabulary
    constraint: <formula>  # optional (defaults to true), at most one
    kb: <formula>          # at least one; repetition = multiplicity
"""

from __future__ import annotations

import re

from .formula import TRUE, Formula, ParseError, format_formula, parse
from .merging import Profile
from .semantics import DEFAULT_VOCAB_CAP

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def parse_profile_parts(text: str) -> tuple[tuple[Formula, ...], Formula | None, tuple[str, ...]]:
    """Raw pieces of a profile file: KBs, constraint (None if absent),
    declared extra variables.  Does not require any ``kb:`` line."""
    kbs: list[Formula] = []
    constraint: Formula | None = None
    extra: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if not sep or key not in ("vars", "constraint", "kb"):
            raise ParseError("expected a 'vars:', 'constraint:' or 'kb:' line",
                             lineno, 1)
        if key == "vars":
            for name in re.split(r"[,\s]+", value):
                if not name:
                    continue
                if not _NAME_RE.match(name) or name in ("true", "false"):
                    raise ParseError(f"bad variable name {name!r}", lineno, 1)
                extra.append(name)
        elif key == "constraint":
            if constraint is not None:
                raise ParseError("a profile admits only one constraint line", lineno, 1)
            constraint = _parse_formula(value, lineno)
        else:
            kbs.append(_parse_formula(value, lineno))
    return tuple(kbs), constraint, tuple(sorted(set(extra)))


def parse_profile(text: str, cap: int = DEFAULT_VOCAB_CAP) -> Profile:
    """Parse a profile file into a :class:`Profile` compiled under ``cap``.

    Raises :class:`ParseError` on malformed text,
    :class:`VocabularyCapError` if the vocabulary exceeds ``cap`` and
    :class:`InconsistentKBError` if some KB has no models.
    """
    kbs, constraint, extra = parse_profile_parts(text)
    if not kbs:
        raise ParseError("a profile needs at least one kb line", 1, 1)
    return Profile(kbs, TRUE if constraint is None else constraint,
                   extra_vars=extra, cap=cap)


def _parse_formula(text: str, lineno: int) -> Formula:
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{exc.message} (in the formula on this line)",
                         lineno, exc.column, exc.token) from None


def profile_to_text(profile: Profile) -> str:
    """Render a profile back into the file format; parsing the result gives
    an equal profile over the same vocabulary."""
    lines = []
    vocab = profile.vocabulary
    if vocab:
        lines.append("vars: " + ", ".join(vocab))
    lines.append("constraint: " + format_formula(profile.constraint))
    lines.extend("kb: " + format_formula(kb) for kb in profile.kbs)
    return "\n".join(lines) + "\n"
