"""The profile file format: one constraint, one ``kb:`` line per KB.

::

    # comments run to end of line
    vars: a, b, c          # optional, widens the vocabulary
    constraint: <formula>  # optional (defaults to true), at most one
    kb: <formula>          # at least one; repetition = multiplicity
"""

from __future__ import annotations

import re
from typing import Sequence

from .formula import TRUE, Formula, ParseError, format_formula, parse
from .merging import Profile
from .semantics import DEFAULT_VOCAB_CAP

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_LINE_END_RE = re.compile(r"\r\n?|\n")


def parse_profile_parts(text: str) -> tuple[tuple[Formula, ...], Formula | None, tuple[str, ...]]:
    """Raw pieces of a profile file: KBs, constraint (None if absent),
    declared extra variables.  Does not require any ``kb:`` line.  Lines
    end at a line feed, a carriage return or both, as in a file read in
    text mode; ``str.splitlines`` would also end them at form feeds and
    other separators, which shifts every later line number."""
    kbs: list[Formula] = []
    constraint: Formula | None = None
    extra: list[str] = []
    for lineno, raw in enumerate(_LINE_END_RE.split(text), start=1):
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
            constraint = _parse_formula(value, raw, lineno)
        else:
            kbs.append(_parse_formula(value, raw, lineno))
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


def _parse_formula(text: str, raw: str, lineno: int) -> Formula:
    """Parse ``text``, the value of the file line ``raw``.  An error gives
    its column in the file: the value starts at the first non-blank after
    the colon (``raw.index(value)`` would find the key in ``kb: kb``)."""
    try:
        return parse(text)
    except ParseError as exc:
        after = raw[raw.index(":") + 1:]
        start = len(raw) - len(after.lstrip())
        raise ParseError(f"{exc.message} (in the formula on this line)",
                         lineno, start + exc.column, exc.token) from None


def profile_to_text(profile: Profile) -> str:
    """Render a profile back into the file format; parsing the result gives
    an equal profile over the same vocabulary."""
    return format_profile(profile.kbs, profile.constraint, profile.extra_vars)


def format_profile(kbs: Sequence[Formula], constraint: Formula,
                   extra_vars: Sequence[str] = ()) -> str:
    """File-format text of KBs (there may be none), a constraint and extra names."""
    lines = []
    if extra_vars:
        lines.append("vars: " + ", ".join(extra_vars))
    lines.append("constraint: " + format_formula(constraint))
    lines.extend("kb: " + format_formula(kb) for kb in kbs)
    return "\n".join(lines) + "\n"
