"""Parsers and writers for the two community text formats.

Supported formats:

* ``apx`` -- logic-programming style facts, one ``arg(NAME).`` per argument
  and one ``att(A,B).`` per attack.  Names match ``[A-Za-z0-9_]+``; ``%``
  starts a comment; several facts may share a line.
* ``tgf`` -- trivial graph format: node lines (an id, optionally followed
  by a label that is ignored) up to a lone ``#`` line, then ``ID ID``
  edge lines.

Both ignore blank lines.  Lines end where ``str.splitlines`` ends them: at
LF, CRLF, and also a lone CR, VT, FF, FS/GS/RS, NEL, U+2028 and U+2029; the
same boundaries end an apx ``%`` comment.  The parsers only lex:
:func:`~stabenum.framework.build` drops repeated declarations, which become
warnings, and rejects attacks on undeclared arguments.  Errors and warnings
carry a 1-based line number.  apx is lexed in one regex pass, and its line
numbers are worked out only when a diagnostic is reported.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cache
from itertools import accumulate
from typing import IO, Callable, Iterable, Sequence

from .framework import Framework, Frozen, UnknownArgument, build


class ParseDiagnostic(Frozen):
    """A warning about the input; ``line`` is 1-based.

    Diagnostics are immutable (see :class:`~stabenum.framework.Frozen`) and
    equal, and hash alike, when their line and message are.
    """

    __slots__ = ("line", "message")

    def __init__(self, line: int, message: str) -> None:
        self._fill(line, message)


class ParseError(ValueError):
    """Malformed input; ``line`` is 1-based."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


class MissingSeparator(ParseError):
    """A tgf document without the mandatory '#' line."""


_NAME = r"[A-Za-z0-9_]+"
# the line boundaries of str.splitlines, as regex escapes; each ends a comment
_EOL = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
# One apx token per match: an arg fact (group 1), an att fact (groups 2 and
# 3), a comment (no group) or a stray character (group 4), which is an error;
# its match runs to the end of the text, so lexing stops at the first error.
# Whitespace (``\s`` is ``str.isspace``) matches nothing and is skipped.
_APX = re.compile(
    rf"arg\(({_NAME})\)\.|att\(({_NAME}),({_NAME})\)\.|%[^{_EOL}]*|(\S)[\s\S]*"
)
_TOKEN = re.compile(_NAME)


def _build(
    names: list[str],
    attacks: list[tuple[str, str]],
    fact_lines: Callable[[], tuple[Sequence[int], Sequence[int]]],
    diagnostics: list[ParseDiagnostic] | None,
) -> Framework:
    """Call :func:`build` and map the positions it reports to line numbers.

    ``fact_lines()`` gives the 1-based lines of ``names`` and of ``attacks``;
    it is called only for a diagnostic.
    """

    def warn(i: int, message: str) -> None:
        if diagnostics is not None:
            diagnostics.append(ParseDiagnostic(fact_lines()[0][i], message))

    try:
        return build(names, attacks, warn)
    except UnknownArgument as exc:
        exc.line = fact_lines()[1][exc.index]
        raise


def _lex_apx(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The names of the arg facts and the pairs of the att facts, in order."""
    tokens = _APX.findall(text)
    if tokens and tokens[-1][3]:
        pos = next(m.start() for m in _APX.finditer(text) if m.lastindex == 4)
        lineno = len(text[:pos + 1].splitlines())  # text[pos] is no line break
        # the line from pos, less its comment: no '%' precedes pos on the
        # line, or pos would be inside one
        near = text[pos:pos + 20].splitlines()[0].split("%", 1)[0]
        raise ParseError(f"malformed fact near {near!r}", lineno)
    return [name for name, _, _, _ in tokens if name], [(a, b) for _, a, b, _ in tokens if a]


def parse_apx(text: str, diagnostics: list[ParseDiagnostic] | None = None) -> Framework:
    """Parse apx facts into a framework.

    Attacks may precede the declarations they refer to.  The text is lexed
    in one pass; line numbers are worked out only for a diagnostic.
    """
    names, attacks = _lex_apx(text)

    @cache
    def fact_lines() -> tuple[list[int], list[int]]:
        # the offsets where lines start; offset pos is on line bisect_right(starts, pos)
        starts = [0, *accumulate(map(len, text.splitlines(keepends=True)))]
        name_lines: list[int] = []
        attack_lines: list[int] = []
        for m in _APX.finditer(text):
            if m.lastindex == 1:
                name_lines.append(bisect_right(starts, m.start()))
            elif m.lastindex == 3:
                attack_lines.append(bisect_right(starts, m.start()))
        return name_lines, attack_lines

    return _build(names, attacks, fact_lines, diagnostics)


def parse_tgf(text: str, diagnostics: list[ParseDiagnostic] | None = None) -> Framework:
    """Parse trivial graph format into a framework."""
    names: list[str] = []
    name_lines: list[int] = []
    attacks: list[tuple[str, str]] = []
    attack_lines: list[int] = []
    lines = text.splitlines()
    in_edges = False
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            if in_edges:
                raise ParseError("second '#' separator", lineno)
            in_edges = True
            continue
        tokens = line.split()
        if not in_edges:
            node = tokens[0]
            if not _TOKEN.fullmatch(node):
                raise ParseError(f"invalid node id {node!r}", lineno)
            names.append(node)
            name_lines.append(lineno)
            # remaining tokens form a display label and are ignored
        else:
            if len(tokens) != 2:
                raise ParseError("edge lines take exactly two ids", lineno)
            for endpoint in tokens:
                if not _TOKEN.fullmatch(endpoint):
                    raise ParseError(f"invalid node id {endpoint!r}", lineno)
            attacks.append((tokens[0], tokens[1]))
            attack_lines.append(lineno)
    if not in_edges:
        raise MissingSeparator("missing '#' separator", len(lines) + 1)
    return _build(names, attacks, lambda: (name_lines, attack_lines), diagnostics)


def write_apx(f: Framework) -> str:
    lines = [f"arg({name})." for name in f.names]
    lines += [f"att({f.names[x]},{f.names[y]})." for x, y in f.attacks]
    return "".join(line + "\n" for line in lines)


def write_tgf(f: Framework) -> str:
    lines = list(f.names)
    lines.append("#")
    lines += [f"{f.names[x]} {f.names[y]}" for x, y in f.attacks]
    return "".join(line + "\n" for line in lines)


def format_extension(members: Iterable[int], names: Sequence[str]) -> str:
    """Render one extension as ``[name1,name2,...]`` in argument-index order."""
    return "[" + ",".join(names[x] for x in sorted(members)) + "]"


def write_extensions(
    extensions: Iterable[Iterable[int]], names: Sequence[str], sink: IO[str]
) -> str:
    """Write extensions to ``sink``, one per line; returns the text written."""
    text = "".join([format_extension(ext, names) + "\n" for ext in extensions])
    sink.write(text)
    return text
