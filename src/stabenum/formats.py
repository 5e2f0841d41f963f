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
same boundaries end an apx ``%`` comment.  The parsers only lex and number
each name when they first meet it, keeping the numbers of the declarations,
the attackers and the targets: :func:`~stabenum.framework.assemble` drops
repeated declarations, which become warnings, rejects attacks on undeclared
arguments and indexes the arguments in declaration order.  Errors and
warnings carry a 1-based line number.  apx is lexed by one regex, a window
of at least ``_WINDOW`` characters at a time, each ending just after a
``\n``; a window's tokens and strings are freed once its names are
numbered, and its line numbers are worked out only when a diagnostic is
reported.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from functools import cache
from io import TextIOBase
from itertools import accumulate, count
from operator import itemgetter

from .framework import Framework, Frozen, UnknownArgument
# the parsers look ``build`` up here at call time, so the benchmark's tracer
# can time the assembler by wrapping this name
from .framework import assemble as build


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
# its match runs to the end of the window, so lexing stops at the first
# error.  Whitespace (``\s`` is ``str.isspace``) matches nothing and is skipped.
_APX = re.compile(
    rf"arg\(({_NAME})\)\.|att\(({_NAME}),({_NAME})\)\.|%[^{_EOL}]*|(\S)[\s\S]*"
)
# the least number of characters in one window of the apx lexer
_WINDOW = 1 << 16
_TOKEN = re.compile(_NAME)
# the columns of an apx token; each is '' where the token is not of its kind
_ARG, _ATTACKER, _TARGET = itemgetter(0), itemgetter(1), itemgetter(2)


def _build(
    lexed: tuple[list[str], list[int], list[int], list[int]],
    fact_lines: Callable[[], tuple[Sequence[int], Sequence[int]]],
    diagnostics: list[ParseDiagnostic] | None,
) -> Framework:
    """Call :func:`~stabenum.framework.assemble`, here named ``build``, on
    ``lexed``: the names by number, the declared numbers, the attackers and
    the targets.  Map the positions it reports to line numbers.

    ``fact_lines()`` gives the 1-based lines of the declarations and of the
    attacks; it is called only for a diagnostic.
    """

    def warn(i: int, message: str) -> None:
        if diagnostics is not None:
            diagnostics.append(ParseDiagnostic(fact_lines()[0][i], message))

    try:
        return build(*lexed, warn)
    except UnknownArgument as exc:
        exc.line = fact_lines()[1][exc.index]
        raise


def _lex_apx(text: str) -> tuple[list[str], list[int], list[int], list[int]]:
    """The names by number, then the numbers of the arg facts, of the
    attackers and of the targets of the att facts, each in text order.

    A name is numbered when it is first met; within a window, the names of
    the arg facts are met before the endpoints of the att facts.  The text
    is lexed a window at a time, so only one window's tokens are held at
    once, and each name is kept once.
    """
    number = defaultdict(count().__next__)
    get = number.__getitem__
    declared: list[int] = []
    attackers: list[int] = []
    targets: list[int] = []
    start, end = 0, len(text)
    while start < end:
        # a window ends just after a '\n', which no fact or comment spans
        brk = text.find("\n", start + _WINDOW)
        stop = end if brk < 0 else brk + 1
        tokens = _APX.findall(text, start, stop)
        if tokens and tokens[-1][3]:
            pos = next(m.start() for m in _APX.finditer(text, start, stop) if m.lastindex == 4)
            lineno = len(text[:pos + 1].splitlines())  # text[pos] is no line break
            # the line from pos, less its comment: no '%' precedes pos on the
            # line, or pos would be inside one
            near = text[pos:pos + 20].splitlines()[0].split("%", 1)[0]
            raise ParseError(f"malformed fact near {near!r}", lineno)
        declared += map(get, filter(None, map(_ARG, tokens)))
        attackers += map(get, filter(None, map(_ATTACKER, tokens)))
        targets += map(get, filter(None, map(_TARGET, tokens)))
        start = stop
    return list(number), declared, attackers, targets


def parse_apx(text: str, diagnostics: list[ParseDiagnostic] | None = None) -> Framework:
    """Parse apx facts into a framework.

    Attacks may precede the declarations they refer to.  The text is lexed
    in windows; line numbers are worked out only for a diagnostic.
    """
    lexed = _lex_apx(text)

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

    return _build(lexed, fact_lines, diagnostics)


def parse_tgf(text: str, diagnostics: list[ParseDiagnostic] | None = None) -> Framework:
    """Parse trivial graph format into a framework."""
    number = defaultdict(count().__next__)
    declared: list[int] = []
    name_lines: list[int] = []
    attackers: list[int] = []
    targets: list[int] = []
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
            declared.append(number[node])
            name_lines.append(lineno)
            # remaining tokens form a display label and are ignored
        else:
            if len(tokens) != 2:
                raise ParseError("edge lines take exactly two ids", lineno)
            for endpoint in tokens:
                if not _TOKEN.fullmatch(endpoint):
                    raise ParseError(f"invalid node id {endpoint!r}", lineno)
            attackers.append(number[tokens[0]])
            targets.append(number[tokens[1]])
            attack_lines.append(lineno)
    if not in_edges:
        raise MissingSeparator("missing '#' separator", len(lines) + 1)
    lexed = list(number), declared, attackers, targets
    return _build(lexed, lambda: (name_lines, attack_lines), diagnostics)


def _check_names(f: Framework) -> None:
    """``ValueError`` naming the first name of ``f`` that is not ``_NAME``:
    the parsers would reject it, or read another name, in either format."""
    for name in f.names:
        if not _TOKEN.fullmatch(name):
            raise ValueError(f"argument name {name!r} does not match {_NAME}")


def write_apx(f: Framework) -> str:
    _check_names(f)
    lines = [f"arg({name})." for name in f.names]
    lines += [f"att({f.names[x]},{f.names[y]})." for x, y in f.attacks]
    return "".join(line + "\n" for line in lines)


def write_tgf(f: Framework) -> str:
    _check_names(f)
    lines = list(f.names)
    lines.append("#")
    lines += [f"{f.names[x]} {f.names[y]}" for x, y in f.attacks]
    return "".join(line + "\n" for line in lines)


def format_extension(members: Iterable[int], names: Sequence[str]) -> str:
    """Render one extension as ``[name1,name2,...]`` in argument-index order."""
    return "[" + ",".join([names[x] for x in sorted(members)]) + "]"


def write_extensions(
    extensions: Iterable[Iterable[int]], names: Sequence[str], sink: TextIOBase
) -> str:
    """Write extensions to ``sink``, one per line; returns the text written."""
    text = "".join([format_extension(ext, names) + "\n" for ext in extensions])
    sink.write(text)
    return text
