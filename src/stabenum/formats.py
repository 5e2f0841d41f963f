"""Parsers and writers for the two community text formats.

Supported formats:

* ``apx`` -- logic-programming style facts, one ``arg(NAME).`` per argument
  and one ``att(A,B).`` per attack.  Names match ``[A-Za-z0-9_]+``; ``%``
  starts a comment; several facts may share a line.
* ``tgf`` -- trivial graph format: node lines (an id, optionally followed
  by a label that is ignored) up to a lone ``#`` line, then ``ID ID``
  edge lines.

Both accept LF or CRLF and ignore blank lines.  The parsers only lex:
:func:`~stabenum.framework.build` drops repeated declarations, which become
warnings, and rejects attacks on undeclared arguments.  Errors and warnings
carry a 1-based line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .framework import Framework, UnknownArgument, build


@dataclass(frozen=True)
class ParseDiagnostic:
    """A warning about the input; ``line`` is 1-based."""

    line: int
    message: str


class ParseError(ValueError):
    """Malformed input; ``line`` is 1-based."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


class MissingSeparator(ParseError):
    """A tgf document without the mandatory '#' line."""


_NAME = r"[A-Za-z0-9_]+"
_APX_ARG = re.compile(rf"arg\(({_NAME})\)\.")
_APX_ATT = re.compile(rf"att\(({_NAME}),({_NAME})\)\.")
_TOKEN = re.compile(_NAME)


def _build(
    names: list[str],
    name_lines: list[int],
    attacks: list[tuple[str, str]],
    attack_lines: list[int],
    diagnostics: list[ParseDiagnostic] | None,
) -> Framework:
    """Call :func:`build` and map the positions it reports to line numbers."""

    def warn(i: int, message: str) -> None:
        if diagnostics is not None:
            diagnostics.append(ParseDiagnostic(name_lines[i], message))

    try:
        return build(names, attacks, warn)
    except UnknownArgument as exc:
        exc.line = attack_lines[exc.index]
        raise


def parse_apx(text: str, diagnostics: list[ParseDiagnostic] | None = None) -> Framework:
    """Parse apx facts into a framework.

    Attacks may precede the declarations they refer to.
    """
    names: list[str] = []
    name_lines: list[int] = []
    attacks: list[tuple[str, str]] = []
    attack_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("%", 1)[0]
        pos = 0
        end = len(line)
        while pos < end:
            if line[pos].isspace():
                pos += 1
                continue
            m = _APX_ARG.match(line, pos)
            if m:
                names.append(m.group(1))
                name_lines.append(lineno)
                pos = m.end()
                continue
            m = _APX_ATT.match(line, pos)
            if m:
                attacks.append(m.groups())
                attack_lines.append(lineno)
                pos = m.end()
                continue
            raise ParseError(f"malformed fact near {line[pos:pos + 20]!r}", lineno)
    return _build(names, name_lines, attacks, attack_lines, diagnostics)


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
    return _build(names, name_lines, attacks, attack_lines, diagnostics)


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
