"""The line-by-line apx lexer and the item-by-item ``build`` that
``stabenum.formats.parse_apx`` and ``stabenum.framework.build`` replaced,
kept as the references their tests compare against.

``build`` returns a :class:`Framework`, which derives its own adjacency, so
:func:`adjacency` keeps the item-by-item derivation of ``succ``, ``pred``
and ``self_loop`` apart from the constructor: the tests compare the fields
of the framework under test with it."""

from __future__ import annotations

import re
from typing import Callable, Iterable

from stabenum.formats import ParseDiagnostic, ParseError
from stabenum.framework import Framework, UnknownArgument


def build(
    names: Iterable[str],
    attacks: Iterable[tuple[str, str]],
    warn: Callable[[int, str], None] | None = None,
) -> Framework:
    """Assemble a :class:`Framework` from declared names and name pairs.

    Repeated declarations and repeated attacks are dropped; ``warn(i,
    message)`` is told about each repeated name, ``i`` being its position in
    ``names``.  The first attack with an endpoint missing from ``names``
    raises :class:`UnknownArgument`.
    """
    ordered: list[str] = []
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        if name in index:
            if warn is not None:
                warn(i, f"duplicate argument {name!r}")
            continue
        index[name] = len(ordered)
        ordered.append(name)

    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for i, (a, b) in enumerate(attacks):
        for endpoint in (a, b):
            if endpoint not in index:
                raise UnknownArgument(
                    f"attack ({a},{b}) uses undeclared argument {endpoint!r}", i
                )
        pair = (index[a], index[b])
        if pair in seen:
            continue
        seen.add(pair)
        pairs.append(pair)

    return Framework(tuple(ordered), tuple(pairs))


def adjacency(f: Framework) -> tuple:
    """``(succ, pred, self_loop)`` of ``f``, derived from its ``names`` and
    ``attacks`` one attack at a time."""
    succ: list[list[int]] = [[] for _ in range(f.n)]
    pred: list[list[int]] = [[] for _ in range(f.n)]
    for x, y in f.attacks:
        succ[x].append(y)
        pred[y].append(x)
    return (
        tuple(tuple(sorted(t)) for t in succ),
        tuple(tuple(sorted(t)) for t in pred),
        tuple((x, x) in f.attacks for x in range(f.n)),
    )


_NAME = r"[A-Za-z0-9_]+"
_APX_ARG = re.compile(rf"arg\(({_NAME})\)\.")
_APX_ATT = re.compile(rf"att\(({_NAME}),({_NAME})\)\.")


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
