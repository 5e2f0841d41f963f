"""Directed attack graphs with constant-time access to attackers and targets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable


class UnknownArgument(ValueError):
    """An attack endpoint that was never declared.

    ``index`` is the position of the attack among those given to
    :func:`build`; a parser sets ``line`` to the attack's 1-based line.
    """

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.message = message
        self.index = index
        self.line: int | None = None


@dataclass(frozen=True)
class Framework:
    """An immutable directed graph of arguments and attacks.

    Argument indices are dense, contiguous and follow declaration order;
    ``names`` maps them back to their external labels.  ``succ[x]`` holds
    the targets of ``x`` and ``pred[x]`` its attackers, both sorted and
    duplicate-free.  Instances never change after :func:`build` and are
    safe to share read-only between concurrent searches.
    """

    names: tuple[str, ...]
    attacks: tuple[tuple[int, int], ...]
    succ: tuple[tuple[int, ...], ...] = field(compare=False)
    pred: tuple[tuple[int, ...], ...] = field(compare=False)
    self_loop: tuple[bool, ...] = field(compare=False)
    index_of: dict[str, int] = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.names)


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

    n = len(ordered)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for x, y in pairs:
        succ[x].append(y)
        pred[y].append(x)
    return Framework(
        names=tuple(ordered),
        attacks=tuple(pairs),
        succ=tuple(tuple(sorted(t)) for t in succ),
        pred=tuple(tuple(sorted(t)) for t in pred),
        self_loop=tuple((x, x) in seen for x in range(n)),
        index_of=index,
    )


def attacked_by(f: Framework, args: Iterable[int]) -> frozenset[int]:
    """All arguments attacked by some member of ``args``."""
    out: set[int] = set()
    for x in args:
        out.update(f.succ[x])
    return frozenset(out)


def attackers_of(f: Framework, args: Iterable[int]) -> frozenset[int]:
    """All arguments attacking some member of ``args``."""
    out: set[int] = set()
    for x in args:
        out.update(f.pred[x])
    return frozenset(out)


def initial_partition(f: Framework) -> tuple[frozenset[int], frozenset[int]]:
    """Split the arguments into the starting (choice, tabu) pair.

    Self-attackers can never join an extension, so they start excluded;
    everything else is initially free to join.
    """
    tabu = frozenset(x for x in range(f.n) if f.self_loop[x])
    choice = frozenset(range(f.n)) - tabu
    return choice, tabu
