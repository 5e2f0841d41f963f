"""Directed attack graphs with constant-time access to attackers and targets.

Also home to :class:`Frozen`, the base of the package's immutable values.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable


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


class Frozen:
    """Base of the immutable value classes.

    A subclass declares its fields in ``__slots__`` and sets them once in
    ``__init__`` through :meth:`_fill`.  Its value is its fields in slot
    order, or only those named in ``_value_fields`` when the class sets it:
    instances of one class are equal, and hash alike, when their values
    are, and the repr shows the value as keyword arguments.  Assigning to or
    deleting a field raises :class:`AttributeError`.
    """

    __slots__ = ()
    _value_fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_value_fields" not in vars(cls):
            cls._value_fields = cls.__slots__

    def _fill(self, *values: object) -> None:
        """Set the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._value_fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._value_fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Framework(Frozen):
    """An immutable directed graph of arguments and attacks.

    Argument indices are dense, contiguous and follow declaration order;
    ``names`` maps them back to their external labels.  ``succ[x]`` holds
    the targets of ``x`` and ``pred[x]`` its attackers, both sorted and
    duplicate-free.  Instances never change after construction and are
    safe to share read-only between concurrent searches (see
    :class:`Frozen`).  Two frameworks are equal, and hash alike, when their
    ``names`` and ``attacks`` are; the other fields are derived from those
    two.
    """

    __slots__ = ("names", "attacks", "succ", "pred", "self_loop")
    _value_fields = ("names", "attacks")

    def __init__(self, names: tuple[str, ...], attacks: Iterable[tuple[int, int]]) -> None:
        """Each attack is a pair of indices in ``range(len(names))``; a
        repeated attack is dropped, the first of its occurrences kept."""
        pairs = tuple(dict.fromkeys(attacks))
        n = len(names)
        succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        self_loop = [False] * n
        for x, y in pairs:
            succ[x].append(y)
            pred[y].append(x)
            if x == y:
                self_loop[x] = True
        for targets in succ:
            targets.sort()
        for attackers in pred:
            attackers.sort()
        self._fill(names, pairs, tuple(map(tuple, succ)), tuple(map(tuple, pred)),
                   tuple(self_loop))

    @property
    def n(self) -> int:
        return len(self.names)


def build(
    names: Iterable[str],
    attacks: Iterable[tuple[str, str]],
    warn: Callable[[int, str], None] | None = None,
) -> Framework:
    """Assemble a :class:`Framework` from declared names and name pairs.

    Repeated declarations are dropped, and :class:`Framework` drops repeated
    attacks; ``warn(i, message)`` is told about each repeated name, ``i``
    being its position in ``names``.  The first attack with an endpoint
    missing from ``names`` raises :class:`UnknownArgument`.
    """
    names = list(names)
    ordered = tuple(dict.fromkeys(names))
    index = dict(zip(ordered, range(len(ordered))))
    if warn is not None and len(ordered) < len(names):
        seen: set[str] = set()
        for i, name in enumerate(names):
            if name in seen:
                warn(i, f"duplicate argument {name!r}")
            seen.add(name)

    attacks = list(attacks)
    try:
        resolved = [(index[a], index[b]) for a, b in attacks]
    except KeyError:
        i, a, b = next(
            (i, a, b) for i, (a, b) in enumerate(attacks) if a not in index or b not in index
        )
        endpoint = a if a not in index else b
        raise UnknownArgument(
            f"attack ({a},{b}) uses undeclared argument {endpoint!r}", i
        ) from None
    return Framework(ordered, resolved)


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
