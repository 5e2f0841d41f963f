"""Directed attack graphs with constant-time access to attackers and targets.

Also home to :class:`Frozen`, the base of the package's immutable values.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from itertools import count


class UnknownArgument(ValueError):
    """An attack endpoint that was never declared.

    ``index`` is the position of the attack among those given to
    :func:`assemble` or :func:`build`; a parser sets ``line`` to the
    attack's 1-based line.
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
    ``names`` maps them back to their external labels.  The attack relation
    is stored once, as adjacency: ``succ[x]`` holds the targets of ``x`` and
    ``pred[x]`` its attackers, both sorted and repeat-free, and
    ``self_loop[x]`` tells whether ``x`` attacks itself.  ``attacks`` is
    derived from ``succ``: every attack once, by attacker, then target,
    whatever order the attacks were given in.  Two frameworks are equal, and
    hash alike, when their ``names`` and ``attacks`` are, so the attacks
    compare as a set, as R in (A, R).  Instances never change after
    construction and are safe to share read-only between concurrent searches
    (see :class:`Frozen`).
    """

    __slots__ = ("names", "succ", "pred", "self_loop")
    _value_fields = ("names", "attacks")

    def __init__(self, names: tuple[str, ...], attacks: Iterable[tuple[int, int]]) -> None:
        """Each attack is a pair of indices in ``range(len(names))``, in any
        order; a repeated attack counts once.

        Each attack is filed once, under its target, and each ``pred[y]`` is
        sorted and its repeats dropped; walking the targets in ascending
        order then gives every ``succ[x]`` sorted and repeat-free, with no
        second sort.  Each ``succ[x]`` then becomes a tuple in place, so the
        lists and the tuples are not held at once."""
        n = len(names)
        pred: list = [[] for _ in range(n)]
        # each target's own int, not a new one from enumerate: where the
        # attacks use one int object per argument, as the parsers' do, succ
        # and pred then share it
        target: list = [None] * n
        for x, y in attacks:
            pred[y].append(x)
            target[y] = y
        _canonical(pred)
        succ: list = [[] for _ in range(n)]
        for y, attackers in zip(target, pred):
            for x in attackers:
                succ[x].append(y)
        for x, targets in enumerate(succ):
            succ[x] = tuple(targets)
        self._fill(names, tuple(succ), tuple(pred),
                   tuple([x in attackers for x, attackers in enumerate(pred)]))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def attacks(self) -> tuple[tuple[int, int], ...]:
        """Every attack ``(x, y)`` once, by attacker ``x``, then target ``y``."""
        return tuple([(x, y) for x, targets in enumerate(self.succ) for y in targets])


def _canonical(lists: list) -> None:
    """Sort each list, drop its repeats and make it a tuple, in place."""
    for i, items in enumerate(lists):
        if len(items) > 1:
            items.sort()
            unique = set(items)
            if len(unique) < len(items):
                items = sorted(unique)
        lists[i] = tuple(items)


def assemble(
    names: list[str],
    declared: list[int],
    attackers: list[int],
    targets: list[int],
    warn: Callable[[int, str], None] | None = None,
) -> Framework:
    """Assemble a :class:`Framework` from numbered names.

    ``names[k]`` is the name numbered ``k``, and each number occurs in
    ``declared``, the numbers of the declarations in their order, or in an
    attack; attack ``i`` is ``(attackers[i], targets[i])``.  Repeated
    declarations are dropped, and :class:`Framework` counts a repeated
    attack once; ``warn(i, message)`` is told about each repeated name,
    ``i`` being its position in ``declared``.  The first attack with an
    undeclared endpoint raises :class:`UnknownArgument`.  Arguments are
    indexed in declaration order, so the attacks are renumbered only where
    the names were numbered in another order.
    """
    order = dict.fromkeys(declared)
    if warn is not None and len(order) < len(declared):
        seen: set[int] = set()
        for i, k in enumerate(declared):
            if k in seen:
                warn(i, f"duplicate argument {names[k]!r}")
            seen.add(k)
    if len(order) < len(names):
        i, a, b = next(
            (i, a, b) for i, (a, b) in enumerate(zip(attackers, targets))
            if a not in order or b not in order
        )
        endpoint = a if a not in order else b
        raise UnknownArgument(
            f"attack ({names[a]},{names[b]}) uses undeclared argument {names[endpoint]!r}", i
        )
    ordered = list(order)
    if ordered != list(range(len(ordered))):
        index = [0] * len(ordered)
        for i, k in enumerate(ordered):
            index[k] = i
        names = [names[k] for k in ordered]
        attackers = list(map(index.__getitem__, attackers))
        targets = list(map(index.__getitem__, targets))
        del index
    # freed here, not on return, so they do not add to the constructor's peak
    del order, ordered
    return Framework(tuple(names), zip(attackers, targets))


def build(
    names: Iterable[str],
    attacks: Iterable[tuple[str, str]],
    warn: Callable[[int, str], None] | None = None,
) -> Framework:
    """Assemble a :class:`Framework` from declared names and name pairs.

    Numbers each name where it first occurs and calls :func:`assemble`:
    repeated declarations are dropped, and :class:`Framework` counts a
    repeated attack once; ``warn(i, message)`` is told about each repeated
    name, ``i`` being its position in ``names``.  The first attack with an
    endpoint missing from ``names`` raises :class:`UnknownArgument`.
    """
    number = defaultdict(count().__next__)
    declared = list(map(number.__getitem__, names))
    attackers: list[int] = []
    targets: list[int] = []
    for a, b in attacks:
        attackers.append(number[a])
        targets.append(number[b])
    return assemble(list(number), declared, attackers, targets, warn)


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
