"""Branching orders and the search probe shared by both engines."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import islice

from .framework import Framework

# receives each extension reported, its arguments ascending
Sink = Callable[[tuple[int, ...]], None]


def search_order(f: Framework, order: Sequence[int] | None) -> Sequence[int]:
    """The branching order ``order``, ``range(f.n)`` for None; ``ValueError``
    for an order that is not a sequence or not a permutation."""
    if order is None or (type(order) is range and order == range(f.n)):
        return range(f.n)
    if not isinstance(order, Sequence):
        # an iterator would be used up by the check below
        raise ValueError(f"branching order is not a permutation of range({f.n}) "
                         f"in a sequence: got {type(order).__name__}")
    if sorted(order) != list(range(f.n)):
        raise ValueError(f"branching order is not a permutation of range({f.n})")
    return order


def deliver(extensions: Iterable[tuple[int, ...]], sink: Sink | None, limit: int | None) -> int:
    """Pass ``sink`` each of the first ``limit`` (all, for None) of
    ``extensions`` and return how many there were, never drawing one more;
    ``ValueError`` for a limit below 1, before the first is drawn."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    count = 0
    for count, ext in enumerate(islice(extensions, limit), 1):
        if sink is not None:
            sink(ext)
    return count


class Probe:
    """Receives the search events of either engine; every method is a no-op.

    Each method gets the engine's live state, which exposes ``chosen`` (the
    extension under construction) and ``choice`` (the arguments still free
    to join).  Read them only when needed: on ``label`` states each read is
    an O(n) scan.  The engines call a probe only when one is passed in:
    they call no method of :data:`NO_PROBE`, so patching this class does
    not see a search run without a probe; count through a probe instead.
    """

    def state(self, state: object) -> None:
        """A search state boundary with consistent bookkeeping; not a dead end."""

    def branch(self, state: object, x: int) -> None:
        """The search branches on ``x``, trying it in and then out."""

    def force(self, state: object, x: int) -> None:
        """``x`` belongs to every stable completion of ``state``."""

    def dead_end(self, state: object) -> None:
        """``state`` has no stable completion."""


NO_PROBE = Probe()
"""The default probe: the engines test for it by identity and never call it."""


class FanOut(Probe):
    """Forwards every event to each of ``probes``, in order."""

    def __init__(self, *probes: Probe) -> None:
        self.probes = probes

    def state(self, state: object) -> None:
        for probe in self.probes:
            probe.state(state)

    def branch(self, state: object, x: int) -> None:
        for probe in self.probes:
            probe.branch(state, x)

    def force(self, state: object, x: int) -> None:
        for probe in self.probes:
            probe.force(state, x)

    def dead_end(self, state: object) -> None:
        for probe in self.probes:
            probe.dead_end(state)


class SearchStats(Probe):
    """Probe that counts branches and forced arguments (propagations).

    Stats are mutable and compare by identity.
    """

    def __init__(self) -> None:
        self.branches = 0
        self.propagations = 0

    def branch(self, state: object, x: int) -> None:
        self.branches += 1

    def force(self, state: object, x: int) -> None:
        self.propagations += 1


def lex_order(f: Framework) -> Sequence[int]:
    return range(f.n)


def max_out_order(f: Framework) -> Sequence[int]:
    # ties broken towards the lowest index
    return sorted(range(f.n), key=lambda x: (-len(f.succ[x]), x))


def max_in_order(f: Framework) -> Sequence[int]:
    return sorted(range(f.n), key=lambda x: (-len(f.pred[x]), x))


STRATEGIES: dict[str, Callable[[Framework], Sequence[int]]] = {
    "lex": lex_order,
    "max-out": max_out_order,
    "max-in": max_in_order,
}
