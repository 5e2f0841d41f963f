"""Branch-selection strategies and the search probe shared by both engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .framework import Framework

PickStrategy = Callable[[Framework, Sequence[int]], int]


class Probe:
    """Receives the search events of either engine; every method is a no-op.

    Each method gets the engine's live state, which exposes ``chosen`` (the
    extension under construction) and ``choice`` (the arguments still free
    to join).  Read them only when needed: on ``label`` states each read is
    an O(n) scan.
    """

    def state(self, state: Any, quiescent: bool) -> None:
        """A search state boundary; ``quiescent`` states have consistent bookkeeping."""

    def branch(self, state: Any, x: int) -> None:
        """The search branches on ``x``, trying it in and then out."""

    def force(self, state: Any, x: int) -> None:
        """``x`` belongs to every stable completion of ``state``."""

    def dead_end(self, state: Any) -> None:
        """``state`` has no stable completion."""


NO_PROBE = Probe()


class FanOut(Probe):
    """Forwards every event to each of ``probes``, in order."""

    def __init__(self, *probes: Probe) -> None:
        self.probes = probes

    def state(self, state: Any, quiescent: bool) -> None:
        for probe in self.probes:
            probe.state(state, quiescent)

    def branch(self, state: Any, x: int) -> None:
        for probe in self.probes:
            probe.branch(state, x)

    def force(self, state: Any, x: int) -> None:
        for probe in self.probes:
            probe.force(state, x)

    def dead_end(self, state: Any) -> None:
        for probe in self.probes:
            probe.dead_end(state)


@dataclass
class SearchStats(Probe):
    """Probe that counts branches and forced arguments (propagations)."""

    branches: int = 0
    propagations: int = 0

    def branch(self, state: Any, x: int) -> None:
        self.branches += 1

    def force(self, state: Any, x: int) -> None:
        self.propagations += 1


def lowest_index(f: Framework, candidates: Sequence[int]) -> int:
    return min(candidates)


def max_out_degree(f: Framework, candidates: Sequence[int]) -> int:
    # ties broken towards the lowest index
    return max(candidates, key=lambda x: (len(f.succ[x]), -x))


def max_in_degree(f: Framework, candidates: Sequence[int]) -> int:
    return max(candidates, key=lambda x: (len(f.pred[x]), -x))


STRATEGIES: dict[str, PickStrategy] = {
    "lex": lowest_index,
    "max-out": max_out_degree,
    "max-in": max_in_degree,
}
