"""Exhaustive small-model check of both engines against the oracle.

Every framework on up to three arguments, self-attacks included, and a fixed
sample of those on four run through ``set`` and ``label`` in every branching
order.  Each run must report the oracle's extensions once each, pass its
state invariants at every state boundary, force only arguments that belong
to every stable completion of their state and meet dead ends only where no
completion is left; the two engines must branch on the same states and meet
their dead ends in the same order.  Forcing sequences are not compared: the
engines force in different orders by design.  Searching each independent part
of the order apart (:mod:`stabenum.split`) must write the single search's
lines in the same sequence, also with a cap of 0 stored characters, which
makes every split with more than one group give up, having written nothing,
while its first group's search is suspended.

Run as a script to sweep every framework on ``n`` arguments, or every
``stride``-th one if a stride follows::

    PYTHONPATH=src python tests/test_small_models.py 4
    PYTHONPATH=src python tests/test_small_models.py 5 335
"""

from __future__ import annotations

import sys
from itertools import product
from typing import Iterator

import pytest

from stabenum import label_enum, set_enum, split
from stabenum.formats import format_extension
from stabenum.framework import Framework, build
from stabenum.invariants import Checker, InvariantViolation, check_label_state, check_set_state
from stabenum.oracle import enumerate_bruteforce
from stabenum.strategies import STRATEGIES, FanOut, Probe

ENGINES = (("set", set_enum, check_set_state), ("label", label_enum, check_label_state))


def small_frameworks(n: int, stride: int = 1) -> Iterator[Framework]:
    """Every ``stride``-th framework on ``n`` arguments, ordered by the
    bitmask of their attacks over the n*n ordered pairs."""
    names = [f"a{i}" for i in range(n)]
    pairs = list(product(names, repeat=2))
    for mask in range(0, 1 << len(pairs), stride):
        yield build(names, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


class Witness(Probe):
    """Records branch events with their state and dead ends in order, each
    forced argument missing from a stable completion of its state and each
    dead end that has a stable completion."""

    def __init__(self, extensions: list[frozenset[int]]) -> None:
        self.extensions = extensions
        self.events: list[tuple] = []
        self.unsound: list[tuple] = []

    def _completions(self, state) -> list[frozenset[int]]:
        chosen = state.chosen
        upper = chosen | state.choice
        return [e for e in self.extensions if chosen <= e <= upper]

    def branch(self, state, x: int) -> None:
        self.events.append(("branch", state.chosen, state.choice, x))

    def dead_end(self, state) -> None:
        self.events.append(("dead_end",))
        if self._completions(state):
            self.unsound.append(("dead_end", sorted(state.chosen)))

    def force(self, state, x: int) -> None:
        if any(x not in e for e in self._completions(state)):
            self.unsound.append(("force", sorted(state.chosen), x))


def sweep(n: int, stride: int = 1) -> list[str]:
    """Check every ``stride``-th framework on ``n`` arguments in every order;
    returns one line per failure."""
    failures: list[str] = []
    for f in small_frameworks(n, stride):
        expected = enumerate_bruteforce(f)
        extensions = [frozenset(e) for e in expected]
        for order in sorted(STRATEGIES):
            tag = f"{order} {[(f.names[x], f.names[y]) for x, y in f.attacks]}"
            events = []
            for name, engine, check in ENGINES:
                found: list = []
                witness = Witness(extensions)
                probe = FanOut(Checker(f, check), witness)
                try:
                    engine.enumerate_extensions(f, STRATEGIES[order], found.append, probe=probe)
                except InvariantViolation as exc:
                    failures.append(f"{name} {tag}: {exc}")
                    continue
                if sorted(found) != expected:
                    failures.append(f"{name} {tag}: found {found}, expected {expected}")
                if witness.unsound:
                    failures.append(f"{name} {tag}: unsound events {witness.unsound}")
                lines = [format_extension(ext, f.names) + "\n" for ext in found]
                for cap in (split.MAX_STORED, 0):
                    product: list = []
                    stored, split.MAX_STORED = split.MAX_STORED, cap
                    try:
                        count = split.write(engine, f, STRATEGIES[order](f), product.append)
                    finally:
                        split.MAX_STORED = stored
                    if count is None and product:
                        failures.append(f"{name} {tag}: split with cap {cap} gave up after "
                                        f"writing {product}")
                    elif count is not None and (count, "".join(product)) != (
                        len(lines), "".join(lines)
                    ):
                        failures.append(f"{name} {tag}: split with cap {cap} wrote {count} "
                                        f"lines {product}, single search {lines}")
                events.append(witness.events)
            if len(events) == 2 and events[0] != events[1]:
                failures.append(f"{tag}: branch and dead-end events differ")
    return failures


@pytest.mark.parametrize("n, stride", [(0, 1), (1, 1), (2, 1), (3, 1), (4, 15)])
def test_small_models(n, stride):
    assert sweep(n, stride) == []


if __name__ == "__main__":
    failures = sweep(*map(int, sys.argv[1:]))
    print("\n".join(failures) or "no failures")
    sys.exit(1 if failures else 0)
