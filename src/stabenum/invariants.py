"""Executable forms of the search-state invariants.

Both engines run these through a :class:`Checker` probe at every search
state boundary; a failure means the engine corrupted its own bookkeeping.
"""

from __future__ import annotations

from typing import Any, Callable

from .framework import Framework, attacked_by, attackers_of
from .label_enum import BLANK, IN, MUST_OUT, OUT, LabelState
from .set_enum import SetState
from .strategies import Probe


class InvariantViolation(RuntimeError):
    """A search state broke one of its structural invariants."""


class Checker(Probe):
    """Probe that runs ``check(f, state)`` at every search state boundary.

    Checkers are mutable and compare by identity.
    """

    def __init__(self, f: Framework, check: Callable[[Framework, Any], None]) -> None:
        self.f = f
        self.check = check

    def state(self, state: Any) -> None:
        self.check(self.f, state)


def _check_partition(
    f: Framework,
    chosen: frozenset[int],
    defeated: frozenset[int],
    choice: frozenset[int],
    tabu: frozenset[int],
) -> None:
    """Check that the four sets of a search state partition the arguments.

    ``defeated`` is what ``chosen`` attacks, ``chosen`` is conflict-free, no
    argument in ``choice`` is settled by ``chosen`` and ``tabu`` is the rest.
    """
    chosen_plus = attacked_by(f, chosen)
    if defeated != chosen_plus:
        raise InvariantViolation(
            f"defeated {sorted(defeated)} != targets of chosen {sorted(chosen_plus)}"
        )
    if chosen & defeated:
        raise InvariantViolation(f"chosen and defeated overlap: {sorted(chosen & defeated)}")
    blocked = chosen | chosen_plus | attackers_of(f, chosen)
    if choice & blocked:
        raise InvariantViolation(f"choice contains settled arguments: {sorted(choice & blocked)}")
    expected_tabu = frozenset(range(f.n)) - (chosen | chosen_plus | choice)
    if tabu != expected_tabu:
        raise InvariantViolation(f"tabu {sorted(tabu)} != complement {sorted(expected_tabu)}")


def check_set_state(f: Framework, state: SetState) -> None:
    """Validate the four-set search state of the set-based engine."""
    _check_partition(f, state.chosen, state.defeated, state.choice, state.tabu)


def check_label_state(f: Framework, state: LabelState) -> None:
    """Validate labels and counters of the label-based engine.

    Checks the label partition against the set-based invariants, that
    every argument's counter is fresh, and that propagation is complete: no
    must-out argument is left without a blank attacker, and every argument a
    trigger forces is queued.  A fresh counter counts the attackers that are
    blank or in and do not attack themselves, which are exactly those that
    have not left blank through a relabelling that decrements it.  Then
    checks the engine's own bookkeeping: every queued argument is on the
    worklist heap.
    """
    universe = range(f.n)
    ins = frozenset(x for x in universe if state.mu[x] == IN)
    outs = frozenset(x for x in universe if state.mu[x] == OUT)
    blanks = frozenset(x for x in universe if state.mu[x] == BLANK)
    must_outs = frozenset(x for x in universe if state.mu[x] == MUST_OUT)
    _check_partition(f, ins, outs, blanks, must_outs)

    for x in universe:
        fresh = sum(1 for y in f.pred[x] if not f.self_loop[y] and state.mu[y] in (BLANK, IN))
        if state.pi[x] != fresh:
            raise InvariantViolation(
                f"stale counter for {f.names[x]}: {state.pi[x]} != {fresh}"
            )

    for x in sorted(must_outs):
        if state.pi[x] == 0:
            raise InvariantViolation(f"must-out {f.names[x]} has no blank attacker left")
        if state.pi[x] == 1:
            (y,) = (y for y in f.pred[x] if state.mu[y] == BLANK)
            if y not in state.gamma:
                raise InvariantViolation(
                    f"last blank attacker {f.names[y]} of must-out {f.names[x]} is not queued"
                )
    for x in sorted(blanks):
        if state.pi[x] == 0 and x not in state.gamma:
            raise InvariantViolation(f"unattacked blank {f.names[x]} is not queued")

    off_heap = state.gamma.difference(state.heap)
    if off_heap:
        raise InvariantViolation(
            f"queued arguments missing from the heap: {[f.names[x] for x in sorted(off_heap)]}"
        )
