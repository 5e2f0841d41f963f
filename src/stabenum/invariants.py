"""Executable forms of the search-state invariants.

Both engines run these through a :class:`Checker` probe at every quiescent
search state; a failure means the engine corrupted its own bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .framework import Framework, attacked_by, attackers_of
from .strategies import Probe

if TYPE_CHECKING:  # pragma: no cover
    from .label_enum import LabelState
    from .set_enum import SetState


class InvariantViolation(RuntimeError):
    """A search state broke one of its structural invariants."""


@dataclass
class Checker(Probe):
    """Probe that runs ``check(f, state)`` at every quiescent search state."""

    f: Framework
    check: Callable[[Framework, Any], None]

    def state(self, state: Any, quiescent: bool) -> None:
        if quiescent:
            self.check(self.f, state)


def check_set_state(f: Framework, state: "SetState") -> None:
    """Validate the four-set search state of the set-based engine."""
    universe = frozenset(range(f.n))
    chosen_plus = attacked_by(f, state.chosen)
    if state.defeated != chosen_plus:
        raise InvariantViolation(
            f"defeated {sorted(state.defeated)} != targets of chosen {sorted(chosen_plus)}"
        )
    if state.chosen & state.defeated:
        raise InvariantViolation(
            f"chosen and defeated overlap: {sorted(state.chosen & state.defeated)}"
        )
    blocked = state.chosen | chosen_plus | attackers_of(f, state.chosen)
    if state.choice & blocked:
        raise InvariantViolation(
            f"choice contains settled arguments: {sorted(state.choice & blocked)}"
        )
    expected_tabu = universe - (state.chosen | chosen_plus | state.choice)
    if state.tabu != expected_tabu:
        raise InvariantViolation(
            f"tabu {sorted(state.tabu)} != complement {sorted(expected_tabu)}"
        )


def check_label_state(f: Framework, state: "LabelState") -> None:
    """Validate labels and counters of the label-based engine.

    Checks the label partition against the set-based invariants, that
    every maintained counter of a blank or must-out argument is fresh,
    and that the counter shortcuts coincide with the set conditions they
    stand for.
    """
    from .label_enum import BLANK, IN, MUST_OUT, OUT

    universe = frozenset(range(f.n))
    ins = frozenset(x for x in universe if state.mu[x] == IN)
    outs = frozenset(x for x in universe if state.mu[x] == OUT)
    blanks = frozenset(x for x in universe if state.mu[x] == BLANK)
    must_outs = frozenset(x for x in universe if state.mu[x] == MUST_OUT)

    chosen_plus = attacked_by(f, ins)
    if outs != chosen_plus:
        raise InvariantViolation(
            f"out labels {sorted(outs)} != targets of in labels {sorted(chosen_plus)}"
        )
    if ins & chosen_plus:
        raise InvariantViolation(f"in arguments attack each other: {sorted(ins & chosen_plus)}")
    blocked = ins | chosen_plus | attackers_of(f, ins)
    if blanks & blocked:
        raise InvariantViolation(f"blank labels on settled arguments: {sorted(blanks & blocked)}")
    if must_outs != universe - (ins | chosen_plus | blanks):
        raise InvariantViolation("must-out labels are not the complement of in/out/blank")

    for x in blanks | must_outs:
        fresh = sum(1 for y in f.pred[x] if state.mu[y] == BLANK)
        if state.pi[x] != fresh:
            raise InvariantViolation(
                f"stale counter for {f.names[x]}: {state.pi[x]} != {fresh}"
            )

    for x in universe:
        blank_attackers = [y for y in f.pred[x] if state.mu[y] == BLANK]
        attackers_blocked = all(state.mu[y] in (OUT, MUST_OUT) for y in f.pred[x])
        if (state.mu[x] == MUST_OUT and state.pi[x] == 0) != (
            x in must_outs and attackers_blocked
        ):
            raise InvariantViolation(f"zero-counter shortcut wrong for excluded {f.names[x]}")
        if (state.mu[x] == BLANK and state.pi[x] == 0) != (
            x in blanks and attackers_blocked
        ):
            raise InvariantViolation(f"zero-counter shortcut wrong for blank {f.names[x]}")
        if (state.mu[x] == MUST_OUT and state.pi[x] == 1) != (
            x in must_outs and len(blank_attackers) == 1
        ):
            raise InvariantViolation(f"one-counter shortcut wrong for {f.names[x]}")
