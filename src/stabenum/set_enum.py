"""Set-based backtracking enumeration of stable extensions.

The search state is four disjoint argument sets: ``chosen`` (the extension
under construction), ``defeated`` (arguments attacked by it), ``choice``
(still free to join) and ``tabu`` (excluded, but not yet attacked).  Forced
moves are applied to a fixpoint before every two-way branch; a branch is
abandoned as soon as some tabu argument can no longer become attacked.

This engine favours readability over speed; states are small immutable
values copied per branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .framework import Framework, attacked_by, attackers_of, initial_partition
from .strategies import NO_PROBE, PickStrategy, Probe, lowest_index


@dataclass(frozen=True)
class SetState:
    chosen: frozenset[int]
    defeated: frozenset[int]
    choice: frozenset[int]
    tabu: frozenset[int]


def start_state(f: Framework) -> SetState:
    choice, tabu = initial_partition(f)
    return SetState(frozenset(), frozenset(), choice, tabu)


def dead_end(state: SetState, f: Framework) -> bool:
    """True iff some tabu argument can never become attacked on this branch."""
    blocked = state.defeated | state.tabu
    return any(
        all(y in blocked for y in f.pred[x])
        for x in state.tabu
    )


def forced_in(state: SetState, f: Framework) -> frozenset[int]:
    """Choice arguments whose attackers are all neutralized; they must join."""
    blocked = state.defeated | state.tabu
    return frozenset(
        x for x in state.choice
        if all(y in blocked for y in f.pred[x])
    )


def sole_attacker(state: SetState, f: Framework) -> int | None:
    """A choice argument that is the only remaining attacker of some tabu argument.

    Witnesses are scanned in index order, so the result is deterministic
    when several tabu arguments qualify.
    """
    for x in sorted(state.tabu):
        remaining = [y for y in f.pred[x] if y in state.choice]
        if len(remaining) == 1:
            return remaining[0]
    return None


def apply_join(state: SetState, f: Framework, delta: frozenset[int]) -> SetState:
    """Move ``delta`` (a conflict-free subset of choice) into the extension."""
    if not delta:
        return state
    delta_plus = attacked_by(f, delta)
    delta_minus = attackers_of(f, delta)
    defeated = state.defeated | delta_plus
    return SetState(
        chosen=state.chosen | delta,
        defeated=defeated,
        choice=state.choice - (delta | delta_plus | delta_minus),
        tabu=(state.tabu | delta_minus) - defeated,
    )


def is_solution(state: SetState) -> bool:
    return not state.choice and not state.tabu


def propagate(state: SetState, f: Framework, probe: Probe = NO_PROBE) -> SetState | None:
    """Apply every forced move; ``None`` means the branch cannot be completed.

    ``probe`` sees each forced argument and the state after each join.
    """
    while True:
        if dead_end(state, f):
            probe.dead_end(state)
            return None
        alpha = forced_in(state, f)
        if alpha:
            for x in sorted(alpha):
                probe.force(state, x)
            state = apply_join(state, f, alpha)
            probe.state(state, True)
        beta = sole_attacker(state, f)
        if beta is not None:
            probe.force(state, beta)
            state = apply_join(state, f, frozenset((beta,)))
            probe.state(state, True)
        if not alpha and beta is None:
            return state


def enumerate_extensions(
    f: Framework,
    pick: PickStrategy = lowest_index,
    sink: Callable[[tuple[int, ...]], None] | None = None,
    *,
    probe: Probe = NO_PROBE,
    limit: int | None = None,
) -> int:
    """Report every stable extension exactly once; returns how many were found.

    ``pick`` selects the branching argument among the remaining choice set;
    ``probe`` sees every branch, forced argument and dead end, and every
    state the search moves to, all quiescent; ``limit`` stops the search
    once that many extensions were delivered.
    """
    found = 0

    def visit(state: SetState) -> bool:
        nonlocal found
        after = propagate(state, f, probe)
        if after is None:
            return False
        if not after.choice:
            if not after.tabu:
                found += 1
                if sink is not None:
                    sink(tuple(sorted(after.chosen)))
                if limit is not None and found >= limit:
                    return True
            return False
        x = pick(f, sorted(after.choice))
        probe.branch(after, x)
        include = apply_join(after, f, frozenset((x,)))
        probe.state(include, True)
        if visit(include):
            return True
        exclude = SetState(after.chosen, after.defeated,
                           after.choice - {x}, after.tabu | {x})
        probe.state(exclude, True)
        return visit(exclude)

    visit(start_state(f))
    return found
