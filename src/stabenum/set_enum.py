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

from collections.abc import Iterator, Sequence

from .framework import Framework, Frozen, attacked_by, attackers_of, initial_partition
from .strategies import NO_PROBE, Probe, Sink, deliver, search_order


class SetState(Frozen):
    """One search state: four disjoint argument sets.

    States are immutable (see :class:`~stabenum.framework.Frozen`) and
    equal, and hash alike, when all four sets are equal.
    """

    __slots__ = ("chosen", "defeated", "choice", "tabu")

    def __init__(
        self,
        chosen: frozenset[int],
        defeated: frozenset[int],
        choice: frozenset[int],
        tabu: frozenset[int],
    ) -> None:
        self._fill(chosen, defeated, choice, tabu)


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
            probe.state(state)
        beta = sole_attacker(state, f)
        if beta is not None:
            probe.force(state, beta)
            state = apply_join(state, f, frozenset((beta,)))
            probe.state(state)
        if not alpha and beta is None:
            return state


def extensions(
    f: Framework, order: Sequence[int], probe: Probe = NO_PROBE
) -> Iterator[tuple[int, ...]]:
    """Yield every stable extension once, its arguments ascending.

    The search branches on the first argument of the permutation ``order``
    that is still in the choice set, trying it in and then out; the
    out-branches still to try wait on an explicit stack, so the depth of the
    search is not bounded by Python's recursion limit.  ``probe`` sees every
    branch, forced argument and dead end, and every state the search moves
    to.  The search advances only when the next extension is asked for.
    """
    # (state, x) per branch on x whose out-branch is still to try
    pending: list[tuple[SetState, int]] = []
    state = start_state(f)
    while True:
        after = propagate(state, f, probe)
        if after is not None and after.choice:
            x = next(y for y in order if y in after.choice)
            probe.branch(after, x)
            pending.append((after, x))
            state = apply_join(after, f, frozenset((x,)))
        else:
            if after is not None:
                # choice is empty, so a tabu argument would have been a dead end
                assert is_solution(after)
                yield tuple(sorted(after.chosen))
            if not pending:
                return
            after, x = pending.pop()
            state = SetState(after.chosen, after.defeated,
                             after.choice - {x}, after.tabu | {x})
        probe.state(state)


def enumerate_extensions(
    f: Framework,
    order: Sequence[int] | None = None,
    sink: Sink | None = None,
    *,
    probe: Probe = NO_PROBE,
    limit: int | None = None,
) -> int:
    """Report every stable extension exactly once; returns how many were found.

    The search is :func:`extensions` in the permutation ``order`` (``lex`` for
    None), checked before it starts; ``limit``, at least 1, stops it once that
    many extensions were delivered to ``sink``."""
    return deliver(extensions(f, search_order(f, order), probe), sink, limit)
