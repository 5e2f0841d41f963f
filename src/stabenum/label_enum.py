"""Label-and-counter search for stable extensions with trail-based undo.

Every argument always carries one of four labels: ``in`` (part of the
extension under construction), ``out`` (attacked by it), ``blank`` (still
free) or ``must_out`` (excluded but not yet attacked).  For every blank or
must-out argument, ``pi`` maintains the number of its attackers that are
still blank, so all propagation triggers are O(1) tests:

* a blank argument whose counter hits zero is forced into the extension,
* a must-out argument with exactly one blank attacker left forces that
  attacker in,
* a must-out argument whose counter hits zero kills the branch.

Forced arguments accumulate in the worklist ``gamma`` and are assigned by
:func:`drain`.  All mutations are journalled on a trail; backtracking
replays the journal backwards to a checkpoint, which restores ``mu``,
``pi`` and ``gamma`` exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from .framework import Framework
from .strategies import NO_PROBE, PickStrategy, Probe, lowest_index


class Label(enum.IntEnum):
    BLANK = 0
    IN = 1
    OUT = 2
    MUST_OUT = 3

    def json_name(self) -> str:
        return self.name.lower()


BLANK, IN, OUT, MUST_OUT = Label

# trail record kinds
_MU, _PI, _G_ADD, _G_DEL = range(4)


class UnbalancedRollback(RuntimeError):
    """rollback() was called without a matching checkpoint()."""


@dataclass
class LabelState:
    """Mutable search state: labels, counters, worklist, undo trail."""

    mu: list[Label]
    pi: list[int]
    gamma: set[int]
    trail: list[tuple[int, int, int]] = field(default_factory=list)
    checkpoints: list[int] = field(default_factory=list)

    def set_mu(self, x: int, label: Label) -> None:
        self.trail.append((_MU, x, self.mu[x]))
        self.mu[x] = label

    def dec_pi(self, x: int) -> None:
        self.trail.append((_PI, x, self.pi[x]))
        self.pi[x] -= 1

    def gamma_add(self, x: int) -> bool:
        """Enqueue ``x``; returns False if it was already queued."""
        if x in self.gamma:
            return False
        self.trail.append((_G_ADD, x, 0))
        self.gamma.add(x)
        return True

    def gamma_discard(self, x: int) -> None:
        if x in self.gamma:
            self.trail.append((_G_DEL, x, 0))
            self.gamma.remove(x)

    def checkpoint(self) -> None:
        self.checkpoints.append(len(self.trail))

    def rollback(self) -> None:
        """Undo every mutation since the matching checkpoint."""
        if not self.checkpoints:
            raise UnbalancedRollback("rollback without a matching checkpoint")
        mark = self.checkpoints.pop()
        while len(self.trail) > mark:
            kind, x, old = self.trail.pop()
            if kind == _MU:
                self.mu[x] = Label(old)
            elif kind == _PI:
                self.pi[x] = old
            elif kind == _G_ADD:
                self.gamma.discard(x)
            else:
                self.gamma.add(x)

    def members(self, label: Label) -> tuple[int, ...]:
        return tuple(x for x in range(len(self.mu)) if self.mu[x] == label)

    @property
    def chosen(self) -> frozenset[int]:
        """The in-labelled arguments, as the set engine's ``chosen``."""
        return frozenset(self.members(IN))

    @property
    def choice(self) -> frozenset[int]:
        """The blank arguments, as the set engine's ``choice``."""
        return frozenset(self.members(BLANK))


@dataclass(frozen=True)
class TraceEvent:
    """Snapshot of (labels, counters, worklist) at one search state."""

    state_id: int
    mu: dict[str, str]
    pi: dict[str, int]
    gamma: list[str]

    def as_dict(self) -> dict:
        return {
            "state_id": self.state_id,
            "mu": dict(self.mu),
            "pi": dict(self.pi),
            "gamma": list(self.gamma),
        }


def trace_event(state: LabelState, f: Framework, state_id: int) -> TraceEvent:
    return TraceEvent(
        state_id=state_id,
        mu={f.names[x]: state.mu[x].json_name() for x in range(f.n)},
        pi={f.names[x]: state.pi[x] for x in range(f.n)},
        gamma=[f.names[x] for x in sorted(state.gamma)],
    )


class Tracer(Probe):
    """Probe that sends a :class:`TraceEvent` to ``sink`` at every state boundary.

    Events are numbered from 1 in the order they occur.
    """

    def __init__(self, f: Framework, sink: Callable[[TraceEvent], None]) -> None:
        self.f = f
        self.sink = sink
        self.events = 0

    def state(self, state: LabelState, quiescent: bool) -> None:
        self.events += 1
        self.sink(trace_event(state, self.f, self.events))


def _force(state: LabelState, x: int, probe: Probe) -> None:
    """Enqueue an argument that must join every completion of this branch."""
    if state.gamma_add(x):
        probe.force(state, x)


def initial_state(f: Framework, probe: Probe = NO_PROBE) -> LabelState:
    """Label self-attackers must-out, everything else blank; seed the worklist."""
    mu = [MUST_OUT if f.self_loop[x] else BLANK for x in range(f.n)]
    pi = [sum(1 for y in f.pred[x] if not f.self_loop[y]) for x in range(f.n)]
    state = LabelState(mu=mu, pi=pi, gamma=set())
    for x in range(f.n):
        if mu[x] == BLANK and pi[x] == 0:
            _force(state, x, probe)
    return state


def _on_decrement(state: LabelState, f: Framework, t: int, probe: Probe) -> bool:
    """Apply the three counter triggers to ``t``; False kills the branch."""
    if state.mu[t] == MUST_OUT and state.pi[t] == 0:
        probe.dead_end(state)
        return False
    if state.mu[t] == BLANK and state.pi[t] == 0:
        _force(state, t, probe)
    elif state.mu[t] == MUST_OUT and state.pi[t] == 1:
        for y in f.pred[t]:
            if state.mu[y] == BLANK:
                _force(state, y, probe)
    return True


def assign_in(state: LabelState, f: Framework, q: int, probe: Probe = NO_PROBE) -> bool:
    """Label ``q`` in and relabel its neighborhood; False kills the branch.

    Must-out targets of ``q`` become out.  Blank neighbors become out
    (targets) or must-out (attackers); each such relabelling decrements the
    counters of the neighbor's targets, firing the propagation triggers.
    The state is left as-is on a dead end so the caller can roll it back.
    """
    state.gamma_discard(q)
    state.set_mu(q, IN)
    for z in f.succ[q]:
        if state.mu[z] == MUST_OUT:
            state.set_mu(z, OUT)
    for z in sorted(set(f.pred[q]) | set(f.succ[q])):
        if state.mu[z] != BLANK:
            continue
        state.set_mu(z, OUT if (q, z) in f.attack_set else MUST_OUT)
        for t in f.succ[z]:
            state.dec_pi(t)
            if not _on_decrement(state, f, t, probe):
                return False
    return True


def drain(state: LabelState, f: Framework, probe: Probe = NO_PROBE) -> bool:
    """Assign every queued argument, lowest index first; False kills the branch.

    A queued argument that lost its blank label before being popped is
    either already in (skip) or was excluded after being forced, which
    makes the branch contradictory.  ``probe`` sees the state after each
    assignment, as quiescent unless the assignment killed the branch.
    """
    while state.gamma:
        q = min(state.gamma)
        if state.mu[q] != BLANK:
            state.gamma_discard(q)
            if state.mu[q] == IN:
                continue
            probe.dead_end(state)
            probe.state(state, False)
            return False
        ok = assign_in(state, f, q, probe)
        probe.state(state, ok)
        if not ok:
            return False
    return True


def is_solution(state: LabelState) -> bool:
    """True iff no blank and no must-out labels remain; the in-set is then stable."""
    return not any(label == BLANK or label == MUST_OUT for label in state.mu)


def mark_must_out(state: LabelState, f: Framework, x: int, probe: Probe = NO_PROBE) -> bool:
    """Exclude blank ``x`` and decrement the counters of its targets.

    Triggered forcings accumulate in ``gamma``; False kills the branch.
    """
    state.set_mu(x, MUST_OUT)
    for z in f.succ[x]:
        state.dec_pi(z)
        if not _on_decrement(state, f, z, probe):
            return False
    return True


class _StopSearch(Exception):
    pass


def enumerate_extensions(
    f: Framework,
    pick: PickStrategy = lowest_index,
    sink: Callable[[tuple[int, ...]], None] | None = None,
    *,
    probe: Probe = NO_PROBE,
    limit: int | None = None,
) -> int:
    """Report every stable extension exactly once; returns how many were found.

    ``probe`` sees every branch, forced argument and dead end, and a state
    boundary on entry to each recursive search frame, after each worklist
    assignment and at each dead end; the dead-end boundaries are not
    quiescent.  ``limit`` stops the search after that many extensions were
    delivered to ``sink``.
    """
    state = initial_state(f, probe)
    found = 0

    def search() -> None:
        nonlocal found
        probe.state(state, True)
        if not drain(state, f, probe):
            return  # caller rolls back
        blanks = state.members(BLANK)
        if not blanks:
            if is_solution(state):
                found += 1
                if sink is not None:
                    sink(state.members(IN))
                if limit is not None and found >= limit:
                    raise _StopSearch
            return
        x = pick(f, blanks)
        probe.branch(state, x)
        state.checkpoint()
        state.gamma_add(x)
        search()
        state.rollback()
        state.checkpoint()
        if mark_must_out(state, f, x, probe):
            search()
        else:
            probe.state(state, False)
        state.rollback()

    try:
        search()
    except _StopSearch:
        pass
    return found
