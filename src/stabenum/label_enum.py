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

The must-out triggers fire both when a counter drops and when an argument
becomes must-out (self-attackers at the root, attackers of an argument
assigned in, the excluded branch argument), so the search prunes exactly
where the set engine's ``dead_end`` and ``sole_attacker`` do and explores
the same tree.  Two lemmas follow in any branching order and are asserted,
not branched on.  A leaf is a solution: each must-out argument keeps a blank
attacker.  Excluding the branch argument never ends its branch at once: the
worklist is empty at a branch point, so it has a blank attacker and each
must-out argument two, and each counter drops by one at most.

Forced arguments accumulate in the worklist ``gamma`` and are assigned by
:func:`drain`, lowest index first, through a heap.  The search is
:func:`~stabenum.strategies.backtrack` over the blank arguments, so a search
frame costs O(changes), not O(n): no frame scans all labels, only the
report of an extension does.
Only labels are journalled on a trail, one int per relabelling: ``x`` when
``x`` leaves blank, ``~x`` (that is, ``-x - 1``) when must-out ``x`` becomes
out, so the sign tells the old label even for argument 0, where ``-0`` could
not.  A checkpoint marks the trail and saves the worklist only if it is
not empty; the search opens each of its checkpoints on an empty worklist,
so it keeps the mark alone.  Backtracking replays the journal backwards,
re-deriving the counters, and restores the worklist, so ``mu``, ``pi`` and
``gamma`` return exactly.

``mu`` holds :class:`Label` members only, and the hot paths test them by
identity (``mu[x] is BLANK``): ``Label`` is an ``IntEnum``, so ``==`` on
it takes the generic comparison rather than CPython's fast path for exact
ints.  The triggers read an argument's counter first and its label only
when the counter is 0 or 1, since no trigger fires at a higher count; for
the same reason a new must-out argument's own triggers are fired only when
its counter is below 2.  The state holds the framework and the search's one
probe, both set by :func:`initial_state`, so every other function takes the
state and what it acts on; the engine tests ``probe is not NO_PROBE``
before each event.

Assigning an argument in relabels its blank targets out and then its blank
attackers must-out, each in index order as the framework stores them,
writes each label in place, and fires the triggers of each relabelled
argument's targets in one pass.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator, Sequence
from heapq import heappop, heappush
from itertools import compress

from .framework import Framework
from .strategies import NO_PROBE, Probe, Sink, backtrack, deliver, search_order


class Label(enum.IntEnum):
    BLANK = 0
    IN = 1
    OUT = 2
    MUST_OUT = 3

    def json_name(self) -> str:
        return self.name.lower()


BLANK, IN, OUT, MUST_OUT = Label


class UnbalancedRollback(RuntimeError):
    """rollback() was called without a matching checkpoint()."""


class LabelState:
    """Mutable search state of framework ``f``: labels, counters, worklist, undo trail.

    ``probe`` sees the search's events; the worklist and the trail start empty.
    ``heap`` holds every queued argument, plus stale entries of arguments
    that have left ``gamma``; they are dropped when they reach the top.
    ``mu`` holds :class:`Label` members only, which the engine tests by
    identity.  The trail journals one int per relabelling, written where
    :func:`assign_in` and :func:`_leave_blank` relabel: ``x`` when ``x``
    leaves blank and ``~x`` when must-out ``x`` becomes out (``~0`` is -1,
    where ``-0`` would read as a blank record).  A checkpoint is the
    trail's length, or ``(length, sorted gamma)`` where ``gamma`` is not
    empty, so one opened on an empty worklist allocates no list.
    ``dead_root`` is True when the triggers of :func:`initial_state` met a
    dead end.  States compare by identity.
    """

    __slots__ = ("f", "probe", "mu", "pi", "gamma", "trail", "checkpoints", "heap", "dead_root")

    def __init__(self, f: Framework, mu: list[Label], pi: list[int],
                 probe: Probe = NO_PROBE) -> None:
        self.f = f
        self.probe = probe
        self.mu = mu
        self.pi = pi
        self.gamma: set[int] = set()
        self.heap: list[int] = []
        self.trail: list[int] = []
        # a trail mark, with the sorted worklist where it was not empty
        self.checkpoints: list[int | tuple[int, list[int]]] = []
        self.dead_root = False

    def gamma_add(self, x: int) -> bool:
        """Enqueue ``x``; returns False if it was already queued."""
        if x in self.gamma:
            return False
        self.gamma.add(x)
        heappush(self.heap, x)
        return True

    def checkpoint(self) -> None:
        """Mark the trail and save the worklist if it is not empty, in O(|gamma|)."""
        mark = len(self.trail)
        self.checkpoints.append((mark, sorted(self.gamma)) if self.gamma else mark)

    def rollback(self) -> None:
        """Undo every change since the matching checkpoint, re-deriving ``pi``."""
        if not self.checkpoints:
            raise UnbalancedRollback("rollback without a matching checkpoint")
        saved = self.checkpoints.pop()
        mark, queued = (saved, None) if type(saved) is int else saved
        mu, pi, succ, trail = self.mu, self.pi, self.f.succ, self.trail
        for x in reversed(trail[mark:]):
            if x < 0:
                mu[~x] = MUST_OUT
                continue
            # only _leave_blank relabels blank to out or must-out, and it decrements
            # each target; assign_in's blank -> in and must-out -> out write no counter
            if mu[x] is not IN:
                for t in succ[x]:
                    pi[t] += 1
            mu[x] = BLANK
        del trail[mark:]
        if queued is None:
            self.gamma.clear()
            self.heap.clear()
        else:
            self.gamma = set(queued)
            self.heap = queued  # sorted, so a heap

    def members(self, label: Label) -> tuple[int, ...]:
        return tuple([x for x, y in enumerate(self.mu) if y is label])

    @property
    def chosen(self) -> frozenset[int]:
        """The in-labelled arguments, as the set engine's ``chosen``."""
        return frozenset(self.members(IN))

    @property
    def choice(self) -> frozenset[int]:
        """The blank arguments, as the set engine's ``choice``."""
        return frozenset(self.members(BLANK))


def trace_event(state: LabelState, state_id: int) -> dict:
    """Snapshot of (labels, counters, worklist) at one search state, as JSON."""
    f = state.f
    return {
        "state_id": state_id,
        "mu": {f.names[x]: state.mu[x].json_name() for x in range(f.n)},
        "pi": {f.names[x]: state.pi[x] for x in range(f.n)},
        "gamma": [f.names[x] for x in sorted(state.gamma)],
    }


class Tracer(Probe):
    """Probe that sends a :func:`trace_event` to ``sink`` per state boundary and dead end.

    Events are numbered from 1 in the order they occur.
    """

    def __init__(self, sink: Callable[[dict], None]) -> None:
        self.sink = sink
        self.events = 0

    def state(self, state: LabelState) -> None:
        self.events += 1
        self.sink(trace_event(state, self.events))

    dead_end = state


def _force(state: LabelState, x: int) -> None:
    """Enqueue an argument that must join every completion of this branch."""
    gamma = state.gamma
    if x not in gamma:
        gamma.add(x)
        heappush(state.heap, x)
        if state.probe is not NO_PROBE:
            state.probe.force(state, x)


def _fire(state: LabelState, ts: Iterable[int]) -> bool:
    """Apply the three counter triggers to each argument of ``ts`` in turn;
    False at the first dead end, which kills the branch.  This is the only
    definition of the triggers."""
    mu, pi = state.mu, state.pi
    for t in ts:
        left = pi[t]
        # no trigger fires on two or more blank attackers, whatever the label
        if left > 1:
            continue
        label = mu[t]
        if label is BLANK:
            if left == 0:
                _force(state, t)
        elif label is MUST_OUT:
            if left == 0:
                if state.probe is not NO_PROBE:
                    state.probe.dead_end(state)
                return False
            # one blank attacker left, which must join
            for y in state.f.pred[t]:
                if mu[y] is BLANK:
                    _force(state, y)
                    break
    return True


def initial_state(f: Framework, probe: Probe = NO_PROBE) -> LabelState:
    """Label self-attackers must-out, everything else blank; seed the worklist.

    ``probe`` is the one probe of the search on the state.  Every argument
    fires its triggers.  A self-attacker without another attacker makes the
    root a dead end: ``probe`` is told, the remaining triggers are skipped
    and the state's ``dead_root`` is True.
    """
    mu = [BLANK] * f.n
    # pi counts the attackers that are not self-attackers
    pi = list(map(len, f.pred))
    loops = list(compress(range(f.n), f.self_loop))
    for y in loops:
        mu[y] = MUST_OUT
        for t in f.succ[y]:
            pi[t] -= 1
    state = LabelState(f, mu, pi, probe)
    # firing at the root only queues arguments, and only self-attackers and
    # arguments without a counted attacker can fire there
    state.dead_root = not _fire(state, sorted({*loops, *_positions(pi, 0)}))
    return state


def _positions(values: list[int], value: int) -> list[int]:
    """The positions of ``value`` in ``values``, ascending, found in one C-level scan."""
    found, x = [], -1
    try:
        while True:
            x = values.index(value, x + 1)
            found.append(x)
    except ValueError:
        return found


def _leave_blank(state: LabelState, x: int, label: Label) -> bool:
    """Relabel blank ``x`` as ``label`` and decrement its targets' counters,
    then fire the triggers of ``x`` if it became must-out and those of its
    targets; False kills the branch, never halfway through the relabelling.

    The label write is one of the trail's three writes (see :func:`assign_in`);
    the counters are not journalled, since rollback re-derives them.
    """
    state.trail.append(x)
    state.mu[x] = label
    pi = state.pi
    targets = state.f.succ[x]
    for t in targets:
        pi[t] -= 1
    # _fire's rule: no trigger fires on two or more blank attackers
    if label is MUST_OUT and pi[x] < 2 and not _fire(state, (x,)):
        return False
    return _fire(state, targets)


def assign_in(state: LabelState, q: int) -> bool:
    """Label blank ``q`` in and relabel its neighborhood; False kills the branch.

    Must-out targets of ``q`` become out first.  Then, through
    :func:`_leave_blank`, its blank targets become out, ascending, and
    then its blank attackers must-out, ascending; an attacker that is also
    a target is out by then and is skipped.  The state is left as-is on a
    dead end so the caller can roll it back.
    The trail is written at three sites only, two here and one in
    :func:`_leave_blank`: ``q`` blank to in, a must-out target to out, and
    a blank argument to out or must-out; each also updates ``mu`` in place.
    """
    f, mu, trail = state.f, state.mu, state.trail
    state.gamma.discard(q)
    trail.append(q)
    mu[q] = IN
    targets = f.succ[q]
    for z in targets:
        if mu[z] is MUST_OUT:
            trail.append(~z)
            mu[z] = OUT
    for z in targets:
        if mu[z] is BLANK and not _leave_blank(state, z, OUT):
            return False
    for z in f.pred[q]:
        if mu[z] is BLANK and not _leave_blank(state, z, MUST_OUT):
            return False
    return True


def drain(state: LabelState) -> bool:
    """Assign every queued argument, lowest index first; False kills the branch.

    A popped argument is always blank, which is asserted: a queued argument
    that loses its blank label ends the branch inside the :func:`assign_in`
    or :func:`mark_must_out` that relabels it, since its own trigger or
    that of the must-out argument it was forced for fires there.  The
    state's probe sees it after each assignment that keeps the branch alive.
    """
    heap, gamma, probe = state.heap, state.gamma, state.probe
    while gamma:
        # the lowest queued argument: stale heap entries are dropped on top
        while heap[0] not in gamma:
            heappop(heap)
        q = heap[0]
        assert state.mu[q] is BLANK, f"stale worklist entry {state.f.names[q]}"
        if not assign_in(state, q):
            return False
        if probe is not NO_PROBE:
            probe.state(state)
    return True


def is_solution(state: LabelState) -> bool:
    """True iff no blank and no must-out labels remain; the in-set is then stable."""
    return BLANK not in state.mu and MUST_OUT not in state.mu


def mark_must_out(state: LabelState, x: int) -> bool:
    """Exclude blank ``x``, decrement its targets' counters and fire the triggers.

    Triggered forcings accumulate in ``gamma``; False kills the branch.
    """
    return _leave_blank(state, x, MUST_OUT)


def extensions(
    f: Framework, order: Sequence[int], probe: Probe = NO_PROBE
) -> Iterator[tuple[int, ...]]:
    """Yield every stable extension once, its arguments ascending.

    The search is :func:`~stabenum.strategies.backtrack` over blank
    arguments in the permutation ``order``.  ``probe`` sees every branch,
    forced argument and dead end, once each, and a state boundary on entry
    to each search frame (the root, and each in- and out-branch) and after
    each worklist assignment that keeps the branch alive.  The leaf and
    out-branch lemmas (see the module docstring) are asserted.
    """
    state = initial_state(f, probe)
    if state.dead_root:
        return
    if probe is not NO_PROBE:
        probe.state(state)
    n = len(order)

    def advance(state: LabelState, cursor: int) -> int:
        mu = state.mu
        while cursor < n and mu[order[cursor]] is not BLANK:
            cursor += 1
        return cursor

    def enter(state: LabelState, x: int) -> LabelState:
        # the checkpoint also undoes the out-branches of every deeper branch
        state.checkpoint()
        state.gamma_add(x)
        return state

    def leave(x: int) -> LabelState:
        state.rollback()
        excluded = mark_must_out(state, x)
        assert excluded, f"excluding branch argument {f.names[x]} ended its branch"
        return state

    def solution(state: LabelState) -> tuple[int, ...]:
        assert is_solution(state)
        return state.members(IN)

    yield from backtrack(state, order, lambda state: state if drain(state) else None,
                         advance, enter, leave, solution, probe)


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
