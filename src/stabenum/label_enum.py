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
:func:`drain`, lowest index first, through a heap.  The search branches on
the first blank argument of a static order, found by a cursor that only
moves forward along a path, so a search frame costs O(changes), not O(n):
no frame scans all labels, only the report of an extension does, and the
cursor passes each argument once per path; the cursor reaching the end of
the order recognises a leaf.
Only labels are journalled on a trail, one int per relabelling: ``x`` when
``x`` leaves blank, ``~x`` (that is, ``-x - 1``) when must-out ``x`` becomes
out, so the sign tells the old label even for argument 0, where ``-0`` could
not.  A checkpoint also saves the worklist, empty at every checkpoint the
search opens.  Backtracking replays the journal backwards, re-deriving the
counters, and restores the saved worklist, so ``mu``, ``pi`` and ``gamma``
return exactly.  The search runs on an explicit stack, not bounded by
Python's recursion limit.

``mu`` holds :class:`Label` members only, and the hot paths test them by
identity (``mu[x] is BLANK``): ``Label`` is an ``IntEnum``, so ``==`` on
it takes the generic comparison rather than CPython's fast path for exact
ints.  The triggers read an argument's counter first and its label only
when the counter is 0 or 1, since no trigger fires at a higher count; for
the same reason a new must-out argument's own triggers are fired only when
its counter is below 2.  A probe is called only when one is passed in: the
engine tests ``probe is not NO_PROBE`` before each event.

Assigning an argument in relabels its neighbourhood by a plan built on its
first assignment and kept for the rest of the search (it depends on the
framework alone), writes each label in place, and fires the triggers of each
relabelled argument's targets in one pass.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator, Sequence
from heapq import heappop, heappush
from itertools import compress

from .framework import Framework
from .strategies import NO_PROBE, Probe, Sink, deliver, search_order


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
    """Mutable search state: labels, counters, worklist, undo trail.

    ``succ`` is ``f.succ``; the worklist and the trail start empty.
    ``heap`` holds every queued argument, plus stale entries of arguments
    that have left ``gamma``; they are dropped when they reach the top.
    ``mu`` holds :class:`Label` members only, which the engine tests by
    identity.  The trail journals one int per relabelling, written where
    :func:`assign_in` and :func:`_leave_blank` relabel: ``x`` when ``x``
    leaves blank and ``~x`` when must-out ``x`` becomes out (``~0`` is -1,
    where ``-0`` would read as a blank record); a checkpoint also saves
    ``gamma``.  ``plans[q]`` is ``None`` until :func:`assign_in` first
    assigns ``q``, then ``q``'s relabelling plan: a list of
    ``(neighbour, label)`` pairs, its neighbours in index order, each with
    ``OUT`` if ``q`` attacks it and ``MUST_OUT`` otherwise.  Plans
    depend on the framework alone, so they are never journalled and survive
    rollback; together they hold at most O(n + m) entries per search.
    ``dead_root`` is True when the triggers of :func:`initial_state` met a
    dead end.  States compare by identity.
    """

    __slots__ = ("mu", "pi", "gamma", "succ", "trail", "checkpoints", "heap", "plans", "dead_root")

    def __init__(self, mu: list[Label], pi: list[int], succ: tuple[tuple[int, ...], ...]) -> None:
        self.mu = mu
        self.pi = pi
        self.succ = succ
        self.gamma: set[int] = set()
        self.heap: list[int] = []
        self.trail: list[int] = []
        self.checkpoints: list[tuple[int, list[int]]] = []
        self.plans: list[list[tuple[int, Label]] | None] = [None] * len(mu)
        self.dead_root = False

    def gamma_add(self, x: int) -> bool:
        """Enqueue ``x``; returns False if it was already queued."""
        if x in self.gamma:
            return False
        self.gamma.add(x)
        heappush(self.heap, x)
        return True

    def checkpoint(self) -> None:
        """Mark the trail and save the worklist, in O(|gamma|)."""
        self.checkpoints.append((len(self.trail), sorted(self.gamma)))

    def rollback(self) -> None:
        """Undo every change since the matching checkpoint, re-deriving ``pi``."""
        if not self.checkpoints:
            raise UnbalancedRollback("rollback without a matching checkpoint")
        mark, queued = self.checkpoints.pop()
        mu, pi, succ, trail = self.mu, self.pi, self.succ, self.trail
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


def trace_event(state: LabelState, f: Framework, state_id: int) -> dict:
    """Snapshot of (labels, counters, worklist) at one search state, as JSON."""
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

    def __init__(self, f: Framework, sink: Callable[[dict], None]) -> None:
        self.f = f
        self.sink = sink
        self.events = 0

    def state(self, state: LabelState) -> None:
        self.events += 1
        self.sink(trace_event(state, self.f, self.events))

    dead_end = state


def _force(state: LabelState, x: int, probe: Probe) -> None:
    """Enqueue an argument that must join every completion of this branch."""
    gamma = state.gamma
    if x not in gamma:
        gamma.add(x)
        heappush(state.heap, x)
        if probe is not NO_PROBE:
            probe.force(state, x)


def _fire(state: LabelState, f: Framework, ts: Iterable[int], probe: Probe) -> bool:
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
                _force(state, t, probe)
        elif label is MUST_OUT:
            if left == 0:
                if probe is not NO_PROBE:
                    probe.dead_end(state)
                return False
            # one blank attacker left, which must join
            for y in f.pred[t]:
                if mu[y] is BLANK:
                    _force(state, y, probe)
                    break
    return True


def initial_state(f: Framework, probe: Probe = NO_PROBE) -> LabelState:
    """Label self-attackers must-out, everything else blank; seed the worklist.

    Every argument fires its triggers.  A self-attacker without another
    attacker makes the root a dead end: ``probe`` is told, the remaining
    triggers are skipped and the state's ``dead_root`` is True.
    """
    mu = [BLANK] * f.n
    # pi counts the attackers that are not self-attackers
    pi = list(map(len, f.pred))
    loops = list(compress(range(f.n), f.self_loop))
    for y in loops:
        mu[y] = MUST_OUT
        for t in f.succ[y]:
            pi[t] -= 1
    state = LabelState(mu, pi, f.succ)
    # firing at the root only queues arguments, and only self-attackers and
    # arguments without a counted attacker can fire there
    state.dead_root = not _fire(state, f, sorted({*loops, *_positions(pi, 0)}), probe)
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


def _leave_blank(state: LabelState, f: Framework, x: int, label: Label, probe: Probe) -> bool:
    """Relabel blank ``x`` as ``label`` and decrement its targets' counters,
    then fire the triggers of ``x`` if it became must-out and those of its
    targets; False kills the branch, never halfway through the relabelling.

    The label write is one of the trail's three writes (see :func:`assign_in`);
    the counters are not journalled, since rollback re-derives them.
    """
    state.trail.append(x)
    state.mu[x] = label
    pi = state.pi
    targets = f.succ[x]
    for t in targets:
        pi[t] -= 1
    # _fire's rule: no trigger fires on two or more blank attackers
    if label is MUST_OUT and pi[x] < 2 and not _fire(state, f, (x,), probe):
        return False
    return _fire(state, f, targets, probe)


def assign_in(state: LabelState, f: Framework, q: int, probe: Probe = NO_PROBE) -> bool:
    """Label blank ``q`` in and relabel its neighborhood; False kills the branch.

    Must-out targets of ``q`` become out.  Blank neighbors become out
    (targets) or must-out (attackers) through :func:`_leave_blank`, in
    index order, following ``q``'s plan (built here on first use).  The
    state is left as-is on a dead end so the caller can roll it back.
    The trail is written at three sites only, two here and one in
    :func:`_leave_blank`: ``q`` blank to in, a must-out target to out, and
    a blank argument to out or must-out; each also updates ``mu`` in place.
    """
    mu, trail = state.mu, state.trail
    state.gamma.discard(q)
    trail.append(q)
    mu[q] = IN
    plan = state.plans[q]
    if plan is None:
        labels = dict.fromkeys(f.pred[q], MUST_OUT)
        labels.update(dict.fromkeys(f.succ[q], OUT))
        plan = state.plans[q] = sorted(labels.items())
    for z in f.succ[q]:
        if mu[z] is MUST_OUT:
            trail.append(~z)
            mu[z] = OUT
    for z, label in plan:
        if mu[z] is BLANK and not _leave_blank(state, f, z, label, probe):
            return False
    return True


def drain(state: LabelState, f: Framework, probe: Probe = NO_PROBE) -> bool:
    """Assign every queued argument, lowest index first; False kills the branch.

    A popped argument is always blank, which is asserted: a queued argument
    that loses its blank label ends the branch inside the :func:`assign_in`
    or :func:`mark_must_out` that relabels it, since its own trigger or
    that of the must-out argument it was forced for fires there.  ``probe``
    sees the state after each assignment that keeps the branch alive.
    """
    heap, gamma = state.heap, state.gamma
    while gamma:
        # the lowest queued argument: stale heap entries are dropped on top
        while heap[0] not in gamma:
            heappop(heap)
        q = heap[0]
        assert state.mu[q] is BLANK, f"stale worklist entry {f.names[q]}"
        if not assign_in(state, f, q, probe):
            return False
        if probe is not NO_PROBE:
            probe.state(state)
    return True


def is_solution(state: LabelState) -> bool:
    """True iff no blank and no must-out labels remain; the in-set is then stable."""
    return BLANK not in state.mu and MUST_OUT not in state.mu


def mark_must_out(state: LabelState, f: Framework, x: int, probe: Probe = NO_PROBE) -> bool:
    """Exclude blank ``x``, decrement its targets' counters and fire the triggers.

    Triggered forcings accumulate in ``gamma``; False kills the branch.
    """
    return _leave_blank(state, f, x, MUST_OUT, probe)


def extensions(
    f: Framework, order: Sequence[int], probe: Probe = NO_PROBE
) -> Iterator[tuple[int, ...]]:
    """Yield every stable extension once, its arguments ascending.

    The search branches on the first blank argument of the permutation
    ``order``, trying it in and then out; the out-branches still to try
    wait on an explicit stack.  ``probe`` sees every branch, forced argument
    and dead end, once each, and a state boundary on entry to each search
    frame (the root, and each in- and out-branch) and after each worklist
    assignment that keeps the branch alive.  The search advances only when
    the next extension is asked for.  The leaf and out-branch lemmas (see
    the module docstring) are asserted.
    """
    n = len(order)
    state = initial_state(f, probe)
    if state.dead_root:
        return
    # every argument before the cursor in ``order`` is labelled; labels only
    # leave blank along a path, so the cursor only moves forward on it
    cursor = 0
    # (x, cursor) per branch on x whose out-branch is still to try; its
    # checkpoint, opened before the in-branch, also undoes the out-branches
    # of every deeper branch
    pending: list[tuple[int, int]] = []
    probing = probe is not NO_PROBE
    if probing:
        probe.state(state)
    while True:
        if drain(state, f, probe):
            mu = state.mu
            while cursor < n and mu[order[cursor]] is not BLANK:
                cursor += 1
            if cursor < n:
                x = order[cursor]
                if probing:
                    probe.branch(state, x)
                pending.append((x, cursor))
                state.checkpoint()
                state.gamma_add(x)
                if probing:
                    probe.state(state)
                continue
            assert is_solution(state)
            yield state.members(IN)
        # backtrack to the deepest branch whose out-branch is still to try
        if not pending:
            return
        x, cursor = pending.pop()
        state.rollback()
        excluded = mark_must_out(state, f, x, probe)
        assert excluded, f"excluding branch argument {f.names[x]} ended its branch"
        if probing:
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
