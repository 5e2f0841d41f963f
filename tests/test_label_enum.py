from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given

from stabenum.framework import build
from stabenum.invariants import Checker, check_label_state
from stabenum.label_enum import (
    BLANK,
    IN,
    MUST_OUT,
    OUT,
    Label,
    LabelState,
    Tracer,
    UnbalancedRollback,
    _fire,
    assign_in,
    drain,
    enumerate_extensions,
    initial_state,
    is_solution,
    mark_must_out,
    trace_event,
)
from stabenum.oracle import enumerate_bruteforce
from stabenum.strategies import STRATEGIES, FanOut, Probe, SearchStats
from stabenum.generators import GenSpec, random_af

from conftest import Recorder, frameworks, gamma_list, ids, mu_table, pairs_framework, pi_table

ALL_BLANK = dict.fromkeys("abcdef", "blank")

# the ten golden states of the hand-worked run over the fixture framework
T1 = (ALL_BLANK, {"a": 2, "b": 2, "c": 2, "d": 1, "e": 1, "f": 2}, [])
T2 = (T1[0], T1[1], ["a"])
T3 = (
    {"a": "in", "b": "out", "c": "blank", "d": "blank", "e": "must_out", "f": "must_out"},
    {"a": 0, "b": 2, "c": 0, "d": 0, "e": 1, "f": 1},
    ["c", "d"],
)
T4 = (
    {"a": "in", "b": "out", "c": "in", "d": "in", "e": "out", "f": "out"},
    {"a": 0, "b": 2, "c": 0, "d": 0, "e": 1, "f": 1},
    [],
)
T5 = (
    {"a": "must_out", "b": "blank", "c": "blank", "d": "blank", "e": "blank", "f": "blank"},
    {"a": 2, "b": 1, "c": 2, "d": 1, "e": 1, "f": 2},
    [],
)
T6 = (T5[0], T5[1], ["b"])
T7 = (
    {"a": "must_out", "b": "in", "c": "out", "d": "out", "e": "blank", "f": "blank"},
    {"a": 2, "b": 0, "c": 2, "d": 1, "e": 0, "f": 1},
    ["e"],
)
T8 = (
    {"a": "out", "b": "in", "c": "out", "d": "out", "e": "in", "f": "out"},
    {"a": 1, "b": 0, "c": 2, "d": 1, "e": 0, "f": 1},
    [],
)
T9 = (
    {"a": "must_out", "b": "must_out", "c": "blank", "d": "blank", "e": "blank", "f": "blank"},
    {"a": 2, "b": 1, "c": 1, "d": 0, "e": 1, "f": 2},
    ["d"],
)
T10 = (
    {"a": "must_out", "b": "out", "c": "blank", "d": "in", "e": "out", "f": "out"},
    {"a": 0, "b": 1, "c": 0, "d": 0, "e": 1, "f": 1},
    ["c", "f"],
)


def tables(state, f):
    return mu_table(state, f), pi_table(state, f), gamma_list(state, f)


def test_initial_state_h1(h1):
    state = initial_state(h1)
    assert tables(state, h1) == T1


def test_initial_state_self_loop():
    f = build(["x"], [("x", "x")])
    state = initial_state(f)
    assert state.mu == [MUST_OUT]
    assert state.pi == [0]
    assert state.gamma == set()


def test_initial_state_attack_free():
    f = build(["x", "y"], [])
    state = initial_state(f)
    assert state.mu == [BLANK, BLANK]
    assert state.pi == [0, 0]
    assert state.gamma == {0, 1}


def test_assign_in_first_branch(h1):
    state = initial_state(h1)
    state.gamma_add(h1.names.index("a"))
    assert tables(state, h1) == T2
    assert assign_in(state, h1, h1.names.index("a"))
    assert tables(state, h1) == T3


def test_assign_in_dead_end(h1):
    # reach the last golden state, where the remaining branch collapses
    state = initial_state(h1)
    assert mark_must_out(state, h1, h1.names.index("a"))
    assert mark_must_out(state, h1, h1.names.index("b"))
    assert tables(state, h1) == T9
    state.gamma.discard(h1.names.index("d"))
    assert not assign_in(state, h1, h1.names.index("d"))
    assert tables(state, h1) == T10


def test_assign_in_isolated_argument():
    f = build(["x", "y"], [])
    state = initial_state(f)
    assert assign_in(state, f, 0)
    assert state.mu == [IN, BLANK]
    assert state.pi == [0, 0]


def test_drain_to_first_solution(h1):
    state = initial_state(h1)
    state.gamma_add(h1.names.index("a"))
    assert drain(state, h1)
    assert tables(state, h1) == T4
    assert is_solution(state)
    assert state.members(IN) == tuple(sorted(ids(h1, "acd")))


def test_drain_empty_worklist_is_fixpoint(h1):
    state = initial_state(h1)
    assert drain(state, h1)
    assert tables(state, h1) == T1


def test_drain_second_solution(h1):
    state = initial_state(h1)
    assert mark_must_out(state, h1, h1.names.index("a"))
    assert tables(state, h1) == T5
    state.gamma_add(h1.names.index("b"))
    assert tables(state, h1) == T6
    assert drain(state, h1)
    assert tables(state, h1) == T8
    assert is_solution(state)
    assert state.members(IN) == tuple(sorted(ids(h1, "be")))


def test_drain_intermediate_round(h1):
    state = initial_state(h1)
    state.gamma_add(h1.names.index("b"))
    rounds = []

    class Rounds(Probe):
        def state(self, state):
            rounds.append(tables(state, h1))

    assert drain(state, h1, Rounds())
    assert rounds[0] == T7
    assert rounds[1] == T8


def test_is_solution_examples(h1):
    first = initial_state(h1)
    first.gamma_add(h1.names.index("a"))
    drain(first, h1)
    assert is_solution(first)
    assert first.members(IN) == tuple(sorted(ids(h1, "acd")))

    second = initial_state(h1)
    mark_must_out(second, h1, h1.names.index("a"))
    second.gamma_add(h1.names.index("b"))
    drain(second, h1)
    assert is_solution(second)
    assert second.members(IN) == tuple(sorted(ids(h1, "be")))

    third = initial_state(h1)
    mark_must_out(third, h1, h1.names.index("a"))
    assert not is_solution(third)  # blanks remain


def test_mark_must_out_first_backtrack(h1):
    state = initial_state(h1)
    assert mark_must_out(state, h1, h1.names.index("a"))
    assert tables(state, h1) == T5


def test_mark_must_out_triggers_force(h1):
    state = initial_state(h1)
    assert mark_must_out(state, h1, h1.names.index("a"))
    assert mark_must_out(state, h1, h1.names.index("b"))
    assert tables(state, h1) == T9


def test_mark_must_out_without_targets():
    f = build(["x", "y"], [("y", "x")])
    state = initial_state(f)
    # x has no targets: only the label flips
    assert mark_must_out(state, f, 0)
    assert state.mu == [MUST_OUT, BLANK]
    assert state.pi == [1, 0]
    assert state.gamma == {1}  # x's only attacker must now join


def test_checkpoint_rollback_restores_branch_state(h1):
    state = initial_state(h1)
    snapshot = tables(state, h1)
    state.checkpoint()
    state.gamma_add(h1.names.index("a"))
    drain(state, h1)
    assert tables(state, h1) == T4
    state.rollback()
    assert tables(state, h1) == snapshot == T1


def test_checkpoint_rollback_noop(h1):
    state = initial_state(h1)
    before = tables(state, h1)
    state.checkpoint()
    state.rollback()
    assert tables(state, h1) == before


def test_checkpoint_rollback_second_branch(h1):
    state = initial_state(h1)
    mark_must_out(state, h1, h1.names.index("a"))
    assert tables(state, h1) == T5
    state.checkpoint()
    state.gamma_add(h1.names.index("b"))
    drain(state, h1)
    assert tables(state, h1) == T8
    state.rollback()
    assert tables(state, h1) == T5


@pytest.mark.parametrize("excluded_before_checkpoint", [True, False])
def test_rollback_restores_argument_zero_from_out(excluded_before_checkpoint):
    # the trail journals a must-out -> out record as ~z; ~0 == -1 is the
    # record that -z would journal as 0, a blank record, and that a rollback
    # taking it as an index would apply to the last argument, e, whose
    # targets' counters would drift
    f = build(
        ["a", "b", "c", "d", "e"],
        [("b", "a"), ("e", "a"), ("b", "c"), ("d", "b"), ("e", "d"), ("e", "c")],
    )
    a, b = 0, 1
    state = initial_state(f)
    if excluded_before_checkpoint:
        assert mark_must_out(state, f, a)
    snapshot = (list(state.mu), list(state.pi), set(state.gamma))
    state.checkpoint()
    if not excluded_before_checkpoint:
        assert mark_must_out(state, f, a)
    mark = state.checkpoints[-1][0]
    assert assign_in(state, f, b)
    assert state.mu[a] is OUT
    # blank records on both sides of argument 0's must-out -> out record
    records = state.trail[mark:]
    at = records.index(~a)
    assert records[at - 1] == b and records[at + 1] >= 0
    state.rollback()
    assert (state.mu, state.pi, state.gamma) == snapshot
    assert len(state.trail) == mark and state.heap == sorted(snapshot[2])
    assert all(type(y) is Label for y in state.mu)


def test_unbalanced_rollback(h1):
    state = initial_state(h1)
    with pytest.raises(UnbalancedRollback):
        state.rollback()


def test_enumerate_h1(h1):
    found = []
    count = enumerate_extensions(h1, sink=found.append)
    assert count == 2
    assert found == [tuple(sorted(ids(h1, "acd"))), tuple(sorted(ids(h1, "be")))]


def test_enumerate_all_self_loops():
    names = ["a", "b", "c"]
    f = build(names, [(x, x) for x in names])
    assert enumerate_extensions(f) == 0


def test_dead_root_takes_no_branch():
    # b attacks only itself, so it can never be attacked by an extension
    f = build(["a", "b"], [("a", "a"), ("b", "b"), ("b", "a")])
    events = []

    class Events(Recorder):
        def state(self, state):
            events.append(("state",))

        def branch(self, state, x):
            events.append(("branch", x))

    probe = Events()
    assert enumerate_extensions(f, probe=probe) == 0
    assert events == []
    assert probe.dead == [(frozenset(), frozenset())]
    assert initial_state(f).dead_root


def test_initial_state_self_attacker_forces_last_attacker():
    f = build(["a", "b", "c"], [("a", "a"), ("b", "a"), ("b", "c"), ("c", "b")])
    state = initial_state(f)
    assert state.pi == [1, 1, 1]
    assert state.gamma == {1}
    assert not state.dead_root
    stats = SearchStats()
    assert enumerate_extensions(f, probe=stats) == 1
    assert stats.branches == 0


def test_mark_must_out_dead_without_blank_attacker():
    f = build(["x", "y"], [("x", "y")])
    state = initial_state(f)
    probe = Recorder()
    assert not mark_must_out(state, f, 0, probe)
    assert probe.dead == [(frozenset(), frozenset({1}))]


def test_enumerate_limit(h1):
    found = []
    assert enumerate_extensions(h1, sink=found.append, limit=1) == 1
    assert found == [tuple(sorted(ids(h1, "acd")))]


def test_golden_trace_stream(h1):
    events = []
    probe = FanOut(Tracer(h1, events.append), Checker(h1, check_label_state))
    enumerate_extensions(h1, probe=probe)
    got = [(e["mu"], e["pi"], e["gamma"]) for e in events]
    intermediate = (
        {"a": "in", "b": "out", "c": "in", "d": "blank", "e": "must_out", "f": "must_out"},
        T3[1],
        ["d"],
    )
    assert got == [T1, T2, T3, intermediate, T4, T5, T6, T7, T8, T9, T10]
    assert [e["state_id"] for e in events] == list(range(1, 12))


def test_trace_event_round_trips_to_dict(h1):
    state = initial_state(h1)
    event = trace_event(state, h1, 1)
    assert list(event) == ["state_id", "mu", "pi", "gamma"]
    assert event["state_id"] == 1
    assert event["mu"] == ALL_BLANK
    assert event["gamma"] == []
    assert json.loads(json.dumps(event)) == event


def test_stale_worklist_entry_is_dead_end():
    # In the directed 3-cycle, assigning one argument forces its attacker's
    # attacker in, then relabels it must-out in the same pass; with no blank
    # attacker left, its own trigger kills the branch before drain could pop
    # the stale queue entry.
    f = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    state = initial_state(f)
    probe = Recorder()
    assert not assign_in(state, f, 0, probe)
    assert state.gamma == {2}
    assert state.mu[2] == MUST_OUT
    dead = [chosen for chosen, blank in probe.dead]
    assert dead == [frozenset({0})]
    assert enumerate_extensions(f) == 0


class Ordered(Probe):
    """Records the force and dead-end events in the order they occur."""

    def __init__(self):
        self.events = []

    def force(self, state, x):
        self.events.append(("force", x))

    def dead_end(self, state):
        self.events.append(("dead_end",))


@pytest.mark.parametrize("label", list(Label))
@pytest.mark.parametrize("left", [2, 3])
def test_fire_ignores_two_or_more_blank_attackers(label, left):
    # x's three blank attackers; no trigger fires at two or more of them left
    f = build(["x", "p", "q", "r"], [("p", "x"), ("q", "x"), ("r", "x")])
    state = LabelState([label, BLANK, BLANK, BLANK], [left, 0, 0, 0], f.succ)
    probe = Ordered()
    assert _fire(state, f, [0], probe)
    assert probe.events == [] and state.gamma == set() and state.heap == []


def test_fire_stops_at_the_dead_end():
    # targets in pass order: blank t0 with no blank attacker, must-out t1 with
    # one (y), must-out t2 with none, blank t3 with none
    f = build(["t0", "t1", "t2", "t3", "y"], [("y", "t1")])
    state = LabelState([BLANK, MUST_OUT, MUST_OUT, BLANK, BLANK], [0, 1, 0, 0, 0], f.succ)
    probe = Ordered()
    assert not _fire(state, f, [0, 1, 2, 3], probe)
    # forces of earlier targets come first, in target order; t3 is never forced
    assert probe.events == [("force", 0), ("force", 4), ("dead_end",)]
    assert state.gamma == {0, 4}


def test_counters_stay_non_negative(h1):
    state = initial_state(h1)
    state.gamma_add(h1.names.index("a"))
    drain(state, h1)
    assert all(value >= 0 for value in state.pi)


@given(frameworks(max_args=7))
def test_agrees_with_bruteforce(f):
    found = []
    enumerate_extensions(f, sink=found.append, probe=Checker(f, check_label_state))
    assert sorted(found) == enumerate_bruteforce(f)


class LastState(Probe):
    """Keeps the state of the last state boundary: the search's one ``LabelState``."""

    state_seen = None

    def state(self, state):
        self.state_seen = state


@given(frameworks(max_args=8))
def test_relabelling_plans(f):
    # a plan lists q's neighbours ascending: OUT for each target of q, an
    # attacker of q included, and MUST_OUT for each argument that only attacks q
    probe = LastState()
    enumerate_extensions(f, probe=probe)
    plans = probe.state_seen.plans if probe.state_seen is not None else []
    for q, plan in enumerate(plans):
        if plan is None:
            continue
        targets = {y for x, y in f.attacks if x == q}
        attackers = {x for x, y in f.attacks if y == q}
        assert [z for z, _ in plan] == sorted(targets | attackers)
        assert all(label is (OUT if z in targets else MUST_OUT) for z, label in plan)


@given(frameworks(max_args=7))
def test_strategy_independent_result_set(f):
    results = []
    for pick in STRATEGIES.values():
        found = []
        enumerate_extensions(f, pick(f), sink=found.append)
        results.append(sorted(found))
    assert results[0] == results[1] == results[2]


def test_rollback_is_identity_on_random_runs():
    rng = random.Random(7)
    for trial in range(30):
        f = random_af(GenSpec(n=rng.randint(1, 8), p=0.3, allow_self_loops=bool(trial % 2), seed=trial))
        state = initial_state(f)
        snapshot = (list(state.mu), list(state.pi), set(state.gamma))
        state.checkpoint()
        for _ in range(rng.randint(1, 2 * f.n + 1)):
            blanks = state.members(BLANK)
            if not blanks:
                break
            x = rng.choice(blanks)
            if rng.random() < 0.5:
                if not assign_in(state, f, x):
                    break
            else:
                if not mark_must_out(state, f, x):
                    break
        state.rollback()
        assert (list(state.mu), list(state.pi), set(state.gamma)) == snapshot
        # drain reads the lowest queued argument off the heap's top, dropping
        # stale entries: a heap that holds all of gamma gives min(gamma) there
        heap = state.heap
        assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
        assert state.gamma.issubset(heap)


class CounterIdentity(Probe):
    """Checks at every state, force and dead-end event that each ``pi[t]``
    counts the attackers of ``t`` that are blank or in and do not attack
    themselves, so no event sees a half-done relabelling."""

    def __init__(self, f):
        self.f = f
        self.events = 0

    def _check(self, state):
        self.events += 1
        f, mu = self.f, state.mu
        for t in range(f.n):
            fresh = sum(1 for y in f.pred[t] if not f.self_loop[y] and mu[y] in (BLANK, IN))
            assert state.pi[t] == fresh, (self.events, f.names[t], state.pi[t], fresh)

    def state(self, state):
        self._check(state)

    def force(self, state, x):
        self._check(state)

    def dead_end(self, state):
        self._check(state)


@pytest.mark.parametrize("order", sorted(STRATEGIES))
def test_counters_follow_labels_at_every_event(order):
    events = 0
    for seed in range(40):
        for self_loops in (False, True):
            f = random_af(GenSpec(n=16, p=0.15, allow_self_loops=self_loops, seed=seed))
            probe = CounterIdentity(f)
            enumerate_extensions(f, STRATEGIES[order](f), probe=probe)
            events += probe.events
    assert events > 0


def test_invariant_checker_accepts_boundary_states(h1):
    state = initial_state(h1)
    check_label_state(h1, state)
    state.gamma_add(h1.names.index("a"))
    drain(state, h1)
    check_label_state(h1, state)


@pytest.mark.parametrize(
    "attacks, mu, gamma, message",
    [
        ([("y", "x")], [MUST_OUT, MUST_OUT], set(), "no blank attacker"),
        ([("y", "x")], [MUST_OUT, BLANK], set(), "is not queued"),
        ([], [BLANK, BLANK], {0}, "unattacked blank y"),
    ],
)
def test_invariant_checker_rejects_missed_trigger(attacks, mu, gamma, message):
    from stabenum.invariants import InvariantViolation

    f = build(["x", "y"], attacks)
    state = initial_state(f)
    state.mu = list(mu)
    state.pi = [sum(1 for y in f.pred[x] if mu[y] == BLANK) for x in range(f.n)]
    state.gamma = set(gamma)
    with pytest.raises(InvariantViolation, match=message):
        check_label_state(f, state)


def test_invariant_checker_rejects_stale_counter(h1):
    from stabenum.invariants import InvariantViolation

    state = initial_state(h1)
    state.pi[0] = 0  # pretend a's attackers are gone
    with pytest.raises(InvariantViolation):
        check_label_state(h1, state)
    # the counter of an out argument, which traces show, is checked too
    state = initial_state(h1)
    state.gamma_add(h1.names.index("a"))
    drain(state, h1)
    check_label_state(h1, state)
    assert state.mu[h1.names.index("b")].json_name() == "out"
    state.pi[h1.names.index("b")] -= 1
    with pytest.raises(InvariantViolation, match="stale counter for b: 1 != 2"):
        check_label_state(h1, state)


def test_invariant_checker_rejects_queued_argument_off_heap():
    from stabenum.invariants import InvariantViolation

    f = build(["x", "y"], [])
    state = initial_state(f)
    assert state.gamma == {0, 1}
    state.heap.remove(1)
    with pytest.raises(InvariantViolation, match=r"missing from the heap: \['y'\]"):
        check_label_state(f, state)


def test_deep_search_at_the_default_recursion_limit():
    found = []
    assert enumerate_extensions(pairs_framework(8000), sink=found.append, limit=1) == 1
    assert found == [tuple(range(0, 8000, 2))]


def test_members_scans_once_per_extension(monkeypatch):
    # the branching cursor replaces a scan per frame
    calls = []
    members = LabelState.members

    def counted(state, label):
        calls.append(label)
        return members(state, label)

    monkeypatch.setattr(LabelState, "members", counted)
    stats = SearchStats()
    found = []
    assert enumerate_extensions(pairs_framework(4000), sink=found.append, probe=stats, limit=1) == 1
    assert stats.branches == 2000
    assert calls == [IN]


def test_one_checkpoint_and_one_rollback_per_branch(monkeypatch):
    # an out-branch is undone by the rollback of the next pending branch
    calls = []
    checkpoint, rollback = LabelState.checkpoint, LabelState.rollback

    def counted_checkpoint(state):
        calls.append("checkpoint")
        checkpoint(state)

    def counted_rollback(state):
        calls.append("rollback")
        rollback(state)

    monkeypatch.setattr(LabelState, "checkpoint", counted_checkpoint)
    monkeypatch.setattr(LabelState, "rollback", counted_rollback)
    for seed in range(10):
        f = random_af(GenSpec(n=20, p=0.15, allow_self_loops=seed % 2 == 1, seed=seed))
        calls.clear()
        stats = SearchStats()
        enumerate_extensions(f, probe=stats)
        assert calls.count("checkpoint") == stats.branches
        assert calls.count("rollback") == stats.branches


@pytest.mark.parametrize("order", sorted(STRATEGIES))
def test_every_checkpoint_finds_an_empty_worklist(monkeypatch, order):
    # the search opens a checkpoint only after drain, so saving the worklist costs O(1)
    queued = []
    checkpoint = LabelState.checkpoint

    def recorded(state):
        queued.append(len(state.gamma))
        checkpoint(state)

    monkeypatch.setattr(LabelState, "checkpoint", recorded)
    for seed in range(40):
        f = random_af(GenSpec(n=16, p=0.15, allow_self_loops=seed % 2 == 1, seed=seed))
        enumerate_extensions(f, STRATEGIES[order](f))
    assert queued and set(queued) == {0}


@pytest.mark.parametrize("order", sorted(STRATEGIES))
def test_out_branch_never_ends_at_once(monkeypatch, order):
    # the engine asserts this lemma; the check here also runs under python -O
    from stabenum import label_enum

    results = []
    mark = label_enum.mark_must_out

    def recorded(*args, **kwargs):
        results.append(mark(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(label_enum, "mark_must_out", recorded)
    for seed in range(40):
        for self_loops in (False, True):
            f = random_af(GenSpec(n=16, p=0.15, allow_self_loops=self_loops, seed=seed))
            enumerate_extensions(f, STRATEGIES[order](f))
    assert results and all(results)


def test_traced_names_stay_on_the_call_path(monkeypatch):
    # perfbench's tracer wraps these module globals; a kernel that inlined
    # one of them would leave its traced counter silently at zero
    from stabenum import label_enum

    calls = dict.fromkeys(["assign_in", "mark_must_out", "drain"], 0)

    def counter(name):
        fn = getattr(label_enum, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(label_enum, name, counter(name))
    queued = 0
    force = label_enum._force

    def counted_force(state, *args, **kwargs):
        nonlocal queued
        before = len(state.gamma)
        force(state, *args, **kwargs)
        queued += len(state.gamma) > before

    monkeypatch.setattr(label_enum, "_force", counted_force)
    stats = SearchStats()
    enumerate_extensions(random_af(GenSpec(160, 0.025, seed=1)), probe=stats)
    assert stats.propagations > 0
    assert queued == stats.propagations
    assert all(count > 0 for count in calls.values()), calls


class EventLog(Probe):
    """Records every probe event as plain JSON values: ``state`` events as
    ``mu`` (ints), ``pi``, sorted ``gamma`` and ``true``; a ``dead_end`` event
    as ``["dead_end"]`` followed by its state record with ``false``, the
    layout in which the digest below was pinned."""

    def __init__(self):
        self.events = []

    def _record(self, state, consistent):
        mu = [int(y) for y in state.mu]
        self.events.append(["state", mu, list(state.pi), sorted(state.gamma), consistent])

    def state(self, state):
        self._record(state, True)

    def branch(self, state, x):
        self.events.append(["branch", x])

    def force(self, state, x):
        self.events.append(["force", x])

    def dead_end(self, state):
        self.events.append(["dead_end"])
        self._record(state, False)


# SHA-256 of the canonical JSON of every run below: count, extensions and the
# ordered probe events; any change to the search tree, to the forcing order or
# to a state the probe sees changes it
SEARCH_DIGEST = "7509a2a391d062d8ed9bf41e04ecb293c94bcf63b0de504a0fc6d9f0d5f53269"


def test_event_stream_pinned():
    instances = [
        random_af(GenSpec(n=n, p=p, allow_self_loops=self_loops, seed=seed))
        for n in (8, 12, 20, 30)
        for p in (0.1, 0.2, 0.35)
        for self_loops in (False, True)
        for seed in range(8)
    ]
    instances.append(pairs_framework(12))
    digest = hashlib.sha256()
    runs = 0
    for f in instances:
        for order in sorted(STRATEGIES):
            for limit in (None, 1, 2):
                log, found = EventLog(), []
                count = enumerate_extensions(
                    f, STRATEGIES[order](f), found.append, probe=log, limit=limit
                )
                record = [count, [list(e) for e in found], log.events]
                digest.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
                runs += 1
    assert runs == 1737
    assert digest.hexdigest() == SEARCH_DIGEST
