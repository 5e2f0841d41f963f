from __future__ import annotations

import random

import pytest
from hypothesis import given

from stabenum.framework import build
from stabenum.invariants import Checker, check_label_state
from stabenum.label_enum import (
    BLANK,
    IN,
    MUST_OUT,
    Tracer,
    UnbalancedRollback,
    assign_in,
    drain,
    enumerate_extensions,
    initial_state,
    is_solution,
    mark_must_out,
    trace_event,
)
from stabenum.oracle import enumerate_bruteforce
from stabenum.strategies import STRATEGIES, FanOut, Probe
from stabenum.generators import GenSpec, random_af

from conftest import Recorder, frameworks, gamma_list, ids, mu_table, pi_table

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
    state.gamma_add(h1.index_of["a"])
    assert tables(state, h1) == T2
    assert assign_in(state, h1, h1.index_of["a"])
    assert tables(state, h1) == T3


def test_assign_in_dead_end(h1):
    # reach the last golden state, where the remaining branch collapses
    state = initial_state(h1)
    assert mark_must_out(state, h1, h1.index_of["a"])
    assert mark_must_out(state, h1, h1.index_of["b"])
    assert tables(state, h1) == T9
    state.gamma_discard(h1.index_of["d"])
    assert not assign_in(state, h1, h1.index_of["d"])
    assert tables(state, h1) == T10


def test_assign_in_isolated_argument():
    f = build(["x", "y"], [])
    state = initial_state(f)
    assert assign_in(state, f, 0)
    assert state.mu == [IN, BLANK]
    assert state.pi == [0, 0]


def test_drain_to_first_solution(h1):
    state = initial_state(h1)
    state.gamma_add(h1.index_of["a"])
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
    assert mark_must_out(state, h1, h1.index_of["a"])
    assert tables(state, h1) == T5
    state.gamma_add(h1.index_of["b"])
    assert tables(state, h1) == T6
    assert drain(state, h1)
    assert tables(state, h1) == T8
    assert is_solution(state)
    assert state.members(IN) == tuple(sorted(ids(h1, "be")))


def test_drain_intermediate_round(h1):
    state = initial_state(h1)
    state.gamma_add(h1.index_of["b"])
    rounds = []

    class Rounds(Probe):
        def state(self, state, quiescent):
            rounds.append(tables(state, h1))

    assert drain(state, h1, Rounds())
    assert rounds[0] == T7
    assert rounds[1] == T8


def test_is_solution_examples(h1):
    first = initial_state(h1)
    first.gamma_add(h1.index_of["a"])
    drain(first, h1)
    assert is_solution(first)
    assert first.members(IN) == tuple(sorted(ids(h1, "acd")))

    second = initial_state(h1)
    mark_must_out(second, h1, h1.index_of["a"])
    second.gamma_add(h1.index_of["b"])
    drain(second, h1)
    assert is_solution(second)
    assert second.members(IN) == tuple(sorted(ids(h1, "be")))

    third = initial_state(h1)
    mark_must_out(third, h1, h1.index_of["a"])
    assert not is_solution(third)  # blanks remain


def test_mark_must_out_first_backtrack(h1):
    state = initial_state(h1)
    assert mark_must_out(state, h1, h1.index_of["a"])
    assert tables(state, h1) == T5


def test_mark_must_out_triggers_force(h1):
    state = initial_state(h1)
    assert mark_must_out(state, h1, h1.index_of["a"])
    assert mark_must_out(state, h1, h1.index_of["b"])
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
    state.gamma_add(h1.index_of["a"])
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
    mark_must_out(state, h1, h1.index_of["a"])
    assert tables(state, h1) == T5
    state.checkpoint()
    state.gamma_add(h1.index_of["b"])
    drain(state, h1)
    assert tables(state, h1) == T8
    state.rollback()
    assert tables(state, h1) == T5


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


def test_enumerate_limit(h1):
    found = []
    assert enumerate_extensions(h1, sink=found.append, limit=1) == 1
    assert found == [tuple(sorted(ids(h1, "acd")))]


def test_golden_trace_stream(h1):
    events = []
    probe = FanOut(Tracer(h1, events.append), Checker(h1, check_label_state))
    enumerate_extensions(h1, probe=probe)
    got = [(e.mu, e.pi, e.gamma) for e in events]
    intermediate = (
        {"a": "in", "b": "out", "c": "in", "d": "blank", "e": "must_out", "f": "must_out"},
        T3[1],
        ["d"],
    )
    assert got == [T1, T2, T3, intermediate, T4, T5, T6, T7, T8, T9, T10]
    assert [e.state_id for e in events] == list(range(1, 12))


def test_trace_event_round_trips_to_dict(h1):
    state = initial_state(h1)
    event = trace_event(state, h1, 1)
    payload = event.as_dict()
    assert payload["state_id"] == 1
    assert payload["mu"] == ALL_BLANK
    assert payload["gamma"] == []


def test_stale_worklist_entry_is_dead_end():
    # In the directed 3-cycle, assigning one argument forces its attacker's
    # attacker in, then relabels it out in the same pass; the stale queue
    # entry must kill the branch.
    f = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    state = initial_state(f)
    assert assign_in(state, f, 0)
    assert state.gamma == {2}
    assert state.mu[2] == MUST_OUT
    probe = Recorder()
    assert not drain(state, f, probe)
    dead = [chosen for chosen, blank in probe.dead]
    assert dead == [frozenset({0})]
    assert enumerate_extensions(f) == 0


def test_counters_stay_non_negative(h1):
    state = initial_state(h1)
    state.gamma_add(h1.index_of["a"])
    drain(state, h1)
    assert all(value >= 0 for value in state.pi)


@given(frameworks(max_args=7))
def test_agrees_with_bruteforce(f):
    found = []
    enumerate_extensions(f, sink=found.append, probe=Checker(f, check_label_state))
    assert sorted(found) == enumerate_bruteforce(f)


@given(frameworks(max_args=7))
def test_strategy_independent_result_set(f):
    results = []
    for pick in STRATEGIES.values():
        found = []
        enumerate_extensions(f, pick=pick, sink=found.append)
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


def test_invariant_checker_accepts_boundary_states(h1):
    state = initial_state(h1)
    check_label_state(h1, state)
    state.gamma_add(h1.index_of["a"])
    drain(state, h1)
    check_label_state(h1, state)


def test_invariant_checker_rejects_stale_counter(h1):
    from stabenum.invariants import InvariantViolation

    state = initial_state(h1)
    state.pi[0] = 0  # pretend a's attackers are gone
    with pytest.raises(InvariantViolation):
        check_label_state(h1, state)
