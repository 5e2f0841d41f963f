from __future__ import annotations

import pytest
from hypothesis import given

from stabenum.framework import build
from stabenum.invariants import Checker, check_set_state
from stabenum.oracle import enumerate_bruteforce
from stabenum.set_enum import (
    SetState,
    apply_join,
    dead_end,
    enumerate_extensions,
    forced_in,
    is_solution,
    propagate,
    sole_attacker,
    start_state,
)
from stabenum.strategies import STRATEGIES, SearchStats

from conftest import Recorder, frameworks, h1_framework, ids


def state(f, chosen="", defeated="", choice="", tabu=""):
    return SetState(ids(f, chosen), ids(f, defeated), ids(f, choice), ids(f, tabu))


def test_dead_end_fires_on_unattackable_tabu(h1):
    assert dead_end(state(h1, "d", "bef", "c", "a"), h1)


def test_dead_end_vacuous_without_tabu(h1):
    assert not dead_end(state(h1, choice="abcdef"), h1)


def test_dead_end_needs_all_attackers_blocked(h1):
    assert not dead_end(state(h1, choice="bcdef", tabu="a"), h1)


def test_forced_in_neutralized_attackers(h1):
    assert forced_in(state(h1, "a", "b", "cd", "ef"), h1) == ids(h1, "cd")


def test_forced_in_empty_choice(h1):
    assert forced_in(state(h1, tabu="abcdef"), h1) == frozenset()


def test_forced_in_via_tabu_attacker(h1):
    assert forced_in(state(h1, choice="cdef", tabu="ab"), h1) == ids(h1, "d")


def test_sole_attacker_of_tabu_argument():
    f = build(["x", "y"], [("y", "y"), ("x", "y")])
    s = SetState(frozenset(), frozenset(), ids(f, "x"), ids(f, "y"))
    assert sole_attacker(s, f) == f.names.index("x")
    assert [tuple(sorted(e)) for e in enumerate_bruteforce(f)] == [(f.names.index("x"),)]


def test_sole_attacker_without_tabu(h1):
    assert sole_attacker(state(h1, choice="abcdef"), h1) is None


def test_sole_attacker_needs_unique_witness(h1):
    # two choice attackers remain for the only tabu argument
    assert sole_attacker(state(h1, choice="bcdef", tabu="a"), h1) is None


def test_apply_join_single(h1):
    joined = apply_join(start_state(h1), h1, ids(h1, "a"))
    assert joined == state(h1, "a", "b", "cd", "ef")


def test_apply_join_empty_delta_is_identity(h1):
    s = state(h1, "a", "b", "cd", "ef")
    assert apply_join(s, h1, frozenset()) is s


def test_apply_join_pair(h1):
    s = state(h1, "a", "b", "cd", "ef")
    assert apply_join(s, h1, ids(h1, "cd")) == state(h1, "acd", "bef")


def test_propagate_completes_branch(h1):
    s = apply_join(start_state(h1), h1, ids(h1, "a"))
    result = propagate(s, h1)
    assert result is not None
    assert result.chosen == ids(h1, "acd")
    assert is_solution(result)


def test_propagate_attack_free_takes_everything():
    f = build(["x", "y", "z"], [])
    result = propagate(start_state(f), f)
    assert result is not None
    assert result.chosen == frozenset(range(3))
    assert is_solution(result)


def test_propagate_dead_end(h1):
    probe = Recorder()
    result = propagate(state(h1, choice="cdef", tabu="ab"), h1, probe)
    events = probe.dead
    assert result is None
    assert events and events[0][0] == ids(h1, "d")


def test_is_solution(h1):
    assert is_solution(state(h1, "acd", "bef"))
    assert not is_solution(state(h1, tabu="a"))
    assert is_solution(state(h1, "be", "acdf"))


def test_enumerate_h1_order(h1):
    found = []
    count = enumerate_extensions(h1, sink=found.append)
    assert count == 2
    assert found == [tuple(sorted(ids(h1, "acd"))), tuple(sorted(ids(h1, "be")))]


def test_enumerate_empty_framework():
    f = build([], [])
    found = []
    assert enumerate_extensions(f, sink=found.append) == 1
    assert found == [()]


def test_enumerate_limit(h1):
    found = []
    assert enumerate_extensions(h1, sink=found.append, limit=1) == 1
    assert found == [tuple(sorted(ids(h1, "acd")))]


def test_example_run_replay(h1):
    # replays the hand-worked run over the fixture framework, one
    # branching decision at a time
    s1 = start_state(h1)
    assert propagate(s1, h1) == s1

    s2 = apply_join(s1, h1, ids(h1, "a"))
    assert s2 == state(h1, "a", "b", "cd", "ef")
    assert forced_in(s2, h1) == ids(h1, "cd")
    s3 = apply_join(s2, h1, ids(h1, "cd"))
    assert s3 == state(h1, "acd", "bef")

    s4 = state(h1, choice="bcdef", tabu="a")
    assert propagate(s4, h1) == s4
    s5 = apply_join(s4, h1, ids(h1, "b"))
    assert s5 == state(h1, "b", "cd", "ef", "a")
    assert forced_in(s5, h1) == ids(h1, "e")
    s6 = apply_join(s5, h1, ids(h1, "e"))
    assert s6 == state(h1, "be", "acdf")

    s7 = state(h1, choice="cdef", tabu="ab")
    assert forced_in(s7, h1) == ids(h1, "d")
    s8 = apply_join(s7, h1, ids(h1, "d"))
    assert s8 == state(h1, "d", "bef", "c", "a")
    assert dead_end(s8, h1)


@given(frameworks(max_args=7))
def test_agrees_with_bruteforce(f):
    found = []
    enumerate_extensions(f, sink=found.append, probe=Checker(f, check_set_state))
    assert sorted(found) == enumerate_bruteforce(f)


@given(frameworks(max_args=7))
def test_strategy_independent_result_set(f):
    results = []
    for pick in STRATEGIES.values():
        found = []
        enumerate_extensions(f, pick(f), sink=found.append)
        results.append(sorted(found))
    assert results[0] == results[1] == results[2]


@given(frameworks(max_args=7))
def test_no_duplicates(f):
    found = []
    enumerate_extensions(f, sink=found.append)
    assert len(found) == len(set(found))


def test_stats_recorded(h1):
    stats = SearchStats()
    enumerate_extensions(h1, probe=stats)
    assert stats.branches >= 2
    assert stats.propagations >= 3


def test_forcings_and_dead_ends_sound_small():
    f = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    probe = Recorder()
    enumerate_extensions(f, probe=probe)
    forced, dead = probe.forced, probe.dead
    oracle = [frozenset(e) for e in enumerate_bruteforce(f)]
    for chosen, choice, x in forced:
        for ext in oracle:
            if ext >= chosen and ext - chosen <= choice:
                assert x in ext
    for chosen, choice in dead:
        assert not any(ext >= chosen and ext - chosen <= choice for ext in oracle)


def test_invariant_checker_rejects_bad_state(h1):
    from stabenum.invariants import InvariantViolation

    bad = SetState(ids(h1, "a"), frozenset(), ids(h1, "cd"), ids(h1, "bef"))
    with pytest.raises(InvariantViolation):
        check_set_state(h1, bad)


@pytest.mark.parametrize(
    "f, chosen, defeated, choice, tabu, message",
    [
        # a attacks itself, so choosing it defeats it
        (build(["a", "b"], [("a", "a")]), "a", "a", "", "b",
         r"chosen and defeated overlap: \[0\]"),
        # e attacks the chosen a, so it is settled
        (h1_framework(), "a", "b", "cde", "f", r"choice contains settled arguments: \[4\]"),
        (h1_framework(), "a", "b", "cd", "e", r"tabu \[4\] != complement \[4, 5\]"),
    ],
)
def test_invariant_checker_names_each_partition_fault(f, chosen, defeated, choice, tabu, message):
    from stabenum.invariants import InvariantViolation

    bad = SetState(ids(f, chosen), ids(f, defeated), ids(f, choice), ids(f, tabu))
    with pytest.raises(InvariantViolation, match=message):
        check_set_state(f, bad)


def test_set_state_is_a_value(h1):
    s = state(h1, "a", "b", "cd", "ef")
    assert s == SetState(chosen=ids(h1, "a"), defeated=ids(h1, "b"), choice=ids(h1, "cd"), tabu=ids(h1, "ef"))
    assert hash(s) == hash(state(h1, "a", "b", "cd", "ef"))
    assert s != state(h1, "a", "b", "ce", "df")
    assert s != state(h1, "", "a", "bcd", "ef")
    with pytest.raises(AttributeError):
        s.chosen = frozenset()


def test_search_stats_start_at_zero():
    stats = SearchStats()
    assert (stats.branches, stats.propagations) == (0, 0)


def test_set_state_repr(h1):
    assert repr(state(h1, "a", "b", "cd")) == (
        "SetState(chosen=frozenset({0}), defeated=frozenset({1}), "
        "choice=frozenset({2, 3}), tabu=frozenset())"
    )
