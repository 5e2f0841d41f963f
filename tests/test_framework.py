from __future__ import annotations

import pytest
from hypothesis import given

from stabenum.framework import UnknownArgument, build, initial_partition

from conftest import H1_ATTACKS, H1_NAMES, frameworks, ids


def test_h1_shape(h1):
    assert h1.n == 6
    assert len(h1.attacks) == 10
    in_degrees = {h1.names[x]: len(h1.pred[x]) for x in range(h1.n)}
    assert in_degrees == {"a": 2, "b": 2, "c": 2, "d": 1, "e": 1, "f": 2}
    assert not any(h1.self_loop)


def test_empty_framework():
    f = build([], [])
    assert f.n == 0
    assert f.attacks == ()


def test_self_attack():
    f = build(["x"], [("x", "x")])
    assert f.self_loop[0]
    assert f.succ[0] == (0,)
    assert f.pred[0] == (0,)


def test_adjacency_is_sorted_and_deduplicated():
    f = build(["a", "b", "c"], [("c", "a"), ("b", "a"), ("b", "a"), ("a", "b")])
    assert f.attacks == ((2, 0), (1, 0), (0, 1))
    assert f.pred[0] == (1, 2)
    assert f.succ[1] == (0,)


def test_duplicate_names_warn_and_collapse():
    warnings: list[tuple[int, str]] = []
    f = build(["a", "b", "a"], [("a", "b")], warn=lambda i, message: warnings.append((i, message)))
    assert f.names == ("a", "b")
    assert warnings == [(2, "duplicate argument 'a'")]


def test_unknown_attack_endpoint():
    with pytest.raises(UnknownArgument):
        build(["a"], [("a", "b")])


def test_unknown_attack_endpoint_reports_the_first_attack():
    with pytest.raises(UnknownArgument) as excinfo:
        build(["a", "b"], [("a", "b"), ("c", "a"), ("a", "d")])
    assert excinfo.value.index == 1
    assert excinfo.value.message == "attack (c,a) uses undeclared argument 'c'"
    assert excinfo.value.line is None


def test_initial_partition_h1(h1):
    choice, tabu = initial_partition(h1)
    assert choice == ids(h1, "abcdef")
    assert tabu == frozenset()


def test_initial_partition_self_loop():
    f = build(["x"], [("x", "x")])
    assert initial_partition(f) == (frozenset(), frozenset({0}))


def test_initial_partition_empty():
    f = build([], [])
    assert initial_partition(f) == (frozenset(), frozenset())


@given(frameworks())
def test_adjacency_round_trip(f):
    for x in range(f.n):
        for y in f.succ[x]:
            assert x in f.pred[y]
        for y in f.pred[x]:
            assert x in f.succ[y]


@given(frameworks())
def test_attack_count_matches_adjacency(f):
    assert len(f.attacks) == sum(len(f.succ[x]) for x in range(f.n))
    assert len(f.attacks) == sum(len(f.pred[x]) for x in range(f.n))


@given(frameworks())
def test_initial_partition_partitions_arguments(f):
    choice, tabu = initial_partition(f)
    assert choice | tabu == frozenset(range(f.n))
    assert not choice & tabu
