from __future__ import annotations

from itertools import combinations, product

import pytest
from hypothesis import given

from stabenum.framework import attacked_by, build
from stabenum.oracle import TooLarge, enumerate_bruteforce, is_stable

from conftest import frameworks, ids
from test_small_models import small_frameworks


def by_definition(f):
    """The subsets that pass ``is_stable``, in lexicographic order."""
    subsets = (s for k in range(f.n + 1) for s in combinations(range(f.n), k))
    return sorted(s for s in subsets if is_stable(f, s))


def test_is_stable_h1(h1):
    assert is_stable(h1, ids(h1, "acd"))
    assert is_stable(h1, ids(h1, "be"))
    assert not is_stable(h1, ids(h1, "d"))


def test_bruteforce_h1(h1):
    assert enumerate_bruteforce(h1) == [
        tuple(sorted(ids(h1, "acd"))),
        tuple(sorted(ids(h1, "be"))),
    ]


def test_bruteforce_empty():
    f = build([], [])
    assert enumerate_bruteforce(f) == [()]


def test_bruteforce_single_self_loop():
    f = build(["x"], [("x", "x")])
    assert enumerate_bruteforce(f) == []


def test_bruteforce_guard():
    f = build([f"a{i}" for i in range(26)], [])
    with pytest.raises(TooLarge, match=r"^26 arguments exceed the brute-force limit of 25$"):
        enumerate_bruteforce(f)


def test_bruteforce_above_twenty_arguments():
    # ten mutual pairs and one unattacked argument: one pick from each pair,
    # plus a20, in lexicographic order
    names = [f"a{i}" for i in range(21)]
    f = build(names, [(names[i], names[i ^ 1]) for i in range(20)])
    pairs = [(2 * i, 2 * i + 1) for i in range(10)]
    expected = [picks + (20,) for picks in product(*pairs)]
    assert len(expected) == 1024
    assert enumerate_bruteforce(f) == expected


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bruteforce_is_the_definition_on_small_models(n):
    for f in small_frameworks(n):
        assert enumerate_bruteforce(f) == by_definition(f)


@given(frameworks(max_args=8))
def test_bruteforce_is_the_definition(f):
    assert enumerate_bruteforce(f) == by_definition(f)


def test_results_in_lexicographic_order():
    # complete digraph: every singleton is stable
    names = ["a", "b", "c"]
    f = build(names, [(x, y) for x in names for y in names if x != y])
    assert enumerate_bruteforce(f) == [(0,), (1,), (2,)]


@given(frameworks(max_args=7))
def test_extensions_are_conflict_free(f):
    for ext in enumerate_bruteforce(f):
        members = frozenset(ext)
        assert not members & attacked_by(f, members)


@given(frameworks(max_args=7))
def test_extensions_are_incomparable(f):
    extensions = [frozenset(ext) for ext in enumerate_bruteforce(f)]
    for first, second in combinations(extensions, 2):
        assert not first <= second
        assert not second <= first
