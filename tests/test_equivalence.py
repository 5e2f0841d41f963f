from __future__ import annotations

import pytest
from hypothesis import given

from stabenum import label_enum, set_enum
from stabenum.generators import GenSpec, random_af
from stabenum.invariants import Checker, check_label_state
from stabenum.oracle import enumerate_bruteforce, is_stable
from stabenum.strategies import SearchStats

from conftest import frameworks, h1_framework


@given(frameworks(max_args=8))
def test_three_way_equivalence(f):
    expected = enumerate_bruteforce(f)
    set_found: list = []
    label_found: list = []
    set_enum.enumerate_extensions(f, sink=set_found.append)
    label_enum.enumerate_extensions(f, sink=label_found.append)
    assert sorted(set_found) == expected
    assert sorted(label_found) == expected


@given(frameworks(max_args=8))
def test_every_reported_set_is_stable(f):
    found: list = []
    label_enum.enumerate_extensions(f, sink=found.append)
    for ext in found:
        assert is_stable(f, ext)


@given(frameworks(max_args=8, allow_self_loops=False))
def test_equivalence_without_self_loops(f):
    expected = enumerate_bruteforce(f)
    found: list = []
    label_enum.enumerate_extensions(f, sink=found.append, probe=Checker(f, check_label_state))
    assert sorted(found) == expected


# (count, branches, propagations) per engine, pinned so that a change to
# either search tree shows up as a failure
@pytest.mark.parametrize(
    "f, set_counters, label_counters",
    [
        pytest.param(h1_framework(), (2, 2, 4), (2, 2, 6), id="h1"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=34)), (2, 5, 14), (2, 44, 85),
                     id="n30_seed34"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=2)), (1, 22, 26), (1, 24, 74),
                     id="n30_seed2"),
    ],
)
def test_search_counters_pinned(f, set_counters, label_counters):
    for engine, expected in ((set_enum, set_counters), (label_enum, label_counters)):
        stats = SearchStats()
        count = engine.enumerate_extensions(f, probe=stats)
        assert (count, stats.branches, stats.propagations) == expected
