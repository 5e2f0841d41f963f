from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabenum import label_enum, set_enum
from stabenum.generators import GenSpec, random_af
from stabenum.invariants import Checker, check_label_state
from stabenum.oracle import enumerate_bruteforce, is_stable
from stabenum.strategies import STRATEGIES, SearchStats

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
# either search tree shows up as a failure; both engines explore the same
# tree, so their branch counts agree
@pytest.mark.parametrize(
    "f, set_counters, label_counters",
    [
        pytest.param(h1_framework(), (2, 2, 4), (2, 2, 6), id="h1"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=34)), (2, 5, 14), (2, 5, 21),
                     id="n30_seed34"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=2)), (1, 22, 26), (1, 22, 83),
                     id="n30_seed2"),
    ],
)
def test_search_counters_pinned(f, set_counters, label_counters):
    assert label_counters[1] == set_counters[1]
    for engine, expected in ((set_enum, set_counters), (label_enum, label_counters)):
        stats = SearchStats()
        count = engine.enumerate_extensions(f, probe=stats)
        assert (count, stats.branches, stats.propagations) == expected


def _branch_parity(f, order):
    """Run both engines with ``order``; returns (set, label) (extensions, branches)."""
    runs = []
    for engine in (set_enum, label_enum):
        stats = SearchStats()
        found: list = []
        engine.enumerate_extensions(f, STRATEGIES[order], found.append, probe=stats)
        runs.append((sorted(found), stats.branches))
    return runs


@given(frameworks(max_args=8), st.sampled_from(("lex", "max-out")))
def test_branch_parity(f, order):
    set_run, label_run = _branch_parity(f, order)
    assert label_run == set_run


def test_branch_parity_sweep():
    mismatches = []
    for n, p, allow, seed in itertools.product(
        (12, 20, 30), (0.1, 0.2, 0.3), (False, True), range(40)
    ):
        f = random_af(GenSpec(n=n, p=p, allow_self_loops=allow, seed=seed))
        for order in ("lex", "max-out"):
            set_run, label_run = _branch_parity(f, order)
            if label_run != set_run:
                mismatches.append((n, p, allow, seed, order, set_run[1], label_run[1]))
    assert mismatches == []
