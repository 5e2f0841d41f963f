from __future__ import annotations

import inspect
import itertools
import sys
from collections.abc import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabenum import label_enum, set_enum
from stabenum.generators import GenSpec, random_af
from stabenum.invariants import Checker, check_label_state
from stabenum.oracle import enumerate_bruteforce, is_stable
from stabenum.strategies import STRATEGIES, FanOut, Probe, SearchStats, deliver, search_order

from conftest import frameworks, h1_framework, pairs_framework


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
    "f, order, set_counters, label_counters",
    [
        pytest.param(h1_framework(), "lex", (2, 2, 4), (2, 2, 6), id="h1"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=34)), "lex", (2, 5, 14), (2, 5, 21),
                     id="n30_seed34"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=2)), "lex", (1, 22, 26), (1, 22, 81),
                     id="n30_seed2"),
        pytest.param(h1_framework(), "max-out", (2, 1, 4), (2, 1, 4), id="h1_max_out"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=34)), "max-out", (2, 10, 31),
                     (2, 10, 51), id="n30_seed34_max_out"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=2)), "max-out", (1, 8, 11),
                     (1, 8, 29), id="n30_seed2_max_out"),
        pytest.param(h1_framework(), "max-in", (2, 2, 4), (2, 2, 6), id="h1_max_in"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=34)), "max-in", (2, 15, 39),
                     (2, 15, 72), id="n30_seed34_max_in"),
        pytest.param(random_af(GenSpec(n=30, p=0.2, seed=2)), "max-in", (1, 17, 26),
                     (1, 17, 74), id="n30_seed2_max_in"),
    ],
)
def test_search_counters_pinned(f, order, set_counters, label_counters):
    assert label_counters[1] == set_counters[1]
    for engine, expected in ((set_enum, set_counters), (label_enum, label_counters)):
        stats = SearchStats()
        count = engine.enumerate_extensions(f, STRATEGIES[order](f), probe=stats)
        assert (count, stats.branches, stats.propagations) == expected


class LabelsAreMembers(Probe):
    """Checks at every event that each label is a ``Label`` member, which
    the engine's identity tests (``mu[x] is BLANK``) rely on."""

    def _check(self, state):
        assert all(type(y) is label_enum.Label for y in state.mu)

    def state(self, state):
        self._check(state)

    def branch(self, state, x):
        self._check(state)

    def force(self, state, x):
        self._check(state)

    def dead_end(self, state):
        self._check(state)


def _branch_parity(f, order):
    """Run both engines with ``order``; returns (set, label) (extensions, branches).

    Each engine's generator yields the sequence that its sink receives, each
    extension's arguments strictly ascending; every label of a ``label`` state
    is a ``Label`` member at every event."""
    runs = []
    for engine in (set_enum, label_enum):
        stats = SearchStats()
        probe = FanOut(stats, LabelsAreMembers()) if engine is label_enum else stats
        found: list = []
        engine.enumerate_extensions(f, STRATEGIES[order](f), found.append, probe=probe)
        assert list(engine.extensions(f, STRATEGIES[order](f))) == found
        assert all(all(x < y for x, y in zip(ext, ext[1:])) for ext in found)
        runs.append((sorted(found), stats.branches))
    return runs


@given(frameworks(max_args=8), st.sampled_from(("lex", "max-out", "max-in")))
def test_branch_parity(f, order):
    set_run, label_run = _branch_parity(f, order)
    assert label_run == set_run


def _sweep():
    """The random frameworks of the branch parity sweep, each with its
    ``(n, p, allow_self_loops, seed)``."""
    for n, p, allow, seed in itertools.product(
        (12, 20, 30), (0.1, 0.2, 0.3), (False, True), range(40)
    ):
        yield (n, p, allow, seed), random_af(GenSpec(n=n, p=p, allow_self_loops=allow, seed=seed))


def test_branch_parity_sweep():
    mismatches = []
    for spec, f in _sweep():
        for order in ("lex", "max-out", "max-in"):
            set_run, label_run = _branch_parity(f, order)
            if label_run != set_run:
                mismatches.append((*spec, order, set_run[1], label_run[1]))
    assert mismatches == []


def test_default_probe_is_never_called(monkeypatch):
    # the engines test for NO_PROBE by identity, so a class-level patch of
    # Probe sees the events of a probe passed in and nothing else
    calls = dict.fromkeys(("state", "branch", "force", "dead_end"), 0)

    def counted(name):
        def event(self, *args):
            calls[name] += 1
        return event

    for name in calls:
        monkeypatch.setattr(Probe, name, counted(name))
    for spec, f in _sweep():
        for pick in STRATEGIES.values():
            for engine in (set_enum, label_enum):
                engine.enumerate_extensions(f, pick(f))
                assert calls == dict.fromkeys(calls, 0), (spec, engine.__name__)
                engine.enumerate_extensions(f, pick(f), probe=Probe())
                branches, forces = calls["branch"], calls["force"]
                stats = SearchStats()
                engine.enumerate_extensions(f, pick(f), probe=stats)
                assert (branches, forces) == (stats.branches, stats.propagations)
                calls.update(dict.fromkeys(calls, 0))


@pytest.mark.parametrize("engine", [set_enum, label_enum])
def test_search_depth_is_not_bounded_by_the_recursion_limit(engine):
    # 300 pairs: every extension sits 300 branches deep
    f = pairs_framework(600)
    found: list = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        count = engine.enumerate_extensions(f, sink=found.append, limit=3)
    finally:
        sys.setrecursionlimit(limit)
    assert count == 3
    assert found == [
        tuple(range(0, 600, 2)),
        (*range(0, 598, 2), 599),
        (*range(0, 596, 2), 597, 598),
    ]


@pytest.mark.parametrize("limit", [
    0, -1,
    # not exact ints: True compares equal to 1, and 1.5 or "2" is no count
    pytest.param(True, id="bool"), pytest.param(1.5, id="float"), pytest.param("2", id="str"),
])
@pytest.mark.parametrize("engine", [set_enum, label_enum])
def test_limit_below_one_is_rejected(engine, limit):
    message = "limit must be at least 1" if type(limit) is int else "limit must be an int"
    found: list = []
    with pytest.raises(ValueError, match=message):
        engine.enumerate_extensions(h1_framework(), sink=found.append, limit=limit)
    # deliver checks the limit before it starts the search
    stats = SearchStats()
    extensions = engine.extensions(h1_framework(), range(6), stats)
    with pytest.raises(ValueError, match=message):
        deliver(extensions, found.append, limit)
    assert inspect.getgeneratorstate(extensions) == inspect.GEN_CREATED
    assert found == []
    assert stats.branches == stats.propagations == 0


@pytest.mark.parametrize(
    "order",
    [
        [0, 1, 2],
        [0, 1, 2, 3, 3],
        [0, 1, 2, 4],
        # one-shot iterables: the right arguments, but not a sequence; the
        # check raises before it draws from them
        iter(range(4)),
        (x for x in range(4)),
        # an order function where its permutation belongs
        STRATEGIES["lex"],
        # equal to a permutation item by item, but not of exact ints
        [1.0, 0.0, 3.0, 2.0],
        [True, False, 2, 3],
    ],
    ids=["missing", "repeated", "out-of-range", "iterator", "generator", "function",
         "float", "bool"],
)
@pytest.mark.parametrize("engine", [set_enum, label_enum])
def test_order_that_is_not_a_permutation_is_rejected(engine, order):
    f = pairs_framework(4)
    found: list = []
    with pytest.raises(ValueError, match="not a permutation"):
        engine.enumerate_extensions(f, order, found.append)
    assert found == []


@given(frameworks())
def test_every_strategy_gives_a_permutation_in_a_sequence(f):
    # the CLI hands these orders to the split, which does not check them
    for pick in STRATEGIES.values():
        order = pick(f)
        assert isinstance(order, Sequence)
        assert sorted(order) == list(range(f.n))
    lex = STRATEGIES["lex"](f)
    assert type(lex) is range and lex == range(f.n) == search_order(f, None)
