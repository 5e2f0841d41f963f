from __future__ import annotations

import tracemalloc
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from stabenum.framework import Framework, build
from stabenum.strategies import Probe

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"

H1_NAMES = list("abcdef")
H1_ATTACKS = [
    ("a", "b"),
    ("b", "c"),
    ("b", "d"),
    ("d", "b"),
    ("d", "e"),
    ("d", "f"),
    ("e", "a"),
    ("e", "c"),
    ("e", "f"),
    ("f", "a"),
]


def h1_framework() -> Framework:
    return build(H1_NAMES, H1_ATTACKS)


@pytest.fixture
def h1() -> Framework:
    return h1_framework()


def pairs_framework(n: int) -> Framework:
    """``n`` arguments in n/2 disjoint mutually attacking pairs; search depth n/2."""
    names = [f"a{i}" for i in range(n)]
    return build(names, [(names[i], names[i ^ 1]) for i in range(n)])


@contextmanager
def traced() -> Iterator[None]:
    """Trace allocations with :mod:`tracemalloc` while the block runs.

    The interpreter's free lists of small tuples are emptied first: CPython
    keeps up to 2,000 freed tuples of each length below 20 and hands them
    out again with no allocation that tracemalloc sees, so the tests run
    before would otherwise shrink the sizes measured here.  The 20 and the
    2,500 below stand for CPython's ``PyTuple_MAXSAVESIZE`` (20) and, with
    room to spare, its ``PyTuple_MAXFREELIST`` (2,000), the same in 3.10
    through 3.13; the bounds that the callers assert hold on 3.10, 3.11 and
    3.13.
    """
    spare = [tuple(range(k)) for k in range(1, 20) for _ in range(2500)]
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        del spare


def ids(f: Framework, names: str) -> frozenset[int]:
    """Translate a string of single-letter names into an index set."""
    return frozenset(f.names.index(name) for name in names)


def mu_table(state, f: Framework) -> dict[str, str]:
    return {f.names[x]: state.mu[x].json_name() for x in range(f.n)}


def pi_table(state, f: Framework) -> dict[str, int]:
    return {f.names[x]: state.pi[x] for x in range(f.n)}


def gamma_list(state, f: Framework) -> list[str]:
    return [f.names[x] for x in sorted(state.gamma)]


class Recorder(Probe):
    """Records ``(chosen, choice, x)`` per forced argument and
    ``(chosen, choice)`` per dead end."""

    def __init__(self) -> None:
        self.forced: list[tuple[frozenset[int], frozenset[int], int]] = []
        self.dead: list[tuple[frozenset[int], frozenset[int]]] = []

    def force(self, state, x: int) -> None:
        self.forced.append((state.chosen, state.choice, x))

    def dead_end(self, state) -> None:
        self.dead.append((state.chosen, state.choice))


@st.composite
def frameworks(draw, max_args: int = 8, allow_self_loops: bool = True):
    n = draw(st.integers(min_value=0, max_value=max_args))
    names = [f"a{i}" for i in range(n)]
    if n == 0:
        return build(names, [])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if not allow_self_loops:
        pair = pair.filter(lambda xy: xy[0] != xy[1])
    attacks = draw(st.lists(pair, max_size=n * n))
    return build(names, [(names[x], names[y]) for x, y in attacks])
