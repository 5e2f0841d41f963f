from __future__ import annotations

from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabenum.formats import write_apx, write_tgf
from stabenum.framework import Framework, UnknownArgument, build, initial_partition

import reference_apx
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
    # by attacker, then target, whatever the declaration order
    assert f.attacks == ((0, 1), (1, 0), (2, 0))
    assert f.pred == ((1, 2), (0,), ())
    assert f.succ == ((1,), (0,), (0,))


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


# ---------------------------------------------------------------- build's bulk path
# build must give what the item-by-item build it replaced
# (tests/reference_apx.py) gives: names, attacks, warnings and error, with the
# adjacency that the reference derives item by item.


def _build_outcome(build_fn, names, attacks, adjacency=attrgetter("succ", "pred", "self_loop")):
    warnings: list[tuple[int, str]] = []
    try:
        f = build_fn(names, attacks, lambda i, message: warnings.append((i, message)))
    except UnknownArgument as exc:
        return exc.message, exc.index, warnings
    return (f.names, f.attacks), adjacency(f), warnings


@st.composite
def names_and_attacks(draw) -> tuple[list[str], list[tuple[str, str]]]:
    """Names, with repeats, and attacks between them, so that most draws build
    a framework; some draws also put an attack with the undeclared endpoint
    ``f`` somewhere among them."""
    names = draw(st.lists(st.sampled_from("abcde"), max_size=8))
    attacks = []
    if names:
        endpoint = st.sampled_from(names)
        attacks = draw(st.lists(st.tuples(endpoint, endpoint), max_size=12))
    if draw(st.integers(0, 3)) == 3:
        x = draw(st.sampled_from([*names, "f"]))
        stray = draw(st.sampled_from([(x, "f"), ("f", x)]))
        attacks.insert(draw(st.integers(0, len(attacks))), stray)
    return names, attacks


@given(names_and_attacks())
def test_build_matches_the_item_by_item_reference(drawn):
    names, attacks = drawn
    assert _build_outcome(build, names, attacks) == _build_outcome(
        reference_apx.build, names, attacks, reference_apx.adjacency
    )


def test_build_takes_one_shot_iterators():
    names, attacks = ["a", "b", "a"], [("a", "b"), ("b", "b"), ("a", "b")]
    warnings: list[tuple[int, str]] = []
    f = build(iter(names), iter(attacks), lambda i, message: warnings.append((i, message)))
    assert f == build(names, attacks)
    assert (f.succ, f.pred, f.self_loop) == (((1,), (1,)), ((), (0, 1)), (False, True))
    assert warnings == [(2, "duplicate argument 'a'")]
    with pytest.raises(UnknownArgument) as excinfo:
        build(iter(names), iter(attacks + [("c", "a")]))
    assert excinfo.value.index == 3


def test_build_warns_for_each_repeat_in_order():
    warnings: list[tuple[int, str]] = []
    f = build(["a", "b", "a", "b", "a"], [], lambda i, message: warnings.append((i, message)))
    assert f.names == ("a", "b")
    assert warnings == [
        (2, "duplicate argument 'a'"),
        (3, "duplicate argument 'b'"),
        (4, "duplicate argument 'a'"),
    ]


def test_build_does_not_call_warn_without_repeats():
    def warn(i: int, message: str) -> None:
        raise AssertionError(f"warn({i}, {message!r}) called")

    assert build(["a", "b"], [("a", "b"), ("a", "b")], warn).attacks == ((0, 1),)


def test_build_repeated_attack_before_an_undeclared_one():
    with pytest.raises(UnknownArgument) as excinfo:
        build(["a", "b"], [("a", "b"), ("a", "b"), ("b", "c")])
    assert excinfo.value.index == 2
    assert excinfo.value.message == "attack (b,c) uses undeclared argument 'c'"


def test_build_repeated_self_attack():
    f = build(["y", "x"], [("x", "x"), ("x", "x")])
    assert f.attacks == ((1, 1),)
    assert f.self_loop == (False, True)


def test_framework_is_a_value_of_its_names_and_attacks(h1):
    twin = build(H1_NAMES, H1_ATTACKS)
    assert twin == h1 and hash(twin) == hash(h1)
    assert twin != build(H1_NAMES, H1_ATTACKS[1:])
    assert build(["a", "b"], []) != build(["b", "a"], [])
    # the adjacency is derived from names and attacks
    again = Framework(h1.names, h1.attacks)
    assert again == h1
    assert (again.succ, again.pred, again.self_loop) == (h1.succ, h1.pred, h1.self_loop)
    assert h1 != (h1.names, h1.attacks)
    with pytest.raises(AttributeError):
        h1.names = ()
    with pytest.raises(AttributeError):
        h1.succ = ()
    with pytest.raises(AttributeError):
        del h1.names


def test_framework_derives_its_adjacency_and_drops_repeated_attacks():
    f = Framework(("a", "b"), ((1, 0), (0, 1), (1, 0), (1, 1)))
    assert f.attacks == ((0, 1), (1, 0), (1, 1))
    assert f.succ == ((1,), (0, 1))
    assert f.pred == ((1,), (0, 1))
    assert f.self_loop == (False, True)
    assert "attacks" not in Framework.__slots__


def test_framework_equality_ignores_the_declaration_order():
    names = ["a", "b", "c"]
    first = build(names, [("a", "b"), ("c", "a"), ("b", "a"), ("b", "b"), ("a", "b")])
    second = build(names, [("b", "b"), ("b", "a"), ("b", "a"), ("a", "b"), ("c", "a")])
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert write_apx(first) == write_apx(second)
    assert write_tgf(first) == write_tgf(second)
    assert first.attacks == second.attacks == ((0, 1), (1, 0), (1, 1), (2, 0))


@given(frameworks())
def test_framework_of_a_frameworks_names_and_attacks_is_that_framework(f):
    g = Framework(f.names, f.attacks)
    assert g == f
    assert (g.names, g.attacks, g.succ, g.pred, g.self_loop) == (
        f.names, f.attacks, f.succ, f.pred, f.self_loop
    )
    assert list(g.attacks) == sorted(set(g.attacks))
    # sorted and duplicate-free, as cuts and the engines assume
    assert (g.succ, g.pred, g.self_loop) == reference_apx.adjacency(f)


def test_framework_repr_shows_its_names_and_attacks():
    f = build(["a", "b"], [("a", "b"), ("b", "b")])
    assert repr(f) == "Framework(names=('a', 'b'), attacks=((0, 1), (1, 1)))"
