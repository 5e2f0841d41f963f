"""The split search: the cut scan, and output equal to the single search's."""

from __future__ import annotations

import random

import pytest

from stabenum import label_enum, set_enum, split
from stabenum.cli import main
from stabenum.formats import write_apx
from stabenum.framework import Framework, build
from stabenum.generators import GenSpec, random_af
from stabenum.strategies import STRATEGIES, max_out_order

from conftest import h1_framework, pairs_framework

# two components, {b, d, f} attacking each other both ways and {a, c}, plus
# the isolated e: interleaved in index order, consecutive under max-out
MAX_OUT_PARTS = build(
    list("abcdef"),
    [("b", "d"), ("d", "b"), ("d", "f"), ("f", "d"), ("b", "f"), ("f", "b"),
     ("a", "c"), ("c", "a")],
)


@pytest.mark.parametrize(
    "f, order, expected",
    [
        (pairs_framework(8), range(8), [2, 4, 6]),
        (h1_framework(), range(6), []),
        (build(list("abcd"), [("a", "c"), ("c", "a"), ("b", "d"), ("d", "b")]), range(4), []),
        (build(list("abcde"), [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]), range(5), [2, 4]),
        (MAX_OUT_PARTS, range(6), []),
        (MAX_OUT_PARTS, max_out_order(MAX_OUT_PARTS), [3, 5]),
        # the same order as a list: the scan for any permutation
        (pairs_framework(8), list(range(8)), [2, 4, 6]),
        (build([], []), range(0), []),
    ],
    ids=["pairs", "h1", "interleaved", "trailing-isolated", "max-out-lex", "max-out",
         "pairs-list", "empty"],
)
def test_cuts(f, order, expected):
    assert split.cuts(f, order) == expected


def test_groups_join_parts_into_at_most_max_groups(monkeypatch):
    assert split.groups(8, [2, 4, 6]) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert split.groups(5, []) == [(0, 5)]
    monkeypatch.setattr(split, "MAX_GROUPS", 2)
    assert split.groups(8, [2, 4, 6]) == [(0, 4), (4, 8)]
    # balanced by argument count: the first group ends at the first cut past n/2
    assert split.groups(10, [1, 2, 3, 9]) == [(0, 9), (9, 10)]
    assert len(split.groups(1000, list(range(1, 1000)))) == 2


def test_restrict_renumbers_in_index_order():
    g = split.restrict(MAX_OUT_PARTS, [1, 3, 5])
    assert g.names == ("b", "d", "f")
    assert g.succ == ((1, 2), (0, 2), (0, 1))
    assert g.pred == g.succ
    assert g == build(["b", "d", "f"], [(x, y) for x in "bdf" for y in "bdf" if x != y])


def test_restrict_shifts_a_range_of_indices():
    # a attacks itself, b attacks c and d, d attacks itself, e and f attack
    # each other
    f = build(list("abcdef"), [("a", "a"), ("b", "c"), ("b", "d"), ("d", "d"), ("e", "f"),
                               ("f", "e")])
    g = split.restrict(f, [1, 2, 3])
    assert g.succ == ((1, 2), (), (2,))
    assert g.pred == ((), (0,), (0, 2))
    assert g == build(["b", "c", "d"], [("b", "c"), ("b", "d"), ("d", "d")])
    assert split.restrict(f, range(4, 6)) == build(["e", "f"], [("e", "f"), ("f", "e")])


def concatenation(rng: random.Random, loops: bool) -> Framework:
    """Small random frameworks declared one after another; about one in three
    is joined to the one before it by a single crossing attack."""
    names: list[str] = []
    attacks: list[tuple[str, str]] = []
    for part in range(rng.randint(2, 5)):
        g = random_af(GenSpec(rng.randint(1, 4), rng.choice([0.2, 0.4]),
                              seed=rng.randrange(1 << 30), allow_self_loops=loops))
        local = [f"p{part}_{x}" for x in range(g.n)]
        if names and rng.random() < 1 / 3:
            ends = [rng.choice(names), rng.choice(local)]
            rng.shuffle(ends)
            attacks.append((ends[0], ends[1]))
        names += local
        attacks += [(local[x], local[y]) for x, y in g.attacks]
    return build(names, attacks)


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("loops", [False, True], ids=["no-loops", "loops"])
def test_cli_output_equals_the_single_search(tmp_path, capsys, loops):
    # --check-invariants attaches a probe, which runs the single search
    rng = random.Random(16 + loops)
    path = tmp_path / "concat.apx"
    split_runs = 0
    for _ in range(12):
        f = concatenation(rng, loops)
        path.write_text(write_apx(f))
        for order in STRATEGIES:
            split_runs += len(split.groups(f.n, split.cuts(f, STRATEGIES[order](f)))) > 1
            for engine in ("set", "label"):
                for task in ("EE-ST", "CE-ST"):
                    for verify in ([], ["--verify"]):
                        argv = [str(path), "--engine", engine, "--order", order, "--task", task,
                                *verify]
                        assert _stdout(capsys, argv) == _stdout(
                            capsys, [*argv, "--check-invariants"]
                        ), argv
    assert split_runs > 20


@pytest.mark.parametrize("cap", [0, 1, 3, 8])
@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
def test_stored_extensions_over_the_cap_fall_back(monkeypatch, engine, cap):
    monkeypatch.setattr(split, "MAX_STORED", cap)
    rng = random.Random(cap)
    for f in [pairs_framework(4), pairs_framework(8), MAX_OUT_PARTS] + [
        concatenation(rng, False) for _ in range(20)
    ]:
        for pick in STRATEGIES.values():
            single: list = []
            count = engine.enumerate_extensions(f, pick, single.append)
            found: list = []
            assert split.enumerate_extensions(engine, f, pick, found.append) == count
            assert found == single
            assert split.enumerate_extensions(engine, f, pick, None) == count


def chains_and_pairs(*pieces: tuple[str, int]) -> Framework:
    """Pieces declared one after another: ``("chain", k)`` is a chain of ``k``
    arguments, one extension of every other one; ``("pairs", k)`` is ``k``
    mutually attacking pairs."""
    names: list[str] = []
    attacks: list[tuple[str, str]] = []
    for kind, k in pieces:
        start = len(names)
        if kind == "chain":
            names += [f"a{start + i}" for i in range(k)]
            attacks += list(zip(names[start:], names[start + 1:]))
        else:
            names += [f"a{start + i}" for i in range(2 * k)]
            attacks += [(names[start + i], names[start + (i ^ 1)]) for i in range(2 * k)]
    return build(names, attacks)


def _spy(monkeypatch, engine) -> list:
    """Record the framework and limit of each search that ``engine`` runs."""
    calls = []
    search = engine.enumerate_extensions

    def spy(g, pick, sink, **kwargs):
        calls.append((g, kwargs.get("limit")))
        return search(g, pick, sink, **kwargs)

    monkeypatch.setattr(engine, "enumerate_extensions", spy)
    return calls


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
@pytest.mark.parametrize("cap, falls_back", [(223, True), (224, False)])
def test_the_cap_counts_stored_arguments(monkeypatch, engine, cap, falls_back):
    # the second group's one-extension chain makes each of its 16 extensions
    # 4 + 10 = 14 arguments long, 224 in all, though there are only 16
    f = chains_and_pairs(("chain", 30), ("pairs", 4), ("chain", 20))
    monkeypatch.setattr(split, "MAX_GROUPS", 2)
    monkeypatch.setattr(split, "MAX_STORED", cap)
    assert split.groups(f.n, split.cuts(f, range(f.n))) == [(0, 30), (30, 58)]
    single: list = []
    assert engine.enumerate_extensions(f, STRATEGIES["lex"], single.append) == 16
    calls = _spy(monkeypatch, engine)
    found: list = []
    assert split.enumerate_extensions(engine, f, STRATEGIES["lex"], found.append) == 16
    assert found == single
    assert ((f, None) in calls) == falls_back


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
@pytest.mark.parametrize("cap, falls_back", [(3, True), (4, False)])
def test_the_cap_counts_every_stored_group(monkeypatch, engine, cap, falls_back):
    # three pairs, three groups: the last two store two one-argument extensions each
    f = pairs_framework(6)
    monkeypatch.setattr(split, "MAX_STORED", cap)
    assert split.groups(f.n, split.cuts(f, range(f.n))) == [(0, 2), (2, 4), (4, 6)]
    calls = _spy(monkeypatch, engine)
    found: list = []
    assert split.enumerate_extensions(engine, f, STRATEGIES["lex"], found.append) == 8
    assert ((f, None) in calls) == falls_back


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
def test_no_later_group_is_searched_after_a_first_group_without_extension(monkeypatch, engine):
    # the odd cycle first: the single search stops at once, and so does the split
    f = build(list("abcdefg"), [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "d"),
                                ("f", "g"), ("g", "f")])
    assert split.cuts(f, range(f.n)) == [3, 5]
    calls = _spy(monkeypatch, engine)
    found: list = []
    assert split.enumerate_extensions(engine, f, STRATEGIES["lex"], found.append) == 0
    assert found == []
    assert [(g.names, limit) for g, limit in calls] == [(("a", "b", "c"), 1)]


def test_a_part_without_extension_empties_the_output(capsys, tmp_path):
    # the odd cycle in the middle has no stable extension
    f = build(list("abcdefg"), [("a", "b"), ("b", "a"), ("c", "d"), ("d", "e"), ("e", "c"),
                                ("f", "g"), ("g", "f")])
    assert split.cuts(f, range(f.n)) == [2, 5]
    path = tmp_path / "dead.apx"
    path.write_text(write_apx(f))
    assert _stdout(capsys, [str(path)]) == ""
    assert _stdout(capsys, [str(path), "--task", "CE-ST"]) == "COUNT 0\n"


def test_count_on_many_pairs_is_the_product(tmp_path, capsys):
    # 2^100 leaves for the single search; 32 small searches for the split
    path = tmp_path / "pairs.apx"
    path.write_text(write_apx(pairs_framework(200)))
    assert _stdout(capsys, [str(path), "--task", "CE-ST"]) == f"COUNT {2 ** 100}\n"


def test_order_is_picked_once(monkeypatch):
    calls = []

    def pick(f):
        calls.append(f)
        return range(f.n)

    f = pairs_framework(8)
    assert split.enumerate_extensions(label_enum, f, pick, [].append) == 16
    assert calls == [f]
    # over the cap the single search reuses the order
    monkeypatch.setattr(split, "MAX_STORED", 0)
    calls.clear()
    assert split.enumerate_extensions(label_enum, f, pick, [].append) == 16
    assert calls == [f]
