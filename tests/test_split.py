"""The split search: the cut scan, and output equal to the single search's."""

from __future__ import annotations

import io
import random
import sys
from collections.abc import Callable
from itertools import accumulate

import pytest

from stabenum import label_enum, set_enum, split
from stabenum.cli import main
from stabenum.formats import format_extension, write_apx
from stabenum.framework import Framework, build
from stabenum.generators import GenSpec, random_af
from stabenum.oracle import is_stable
from stabenum.strategies import STRATEGIES, max_out_order, search_order

from conftest import h1_framework, pairs_framework
from test_small_models import small_frameworks

# two components, {b, d, f} attacking each other both ways and {a, c}, plus
# the isolated e: interleaved in index order, consecutive under max-out, but
# no prefix of the max-out order is a prefix of the indices
MAX_OUT_PARTS = build(
    list("abcdef"),
    [("b", "d"), ("d", "b"), ("d", "f"), ("f", "d"), ("b", "f"), ("f", "b"),
     ("a", "c"), ("c", "a")],
)

# two mutual pairs and a triangle whose arguments attack each other both ways
TRIANGLE_LAST = build(
    list("abcdxyz"),
    [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
    + [(s, t) for s in "xyz" for t in "xyz" if s != t],
)
TRIANGLE_FIRST = build(list("xyzabcd"), [(TRIANGLE_LAST.names[s], TRIANGLE_LAST.names[t])
                                         for s, t in TRIANGLE_LAST.attacks])


@pytest.mark.parametrize(
    "f, order, expected",
    [
        (pairs_framework(8), range(8), [2, 4, 6]),
        (h1_framework(), range(6), []),
        (build(list("abcd"), [("a", "c"), ("c", "a"), ("b", "d"), ("d", "b")]), range(4), []),
        (build(list("abcde"), [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]), range(5), [2, 4]),
        (MAX_OUT_PARTS, range(6), []),
        (MAX_OUT_PARTS, max_out_order(MAX_OUT_PARTS), []),
        # max-out branches on the triangle first: where it is declared last,
        # no prefix of the order is a prefix of the indices
        (TRIANGLE_LAST, max_out_order(TRIANGLE_LAST), []),
        (TRIANGLE_LAST, range(7), [2, 4]),
        (TRIANGLE_FIRST, max_out_order(TRIANGLE_FIRST), [3, 5]),
        # the same order as a list: the scan for any permutation
        (pairs_framework(8), list(range(8)), [2, 4, 6]),
        (build([], []), range(0), []),
    ],
    ids=["pairs", "h1", "interleaved", "trailing-isolated", "max-out-lex", "max-out",
         "triangle-last-max-out", "triangle-last-lex", "triangle-first-max-out", "pairs-list",
         "empty"],
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


def test_restrict_shifts_a_range_of_indices():
    # a attacks itself, b attacks c and d, d attacks itself, e and f attack
    # each other
    f = build(list("abcdef"), [("a", "a"), ("b", "c"), ("b", "d"), ("d", "d"), ("e", "f"),
                               ("f", "e")])
    g = split.restrict(f, 1, 4)
    assert g.succ == ((1, 2), (), (2,))
    assert g.pred == ((), (0,), (0, 2))
    assert g == build(["b", "c", "d"], [("b", "c"), ("b", "d"), ("d", "d")])
    assert split.restrict(f, 4, 6) == build(["e", "f"], [("e", "f"), ("f", "e")])


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


@pytest.mark.parametrize("loops", [False, True], ids=["no-loops", "loops"])
def test_restrict_is_the_framework_of_a_range_between_cuts(loops):
    rng = random.Random(40 + loops)
    for _ in range(200):
        f = concatenation(rng, loops)
        edges = [0, *split.cuts(f, range(f.n)), f.n]
        for i, start in enumerate(edges):
            for end in edges[i + 1:]:
                g = split.restrict(f, start, end)
                # restrict lists the attacks by attacker, then target
                inside = [(f.names[x], f.names[y]) for x, y in sorted(f.attacks)
                          if start <= x < end and start <= y < end]
                expected = build(f.names[start:end], inside)
                assert g == expected
                assert (g.succ, g.pred, g.self_loop) == (
                    expected.succ, expected.pred, expected.self_loop
                )


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("loops", [False, True], ids=["no-loops", "loops"])
def test_cli_output_equals_the_single_search(tmp_path, capsys, loops):
    # --check-invariants attaches a probe, which runs the single search
    rng = random.Random(16 + loops)
    path = tmp_path / "concat.apx"
    split_runs = 0
    for _ in range(16):
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


def unequal_names(rng: random.Random, shuffle: bool) -> Framework:
    """Two or three parts, each a mutual pair, a self-attacker that both
    attack and a small random framework that the self-attacker attacks.  The
    names are of unequal length, some a prefix of another, so that index
    order is not name order; with ``shuffle`` they are declared in a random
    order, so that a part's arguments may interleave with another's."""
    pool = [p + s for p in ("a", "b", "b_", "c") for s in ("", "1", "2", "10", "_2", "100")]
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    names = rng.sample(pool, sum(sizes) + 3 * len(sizes))
    attacks = []
    start = 0
    for size in sizes:
        x, y, loop, *rest = names[start:start + 3 + size]
        start += 3 + size
        attacks += [(x, y), (y, x), (x, loop), (y, loop), (loop, loop), (loop, rest[0])]
        g = random_af(GenSpec(size, rng.choice([0.2, 0.4]), seed=rng.randrange(1 << 30)))
        attacks += [(rest[t], rest[h]) for t, h in g.attacks]
    if shuffle:
        rng.shuffle(names)
    return build(names, attacks)


def _interleaved(f: Framework, order: str) -> bool:
    """Whether the positions of ``order`` that no attack crosses, which need
    not be prefixes of the indices, split ``f`` into groups whose arguments
    interleave in index order."""
    pick = STRATEGIES[order](f)
    position = [0] * f.n
    for c, x in enumerate(pick):
        position[x] = c
    # crossed[c]: how many attacks join a position before c to one at or after it
    crossed = [0] * (f.n + 1)
    for x, y in f.attacks:
        a, b = sorted((position[x], position[y]))
        crossed[a + 1] += 1
        crossed[b + 1] -= 1
    crossed = list(accumulate(crossed))
    spans = split.groups(f.n, [c for c in range(1, f.n) if not crossed[c]])
    args = [sorted(pick[start:end]) for start, end in spans]
    return any(a[-1] > b[0] for a, b in zip(args, args[1:]))


# a10 and a attack each other; b_2 attacks itself and is attacked by c and
# b, which attack each other; a1 is isolated: three groups under lex
UNEQUAL_NAMES = build(
    ["a10", "a", "b_2", "c", "b", "a1"],
    [("a10", "a"), ("a", "a10"), ("b_2", "b_2"), ("c", "b_2"), ("c", "b"), ("b", "c"),
     ("b", "b_2")],
)


def _stdout_of(capsys, tmp_path, f: Framework, options: list[str]) -> str:
    path = tmp_path / "af.apx"
    path.write_text(write_apx(f))
    return _stdout(capsys, [str(path), *options])


def test_cli_lines_equal_the_single_search_on_unequal_names(tmp_path, capsys):
    # the split joins the lines from text rendered per group; where the
    # parts of a degree order interleave in index order, no position of the
    # order is a cut and the single search runs
    assert _stdout_of(capsys, tmp_path, UNEQUAL_NAMES, []) == (
        "[a10,c,a1]\n[a10,b,a1]\n[a,c,a1]\n[a,b,a1]\n"
    )
    rng = random.Random(17)
    split_runs = interleaved = 0
    for f in [UNEQUAL_NAMES] + [unequal_names(rng, shuffle=k % 2 == 1) for k in range(28)]:
        for order in STRATEGIES:
            single = len(split.groups(f.n, split.cuts(f, STRATEGIES[order](f)))) == 1
            split_runs += not single
            interleaved += single and _interleaved(f, order)
            for engine in ("set", "label"):
                for verify in ([], ["--verify"]):
                    options = ["--engine", engine, "--order", order, *verify]
                    assert _stdout_of(capsys, tmp_path, f, options) == _stdout_of(
                        capsys, tmp_path, f, [*options, "--check-invariants"]
                    ), (f, options)
    assert split_runs > 20
    assert interleaved > 3


@pytest.mark.parametrize("task", ["EE-ST", "CE-ST"])
def test_verify_runs_the_single_search(monkeypatch, tmp_path, capsys, task):
    # --verify checks each whole extension as the single search finds it
    calls = []
    for name in ("write", "count"):
        search = getattr(split, name)
        monkeypatch.setattr(split, name,
                            lambda *args, search=search: calls.append(args) or search(*args))
    path = tmp_path / "pairs.apx"
    path.write_text(write_apx(pairs_framework(8)))
    out = _stdout(capsys, [str(path), "--task", task, "--verify"])
    assert calls == []
    assert _stdout(capsys, [str(path), "--task", task]) == out
    assert len(calls) == 1


def test_no_stable_extension_of_a_nonempty_framework_is_empty():
    # every argument must be in the extension or attacked by it, so each
    # group's piece of a line names at least one argument
    for n in (1, 2, 3):
        for f in small_frameworks(n):
            assert not is_stable(f, ())
    assert is_stable(build([], []), ())


class _Writes(io.StringIO):
    """A stdout that keeps each write."""

    def __init__(self):
        super().__init__()
        self.writes: list[str] = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def _writes(monkeypatch, argv) -> list[str]:
    out = _Writes()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", out)
        assert main(argv) == 0
    return out.writes


def _last_tail(f: Framework, order: str) -> int:
    """The length of the last group's piece of the first line under
    ``order``: a comma, its names and ``]\\n``; 1 without a line."""
    pick = STRATEGIES[order](f)
    start, _ = split.groups(f.n, split.cuts(f, pick))[-1]
    last = set(pick[start:])
    first: list = []
    if not label_enum.enumerate_extensions(f, STRATEGIES[order], first.append, limit=1):
        return 1
    return len(",".join([f.names[x] for x in sorted(first[0]) if x in last])) + 3


@pytest.mark.parametrize("bound", ["one", "under-a-tail", "a-tail", "three-tails", "default"])
def test_each_write_is_one_line_or_a_bounded_block(monkeypatch, tmp_path, bound):
    # the split's text lines are written a block at a time: prefix +
    # prefix.join(block), where the block holds at most BLOCK characters of
    # line tails, or one tail that is longer
    folds: list = []
    fold = split._blocks

    def spy(lists):
        folded = fold(lists)
        folds.append(folded[-1])
        return folded

    monkeypatch.setattr(split, "_blocks", spy)
    rng = random.Random(18)
    path = tmp_path / "af.apx"
    multiline = 0
    for f in [pairs_framework(8), pairs_framework(12), UNEQUAL_NAMES] + [
        unequal_names(rng, shuffle=k % 2 == 1) for k in range(8)
    ]:
        path.write_text(write_apx(f))
        for order in STRATEGIES:
            tail = _last_tail(f, order)
            monkeypatch.setattr(split, "BLOCK", {
                "one": 1, "under-a-tail": tail - 1, "a-tail": tail, "three-tails": 3 * tail,
                "default": split.BLOCK,
            }[bound])
            for engine in ("set", "label"):
                argv = [str(path), "--engine", engine, "--order", order]
                folds.clear()
                writes = _writes(monkeypatch, argv)
                assert "".join(writes) == "".join(
                    _writes(monkeypatch, [*argv, "--check-invariants"])
                ), argv
                blocks = [block for blocks in folds for block in blocks]
                for block in blocks:
                    assert len(block) == 1 or sum(map(len, block)) <= split.BLOCK
                for text in writes:
                    lines = text.splitlines(keepends=True)
                    assert text.endswith("\n")
                    if len(lines) == 1:
                        continue
                    multiline += 1
                    assert any(
                        len(block) == len(lines) and lines[0].endswith(block[0])
                        and text == (p := lines[0][:-len(block[0])]) + p.join(block)
                        for block in blocks
                    ), (argv, text)
    if bound in ("one", "under-a-tail"):
        assert multiline == 0
    elif bound in ("three-tails", "default"):
        assert multiline > 30


def test_17_pairs_are_written_in_512_blocks(tmp_path, monkeypatch):
    # 131,072 lines: the last 8 pairs' 256 tails (about 8,000 characters)
    # fold into one block within the default BLOCK, and the first 9 pairs
    # form the 512 prefixes that each write it once
    path = tmp_path / "pairs.apx"
    path.write_text(write_apx(pairs_framework(34)))
    writes = _writes(monkeypatch, [str(path)])
    assert len(writes) == 512
    assert {text.count("\n") for text in writes} == {256}
    monkeypatch.setattr(split, "BLOCK", 1)
    # compared whole: a diff of 131,072 lines would take minutes
    same = "".join(writes) == "".join(_writes(monkeypatch, [str(path)]))
    assert same


def _rendered(f: Framework) -> tuple[list[str], Callable[[tuple[int, ...]], None]]:
    """A list of output text, and a sink that appends an extension's line to it."""
    out: list[str] = []
    return out, lambda ext: out.append(format_extension(ext, f.names) + "\n")


def _split_text(engine, f: Framework, pick) -> tuple[int, str]:
    """The count and output text of a run that lists with the split and,
    where it returns None, with the single search, as the CLI does."""
    order = search_order(f, pick)
    out, sink = _rendered(f)
    count = split.write(engine, f, order, out.append)
    if count is None:
        assert out == []
        count = engine.enumerate_extensions(f, lambda g: order, sink)
    return count, "".join(out)


def _split_count(engine, f: Framework, pick) -> int:
    """The count of a run that counts with the split and, where it returns
    None, with the single search, as the CLI does."""
    order = search_order(f, pick)
    count = split.count(engine, f, order)
    return engine.enumerate_extensions(f, lambda g: order) if count is None else count


@pytest.mark.parametrize("cap", [0, 1, 3, 8])
@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
def test_stored_extensions_over_the_cap_fall_back(monkeypatch, engine, cap):
    monkeypatch.setattr(split, "MAX_STORED", cap)
    rng = random.Random(cap)
    for f in [pairs_framework(4), pairs_framework(8), MAX_OUT_PARTS] + [
        concatenation(rng, False) for _ in range(20)
    ]:
        for pick in STRATEGIES.values():
            single, sink = _rendered(f)
            count = engine.enumerate_extensions(f, pick, sink)
            assert _split_text(engine, f, pick) == (count, "".join(single))
            assert _split_count(engine, f, pick) == count


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


class _Search:
    """One search that a spy saw: its framework, and how often its
    extensions were asked for."""

    def __init__(self, g: Framework, extensions) -> None:
        self.g = g
        self.advances = 0
        self._extensions = extensions

    def __iter__(self):
        return self

    def __next__(self):
        self.advances += 1
        return next(self._extensions)


def _spy(monkeypatch, engine) -> list[_Search]:
    """Record each search that ``engine`` starts: a group's search, and each
    one that ``engine.enumerate_extensions`` runs."""
    calls = []
    search = engine.extensions

    def spy(g, *args):
        calls.append(_Search(g, search(g, *args)))
        return calls[-1]

    monkeypatch.setattr(engine, "extensions", spy)
    return calls


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
@pytest.mark.parametrize("cap, falls_back", [(927, True), (928, False)])
def test_the_cap_counts_stored_characters(monkeypatch, engine, cap, falls_back):
    # the second group's one-extension chain makes each of its 16 extensions
    # 4 + 10 = 14 arguments long, 224 in all, though there are only 16; each
    # is stored as its piece of the line, a comma, 14 three-character names
    # joined by 13 commas and "]\n": 58 characters, 928 in all
    f = chains_and_pairs(("chain", 30), ("pairs", 4), ("chain", 20))
    monkeypatch.setattr(split, "MAX_GROUPS", 2)
    monkeypatch.setattr(split, "MAX_STORED", cap)
    assert split.groups(f.n, split.cuts(f, range(f.n))) == [(0, 30), (30, 58)]
    single, sink = _rendered(f)
    assert engine.enumerate_extensions(f, STRATEGIES["lex"], sink) == 16
    calls = _spy(monkeypatch, engine)
    assert _split_text(engine, f, STRATEGIES["lex"]) == (16, "".join(single))
    assert (f in [c.g for c in calls]) == falls_back


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
@pytest.mark.parametrize("cap, falls_back", [(15, True), (16, False)])
def test_the_cap_counts_every_stored_group(monkeypatch, engine, cap, falls_back):
    # three pairs, three groups: the last two store two extensions each, as
    # ",a2" and ",a3" (6 characters) and as ",a4]\n" and ",a5]\n" (10)
    f = pairs_framework(6)
    monkeypatch.setattr(split, "MAX_STORED", cap)
    assert split.groups(f.n, split.cuts(f, range(f.n))) == [(0, 2), (2, 4), (4, 6)]
    calls = _spy(monkeypatch, engine)
    assert _split_text(engine, f, STRATEGIES["lex"])[0] == 8
    assert (f in [c.g for c in calls]) == falls_back


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
def test_long_names_fall_back(monkeypatch, engine):
    # a pair, then 10 pairs whose first arguments all attack one more
    # argument: a second group of 1,024 extensions of 10 or 11 names of
    # 20,000 characters, about 200 MB of text, where a count of stored
    # arguments would keep them all
    names = [f"{i:02}" + "x" * 19998 for i in range(23)]
    f = build(names, [(x, names[i ^ 1]) for i, x in enumerate(names[:22])]
              + [(x, names[22]) for x in names[2:22:2]])
    assert split.groups(f.n, split.cuts(f, range(f.n))) == [(0, 2), (2, 23)]
    calls = _spy(monkeypatch, engine)
    assert split.write(engine, f, range(f.n), pytest.fail) is None
    # the first group stops at its first extension, and the second is
    # searched until its pieces pass the cap
    assert [c.g.n for c in calls] == [2, 21]
    assert calls[0].advances == 1
    assert engine.enumerate_extensions(f) == 2048


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
def test_no_later_group_is_searched_after_a_first_group_without_extension(monkeypatch, engine):
    # the odd cycle first: the single search stops at once, and so does the
    # split, which asks the first group for one extension and gets none
    f = build(list("abcdefg"), [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "d"),
                                ("f", "g"), ("g", "f")])
    assert split.cuts(f, range(f.n)) == [3, 5]
    calls = _spy(monkeypatch, engine)
    assert _split_text(engine, f, STRATEGIES["lex"]) == (0, "")
    assert [(c.g.names, c.advances) for c in calls] == [(("a", "b", "c"), 1)]


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
def test_each_group_is_searched_once(monkeypatch, engine):
    # three pairs, three groups: the first group's search stops at its first
    # extension while the later groups are stored, and is then resumed for
    # the product; each search is drawn to its end, two extensions and the
    # end of the search
    f = pairs_framework(6)
    single, sink = _rendered(f)
    assert engine.enumerate_extensions(f, STRATEGIES["lex"], sink) == 8
    calls = _spy(monkeypatch, engine)
    assert _split_text(engine, f, STRATEGIES["lex"]) == (8, "".join(single))
    assert [(c.g.names, c.advances) for c in calls] == [
        (("a0", "a1"), 3), (("a2", "a3"), 3), (("a4", "a5"), 3)
    ]


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
    # 2^(n/2) leaves for the single search; one small search per pair for
    # the split, where 32 groups of 125 pairs each never finished on 4,000
    path = tmp_path / "pairs.apx"
    for n in (200, 8000):
        path.write_text(write_apx(pairs_framework(n)))
        assert _stdout(capsys, [str(path), "--task", "CE-ST"]) == f"COUNT {2 ** (n // 2)}\n"


def test_count_on_isolated_arguments_is_one_search(tmp_path, capsys, monkeypatch):
    calls = _spy(monkeypatch, label_enum)
    path = tmp_path / "isolated.apx"
    path.write_text(write_apx(build([f"a{i}" for i in range(20_000)], [])))
    assert _stdout(capsys, [str(path), "--task", "CE-ST"]) == "COUNT 1\n"
    assert len(calls) == 1


def pieces_framework(rng: random.Random) -> Framework:
    """Isolated arguments, self-attackers, mutual pairs and small random
    frameworks, declared one after another."""
    names: list[str] = []
    attacks: list[tuple[str, str]] = []
    for part in range(rng.randint(1, 8)):
        kind = rng.choice(["isolated", "isolated", "pair", "pair", "loop", "random"])
        if kind == "random":
            g = random_af(GenSpec(rng.randint(1, 4), 0.4, seed=rng.randrange(1 << 30),
                                  allow_self_loops=rng.random() < 0.2))
        else:
            g = build(["x", "y"][: 1 + (kind == "pair")],
                      {"isolated": [], "loop": [("x", "x")],
                       "pair": [("x", "y"), ("y", "x")]}[kind])
        local = [f"p{part}_{x}" for x in range(g.n)]
        names += local
        attacks += [(local[x], local[y]) for x, y in g.attacks]
    return build(names, attacks)


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
def test_count_equals_the_single_search(engine):
    rng = random.Random(20)
    for _ in range(150):
        f = pieces_framework(rng)
        for order in STRATEGIES.values():
            assert _split_count(engine, f, order) == engine.enumerate_extensions(f, order), f


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
def test_count_searches_each_part_and_each_run_of_single_arguments_once(monkeypatch, engine):
    # two isolated arguments, a pair, a chain of 3 and three isolated ones:
    # four searches, the runs of one-argument parts among them
    f = build([f"a{i}" for i in range(10)],
              [("a2", "a3"), ("a3", "a2"), ("a4", "a5"), ("a5", "a6")])
    calls = _spy(monkeypatch, engine)
    assert split.count(engine, f, range(f.n)) == 2
    assert [c.g.names for c in calls] == [
        ("a0", "a1"), ("a2", "a3"), ("a4", "a5", "a6"), ("a7", "a8", "a9")
    ]
    # a self-attacker among them has no extension, and neither has f
    f = build(f.names, [*((f.names[x], f.names[y]) for x, y in f.attacks), ("a8", "a8")])
    calls.clear()
    assert split.count(engine, f, range(f.n)) == 0
    assert calls[-1].g.self_loop == (False, True, False)


def test_cuts_too_early_for_a_second_group_run_the_single_search(monkeypatch):
    # the one cut, at 2 of 100, is before the first group could end (100/32)
    f = chains_and_pairs(("pairs", 1), ("chain", 98))
    assert split.cuts(f, range(f.n)) == [2]
    assert split.groups(f.n, [2]) == [(0, 100)]
    calls = _spy(monkeypatch, label_enum)
    assert _split_text(label_enum, f, STRATEGIES["lex"])[0] == 2
    assert [c.g for c in calls] == [f]


@pytest.mark.parametrize("engine", [set_enum, label_enum], ids=["set", "label"])
def test_write_returns_none_before_writing_anything(monkeypatch, engine):
    # h1 is one group, and a pair followed by a chain of 98 has its one cut
    # before the first group could end
    assert split.write(engine, h1_framework(), range(6), pytest.fail) is None
    f = chains_and_pairs(("pairs", 1), ("chain", 98))
    assert split.write(engine, f, range(f.n), pytest.fail) is None
    # counting needs a cut, not two groups
    assert split.count(engine, f, range(f.n)) == 2
    assert split.count(engine, h1_framework(), range(6)) is None
    # over the cap, found at group 2's first piece: group 1's search was
    # advanced only to its first extension
    monkeypatch.setattr(split, "MAX_STORED", 0)
    calls = _spy(monkeypatch, engine)
    f = pairs_framework(12)
    assert split.write(engine, f, range(f.n), pytest.fail) is None
    assert [(c.g.names, c.advances) for c in calls] == [(("a0", "a1"), 1), (("a2", "a3"), 1)]


def test_order_is_picked_once(monkeypatch, tmp_path, capsys):
    calls = []
    lex = STRATEGIES["lex"]

    def pick(f):
        calls.append(f)
        return lex(f)

    monkeypatch.setitem(STRATEGIES, "lex", pick)
    path = tmp_path / "pairs.apx"
    path.write_text(write_apx(pairs_framework(16)))
    for options in ([], ["--task", "CE-ST"], ["--task", "SE-ST"], ["--check-invariants"],
                    ["--verify"]):
        calls.clear()
        _stdout(capsys, [str(path), *options])
        assert len(calls) == 1, options
    # over the cap the single search reuses the order that the split used
    monkeypatch.setattr(split, "MAX_STORED", 0)
    calls.clear()
    assert _stdout(capsys, [str(path)]).count("\n") == 256
    assert len(calls) == 1
