"""Search each independent part of the branching order once; report the product.

A *cut* of a branching order is a position ``c``, ``0 < c < n``, such that
the first ``c`` arguments of the order are the arguments ``0 .. c-1`` and no
attack joins one of them to an argument ``c`` or later.  The cuts split the
arguments into ranges of indices that share no attack, each searched in its
stretch of the order, and the stable extensions of the framework are the
unions of one stable extension of each part.  The single search of the whole
framework searches every later part again for each extension of the earlier
ones; :func:`count` and :func:`write` search each part once, as a framework
of its own, and count or write the product of the parts' extension lists.
Where they do not apply they return None, and the caller runs the single
search.

The product comes in the single search's order.  Both engines branch on the
first argument of the order that is still free, and propagation never
crosses a cut: assigning an argument relabels only its neighbours, and the
triggers fire only on relabelled arguments and their targets.  So once the
root is propagated, the arguments of parts ``j+1 .. k`` keep their labels
until every argument of parts ``1 .. j`` is labelled, and each labelling of
parts ``1 .. j`` that the search completes is followed by the same subtree
over parts ``j+1 .. k``.  Within a part, ``label``'s worklist yields the
part's queued arguments in the sequence of the part's own search: it pops
the lowest index first, pops in other parts change nothing in this one,
and a part numbers its arguments in their index order, shifted by its
start.  ``set`` explores the same tree as ``label``.  The single search
therefore lists the nested product of the parts' lists, the first part
outermost and the last varying fastest, and a part without an extension,
a dead root included, leaves both outputs empty.

Counting multiplies the counts of the parts, each searched on its own,
since a search costs up to the product of its parts' counts.  A run of
consecutive one-argument parts is searched as one part: each has one
extension, or none if it attacks itself.  An order without a cut has one
part, so :func:`count` returns None.

Listing joins consecutive parts into at most :data:`MAX_GROUPS` groups of
about equal size, since each search has a fixed cost; a group is again a
part, and with a single group :func:`write` returns None.  It renders each
extension of a group as text once: its names in index order, joined by
commas, as the piece of the output line that its group contributes.  Since
the groups are consecutive ranges of indices, a line is its groups' pieces
joined in nesting order.  A piece is never empty, since every argument of a
nonempty framework is in a stable extension or attacked by it, so the commas
that join the pieces never give ``",,"`` or ``"[,"``.  Listing stores the
pieces of every group but the first, whose search streams; once the stored
pieces would hold more than :data:`MAX_STORED` characters in all,
:func:`write` returns None, having written nothing, and the caller searches
the whole framework instead.  Before a later group is searched, the first
group is searched up to its first extension, and a later group is searched
only once every group before it has shown an extension.  The first group's
search is then suspended, and resumed at that extension for the product once
every later group is stored: it is not repeated.  The single search, too,
searches the first group up to its first extension and then each later group
in full, as long as every group before it has an extension: in the subtree
that follows the first labelling of the groups before it.  So what the split
searches before its first line, or before it gives up, is at most what the
single search searches in all.

Once every group is stored, the trailing lists are folded into one list of
line tails, each the pieces of one extension of those groups, for as long
as the folded text stays within :data:`BLOCK` characters, and the tails are
cut into blocks of at most :data:`BLOCK` characters; a tail longer than that
is a block of its own.  Each prefix formed from the outer lists then costs
the line writer one call per block, ``prefix + prefix.join(block)``: the
block's lines, in order.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import chain, product
from math import prod
from types import ModuleType

from .framework import Framework

MAX_GROUPS = 32
# characters, summed over the stored pieces
MAX_STORED = 1 << 20
# characters of line tails per call of the line writer
BLOCK = 1 << 14


def cuts(f: Framework, order: Sequence[int]) -> list[int]:
    """Every cut of the permutation ``order`` of ``f``'s arguments, ascending.

    One pass keeps the largest argument among those passed so far and their
    neighbours: a position is a cut when that is below it.  The pass ends
    once it reaches the last argument, since no cut is left after it.
    """
    n, succ, pred = f.n, f.succ, f.pred
    found: list[int] = []
    reach = 0
    for c in range(1, n):
        x = order[c - 1]
        if x > reach:
            reach = x
        # succ and pred are sorted
        if succ[x] and succ[x][-1] > reach:
            reach = succ[x][-1]
        if pred[x] and pred[x][-1] > reach:
            reach = pred[x][-1]
        if reach < c:
            found.append(c)
        elif reach == n - 1:
            break
    return found


def groups(n: int, cut: list[int]) -> list[tuple[int, int]]:
    """The parts ``(start, end)`` of positions between the cuts ``cut``, joined
    into at most :data:`MAX_GROUPS` groups: a group ends at the first cut
    past each multiple of ``n / MAX_GROUPS``."""
    bounds = [0]
    for c in cut:
        if c * MAX_GROUPS >= len(bounds) * n:
            bounds.append(c)
    bounds.append(n)
    return list(zip(bounds, bounds[1:]))


def restrict(f: Framework, start: int, end: int) -> Framework:
    """The framework on the arguments ``start .. end-1`` of ``f``, each
    numbered ``start`` less, with the attacks among them by attacker, then
    target; none of them may attack, or be attacked by, an argument outside
    that range."""
    return Framework(
        f.names[start:end],
        tuple([(x - start, t - start) for x in range(start, end) for t in f.succ[x]]),
    )


def _part(f: Framework, order: Sequence[int], start: int, end: int) -> tuple[Framework, list[int]]:
    """The part ``start .. end-1`` of ``f`` and its stretch of ``order``,
    numbered as in the part."""
    return restrict(f, start, end), [x - start for x in order[start:end]]


def _blocks(lists: list[list[str]]) -> list[list]:
    """``lists`` with its trailing lists folded into one list of tails, the
    last varying fastest, while their text stays within :data:`BLOCK`
    characters, and that list cut into blocks of at most :data:`BLOCK`
    characters or of one tail."""
    k = len(lists) - 1
    tails = lists[k]
    size = sum(map(len, tails))
    while k:
        head = lists[k - 1]
        folded = len(tails) * sum(map(len, head)) + len(head) * size
        if folded > BLOCK:
            break
        tails = [a + b for a in head for b in tails]
        size = folded
        k -= 1
    blocks: list[list[str]] = []
    block: list[str] = []
    size = 0
    for tail in tails:
        if block and size + len(tail) > BLOCK:
            blocks.append(block)
            block, size = [], 0
        block.append(tail)
        size += len(tail)
    blocks.append(block)
    return [*lists[:k], blocks]


def _text(g: Framework, head: str, tail: str) -> Callable[[tuple[int, ...]], str]:
    """Render an extension of ``g``, its arguments ascending, as ``head``,
    its names joined by commas, and ``tail``."""
    names = g.names
    return lambda ext: head + ",".join([names[x] for x in ext]) + tail


def count(engine: ModuleType, f: Framework, order: Sequence[int]) -> int | None:
    """The number of stable extensions of ``f``: the product of the counts
    of its parts under the permutation ``order``, each searched on its own by
    ``engine``; None where the order has no cut."""
    cut = cuts(f, order)
    if not cut:
        return None
    edges = [0, *cut, f.n]
    # a cut between two one-argument parts is dropped
    bounds = [0, *[c for a, c, b in zip(edges, cut, edges[2:]) if b - a > 2], f.n]
    total = 1
    for start, end in zip(bounds, bounds[1:]):
        total *= sum(1 for _ in engine.extensions(*_part(f, order, start, end)))
        if not total:
            break
    return total


def write(
    engine: ModuleType, f: Framework, order: Sequence[int], lines: Callable[[str], object]
) -> int | None:
    """Pass ``lines`` the output line of every stable extension of ``f``,
    ``[name,...]`` and a newline, a block of whole lines per call, in the
    order in which ``engine`` finds them under the permutation ``order``;
    returns how many lines there were.  Returns None where the order has
    fewer than two groups or the stored pieces would pass :data:`MAX_STORED`,
    having written nothing: every write comes after all later groups are
    stored."""
    spans = groups(f.n, cuts(f, order))
    if len(spans) == 1:
        return None
    # a group is a range of indices, searched in its stretch of the order
    parts = [_part(f, order, start, end) for start, end in spans]

    first = engine.extensions(*parts[0])
    head = next(first, None)
    if head is None:
        return 0
    stored: list[list[str]] = []
    room = MAX_STORED
    for i, (g, part_order) in enumerate(parts[1:], 2):
        piece = _text(g, ",", "]\n" if i == len(parts) else "")
        found: list[str] = []
        for ext in engine.extensions(g, part_order):
            text = piece(ext)
            room -= len(text)
            if room < 0:
                return None
            found.append(text)
        if not found:
            return 0
        stored.append(found)

    *outer, blocks = _blocks(stored)
    opening = _text(parts[0][0], "[", "")
    heads = 0
    for heads, ext in enumerate(chain((head,), first), 1):
        start = opening(ext)
        for pieces in product(*outer):
            prefix = start + "".join(pieces)
            for block in blocks:
                lines(prefix + prefix.join(block))
    return heads * prod(map(len, stored))
