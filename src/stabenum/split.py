"""Search each independent part of the branching order once; report the product.

A *cut* of a branching order is a position ``c``, ``0 < c < n``, such that
no attack joins an argument before ``c`` to one at or after it.  The cuts
split the order into parts that share no attack, and the stable extensions
of the framework are the unions of one stable extension of each part.  The
single search of the whole framework searches every later part again for
each extension of the earlier ones; :func:`enumerate_extensions` searches
each part once, as a framework of its own, and reports the product of the
parts' extension lists.

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
and a part numbers its arguments in their index order.  ``set`` explores
the same tree as ``label``.  The single search therefore lists the nested
product of the parts' lists, the first part outermost and the last varying
fastest, and a part without an extension, a dead root included, leaves
both outputs empty.

Consecutive parts are joined into at most :data:`MAX_GROUPS` groups of about
equal size, since each search has a fixed cost; a group is again a part.
Listing stores the extensions of every group but the first, whose search
streams; once the stored extensions would hold more than :data:`MAX_STORED`
arguments in all, it searches the whole framework instead, before anything
is reported.  Before a later group is searched, the first group is searched
up to its first extension, and a later group is searched only once every
group before it has shown an extension.  The single search, too, searches
the first group up to its first extension and then each later group in
full, as long as every group before it has an extension: in the subtree
that follows the first labelling of the groups before it.  So what the
split searches before its first line, or before it gives up, is at most
what the single search searches in all.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import prod
from types import ModuleType

from .framework import Framework
from .strategies import BranchOrder, search_order

MAX_GROUPS = 32
# arguments, summed over the stored extensions
MAX_STORED = 1 << 20

Sink = Callable[[tuple[int, ...]], None]


def cuts(f: Framework, order: Sequence[int]) -> list[int]:
    """Every cut of the permutation ``order`` of ``f``'s arguments, ascending.

    One pass keeps the farthest position that an attack joins to a position
    passed so far; it ends once that covers the last position, since no cut
    is left after it.
    """
    n, succ, pred = f.n, f.succ, f.pred
    found: list[int] = []
    reach = 0
    if type(order) is range and order == range(n):
        # positions are indices, and succ and pred are sorted
        for c in range(1, n):
            x = c - 1
            if succ[x] and succ[x][-1] > reach:
                reach = succ[x][-1]
            if pred[x] and pred[x][-1] > reach:
                reach = pred[x][-1]
            if reach < c:
                found.append(c)
            elif reach == n - 1:
                break
        return found
    position = [0] * n
    for c, x in enumerate(order):
        position[x] = c
    for c in range(1, n):
        x = order[c - 1]
        reach = max(reach, c - 1, *map(position.__getitem__, succ[x] + pred[x]))
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


def restrict(f: Framework, args: Sequence[int]) -> Framework:
    """The framework on the ascending arguments ``args`` of ``f``, each
    numbered by its position in ``args``; none of them may attack, or be
    attacked by, an argument outside ``args``."""
    a, b = args[0], args[-1] + 1
    if b - a == len(args):
        # a range of indices, as under lex: shift them
        succ = tuple([tuple([t - a for t in ts]) if ts else () for ts in f.succ[a:b]])
        pred = tuple([tuple([y - a for y in ys]) if ys else () for ys in f.pred[a:b]])
        names, self_loop = f.names[a:b], f.self_loop[a:b]
    else:
        get = dict(zip(args, range(len(args)))).__getitem__
        succ = tuple([tuple(map(get, ts)) if ts else () for ts in map(f.succ.__getitem__, args)])
        pred = tuple([tuple(map(get, ys)) if ys else () for ys in map(f.pred.__getitem__, args)])
        names = tuple(map(f.names.__getitem__, args))
        self_loop = tuple(map(f.self_loop.__getitem__, args))
    return Framework(
        names=names,
        attacks=tuple([(x, t) for x, targets in enumerate(succ) for t in targets]),
        succ=succ,
        pred=pred,
        self_loop=self_loop,
        index_of=dict(zip(names, range(len(names)))),
    )


def _given(order: Sequence[int]) -> BranchOrder:
    """The branching order that is ``order`` whatever the framework."""
    return lambda g: order


class _Full(Exception):
    """The stored extensions would hold more than :data:`MAX_STORED` arguments."""


def _nest(prefix: tuple[int, ...], lists: list[list[tuple[int, ...]]], j: int, sink: Sink) -> None:
    """Report ``prefix`` joined with each tuple of the product of ``lists[j:]``,
    the last list varying fastest."""
    if j + 1 == len(lists):
        for tail in lists[j]:
            sink(prefix + tail)
    else:
        for tail in lists[j]:
            _nest(prefix + tail, lists, j + 1, sink)


def _stored(
    engine: ModuleType, g: Framework, pick: BranchOrder, args: Sequence[int], room: int
) -> list[tuple[int, ...]]:
    """The extensions of ``g``, each argument ``x`` numbered ``args[x]``;
    raises :class:`_Full` once they would hold more than ``room`` arguments."""
    found: list[tuple[int, ...]] = []
    add = found.append

    def store(ext: tuple[int, ...]) -> None:
        nonlocal room
        room -= len(ext)
        if room < 0:
            raise _Full
        add(tuple([args[x] for x in ext]))

    engine.enumerate_extensions(g, pick, store)
    return found


def enumerate_extensions(
    engine: ModuleType, f: Framework, pick: BranchOrder, sink: Sink | None
) -> int:
    """Report every stable extension of ``f`` once, in the order in which
    ``engine.enumerate_extensions(f, pick, sink)`` reports them, with the
    same count; ``engine`` is :mod:`~stabenum.set_enum` or
    :mod:`~stabenum.label_enum`.  Calls ``pick`` once.
    """
    order = search_order(f, pick, None)
    spans = groups(f.n, cuts(f, order))
    if len(spans) == 1:
        return engine.enumerate_extensions(f, _given(order), sink)
    # (framework, its order, its arguments in f) per group
    parts = []
    lex = order == range(f.n)
    for start, end in spans:
        if lex:
            # a group is a range of indices, searched in index order
            args: Sequence[int] = range(start, end)
            own_order: Sequence[int] = range(end - start)
        else:
            args = sorted(order[start:end])
            local = dict(zip(args, range(len(args))))
            own_order = [local[x] for x in order[start:end]]
        parts.append((restrict(f, args), _given(own_order), args))

    if sink is None:
        count = 1
        for g, part_order, _ in parts:
            count *= engine.enumerate_extensions(g, part_order, None)
            if not count:
                break
        return count

    g, part_order, args = parts[0]
    if not engine.enumerate_extensions(g, part_order, None, limit=1):
        return 0
    stored: list[list[tuple[int, ...]]] = []
    room = MAX_STORED
    try:
        for g, part_order, args in parts[1:]:
            found = _stored(engine, g, part_order, args, room)
            if not found:
                return 0
            room -= sum(map(len, found))
            stored.append(found)
    except _Full:
        return engine.enumerate_extensions(f, _given(order), sink)

    report = sink
    if any(a[-1] > b[0] for (_, _, a), (_, _, b) in zip(parts, parts[1:])):
        # the groups' arguments interleave in index order: sort each union
        def report(ext: tuple[int, ...]) -> None:
            sink(tuple(sorted(ext)))

    g, part_order, args = parts[0]

    def expand(ext: tuple[int, ...]) -> None:
        _nest(tuple([args[x] for x in ext]), stored, 0, report)

    return engine.enumerate_extensions(g, part_order, expand) * prod(map(len, stored))
