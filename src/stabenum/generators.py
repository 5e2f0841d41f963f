"""Seeded framework generators for property tests and benchmarks."""

from __future__ import annotations

import random

from .framework import Framework, Frozen


class UnknownFamily(ValueError):
    pass


class GenSpec(Frozen):
    """Parameters of one random instance; equal specs yield equal frameworks.

    Specs are immutable (see :class:`~stabenum.framework.Frozen`) and equal,
    and hash alike, when all four fields are equal.
    """

    __slots__ = ("n", "p", "allow_self_loops", "seed")

    def __init__(self, n: int, p: float, allow_self_loops: bool = False, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"attack probability {p} outside [0,1]")
        if n < 0:
            raise ValueError(f"negative argument count {n}")
        self._fill(n, p, allow_self_loops, seed)


def argument_names(n: int) -> list[str]:
    return [f"a{i}" for i in range(n)]


def random_af(spec: GenSpec) -> Framework:
    """One independent coin flip per ordered pair, row-major.

    The stream comes from ``random.Random(seed)`` (Mersenne Twister), whose
    output is identical across platforms and Python versions, so a spec is
    a complete, replayable description of the instance.
    """
    rng = random.Random(spec.seed)
    attacks = []
    for x in range(spec.n):
        for y in range(spec.n):
            if x == y and not spec.allow_self_loops:
                continue
            if rng.random() < spec.p:
                attacks.append((x, y))
    return Framework(tuple(argument_names(spec.n)), attacks)


def family(name: str, n: int) -> Framework:
    """Structured instances with known extension counts.

    ``cycle``: the directed n-cycle (none stable for odd n, two for even n);
    ``chain``: a directed path; ``two_cliques``: two groups of mutually
    attacking arguments, giving one extension per pair of picks.
    """
    if n < 1:
        raise ValueError(f"family size must be positive, got {n}")
    if name == "cycle":
        attacks = [(i, (i + 1) % n) for i in range(n)]
    elif name == "chain":
        attacks = [(i, i + 1) for i in range(n - 1)]
    elif name == "two_cliques":
        half = (n + 1) // 2
        groups = (range(half), range(half, n))
        attacks = [(x, y) for group in groups for x in group for y in group if x != y]
    else:
        raise UnknownFamily(f"unknown family {name!r}")
    return Framework(tuple(argument_names(n)), attacks)
