"""Ground-truth stability checks by direct application of the definition.

Everything here is deliberately naive: the enumerator walks the whole
powerset, so it only serves as the reference the real engines are tested
against.  Two tables hold what every subset of the low ``n // 2`` arguments
attacks and what every subset of the rest attacks (2 * 2**(n/2) entries,
not 2**n); a subset is stable iff its two entries together attack exactly
its complement.
"""

from __future__ import annotations

from collections.abc import Iterable

from .framework import Framework

# 2**25 subset checks is the largest run we accept from a desk-scale oracle:
# about 7 s through the CLI at 25 arguments (2-vCPU guest).
MAX_BRUTEFORCE_ARGS = 25


class TooLarge(ValueError):
    """The framework exceeds the brute-force size guard."""


def is_stable(f: Framework, members: Iterable[int]) -> bool:
    """True iff ``members`` attack exactly the arguments outside the set."""
    s = set(members)
    attacked: set[int] = set()
    for x in s:
        attacked.update(f.succ[x])
    return attacked == set(range(f.n)) - s


def succ_masks(f: Framework) -> list[int]:
    """Per-argument bitmask of attack targets."""
    return [sum([1 << y for y in targets]) for targets in f.succ]


def _mask_to_tuple(mask: int, n: int) -> tuple[int, ...]:
    return tuple(x for x in range(n) if (mask >> x) & 1)


def _attacked_table(masks: list[int]) -> list[int]:
    """What every subset of these arguments attacks, indexed by its bitmask
    (bit ``i`` for ``masks[i]``), built by doubling."""
    table = [0]
    for mask in masks:
        table += [t | mask for t in table]
    return table


def enumerate_bruteforce(f: Framework) -> list[tuple[int, ...]]:
    """Every stable extension, found by checking all subsets.

    Results are returned in lexicographic order of the sorted member
    tuples.  Raises :class:`TooLarge` beyond ``MAX_BRUTEFORCE_ARGS``.
    """
    n = f.n
    if n > MAX_BRUTEFORCE_ARGS:
        raise TooLarge(f"{n} arguments exceed the brute-force limit of {MAX_BRUTEFORCE_ARGS}")
    masks = succ_masks(f)
    half = n // 2
    low = _attacked_table(masks[:half])
    high = _attacked_table(masks[half:])
    low_bits = (1 << half) - 1
    full = (1 << n) - 1
    return sorted(
        _mask_to_tuple(m, n)
        for m in range(1 << n)
        if low[m & low_bits] | high[m >> half] == full ^ m
    )
