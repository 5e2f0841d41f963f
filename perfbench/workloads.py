"""Seeded inputs and output references for the benchmark's workloads.

A workload is a fixed list of instances.  ``--seed`` renames the arguments
(a seeded permutation of the labels ``a0 .. a{n-1}``) and shuffles the order
of the ``att`` facts, so every seed writes different files for the same
search; only ``large_grounded`` also draws its graph from the seed, and its
size and shape stay the same.  The program sees nothing but the files.

References never come from the ``label`` engine.  ``random_search`` uses the
extension sets pinned in ``references.json`` (derived once with the ``set``
engine and checked with ``oracle.is_stable``, see ``make_references.py``);
the other families have closed forms.  References live in index space and
are rendered with the seed's names; an ``EE-ST`` output must print exactly
those lines, in any order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

RANDOM_N = 160
RANDOM_P = 0.025
RANDOM_SEEDS = range(1, 16)
PAIRS_SIZES = (2000, 4000, 8000)
MANY_N = 34
DAG_N = 20_000
DAG_INDEGREE = 4

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Graph:
    """One instance in index space: arguments ``0 .. n-1`` and attack pairs."""

    label: str
    n: int
    attacks: tuple[tuple[int, int], ...]
    task: str


@dataclass(frozen=True)
class Instance:
    """One generated input file and the check its output must pass."""

    graph: Graph
    text: str
    names: tuple[str, ...]
    check: Check


class StaleReference(RuntimeError):
    """A pinned reference does not match the generated instance."""


# ---------------------------------------------------------------- digests


def extensions_digest(extensions: Iterable[Iterable[int]]) -> tuple[int, str]:
    """(count, sha256 of the sorted lines ``i,j,...``) of a set of extensions."""
    lines = sorted(",".join(str(x) for x in sorted(ext)) for ext in extensions)
    body = "".join(line + "\n" for line in lines)
    return len(lines), hashlib.sha256(body.encode()).hexdigest()


def graph_sha256(graph: Graph) -> str:
    """Seed-independent identity of an instance: apx with index names, sorted."""
    body = "".join(f"arg({x}).\n" for x in range(graph.n))
    body += "".join(f"att({x},{y}).\n" for x, y in sorted(graph.attacks))
    return hashlib.sha256(f"{graph.task}\n{body}".encode()).hexdigest()


def render_extensions(extensions: Iterable[Iterable[int]], names: Sequence[str]) -> list[str]:
    """The lines ``formats.write_extensions`` must print, in sorted order."""
    return sorted("[" + ",".join(names[x] for x in sorted(ext)) + "]" for ext in extensions)


def all_of(extensions: Iterable[Iterable[int]], names: Sequence[str]) -> Check:
    """EE-ST check: the printed lines are exactly the reference's, in any order."""
    expected = render_extensions(extensions, names)
    digest = hashlib.sha256("\n".join(expected).encode()).hexdigest()

    def check(text: str) -> str | None:
        lines = text.splitlines()
        if len(lines) != len(expected):
            return f"{len(lines)} extensions, expected {len(expected)}"
        if hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() != digest:
            return "extension lines differ from the reference"
        return None

    return check


def one_per_pair(n: int, names: Sequence[str]) -> Check:
    """SE-ST check on mutual pairs: one line ``[...]`` holding one argument of
    each pair, in index order."""
    index = {name: i for i, name in enumerate(names)}

    def check(text: str) -> str | None:
        lines = text.splitlines()
        if len(lines) != 1 or not (lines[0].startswith("[") and lines[0].endswith("]")):
            return f"not one extension line: {text[:40]!r}"
        members = [index.get(name, -2) for name in lines[0][1:-1].split(",")]
        if [x // 2 for x in members] != list(range(n // 2)):
            return "not one argument of every pair, in index order"
        return None

    return check


# ---------------------------------------------------------------- graphs


def pairs_attacks(n: int) -> tuple[tuple[int, int], ...]:
    """Disjoint mutual attacks ``2i <-> 2i+1``: 2^(n/2) stable extensions."""
    return tuple(
        edge for i in range(0, n, 2) for edge in ((i, i + 1), (i + 1, i))
    )


def pairs_extensions(n: int) -> Iterable[tuple[int, ...]]:
    return itertools.product(*((i, i + 1) for i in range(0, n, 2)))


def dag_attacks(n: int, indegree: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Each argument is attacked by ``indegree`` distinct lower-index arguments."""
    return tuple(
        (y, x) for x in range(n) for y in sorted(rng.sample(range(x), min(indegree, x)))
    )


def grounded_of_dag(n: int, attacks: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The unique stable extension of an acyclic framework whose attacks go up
    in index: an argument is in iff none of its attackers is."""
    pred: list[list[int]] = [[] for _ in range(n)]
    for y, x in attacks:
        pred[x].append(y)
    inside = [False] * n
    for x in range(n):
        inside[x] = not any(inside[y] for y in pred[x])
    return tuple(x for x in range(n) if inside[x])


def random_graphs() -> list[Graph]:
    """The ``random_af`` instances of ``random_search``, from the program's
    own generator, so that a change to its stream shows in the input hashes."""
    from stabenum.generators import GenSpec, random_af

    graphs = []
    for loops in (False, True):
        for s in RANDOM_SEEDS:
            f = random_af(GenSpec(n=RANDOM_N, p=RANDOM_P, seed=s, allow_self_loops=loops))
            label = f"random_n{RANDOM_N}_s{s}" + ("_loops" if loops else "")
            graphs.append(Graph(label, f.n, f.attacks, "EE-ST"))
    return graphs


# ---------------------------------------------------------------- rendering


def render(graph: Graph, rng: random.Random) -> tuple[str, tuple[str, ...]]:
    """Write ``graph`` as apx with seeded names and a seeded attack order.

    Declarations stay in index order, so argument ``i`` keeps index ``i``
    in the program and the search does not depend on the seed.
    """
    labels = list(range(graph.n))
    rng.shuffle(labels)
    names = tuple(f"a{k}" for k in labels)
    attacks = list(graph.attacks)
    rng.shuffle(attacks)
    lines = [f"arg({name})." for name in names]
    lines += [f"att({names[x]},{names[y]})." for x, y in attacks]
    return "".join(line + "\n" for line in lines), names


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def random_search(rng: random.Random) -> list[Instance]:
    from stabenum.framework import build
    from stabenum.oracle import is_stable

    pinned = load_references()["random_search"]
    instances = []
    for graph in random_graphs():
        ref = pinned[graph.label]
        if graph_sha256(graph) != ref["graph_sha256"]:
            raise StaleReference(
                f"{graph.label}: generated graph differs from the pinned one; "
                "random_af's stream changed, re-derive with make_references.py"
            )
        extensions = [tuple(ext) for ext in ref["extensions"]]
        if extensions_digest(extensions) != (ref["count"], ref["sha256"]):
            raise StaleReference(f"{graph.label}: pinned extensions do not match their digest")
        f = build([str(x) for x in range(graph.n)], [(str(x), str(y)) for x, y in graph.attacks])
        if not all(is_stable(f, ext) for ext in extensions):
            raise StaleReference(f"{graph.label}: a pinned extension is not stable")
        text, names = render(graph, rng)
        instances.append(Instance(graph, text, names, all_of(extensions, names)))
    return instances


def pairs_deep(rng: random.Random) -> list[Instance]:
    instances = []
    for n in PAIRS_SIZES:
        graph = Graph(f"pairs_n{n}", n, pairs_attacks(n), "SE-ST")
        text, names = render(graph, rng)
        instances.append(Instance(graph, text, names, one_per_pair(n, names)))
    return instances


def many_extensions(rng: random.Random) -> list[Instance]:
    graph = Graph(f"pairs_n{MANY_N}", MANY_N, pairs_attacks(MANY_N), "EE-ST")
    text, names = render(graph, rng)
    return [Instance(graph, text, names, all_of(pairs_extensions(MANY_N), names))]


def large_grounded(rng: random.Random) -> list[Instance]:
    graph = Graph(f"dag_n{DAG_N}", DAG_N, dag_attacks(DAG_N, DAG_INDEGREE, rng), "EE-ST")
    text, names = render(graph, rng)
    return [Instance(graph, text, names, all_of([grounded_of_dag(graph.n, graph.attacks)], names))]


WORKLOADS: dict[str, Callable[[random.Random], list[Instance]]] = {
    "random_search": random_search,
    "pairs_deep": pairs_deep,
    "many_extensions": many_extensions,
    "large_grounded": large_grounded,
}


def generate(workload: str, seed: int) -> list[Instance]:
    """The instances of ``workload`` for ``seed``; equal arguments, equal files."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
