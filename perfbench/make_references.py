#!/usr/bin/env python3
"""Derive the pinned ``random_search`` references with the ``set`` engine.

Every extension ``set`` reports is re-checked with ``oracle.is_stable``.
The result is written to ``references.json`` beside this file, together
with a seed-independent hash of each instance's graph, so a changed
``random_af`` stream is refused instead of silently measured.

Run from the repository root:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCES, extensions_digest, graph_sha256, random_graphs  # noqa: E402


def main() -> int:
    from stabenum import set_enum
    from stabenum.framework import build
    from stabenum.oracle import is_stable

    pinned = {}
    for graph in random_graphs():
        f = build([str(x) for x in range(graph.n)], [(str(x), str(y)) for x, y in graph.attacks])
        extensions: list[tuple[int, ...]] = []
        set_enum.enumerate_extensions(f, sink=extensions.append)
        bad = [ext for ext in extensions if not is_stable(f, ext)]
        if bad:
            print(f"{graph.label}: set reported a non-stable set {bad[0]}", file=sys.stderr)
            return 2
        count, digest = extensions_digest(extensions)
        pinned[graph.label] = {
            "graph_sha256": graph_sha256(graph),
            "count": count,
            "sha256": digest,
            "extensions": sorted(list(ext) for ext in extensions),
        }
    # one instance per line keeps the file reviewable in a diff
    rows = [f"  {json.dumps(label)}: {json.dumps(ref, sort_keys=True)}" for label, ref in pinned.items()]
    REFERENCES.write_text(
        '{"random_search": {\n' + ",\n".join(rows) + "\n}}\n", encoding="utf-8"
    )
    print(f"wrote {len(pinned)} references to {REFERENCES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
