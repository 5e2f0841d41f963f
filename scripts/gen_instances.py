#!/usr/bin/env python3
"""Write seeded random instances to disk as .apx files.

Example:
    python3 scripts/gen_instances.py out/ --n 12 --p 0.2 --seeds 1..50
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from stabenum.formats import write_apx
from stabenum.generators import GenSpec, random_af


def seed_range(text: str) -> list[int]:
    """Parse ``SEED`` or an inclusive ``LO..HI`` range; an empty range is an error."""
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--p", type=float, default=0.2)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1..10"))
    parser.add_argument("--selfloops", action="store_true")
    args = parser.parse_args()

    try:
        specs = [
            GenSpec(n=args.n, p=args.p, allow_self_loops=args.selfloops, seed=seed)
            for seed in args.seeds
        ]
    except ValueError as exc:
        parser.error(str(exc))
    args.outdir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        path = args.outdir / f"af_n{args.n}_p{args.p}_s{spec.seed}.apx"
        path.write_text(write_apx(random_af(spec)))
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
