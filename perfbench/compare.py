#!/usr/bin/env python3
"""Summarise or compare result sets written by ``run.py --out``.

    python3 perfbench/compare.py BASE_DIR                # summary per workload
    python3 perfbench/compare.py BASE_DIR NEW_DIR        # change against base
    python3 perfbench/compare.py BASE_DIR --json OUT     # summary as JSON

A directory holds one ``*.json`` result per run.  Runs are paired by
workload, seed and trace flag; two results of a pair must have been made
from the same input files (equal ``inputs_sha256``), otherwise the
comparison is refused with exit code 2: a changed generator, such as a new
``random_af`` stream, must not pass as a speed change.

For each workload and end-to-end metric the comparison prints both sides'
median and quartiles over runs, the change of the medians, how many pairs
the new side won, and a verdict: ``gain`` when it won at least nine tenths
of the pairs and the medians differ by more than the base's own quartile
spread, ``regression`` when the new median is worse by more than the bound
in ``BENCHMARK.json``, ``unresolved`` when the base's spread exceeds that
bound, else ``same``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        runs[(result["workload"], result["seed"], result["trace"])] = result
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(runs: dict) -> dict:
    """Per workload: each end-to-end metric over untraced runs, per-layer
    metrics as the median over traced runs, the per-instance rows of the
    last traced run, and failures."""
    out: dict[str, dict] = {}
    for (workload, _, trace), result in sorted(runs.items()):
        entry = out.setdefault(workload, {"end_to_end": {}, "per_layer": {},
                                          "runs": 0, "attempted": 0, "failed": 0})
        entry["runs"] += 1
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        if trace:
            entry["per_instance"] = result["per_instance"]
        section = "per_layer" if trace else "end_to_end"
        values = result["per_layer"] if trace else {
            name: s["median"] for name, s in result["end_to_end"].items()
        }
        for name, value in values.items():
            entry[section].setdefault(name, []).append(value)
    for entry in out.values():
        entry["failed_frac"] = entry["failed"] / entry["attempted"] if entry["attempted"] else 0.0
        for name, values in entry["end_to_end"].items():
            q1, median, q3 = quartiles(values)
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
        for name, values in entry["per_layer"].items():
            entry["per_layer"][name] = statistics.median(values)
    return out


def compare(base: dict, new: dict, bounds: dict[str, dict]) -> int:
    pairs = sorted(set(base) & set(new))
    if not pairs:
        print("compare: no runs in common (workload, seed, trace)", file=sys.stderr)
        return 2
    for key in pairs:
        if base[key]["inputs_sha256"] != new[key]["inputs_sha256"]:
            print(f"compare: refused, inputs differ for {key}: "
                  f"{base[key]['inputs_sha256'][:16]} vs {new[key]['inputs_sha256'][:16]}",
                  file=sys.stderr)
            return 2
    print(f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'wins':>6}  verdict")
    for workload in sorted({key[0] for key in pairs}):
        keys = [key for key in pairs if key[0] == workload and key[2] == 0]
        if not keys:
            continue
        for name, spec in bounds.items():
            b = [base[k]["end_to_end"][name]["median"] for k in keys]
            n = [new[k]["end_to_end"][name]["median"] for k in keys]
            sign = 1 if spec["better"] == "lower" else -1
            (bq1, bm, bq3), (nq1, nm, nq3) = quartiles(b), quartiles(n)
            change = (nm - bm) / bm
            wins = sum(1 for x, y in zip(b, n) if sign * (y - x) < 0)
            spread = (bq3 - bq1) / bm
            if spread > spec["bound"]:
                verdict = "unresolved"
            elif sign * change > spec["bound"]:
                verdict = "regression"
            elif wins >= 0.9 * len(keys) and abs(nm - bm) > bq3 - bq1:
                verdict = "gain"
            else:
                verdict = "same"
            print(f"{workload:<16} {name:<12} {f'{bm:.4g} [{bq1:.4g}, {bq3:.4g}]':>30} "
                  f"{f'{nm:.4g} [{nq1:.4g}, {nq3:.4g}]':>30} {change:>+8.1%} "
                  f"{wins:>3}/{len(keys):<2}  {verdict}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    parser.add_argument("--json", type=Path, help="write the base summary here")
    args = parser.parse_args()
    base = load(args.base)
    if args.new is not None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        bounds = {m["name"]: m for m in spec["end_to_end"]}
        return compare(base, load(args.new), bounds)
    summary = summarise(base)
    if args.json is not None:
        first = next(iter(base.values()))
        document = {key: first[key] for key in ("python", "machine", "cpus")}
        document["workloads"] = summary
        args.json.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} runs, failed_frac {entry['failed_frac']:g} "
              f"({entry['failed']}/{entry['attempted']})")
        for name, s in entry["end_to_end"].items():
            spread = (s["q3"] - s["q1"]) / s["median"]
            print(f"  {name:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"n={s['n']}  spread {spread:.3f}")
        for name, value in entry["per_layer"].items():
            print(f"  {name:<32} {value:.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
