#!/usr/bin/env python3
"""The stabenum benchmark: end-to-end CLI metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload random_search --seed 1 --seconds 25 --trace 0

Each pass runs every instance of the workload through ``stabenum.cli.main``
(engine ``label``, order ``lex``) in a fresh child process, one child at a
time.  Passes repeat until ``--seconds`` have gone by; the end-to-end metrics
are medians over passes.  Times are calibrated seconds: wall time scaled by
the machine's speed measured around and during each call (see ``child.py``);
the plain wall-clock ``run_s`` is printed as ``wall_s``.

* ``run_s``: per-pass total of time inside ``cli.main`` (read, parse,
  build, search, output);
* ``first_s``: per-pass total of the time from the call to the first write
  to stdout, or to the return when nothing is written;
* ``peak_rss_mb``: peak resident set size of the child, which only reads
  the inputs and calls ``cli.main`` (see ``child.peak_rss_mb``);
* ``setup_s``: child launch until ``stabenum.cli`` is imported and the
  inputs are read, over extra set-up-only children and every pass.

``failed_frac`` (instances with a nonzero exit, an exception or an output
that differs from the reference) is printed with the others; the result
line carries it as ``failed`` out of ``attempted``.

``--trace 1`` adds, after the untraced passes, one traced ``label`` pass
and an untraced and a traced ``set`` pass, and reports the per-layer
metrics of ``tracer.py`` plus derived ratios.  The last line of stdout is
the JSON result; ``--out`` also writes every sample, the per-instance rows
and the sha256 of every input file (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import CALIBRATION_REFERENCE_S
from tracer import HIGHS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
SETUP_PROBES = 10
# set copies its O(n) state into every frame: ~1.2 GB at 8000 pairs
SET_SKIPS = {"pairs_n8000"}

END_TO_END = {"run_s": "s", "first_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "formats.parse_s": "s",
    "formats.write_s": "s",
    "formats.bytes_out": "B",
    "framework.build_s": "s",
    "framework.attacks": "count",
    "strategies.pick_s": "s",
    "strategies.picks": "count",
    "label_enum.branches": "count",
    "label_enum.dead_ends": "count",
    "label_enum.propagations": "count",
    "label_enum.assign_in_s": "s",
    "label_enum.mark_must_out_s": "s",
    "label_enum.members_s": "s",
    "label_enum.members_calls": "count",
    "label_enum.is_solution_s": "s",
    "label_enum.drain_s": "s",
    "label_enum.rollback_s": "s",
    "label_enum.rollbacks": "count",
    "label_enum.trail_high_water": "count",
    "label_enum.max_depth": "count",
    "label_enum.initial_state_s": "s",
    "label_enum.self_s": "s",
    "set_enum.run_s": "s",
    "set_enum.branches": "count",
    "set_enum.propagations": "count",
    "set_enum.propagate_s": "s",
    "set_enum.apply_join_s": "s",
    "label_enum.branch_ratio_vs_set": "ratio",
    "label_enum.speedup_vs_set": "ratio",
    "label_enum.doubling_ratio": "ratio",
    "trace_overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One benchmark run: generated inputs, child processes and checks."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float) -> None:
        from workloads import generate, graph_sha256

        self.work = work
        self.deadline = deadline
        self.instances = generate(workload, seed)
        self.inputs = []
        for i, instance in enumerate(self.instances):
            path = work / f"{i:02d}_{instance.graph.label}.apx"
            path.write_text(instance.text, encoding="utf-8")
            self.inputs.append({
                "label": instance.graph.label,
                "file": path.name,
                "sha256": sha256_file(path),
                "graph_sha256": graph_sha256(instance.graph),
            })
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_samples: list[float] = []

    def _job(self, mode: str, engine: str, trace: bool, indices: list[int]) -> Path:
        job = {
            "src": str(SRC),
            "mode": mode,
            "trace": trace,
            "instances": [
                {
                    "input": str(self.work / self.inputs[i]["file"]),
                    "output": str(self.work / f"{i:02d}.out"),
                    "argv": [
                        str(self.work / self.inputs[i]["file"]),
                        "--task", self.instances[i].graph.task,
                        "--engine", engine,
                        "--order", "lex",
                    ],
                }
                for i in indices
            ],
        }
        path = self.work / "job.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        return path

    def _child(self, job: Path) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise ChildFailed("out of time before the child could start")
        launch = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-E", "-s", str(HERE / "child.py"), str(job), repr(launch)],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child still running after {remaining:.0f} s; killed") from None
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        self.setup_samples.append(
            report["setup_s"] * CALIBRATION_REFERENCE_S / report["setup_calibration_s"]
        )
        return report

    def probe_setup(self) -> None:
        job = self._job("setup", "label", False, list(range(len(self.instances))))
        for _ in range(SETUP_PROBES):
            self._child(job)

    def run_pass(self, engine: str = "label", trace: bool = False) -> dict:
        """Run every instance once in one child; check outputs outside the timing."""
        indices = [
            i for i, instance in enumerate(self.instances)
            if engine == "label" or instance.graph.label not in SET_SKIPS
        ]
        report = self._child(self._job("measure", engine, trace, indices))
        for i, row in zip(indices, report["rows"]):
            instance = self.instances[i]
            row["label"] = instance.graph.label
            row["wall_s"] = row["run_s"]
            scale = CALIBRATION_REFERENCE_S / row["calibration_s"]
            row["run_s"] *= scale
            row["first_s"] *= scale
            for name in row.get("layers", {}):
                if name.endswith("_s"):
                    row["layers"][name] *= scale
            text = (self.work / f"{i:02d}.out").read_text(encoding="utf-8")
            if row["error"] is not None:
                reason = row["error"]
            elif row["code"] != 0:
                reason = f"exit code {row['code']}: {row['stderr'].strip()[-200:]}"
            else:
                reason = instance.check(text)
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{engine} {instance.graph.label}: {reason}")
        return report

    def timed_passes(self, seconds: float) -> list[dict]:
        """Passes until ``seconds`` are used; none starts that would end more
        than half a pass late."""
        passes: list[dict] = []
        durations: list[float] = []
        start = time.monotonic()
        while not passes or time.monotonic() - start + statistics.median(durations) / 2 < seconds:
            begun = time.monotonic()
            passes.append(self.run_pass())
            durations.append(time.monotonic() - begun)
        return passes


def end_to_end(passes: list[dict], setup_samples: list[float]) -> dict:
    values = {
        "run_s": [sum(r["run_s"] for r in p["rows"]) for p in passes],
        "first_s": [sum(r["first_s"] for r in p["rows"]) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": setup_samples,
        "wall_s": [sum(r["wall_s"] for r in p["rows"]) for p in passes],
    }
    return {name: summary(v) for name, v in values.items()}


def per_instance_median(passes: list[dict]) -> dict[str, float]:
    labels = [row["label"] for row in passes[0]["rows"]]
    return {
        label: statistics.median(p["rows"][i]["run_s"] for p in passes)
        for i, label in enumerate(labels)
    }


def layers(bench: Bench, passes: list[dict]) -> tuple[dict, list[dict]]:
    """The traced label and set passes, per-layer totals and per-instance rows."""
    untraced_label = per_instance_median(passes)
    traced_label = bench.run_pass("label", trace=True)
    untraced_set = bench.run_pass("set")
    traced_set = bench.run_pass("set", trace=True)

    totals: dict[str, float] = {}
    for row in traced_label["rows"]:
        for name, value in row["layers"].items():
            if name in HIGHS:  # maxima over instances; the others are sums
                totals[name] = max(totals.get(name, 0), value)
            elif not name.startswith("set_enum."):
                totals[name] = totals.get(name, 0) + value
    totals["label_enum.branches"] = totals["strategies.picks"]

    set_rows = {row["label"]: row for row in traced_set["rows"]}
    set_run = {row["label"]: row["run_s"] for row in untraced_set["rows"]}
    for name in ("set_enum.propagations", "set_enum.propagate_s", "set_enum.apply_join_s"):
        totals[name] = sum(row["layers"][name] for row in set_rows.values())
    totals["set_enum.branches"] = sum(row["layers"]["strategies.picks"] for row in set_rows.values())
    totals["set_enum.run_s"] = sum(set_run.values())

    rows = []
    for row in traced_label["rows"]:
        label = row["label"]
        entry = {
            "label": label,
            "label_run_s": untraced_label[label],
            "label_branches": row["layers"]["strategies.picks"],
            "label_propagations": row["layers"]["label_enum.propagations"],
        }
        if label in set_rows:
            entry.update({
                "set_run_s": set_run[label],
                "set_branches": set_rows[label]["layers"]["strategies.picks"],
                "set_propagations": set_rows[label]["layers"]["set_enum.propagations"],
            })
        rows.append(entry)

    shared = [r for r in rows if "set_run_s" in r]
    label_branches = sum(r["label_branches"] for r in shared)
    set_branches = sum(r["set_branches"] for r in shared)
    # 0/0 is equal effort; against zero set branches the ratio is the label count
    totals["label_enum.branch_ratio_vs_set"] = (
        label_branches / set_branches if set_branches else float(label_branches or 1)
    )
    totals["label_enum.speedup_vs_set"] = (
        sum(r["set_run_s"] for r in shared) / sum(r["label_run_s"] for r in shared)
    )
    # time ratio per doubling of n, where the instances double in size; else 0
    sizes = [instance.graph.n for instance in bench.instances]
    times = [untraced_label[instance.graph.label] for instance in bench.instances]
    if len(sizes) > 1 and all(b == 2 * a for a, b in zip(sizes, sizes[1:])):
        totals["label_enum.doubling_ratio"] = (times[-1] / times[0]) ** (1 / (len(sizes) - 1))
    else:
        totals["label_enum.doubling_ratio"] = 0.0
    untraced_total = statistics.median(sum(r["run_s"] for r in p["rows"]) for p in passes)
    traced_total = sum(r["run_s"] for r in traced_label["rows"])
    totals["trace_overhead_s"] = traced_total - untraced_total
    return {name: totals[name] for name in PER_LAYER}, rows


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, StaleReference

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full results here as JSON")
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "stabenum" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work, started + DEADLINE_S)
        bench.probe_setup()
        passes = bench.timed_passes(args.seconds)
        layer_metrics, rows = layers(bench, passes) if args.trace else ({}, [])
    except (ChildFailed, StaleReference) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    e2e = end_to_end(passes, bench.setup_samples)
    failed = len(bench.failures)
    inputs_sha256 = hashlib.sha256(
        "".join(f"{i['label']} {i['sha256']}\n" for i in bench.inputs).encode()
    ).hexdigest()

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(bench.instances)} instances, inputs sha256 {inputs_sha256[:16]}")
    for name, s in e2e.items():
        unit = END_TO_END.get(name, "s, wall time, not calibrated")
        print(f"  {name:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"n={s['n']}  ({unit})")
    print(f"  {'failed_frac':<12} {failed / bench.attempted:g} ({failed}/{bench.attempted})")
    for reason in bench.failures[:10]:
        print(f"  FAILED {reason}")
    if args.trace:
        for name, value in layer_metrics.items():
            print(f"  {name:<32} {value:.6g} {PER_LAYER[name]}")
        print("  per instance: label_run_s label_branches set_branches "
              "label_propagations set_propagations")
        for r in rows:
            print(f"    {r['label']:<22} {r['label_run_s']:.4f} {r['label_branches']:>7} "
                  f"{r.get('set_branches', '-'):>7} {r['label_propagations']:>7} "
                  f"{r.get('set_propagations', '-'):>7}")

    if args.out is not None:
        results = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "inputs_sha256": inputs_sha256,
            "inputs": bench.inputs,
            "end_to_end": e2e,
            "samples": {
                "passes": [
                    {"peak_rss_mb": p["peak_rss_mb"],
                     "rows": [{k: r[k] for k in ("label", "run_s", "first_s", "wall_s", "calibration_s")}
                              for r in p["rows"]]}
                    for p in passes
                ],
                "setup_s": bench.setup_samples,
            },
            "attempted": bench.attempted,
            "failed": failed,
            "failures": bench.failures,
            "per_layer": layer_metrics,
            "per_instance": rows,
        }
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    if args.trace:
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, v in layer_metrics.items()}
    else:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _terminate(signum: int, frame: object) -> None:
    # unwinds through subprocess.run, which kills and reaps the running child
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
