"""Self-tests for the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LayerTracer  # noqa: E402


def render_output(extensions, names) -> str:
    return "".join(line + "\n" for line in workloads.render_extensions(extensions, names))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert [i.text for i in first] == [i.text for i in again]
    assert [i.text for i in first] != [i.text for i in other]
    # the seed renames and reorders; it keeps instance sizes and tasks
    assert [(i.graph.label, i.graph.n, i.graph.task) for i in first] == [
        (i.graph.label, i.graph.n, i.graph.task) for i in other
    ]


def test_seed_keeps_the_search_of_fixed_families():
    for workload in ("random_search", "pairs_deep", "many_extensions"):
        a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
        assert [workloads.graph_sha256(i.graph) for i in a] == [
            workloads.graph_sha256(i.graph) for i in b
        ]


def test_closed_forms_match_the_oracle():
    from stabenum.framework import build
    from stabenum.oracle import enumerate_bruteforce

    def framework(n, attacks):
        return build([str(x) for x in range(n)], [(str(x), str(y)) for x, y in attacks])

    f = framework(8, workloads.pairs_attacks(8))
    assert workloads.extensions_digest(enumerate_bruteforce(f)) == workloads.extensions_digest(
        workloads.pairs_extensions(8)
    )
    attacks = workloads.dag_attacks(18, 4, random.Random(3))
    assert enumerate_bruteforce(framework(18, attacks)) == [workloads.grounded_of_dag(18, attacks)]


def test_reference_check_accepts_the_reference_and_rejects_corruptions():
    instance = workloads.generate("many_extensions", 3)[0]
    names = instance.names
    good = render_output(workloads.pairs_extensions(instance.graph.n), names)
    assert instance.check(good) is None
    lines = good.splitlines(keepends=True)
    swapped = lines[0][1:-2].split(",")
    swapped[0], swapped[1] = swapped[1], swapped[0]
    corruptions = {
        "missing line": "".join(lines[1:]),
        "duplicated line": "".join(lines[:1] + lines[:-1]),
        "wrong member": good.replace(names[0] + ",", names[1] + ",", 1),
        "unknown name": good.replace(names[0], "zz", 1),
        "order": "[" + ",".join(swapped) + "]\n" + "".join(lines[1:]),
        "truncated": good[:-2],
        "empty": "",
    }
    for what, text in corruptions.items():
        assert instance.check(text) is not None, what


def test_random_search_check_uses_the_pinned_sets():
    instances = workloads.generate("random_search", 1)
    pinned = workloads.load_references()["random_search"]
    with_extensions = [i for i in instances if pinned[i.graph.label]["count"] > 1]
    instance = with_extensions[0]
    extensions = pinned[instance.graph.label]["extensions"]
    assert instance.check(render_output(extensions, instance.names)) is None
    assert instance.check(render_output(extensions[1:], instance.names)) is not None


def test_pairs_check_needs_one_argument_of_every_pair():
    instance = workloads.generate("pairs_deep", 1)[0]
    n, names = instance.graph.n, instance.names
    assert instance.check(render_output([range(0, n, 2)], names)) is None
    assert instance.check(render_output([range(1, n, 2)], names)) is None
    assert instance.check(render_output([range(0, n - 2, 2)], names)) is not None
    assert instance.check(render_output([[0, 1, *range(2, n, 2)]], names)) is not None
    assert instance.check("NO\n") is not None


def _layer_attributes():
    from stabenum import cli, formats, label_enum, set_enum, strategies

    owners = {
        "cli": (cli, ("parse_apx", "write_extensions")),
        "formats": (formats, ("build",)),
        "label_enum": (label_enum, ("enumerate_extensions", "initial_state", "drain",
                                    "assign_in", "mark_must_out", "is_solution", "_force")),
        "LabelState": (label_enum.LabelState, ("members", "rollback", "checkpoint")),
        "set_enum": (set_enum, ("propagate", "apply_join", "forced_in", "sole_attacker")),
    }
    snapshot = {
        f"{owner}.{attr}": vars(obj)[attr] for owner, (obj, attrs) in owners.items() for attr in attrs
    }
    snapshot["STRATEGIES"] = dict(strategies.STRATEGIES)
    return snapshot


def test_tracer_counts_and_removes_every_wrapper(tmp_path):
    from stabenum import cli

    instance = workloads.generate("random_search", 1)[1]
    path = tmp_path / "af.apx"
    path.write_text(instance.text)
    before = _layer_attributes()
    with LayerTracer() as tracer:
        assert _layer_attributes() != before
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main([str(path)]) == 0
        metrics = tracer.metrics()
    assert _layer_attributes() == before
    assert instance.check(out.getvalue()) is None
    assert metrics["strategies.picks"] > 0
    assert metrics["label_enum.members_calls"] > 0
    assert metrics["framework.attacks"] == len(instance.graph.attacks)
    assert metrics["formats.bytes_out"] == len(out.getvalue())


def test_tracer_restores_after_an_exception():
    before = _layer_attributes()
    with pytest.raises(RuntimeError):
        with LayerTracer():
            raise RuntimeError("boom")
    assert _layer_attributes() == before


def test_peak_rss_is_the_childs_own():
    # ru_maxrss would report this process's peak in the child, via fork and exec
    ballast = b"x" * (96 << 20)
    out = subprocess.run(
        [sys.executable, "-c", "import child; print(child.peak_rss_mb())"],
        cwd=HERE, capture_output=True, text=True, check=True,
    )
    assert float(out.stdout) < len(ballast) / 2**20 / 2


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_compare_refuses_results_from_different_inputs(capsys):
    import compare

    def result(seed, sha, run_s):
        stats = {"median": run_s, "q1": run_s, "q3": run_s, "n": 1}
        return {"workload": "w", "seed": seed, "trace": 0, "inputs_sha256": sha,
                "end_to_end": {"run_s": stats}}

    bounds = {"run_s": {"name": "run_s", "better": "lower", "bound": 0.2}}
    base = {("w", s, 0): result(s, f"in{s}", 1.0) for s in range(3)}
    same = {("w", s, 0): result(s, f"in{s}", 0.5) for s in range(3)}
    changed = dict(same)
    changed[("w", 1, 0)] = result(1, "other", 0.5)
    assert compare.compare(base, same, bounds) == 0
    assert "gain" in capsys.readouterr().out
    assert compare.compare(base, changed, bounds) == 2
    assert "inputs differ" in capsys.readouterr().err
