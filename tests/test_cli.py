from __future__ import annotations

import decimal
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stabenum import cli, split
from stabenum.cli import RunConfig, execute, main, parse_gen, run
from stabenum.formats import format_extension, write_apx
from stabenum.framework import build
from stabenum.generators import GenSpec

from conftest import DATA_DIR, h1_framework, pairs_framework

H1_APX = (DATA_DIR / "h1.apx").read_text()
H1_TGF = (DATA_DIR / "h1.tgf").read_text()
THREE_CYCLE = "arg(a). arg(b). arg(c). att(a,b). att(b,c). att(c,a)."


def test_run_enumerate_all_label(capsys):
    code = run(RunConfig(engine="label"), H1_APX, source="h1.apx")
    output = capsys.readouterr().out
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


@pytest.mark.parametrize("engine", ["bruteforce", "set", "label"])
def test_all_engines_agree_on_fixture(engine, capsys):
    for task, expected in (("EE-ST", "[a,c,d]\n[b,e]\n"), ("SE-ST", "[a,c,d]\n"),
                           ("CE-ST", "COUNT 2\n")):
        code = run(RunConfig(task=task, engine=engine), H1_APX, source="h1.apx")
        output = capsys.readouterr().out
        assert code == 0
        assert output == expected, task


# b <-> a, c <-> d and d -> b: three extensions, listed in an order that each
# branching order changes, so an --order lost on its way to the engine shows
FOUR = "".join(f"{fact}.\n" for fact in (
    "arg(a)", "arg(b)", "arg(c)", "arg(d)", "att(a,b)", "att(b,a)", "att(c,d)", "att(d,b)",
    "att(d,c)"))


@pytest.mark.parametrize("order, lines", [
    ("lex", ["[a,c]", "[a,d]", "[b,c]"]),
    ("max-out", ["[a,d]", "[a,c]", "[b,c]"]),
    ("max-in", ["[b,c]", "[a,c]", "[a,d]"]),
], ids=["lex", "max-out", "max-in"])
@pytest.mark.parametrize("engine", ["set", "label"])
def test_order_changes_the_listing(tmp_path, capsys, engine, order, lines):
    path = tmp_path / "four.apx"
    path.write_text(FOUR)
    for task, expected in (("EE-ST", lines), ("SE-ST", lines[:1]), ("CE-ST", ["COUNT 3"])):
        assert main([str(path), "--engine", engine, "--order", order, "--task", task]) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in expected), task


def test_run_tgf_format(capsys):
    code = run(RunConfig(), H1_TGF, source="h1.tgf")
    output = capsys.readouterr().out
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


def test_format_flag_overrides_extension(capsys):
    code = run(RunConfig(format="apx"), H1_APX, source="weird.txt")
    output = capsys.readouterr().out
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


def test_unknown_format_is_config_error(capsys):
    code = run(RunConfig(), H1_APX, source="weird.txt")
    assert code == 1
    assert "format" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["H1.APX", "h1.Apx", "H1.Tgf"])
def test_format_detection_ignores_the_case_of_the_suffix(source, capsys):
    text = H1_TGF if source.endswith("gf") else H1_APX
    assert run(RunConfig(), text, source=source) == 0
    assert capsys.readouterr().out == "[a,c,d]\n[b,e]\n"


def test_count_task_on_empty_framework(capsys):
    code = run(RunConfig(task="CE-ST", format="apx"), "")
    output = capsys.readouterr().out
    assert code == 0
    assert output == "COUNT 1\n"


def test_count_task_without_extension_prints_zero(capsys):
    code = run(RunConfig(task="CE-ST", format="apx"), THREE_CYCLE)
    output = capsys.readouterr().out
    assert code == 0
    assert output == "COUNT 0\n"


@pytest.mark.parametrize("verify", [False, True])
def test_count_task_passes_a_sink_only_to_verify(monkeypatch, capsys, verify):
    sinks = []
    search = cli.label_enum.enumerate_extensions

    def spy(f, order, sink, **kwargs):
        sinks.append(sink)
        return search(f, order, sink, **kwargs)

    monkeypatch.setattr(cli.label_enum, "enumerate_extensions", spy)
    code = run(RunConfig(task="CE-ST", verify=verify), H1_APX, source="h1.apx")
    assert code == 0
    assert capsys.readouterr().out == "COUNT 2\n"
    assert (sinks[0] is None) is not verify


def test_single_task_without_extension_prints_no(capsys):
    code = run(RunConfig(task="SE-ST", format="apx"), THREE_CYCLE)
    output = capsys.readouterr().out
    assert code == 0
    assert output == "NO\n"


def test_single_task_prints_one(capsys):
    code = run(RunConfig(task="SE-ST"), H1_APX, source="h1.apx")
    output = capsys.readouterr().out
    assert code == 0
    assert output == "[a,c,d]\n"


def test_parse_error_exits_one(capsys):
    code = run(RunConfig(format="apx"), "arg(a)\n")
    assert code == 1
    assert capsys.readouterr().err.startswith("<input>:1: malformed fact")


def test_undeclared_argument_exits_one(capsys):
    code = run(RunConfig(format="apx"), "att(a,b).")
    assert code == 1
    assert "undeclared" in capsys.readouterr().err


def test_duplicate_argument_warns_but_runs(capsys):
    code = run(RunConfig(task="CE-ST", format="apx"), "arg(a). arg(a).")
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "COUNT 1\n"
    assert "warning" in captured.err


def test_verify_accepts_honest_engines(capsys):
    code = run(RunConfig(verify=True, check_invariants=True), H1_APX, source="h1.apx")
    output = capsys.readouterr().out
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


def test_verify_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "is_stable", lambda f, ext: False)
    code = run(RunConfig(verify=True), H1_APX, source="h1.apx")
    assert code == 2
    assert "verification failed" in capsys.readouterr().err


def test_verify_failure_keeps_the_extensions_before_it(monkeypatch, capsys):
    monkeypatch.setattr(cli, "is_stable", lambda f, ext: [f.names[x] for x in ext] != ["b", "e"])
    code = run(RunConfig(verify=True), H1_APX, source="h1.apx")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "[a,c,d]\n"
    assert "verification failed: reported set ['b', 'e']" in captured.err


def test_verify_checks_each_line_of_a_split_run(tmp_path, capsys, monkeypatch):
    # four pairs and a copy of h1: five groups, but --verify runs the single
    # search, which checks each of the 16 * 2 lines once, as the whole
    # extension, before it is written
    pairs, h1 = pairs_framework(8), h1_framework()
    f = build(pairs.names + h1.names,
              [(pairs.names[x], pairs.names[y]) for x, y in pairs.attacks]
              + [(h1.names[x], h1.names[y]) for x, y in h1.attacks])
    assert len(split.groups(f.n, split.cuts(f, range(f.n)))) == 5
    path = tmp_path / "pairs-h1.apx"
    path.write_text(write_apx(f))
    checked = []

    def is_stable(g, ext):
        checked.append(format_extension(ext, g.names))
        return cli_is_stable(g, ext)

    cli_is_stable = cli.is_stable
    monkeypatch.setattr(cli, "is_stable", is_stable)
    assert main([str(path), "--verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 32
    assert checked == lines


def _before_each_delivery(monkeypatch, hook):
    """Call ``hook(ext)`` whenever the label engine hands ``ext`` to the CLI's sink."""
    search = cli.label_enum.enumerate_extensions

    def spy(f, order, sink, **kwargs):
        def deliver(ext):
            hook(ext)
            sink(ext)

        return search(f, order, deliver, **kwargs)

    monkeypatch.setattr(cli.label_enum, "enumerate_extensions", spy)


def test_extensions_are_written_as_found(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written_before = []
    _before_each_delivery(monkeypatch, lambda ext: written_before.append(out.getvalue()))
    assert run(RunConfig(), H1_APX, source="h1.apx") == 0
    assert written_before == ["", "[a,c,d]\n"]
    assert out.getvalue() == "[a,c,d]\n[b,e]\n"


def test_invariant_violation_exits_two(monkeypatch, capsys):
    from stabenum.invariants import InvariantViolation

    def broken(*args, **kwargs):
        raise InvariantViolation("forced for the test")

    monkeypatch.setattr(cli.label_enum, "enumerate_extensions", broken)
    code = run(RunConfig(check_invariants=True), H1_APX, source="h1.apx")
    assert code == 2
    assert "invariant" in capsys.readouterr().err


def test_trace_written_as_json_lines(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    config = RunConfig(trace=str(trace_path))
    code = run(config, H1_APX, source="h1.apx")
    assert code == 0
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert len(events) == 11
    assert events[0]["state_id"] == 1
    assert events[0]["mu"] == dict.fromkeys("abcdef", "blank")
    assert events[2]["pi"] == {"a": 0, "b": 2, "c": 0, "d": 0, "e": 1, "f": 1}
    assert events[10]["gamma"] == ["c", "f"]


def test_main_end_to_end(tmp_path, capsys):
    path = tmp_path / "h1.apx"
    path.write_text(H1_APX)
    assert main([str(path)]) == 0
    assert capsys.readouterr().out == "[a,c,d]\n[b,e]\n"


def test_main_keeps_the_recursion_limit(tmp_path, capsys):
    f = pairs_framework(2000)
    path = tmp_path / "pairs.apx"
    path.write_text(write_apx(f))
    limit = sys.getrecursionlimit()
    assert main([str(path), "--task", "SE-ST"]) == 0
    assert sys.getrecursionlimit() == limit
    assert capsys.readouterr().out == "[" + ",".join(f.names[::2]) + "]\n"


# the inputs of the runs below, by file name
_RUN_INPUTS = {
    "h1.apx": H1_APX,
    "pairs.apx": write_apx(pairs_framework(12)),
    "cycle.apx": THREE_CYCLE,
    "malformed.apx": "arg(a).\natt(a,b)\n",
    "undeclared.apx": "arg(a).\natt(a,c).\n",
}


@pytest.mark.parametrize(
    "argv, code, max_stored",
    [
        pytest.param(["h1.apx"], 0, None, id="EE-ST"),
        pytest.param(["h1.apx", "--task", "SE-ST"], 0, None, id="SE-ST"),
        pytest.param(["h1.apx", "--task", "CE-ST"], 0, None, id="CE-ST"),
        pytest.param(["h1.apx", "--engine", "set"], 0, None, id="set"),
        pytest.param(["h1.apx", "--engine", "bruteforce"], 0, None, id="bruteforce"),
        pytest.param(["h1.apx", "--verify"], 0, None, id="verify"),
        pytest.param(["h1.apx", "--check-invariants"], 0, None, id="check-invariants"),
        pytest.param(["h1.apx", "--trace", "trace.jsonl"], 0, None, id="trace"),
        pytest.param(["h1.apx", "--order", "max-out"], 0, None, id="max-out"),
        pytest.param(["pairs.apx"], 0, None, id="split"),
        pytest.param(["pairs.apx", "--task", "CE-ST"], 0, None, id="split-count"),
        # the split stores nothing and falls back to the single search
        pytest.param(["pairs.apx"], 0, 0, id="split-full"),
        pytest.param(["cycle.apx", "--task", "SE-ST"], 0, None, id="no-extension"),
        pytest.param(["malformed.apx"], 1, None, id="parse-error"),
        pytest.param(["undeclared.apx"], 1, None, id="undeclared"),
        pytest.param(["--gen", "12,0.2,1"], 0, None, id="gen"),
    ],
)
def test_no_run_leaves_cyclic_garbage(tmp_path, capsys, monkeypatch, argv, code, max_stored):
    # main pauses the cyclic collector on the grounds that a run frees all it
    # allocates by reference counting.  Usage errors are exempt: argparse
    # leaves 6 cyclic objects (a HelpFormatter and its sections) for each,
    # but a usage error ends the process.  The first parser build leaves 30,
    # once per process, so the parser is built before the measured call
    for name, text in _RUN_INPUTS.items():
        (tmp_path / name).write_text(text)
    if max_stored is not None:
        monkeypatch.setattr(split, "MAX_STORED", max_stored)
    monkeypatch.chdir(tmp_path)
    assert main(["h1.apx"]) == 0  # builds the cached parser
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == code
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        leaked = sorted({type(o).__qualname__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert found == 0, leaked


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_restores_the_collector(tmp_path, capsys, monkeypatch, enabled):
    path = tmp_path / "h1.apx"
    path.write_text(H1_APX)
    seen = []
    cli_execute = cli.execute

    def spy(config, f):
        seen.append(gc.isenabled())
        return cli_execute(config, f)

    def broken(config, f):
        raise RuntimeError("forced for the test")

    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(cli, "execute", spy)
        assert main([str(path)]) == 0
        after_return = gc.isenabled()
        with pytest.raises(SystemExit):
            main([])
        after_usage_error = gc.isenabled()
        monkeypatch.setattr(cli, "execute", broken)
        with pytest.raises(RuntimeError):
            main([str(path)])
        after_exception = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    capsys.readouterr()
    assert seen == [False]
    assert [after_return, after_usage_error, after_exception] == [enabled] * 3


def test_main_missing_file(capsys):
    assert main(["/nonexistent/input.apx"]) == 1
    assert "stabenum" in capsys.readouterr().err


def test_main_non_utf8_input_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.apx"
    path.write_bytes(b"arg(a).\xff\n")
    assert main([str(path)]) == 1
    assert "stabenum" in capsys.readouterr().err


def test_main_input_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.apx"
    path.write_bytes(b"\xef\xbb\xbf" + H1_APX.encode())
    assert main([str(path)]) == 0
    assert capsys.readouterr().out == "[a,c,d]\n[b,e]\n"


def test_main_unwritable_trace_exits_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "h1.apx"
    path.write_text(H1_APX)

    def search(*args, **kwargs):
        raise AssertionError("searched before the trace file was opened")

    monkeypatch.setattr(cli.label_enum, "enumerate_extensions", search)
    assert main([str(path), "--trace", str(tmp_path / "missing" / "t.jsonl")]) == 1
    assert "stabenum" in capsys.readouterr().err


def test_main_trace_requires_label_engine(tmp_path, capsys):
    path = tmp_path / "h1.apx"
    path.write_text(H1_APX)
    with pytest.raises(SystemExit) as excinfo:
        main([str(path), "--engine", "set", "--trace", str(tmp_path / "t.jsonl")])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("engine", ["set", "bruteforce"])
def test_trace_requires_label_engine_in_the_library(tmp_path, engine):
    with pytest.raises(ValueError, match="--trace requires the label engine"):
        RunConfig(engine=engine, trace=str(tmp_path / "t.jsonl"))
    assert not (tmp_path / "t.jsonl").exists()


def test_check_invariants_requires_a_search_engine(tmp_path, capsys):
    with pytest.raises(ValueError, match="--check-invariants requires the set or label engine"):
        RunConfig(engine="bruteforce", check_invariants=True)
    path = tmp_path / "h1.apx"
    path.write_text(H1_APX)
    with pytest.raises(SystemExit) as excinfo:
        main([str(path), "--engine", "bruteforce", "--check-invariants"])
    assert excinfo.value.code == 1
    assert "--check-invariants requires" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("engine", "labl"),
        ("task", "XX"),
        ("task", "se-st"),
        ("order", "bogus"),
        ("format", "xml"),
    ],
)
def test_run_config_rejects_unknown_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be one of"):
        RunConfig(**{field: value})


def test_run_config_defaults():
    config = RunConfig()
    assert (config.task, config.engine, config.format, config.order) == ("EE-ST", "label", None, "lex")
    assert (config.check_invariants, config.trace, config.verify) == (False, None, False)


def test_run_config_is_a_value():
    config = RunConfig(task="CE-ST", verify=True)
    assert config == RunConfig("CE-ST", verify=True) and hash(config) == hash(RunConfig("CE-ST", verify=True))
    assert config != RunConfig(task="CE-ST")
    assert RunConfig() == RunConfig() and len({RunConfig(), RunConfig()}) == 1
    assert repr(config) == (
        "RunConfig(task='CE-ST', engine='label', format=None, order='lex', "
        "check_invariants=False, trace=None, verify=True)"
    )
    with pytest.raises(AttributeError):
        config.task = "EE-ST"
    with pytest.raises(AttributeError):
        config.trace = "t.jsonl"


def test_every_option_reaches_the_run_config(tmp_path, monkeypatch):
    path = tmp_path / "h1.apx"
    path.write_text(H1_APX)
    configs = []
    monkeypatch.setattr(cli, "run", lambda config, text, source: configs.append(config) or 0)
    assert main([str(path)]) == 0
    assert configs.pop() == RunConfig()
    assert main([str(path), "--task", "CE-ST", "--engine", "set", "--format", "apx",
                 "--order", "max-in", "--verify", "--check-invariants"]) == 0
    assert configs.pop() == RunConfig(task="CE-ST", engine="set", format="apx", order="max-in",
                                      check_invariants=True, verify=True)
    trace = str(tmp_path / "t.jsonl")
    assert main([str(path), "--trace", trace]) == 0
    assert configs.pop() == RunConfig(trace=trace)
    assert not (tmp_path / "t.jsonl").exists()


def test_cold_start_imports_neither_dataclasses_nor_json():
    # a solver harness starts one process per framework, so every run pays
    # for the package's imports; json is needed only by --trace
    child = (
        "import sys; sys.path.insert(0, sys.argv[1]); from stabenum import cli; "
        "code = cli.main([sys.argv[2]]); "
        "print(code, sorted({'dataclasses', 'json'} & set(sys.modules)))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", child, str(src), str(DATA_DIR / "h1.apx")],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[a,c,d]\n[b,e]\n0 []\n"


def test_cold_start_does_not_import_typing():
    # -S: a site .pth hook may import typing before the first line runs
    child = (
        "import sys; sys.path.insert(0, sys.argv[1]); from stabenum import cli; "
        "code = cli.main([sys.argv[2]]); print(code, 'typing' in sys.modules)"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", child, str(src), str(DATA_DIR / "h1.apx")],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[a,c,d]\n[b,e]\n0 False\n"


@pytest.mark.parametrize("order", ["lex", "max-out", "max-in"])
def test_main_trace_matches_the_golden_file(tmp_path, capsys, order):
    trace = tmp_path / "t.jsonl"
    args = [str(DATA_DIR / "h1.apx"), "--trace", str(trace), "--check-invariants", "--order", order]
    assert main(args) == 0
    assert capsys.readouterr().out == "[a,c,d]\n[b,e]\n"
    assert trace.read_bytes() == (DATA_DIR / f"h1.{order}.trace.jsonl").read_bytes()


class _PipeClosedAfterFirstWrite(io.StringIO):
    """A stdout whose reader leaves after the first write; counts every write."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def _stops_at_the_first_failing_write(tmp_path, capsys, monkeypatch, *options) -> str:
    """The first write of a run on 4 pairs whose stdout closes after it."""
    path = tmp_path / "pairs.apx"
    path.write_text(write_apx(pairs_framework(8)))  # 16 extensions
    out = _PipeClosedAfterFirstWrite()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([str(path), *options]) == 1
    assert out.writes == 2
    assert capsys.readouterr().err == ""
    return out.getvalue()


def test_main_stops_when_stdout_is_closed(tmp_path, capsys, monkeypatch):
    # the 4 pairs are 4 parts searched apart; the product is written a block
    # of lines at a time, and the first block holds the last three parts' 8
    # extensions after the first part's first
    assert _stops_at_the_first_failing_write(tmp_path, capsys, monkeypatch) == (
        "[a0,a2,a4,a6]\n[a0,a2,a4,a7]\n[a0,a2,a5,a6]\n[a0,a2,a5,a7]\n"
        "[a0,a3,a4,a6]\n[a0,a3,a4,a7]\n[a0,a3,a5,a6]\n[a0,a3,a5,a7]\n"
    )


def test_single_search_stops_when_stdout_is_closed(tmp_path, capsys, monkeypatch):
    # a probe runs the single search, which writes each extension as it is found
    first = _stops_at_the_first_failing_write(tmp_path, capsys, monkeypatch, "--check-invariants")
    assert first.count("\n") == 1


@pytest.mark.parametrize("n", [None, 24], ids=["h1", "pairs24"])
def test_closed_pipe_exits_one_without_traceback(tmp_path, n):
    # A real process whose stdout is a pipe without a reader.  On h1 the
    # first failing write is the final flush; on 24 pairs (4,096 extensions)
    # it is a full buffer in the middle of the search.
    path = DATA_DIR / "h1.apx"
    if n is not None:
        path = tmp_path / "pairs.apx"
        path.write_text(write_apx(pairs_framework(n)))
    # block-buffered, as stdout to a pipe is by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stabenum.cli", str(path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_main_gen_mode(capsys):
    assert main(["--gen", "6,0.0,1", "--task", "CE-ST"]) == 0
    assert capsys.readouterr().out == "COUNT 1\n"


def test_main_gen_and_input_conflict(tmp_path):
    path = tmp_path / "h1.apx"
    path.write_text(H1_APX)
    with pytest.raises(SystemExit) as excinfo:
        main([str(path), "--gen", "4,0.1,1"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "an input file (or --gen) is required"),
        (["--gen", "5,0.5"], "--gen takes N,P,SEED[,selfloops]"),
    ],
)
def test_main_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def _exits(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


def test_main_reuses_one_parser_built_on_its_first_call(capsys):
    # --help and a usage error print, byte for byte, what a parser built
    # afresh prints, on the first call and on later ones
    argvs = (["--help"], ["--order", "best"], ["--gen", "5,0.5"])
    fresh = cli._build_parser.__wrapped__()
    expected = [_exits(fresh.parse_args, argv, capsys) for argv in argvs[:2]]
    expected.append((1, "", fresh.format_usage()
                     + "stabenum: error: --gen takes N,P,SEED[,selfloops]\n"))
    assert [code for code, _, _ in expected] == [0, 1, 1]
    for _ in range(2):
        assert [_exits(main, argv, capsys) for argv in argvs] == expected
    assert cli._build_parser() is cli._build_parser()
    # the import builds none: a cold start that only imports pays nothing for it
    src = Path(cli.__file__).resolve().parents[1]
    child = ("import sys; sys.path.insert(0, sys.argv[1]); from stabenum import cli; "
             "print(cli._build_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", child, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_count_past_the_digit_limit_prints_in_full(tmp_path, capsys):
    # 2^14400 has 4,335 digits, past Python's default limit of 4,300 on
    # converting an int to a string; Decimal has no such limit
    path = tmp_path / "pairs.apx"
    path.write_text(write_apx(pairs_framework(28_800)))
    with decimal.localcontext() as context:
        context.prec = 5000
        digits = str(decimal.Decimal(2) ** 14_400)
    assert len(digits) == 4335
    assert main([str(path), "--task", "CE-ST"]) == 0
    assert capsys.readouterr().out == f"COUNT {digits}\n"


@pytest.mark.parametrize("k", [0, 7, 10**600 - 1, 10**600, 10**600 + 1, 10**1200, 3**3000])
def test_count_digits(k):
    with decimal.localcontext() as context:
        context.prec = 5000
        assert cli._decimal(k) == str(decimal.Decimal(k))


def test_parse_gen_forms():
    spec = parse_gen("10,0.25,7")
    assert spec == GenSpec(n=10, p=0.25, allow_self_loops=False, seed=7)
    assert parse_gen("5,0.5,1,selfloops").allow_self_loops
    with pytest.raises(ValueError):
        parse_gen("5,0.5,1..4")
    with pytest.raises(ValueError):
        parse_gen("5,0.5")
    with pytest.raises(ValueError):
        parse_gen("5,0.5,1,loops")


def test_execute_verify_on_generated(capsys):
    code = execute(RunConfig(task="CE-ST", engine="set", verify=True), h1_framework())
    output = capsys.readouterr().out
    assert code == 0
    assert output == "COUNT 2\n"


def test_bruteforce_size_guard_in_run_mode(capsys):
    from stabenum.framework import build

    big = build([f"a{i}" for i in range(26)], [])
    code = execute(RunConfig(engine="bruteforce"), big)
    assert code == 1
    assert "brute-force" in capsys.readouterr().err
