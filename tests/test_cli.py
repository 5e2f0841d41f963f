from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stabenum import cli
from stabenum.cli import RunConfig, execute, main, parse_gen, run
from stabenum.formats import write_apx
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
    code = run(RunConfig(engine=engine), H1_APX, source="h1.apx")
    output = capsys.readouterr().out
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


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

    def spy(f, pick, sink, **kwargs):
        sinks.append(sink)
        return search(f, pick, sink, **kwargs)

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


def _before_each_delivery(monkeypatch, hook):
    """Call ``hook(ext)`` whenever the label engine hands ``ext`` to the CLI's sink."""
    search = cli.label_enum.enumerate_extensions

    def spy(f, pick, sink, **kwargs):
        def deliver(ext):
            hook(ext)
            sink(ext)

        return search(f, pick, deliver, **kwargs)

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


def _stops_at_the_first_failing_write(tmp_path, capsys, monkeypatch, *options):
    path = tmp_path / "pairs.apx"
    path.write_text(write_apx(pairs_framework(8)))  # 16 extensions
    out = _PipeClosedAfterFirstWrite()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([str(path), *options]) == 1
    assert out.writes == 2
    assert out.getvalue().count("\n") == 1
    assert capsys.readouterr().err == ""


def test_main_stops_when_stdout_is_closed(tmp_path, capsys, monkeypatch):
    # the 4 pairs are 4 parts searched apart; the product is written as it is formed
    _stops_at_the_first_failing_write(tmp_path, capsys, monkeypatch)


def test_single_search_stops_when_stdout_is_closed(tmp_path, capsys, monkeypatch):
    # a probe runs the single search, which writes each extension as it is found
    _stops_at_the_first_failing_write(tmp_path, capsys, monkeypatch, "--check-invariants")


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
