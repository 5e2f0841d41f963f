from __future__ import annotations

import json

import pytest

from stabenum import cli
from stabenum.cli import RunConfig, execute, main, parse_gen, run
from stabenum.generators import GenSpec

from conftest import DATA_DIR, h1_framework

H1_APX = (DATA_DIR / "h1.apx").read_text()
H1_TGF = (DATA_DIR / "h1.tgf").read_text()
THREE_CYCLE = "arg(a). arg(b). arg(c). att(a,b). att(b,c). att(c,a)."


def test_run_enumerate_all_label():
    code, output = run(RunConfig(engine="label"), H1_APX, source="h1.apx")
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


@pytest.mark.parametrize("engine", ["bruteforce", "set", "label"])
def test_all_engines_agree_on_fixture(engine):
    code, output = run(RunConfig(engine=engine), H1_APX, source="h1.apx")
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


def test_run_tgf_format():
    code, output = run(RunConfig(), H1_TGF, source="h1.tgf")
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


def test_format_flag_overrides_extension():
    code, output = run(RunConfig(format="apx"), H1_APX, source="weird.txt")
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


def test_unknown_format_is_config_error(capsys):
    code, _ = run(RunConfig(), H1_APX, source="weird.txt")
    assert code == 1
    assert "format" in capsys.readouterr().err


def test_count_task_on_empty_framework():
    code, output = run(RunConfig(task="CE-ST", format="apx"), "")
    assert code == 0
    assert output == "COUNT 1\n"


def test_single_task_without_extension_prints_no():
    code, output = run(RunConfig(task="SE-ST", format="apx"), THREE_CYCLE)
    assert code == 0
    assert output == "NO\n"


def test_single_task_prints_one():
    code, output = run(RunConfig(task="SE-ST"), H1_APX, source="h1.apx")
    assert code == 0
    assert output == "[a,c,d]\n"


def test_parse_error_exits_one(capsys):
    code, _ = run(RunConfig(format="apx"), "arg(a)\n")
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_undeclared_argument_exits_one(capsys):
    code, _ = run(RunConfig(format="apx"), "att(a,b).")
    assert code == 1
    assert "undeclared" in capsys.readouterr().err


def test_duplicate_argument_warns_but_runs(capsys):
    code, output = run(RunConfig(task="CE-ST", format="apx"), "arg(a). arg(a).")
    assert code == 0
    assert output == "COUNT 1\n"
    assert "warning" in capsys.readouterr().err


def test_verify_accepts_honest_engines():
    code, output = run(RunConfig(verify=True, check_invariants=True), H1_APX, source="h1.apx")
    assert code == 0
    assert output == "[a,c,d]\n[b,e]\n"


def test_verify_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(cli, "is_stable", lambda f, ext: False)
    code, _ = run(RunConfig(verify=True), H1_APX, source="h1.apx")
    assert code == 2
    assert "verification failed" in capsys.readouterr().err


def test_invariant_violation_exits_two(monkeypatch, capsys):
    from stabenum.invariants import InvariantViolation

    def broken(*args, **kwargs):
        raise InvariantViolation("forced for the test")

    monkeypatch.setattr(cli.label_enum, "enumerate_extensions", broken)
    code, _ = run(RunConfig(check_invariants=True), H1_APX, source="h1.apx")
    assert code == 2
    assert "invariant" in capsys.readouterr().err


def test_trace_written_as_json_lines(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    config = RunConfig(trace=str(trace_path))
    code, _ = run(config, H1_APX, source="h1.apx")
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


def test_main_missing_file(capsys):
    assert main(["/nonexistent/input.apx"]) == 1
    assert "stabenum" in capsys.readouterr().err


def test_main_non_utf8_input_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.apx"
    path.write_bytes(b"arg(a).\xff\n")
    assert main([str(path)]) == 1
    assert "stabenum" in capsys.readouterr().err


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


def test_main_gen_mode(capsys):
    assert main(["--gen", "6,0.0,1", "--task", "CE-ST"]) == 0
    assert capsys.readouterr().out == "COUNT 1\n"


def test_main_gen_and_input_conflict(tmp_path):
    path = tmp_path / "h1.apx"
    path.write_text(H1_APX)
    with pytest.raises(SystemExit) as excinfo:
        main([str(path), "--gen", "4,0.1,1"])
    assert excinfo.value.code == 1


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


def test_execute_verify_on_generated():
    code, output = execute(RunConfig(task="CE-ST", engine="set", verify=True),
                           h1_framework())
    assert code == 0
    assert output == "COUNT 2\n"


def test_bruteforce_size_guard_in_run_mode(capsys):
    from stabenum.framework import build

    big = build([f"a{i}" for i in range(26)], [])
    code, _ = execute(RunConfig(engine="bruteforce"), big)
    assert code == 1
    assert "brute-force" in capsys.readouterr().err
