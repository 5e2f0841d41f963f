from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gen_instances.py"
_spec = importlib.util.spec_from_file_location("gen_instances", SCRIPT)
gen_instances = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_instances)


def test_seed_range_forms():
    assert gen_instances.seed_range("3..5") == [3, 4, 5]
    assert gen_instances.seed_range("4..4") == [4]
    assert gen_instances.seed_range("7") == [7]


def test_seed_range_rejects_empty_range():
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
        gen_instances.seed_range("5..1")


def test_main_writes_one_file_per_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gen_instances.py", str(tmp_path), "--n", "4", "--seeds", "1..2"])
    assert gen_instances.main() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "af_n4_p0.2_s1.apx", "af_n4_p0.2_s2.apx",
    ]


def test_main_empty_seed_range_is_usage_error(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["gen_instances.py", str(out), "--seeds", "5..1"])
    with pytest.raises(SystemExit) as excinfo:
        gen_instances.main()
    assert excinfo.value.code == 2
    assert "empty seed range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    (["--p", "1.5"], "attack probability 1.5 outside [0,1]"),
    (["--n", "-3"], "negative argument count -3"),
], ids=["p-above-one", "negative-n"])
def test_main_invalid_spec_is_usage_error(tmp_path, monkeypatch, capsys, option, message):
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["gen_instances.py", str(out), *option])
    with pytest.raises(SystemExit) as excinfo:
        gen_instances.main()
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
