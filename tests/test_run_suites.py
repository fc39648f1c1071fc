"""scripts/run_suites.py parses --dims with the CLI's whole-number rule."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_suites.py"


def _main(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *argv])
    return runpy.run_path(str(SCRIPT), run_name="run_suites")["main"]()


def test_integral_float_dims_run(monkeypatch, capsys):
    assert _main(monkeypatch, "--trials", "1", "--dims", "2.0") == 0
    assert "surprises: 0" in capsys.readouterr().out


@pytest.mark.parametrize("dims, message", [("2,x", "'x'"), ("2.5", "'2.5'"), ("0", ">= 1")])
def test_bad_dims_exit_2_with_a_message(monkeypatch, capsys, dims, message):
    with pytest.raises(SystemExit) as exit_info:
        _main(monkeypatch, "--trials", "1", "--dims", dims)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
