"""Smoke test of ``tools/step_memory.py`` on the tiny config."""

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

from conftest import tiny_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_memory.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("step_memory", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_prints_one_line_per_config_with_the_workspace_arena(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "CONFIGS", {"tiny": (dataclasses.asdict(tiny_config()),
                                                   "float64", 4)})
    monkeypatch.setattr(tool, "WARMUP", 2)
    monkeypatch.setattr(tool, "STEPS", 3)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert tool.main([str(TOOL.parent.parent)]) == 0
    out = capsys.readouterr().out
    m = re.fullmatch(r"tiny minflt_per_step=(\S+) step_peak_mb=(\S+) arena_mb=(\S+) "
                     r"gradcam_peak_mb=(\S+)\n", out)
    assert m, out
    assert float(m[1]) >= 0 and float(m[2]) > 0 and float(m[3]) > 0 and float(m[4]) > 0


def test_a_tree_without_the_package_is_refused(tmp_path, capsys):
    assert load_tool().main([str(tmp_path)]) == 2
    assert "no lesionformer package" in capsys.readouterr().err


def test_usage_without_a_tree(capsys):
    assert load_tool().main([]) == 1
    assert capsys.readouterr().err.startswith("usage:")
