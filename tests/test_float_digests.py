"""Smoke test of ``tools/float_digests.py`` on the tiny config."""

import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "float_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("float_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_tiny_config_digests_every_array_once_and_reproducibly():
    tool = load_tool()
    cfg = tiny_config()
    lines = tool.config_digests("tiny", cfg, "float64", 4)
    assert lines == tool.config_digests("tiny", cfg, "float64", 4)
    names = [name for name, _ in lines]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for _, d in lines)
    groups = {}
    for name in names:
        kind = name.split(".")[1]
        groups[kind] = groups.get(kind, 0) + 1
    n_params = groups["param"]
    assert n_params > 0
    assert groups == {"grad": n_params, "loss": tool.STEPS, "param": n_params,
                      "adam_m": n_params, "adam_v": n_params, "checkpoint": 1,
                      "eval": 1, "image": 2, "gradcam": cfg.classes}


def test_resized_run_digests_every_step_and_array_once_and_reproducibly():
    tool = load_tool()
    cfg = tiny_config()
    steps = ((4, ()), (3, ()), (3, (1,)), (4, (0, 2)))
    lines = tool.resize_digests("tiny", cfg, "float64", steps)
    assert lines == tool.resize_digests("tiny", cfg, "float64", steps)
    names = [name for name, _ in lines]
    assert len(set(names)) == len(names)
    groups = {}
    for name in names:
        kind = name.split(".")[1]
        groups[kind] = groups.get(kind, 0) + 1
    n_params = groups["param"]
    assert n_params > 0
    assert groups == {"loss": 4, "gradcam": 4, "param": n_params, "adam_m": n_params,
                      "adam_v": n_params}


def test_a_digest_tells_signed_zeros_and_shapes_apart():
    tool = load_tool()
    assert tool.digest(np.array([-0.0])) != tool.digest(np.array([0.0]))
    assert tool.digest(np.zeros((2, 3))) != tool.digest(np.zeros((3, 2)))
    assert tool.digest(np.zeros(2)) != tool.digest(np.zeros(2, np.float32))


def test_a_tree_without_the_package_is_refused(tmp_path, capsys):
    assert load_tool().main([str(tmp_path)]) == 2
    assert "no lesionformer package" in capsys.readouterr().err


def test_a_checkpoint_that_loads_back_changed_exits_3_naming_the_config(monkeypatch,
                                                                         capsys):
    from lesionformer import training
    tool = load_tool()
    load = training.load_checkpoint

    def load_with_one_moment_changed(path):
        ckpt = load(path)
        next(iter(ckpt.opt.v.values()))[...] += 1.0
        return ckpt

    monkeypatch.setattr(training, "load_checkpoint", load_with_one_moment_changed)
    monkeypatch.setattr(tool, "CONFIGS", {"tiny": (dataclasses.asdict(tiny_config()),
                                                   "float64", 4)})
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert tool.main([str(TOOL.parent.parent)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("float_digests: tiny: ")
