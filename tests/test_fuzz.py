"""Byte-level fuzzing of the three file parsers.

Each test starts from a file the matching writer produced, truncates it,
flips one byte or inserts one, and asserts that the parser either succeeds
or raises its own documented error type (or ``OSError``), never anything
else. A checkpoint header edited line by line must raise ``CheckpointError``.
"""

import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import tiny_config
from lesionformer.data import (ManifestError, NetpbmError, read_manifest,
                               read_netpbm, write_manifest, write_netpbm)
from lesionformer.model import init_params
from lesionformer.training import (Checkpoint, CheckpointError, TrainConfig,
                                   init_adam, load_checkpoint, save_checkpoint)


@st.composite
def edited(draw, files):
    """One of ``files``, then truncated, with one byte flipped, or with one
    byte inserted."""
    raw = draw(st.sampled_from(files))
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    pos = draw(st.integers(0, len(raw) - 1 if kind == "flip" else len(raw)))
    if kind == "truncate":
        return raw[:pos]
    byte = draw(st.integers(1, 255))
    if kind == "flip":
        return raw[:pos] + bytes([raw[pos] ^ byte]) + raw[pos + 1:]
    return raw[:pos] + bytes([byte]) + raw[pos:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def written(path, write):
    write(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def netpbm_files(workdir):
    rng = np.random.default_rng(0)
    gray = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    rgb = rng.integers(0, 256, (2, 3, 3), dtype=np.uint8)
    return [written(workdir / "valid.pgm", lambda p: write_netpbm(p, gray)),
            written(workdir / "valid.ppm", lambda p: write_netpbm(p, rgb))]


@pytest.fixture(scope="module")
def manifest_files(workdir):
    rows = [("img0.ppm", 0, "mask0.pgm"), ("img1.ppm", 2, ""), ("img2.ppm", 1, "m2.pgm")]
    # a mask path exactly at the csv module's field limit: one inserted
    # byte inside it crosses the limit
    at_limit = [("img0.ppm", 1, "m" * 131072)]
    return [written(workdir / "valid.csv", lambda p: write_manifest(p, rows)),
            written(workdir / "limit.csv", lambda p: write_manifest(p, at_limit))]


@pytest.fixture(scope="module")
def checkpoint_files(workdir):
    cfg = tiny_config()
    tc = TrainConfig()
    params = init_params(cfg)
    return [written(workdir / "valid.ckpt",
                    lambda p: save_checkpoint(p, Checkpoint(cfg, tc, params, opt, step=3)))
            for opt in (init_adam(params), None)]


def parses_or_raises(parse, path, raw, errors):
    path.write_bytes(raw)
    try:
        parse(path)
    except errors + (OSError,):
        pass


@given(data=st.data())
def test_read_netpbm_raises_only_netpbm_errors(data, netpbm_files, workdir):
    parses_or_raises(read_netpbm, workdir / "fuzz.pnm",
                     data.draw(edited(netpbm_files)), (NetpbmError,))


@given(data=st.data())
def test_read_manifest_raises_only_manifest_errors(data, manifest_files, workdir):
    parses_or_raises(read_manifest, workdir / "fuzz.csv",
                     data.draw(edited(manifest_files)), (ManifestError,))


@given(data=st.data())
def test_load_checkpoint_raises_only_checkpoint_errors(data, checkpoint_files, workdir):
    parses_or_raises(load_checkpoint, workdir / "fuzz.ckpt",
                     data.draw(edited(checkpoint_files)), (CheckpointError,))


def respellings(value):
    """Texts other than ``value`` that ``int`` or ``float``, whichever reads
    ``value``, reads as the same number; none for a value that is not one."""
    kind = int if re.fullmatch(r"-?\d+", value) else float
    try:
        number = kind(value)
    except ValueError:
        return []
    out = []
    for text in (" " + value, value + " ", "+" + value, "0" + value, value + "0",
                 f"{number:.0e}", f"{number:.17e}"):
        try:
            if text != value and kind(text) == number:
                out.append(text)
        except ValueError:
            pass
    return out


@st.composite
def header_edited(draw, files):
    """One of ``files`` with one header line dropped, duplicated, swapped with
    another or re-spelled to the same number."""
    raw = draw(st.sampled_from(files))
    (hlen,) = struct.unpack_from("<I", raw, 8)
    lines = raw[12:12 + hlen].decode("utf-8").splitlines()
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "respell"]))
    if kind == "respell":
        i = draw(st.sampled_from([k for k, line in enumerate(lines)
                                  if respellings(line.partition("=")[2])]))
        key, _, value = lines[i].partition("=")
        lines[i] = f"{key}={draw(st.sampled_from(respellings(value)))}"
    else:
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 2))
            j += j >= i
            lines[i], lines[j] = lines[j], lines[i]
    header = "".join(line + "\n" for line in lines).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + hlen:]


@given(data=st.data())
def test_load_checkpoint_refuses_every_header_save_checkpoint_would_not_write(
        data, checkpoint_files, workdir):
    path = workdir / "header.ckpt"
    path.write_bytes(data.draw(header_edited(checkpoint_files)))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
