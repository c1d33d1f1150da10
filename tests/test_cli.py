import dataclasses
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lesionformer import training
from lesionformer.cli import main, parse_configs
from lesionformer.data import read_manifest, read_netpbm, write_netpbm
from lesionformer.model import ModelConfig, init_params
from lesionformer.training import (FORMAT_VERSION, Checkpoint, TrainConfig,
                                   save_checkpoint)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SMALL = ["--config", "image_h=8", "--config", "image_w=8", "--config",
         "channels=1", "--config", "embed_dim=8", "--config", "heads=2",
         "--config", "layers=1", "--config", "epochs=2", "--config",
         "batch_size=4"]


@pytest.fixture
def dataset(tmp_path, capsys):
    root = tmp_path / "data"
    code, _, _ = run(capsys, "synth", "--out", str(root), "--n", "20",
                     "--seed", "3", "--size", "8", "8")
    assert code == 0
    return root


@pytest.fixture
def trained(dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    code, out, _ = run(capsys, "train", "--data", str(dataset / "manifest.csv"),
                       "--out", str(ckpt), *SMALL)
    assert code == 0
    return ckpt


class TestSynth:
    def test_writes_images_masks_manifest(self, dataset):
        rows = read_manifest(dataset / "manifest.csv")
        assert len(rows) == 20
        img = read_netpbm(dataset / rows[0][0])
        mask = read_netpbm(dataset / rows[0][2])
        assert img.shape == (8, 8, 3)
        assert mask.shape == (8, 8)
        assert set(np.unique(mask)) <= {0, 255}

    def test_byte_reproducible(self, tmp_path, capsys):
        for d in ("a", "b"):
            assert run(capsys, "synth", "--out", str(tmp_path / d), "--n", "10",
                       "--seed", "7")[0] == 0
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_quota_follows_imbalance(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "--out", str(tmp_path / "q"), "--n",
                         "100", "--seed", "0", "--imbalance", "60,30,10")
        assert code == 0
        labels = [r[1] for r in read_manifest(tmp_path / "q" / "manifest.csv")]
        assert np.bincount(labels, minlength=3).tolist() == [60, 30, 10]

    def test_indivisible_size_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "x"), "--n",
                           "1", "--size", "9", "9")
        assert code == 1 and "usage error" in err

    @pytest.mark.parametrize("flags", [
        ["--n", "0"], ["--n", "-2"], ["--imbalance", "a,b"], ["--imbalance", "1,-1"],
        ["--imbalance", "0,0"], ["--imbalance", "1,nan"], ["--imbalance", "1e308,1e308"],
        ["--patch", "0"], ["--size", "-4", "-4"], ["--size", "0", "0"], ["--seed", "-1"],
    ], ids=" ".join)
    def test_bad_flag_is_one_line_usage_error_and_writes_nothing(self, flags, tmp_path,
                                                                  capsys):
        out = tmp_path / "x"
        code, _, err = run(capsys, "synth", "--out", str(out), "--n", "4", *flags)
        assert_one_line_error(code, err, 1, "usage error:")
        assert not out.exists()

    def test_runs_as_a_module_from_the_source_tree(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "lesionformer", "synth", "--out", str(tmp_path / "m"),
             "--n", "2", "--size", "8", "8"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(read_manifest(tmp_path / "m" / "manifest.csv")) == 2


class TestTrain:
    def test_prints_metric_table(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        code, out, _ = run(capsys, "train", "--data",
                           str(dataset / "manifest.csv"), "--out", str(ckpt),
                           *SMALL)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-2] == "ACC\tAUC\tF1-Score\tPrecision"
        assert len(lines[-1].split("\t")) == 4
        assert ckpt.exists()

    def test_deterministic_checkpoints(self, dataset, tmp_path, capsys):
        outs = []
        for name in ("1.ckpt", "2.ckpt"):
            path = tmp_path / name
            assert run(capsys, "train", "--data", str(dataset / "manifest.csv"),
                       "--out", str(path), *SMALL)[0] == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_log_file_has_one_line_per_step(self, dataset, tmp_path, capsys):
        log = tmp_path / "train.log"
        assert run(capsys, "train", "--data", str(dataset / "manifest.csv"),
                   "--out", str(tmp_path / "m.ckpt"), "--log", str(log),
                   *SMALL)[0] == 0
        lines = log.read_text().strip().splitlines()
        # 20 samples, eval_fraction 0.2 -> 16 train, batch 4, 2 epochs
        assert len(lines) == 8
        assert all(len(l.split(",")) == 5 for l in lines)

    def test_dump_config_lists_both_configs(self, dataset, tmp_path, capsys):
        code, out, _ = run(capsys, "train", "--data",
                           str(dataset / "manifest.csv"), "--out",
                           str(tmp_path / "m.ckpt"), "--dump-config", *SMALL)
        assert code == 0
        assert "model.embed_dim=8" in out
        assert "train.epochs=2" in out

    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--data",
                           str(dataset / "manifest.csv"), "--out",
                           str(tmp_path / "m.ckpt"), "--config", "bogus=1")
        assert code == 1
        assert "bogus" in err and "valid keys" in err

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--data",
                           str(tmp_path / "nope.csv"), "--out",
                           str(tmp_path / "m.ckpt"))
        assert code == 2 and "data error" in err

    def test_missing_out_directory_is_data_error_before_any_step(
            self, dataset, tmp_path, capsys, monkeypatch):
        def no_step(*args):
            raise AssertionError("a train step ran")

        monkeypatch.setattr(training, "train_step", no_step)
        log = tmp_path / "train.log"
        code, _, err = run(capsys, "train", "--data", str(dataset / "manifest.csv"),
                           "--out", str(tmp_path / "nodir" / "m.ckpt"),
                           "--log", str(log), *SMALL)
        assert_one_line_error(code, err, 2, "data error")
        assert "nodir" in err
        assert not log.exists()


class TestEval:
    def test_twice_identical(self, dataset, trained, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "eval", "--data",
                               str(dataset / "manifest.csv"), "--ckpt",
                               str(trained))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == "ACC\tAUC\tF1-Score\tPrecision"

    def test_corrupt_checkpoint_is_data_error(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage!")
        code, _, err = run(capsys, "eval", "--data",
                           str(dataset / "manifest.csv"), "--ckpt", str(bad))
        assert code == 2 and "data error" in err


class TestGradcam:
    @pytest.mark.parametrize("layers", [0, 1])
    def test_writes_heat_and_overlay(self, layers, dataset, tmp_path, capsys):
        # no block at all, and no block before the final one: the two edges
        # of the gradient leaf that Grad-CAM's backward stops at
        ckpt = tmp_path / "model.ckpt"
        code, _, _ = run(capsys, "train", "--data", str(dataset / "manifest.csv"),
                         "--out", str(ckpt), *SMALL, "--config", f"layers={layers}")
        assert code == 0
        rows = read_manifest(dataset / "manifest.csv")
        prefix = tmp_path / "cam"
        code, out, err = run(capsys, "gradcam", "--image",
                             str(dataset / rows[0][0]), "--ckpt", str(ckpt),
                             "--class", str(rows[0][1]), "--out", str(prefix))
        assert code == 0
        heat = read_netpbm(f"{prefix}.heat.pgm")
        overlay = read_netpbm(f"{prefix}.overlay.ppm")
        assert heat.shape == (8, 8)
        assert overlay.shape == (8, 8, 3)
        # min-max normalized, or all-zero when ReLU removes every token
        assert heat.max() in (0, 255)
        assert re.fullmatch(r"argmax=\(\d+,\d+\)\n", out)
        if layers == 0:
            # no patch row reaches the class logit: a blank map, said once
            assert heat.max() == 0
            assert re.fullmatch(r"warning: the Grad-CAM map is blank: the model "
                                r"has no encoder block, .*\n", err)
        if heat.max() > 0:
            assert err == ""

    def test_two_channel_model_overlays_the_channel_mean(self, tmp_path, capsys):
        # a P5 image adapted to 2 channels: the overlay's gray is their mean
        mc = ModelConfig(image_h=8, image_w=8, channels=2, embed_dim=8, heads=2,
                         layers=1)
        tc = TrainConfig()
        ckpt = tmp_path / "two.ckpt"
        save_checkpoint(ckpt, Checkpoint(mc, tc, init_params(mc), None, step=0))
        pixels = np.arange(64, dtype=np.uint8).reshape(8, 8) * 3
        write_netpbm(tmp_path / "gray.pgm", pixels)
        prefix = tmp_path / "cam"
        code, out, err = run(capsys, "gradcam", "--image", str(tmp_path / "gray.pgm"),
                             "--ckpt", str(ckpt), "--class", "0", "--out", str(prefix))
        assert code == 0 and re.fullmatch(r"argmax=\(\d+,\d+\)\n", out)
        overlay = read_netpbm(f"{prefix}.overlay.ppm")
        assert overlay.shape == (8, 8, 3)
        gray = np.clip(np.round(0.5 * pixels / 255.0 * 255.0), 0, 255).astype(np.uint8)
        assert np.array_equal(overlay[:, :, 1], gray)
        assert np.array_equal(overlay[:, :, 2], gray)

    def test_out_of_range_class_is_usage_error(self, dataset, trained, tmp_path,
                                               capsys):
        rows = read_manifest(dataset / "manifest.csv")
        code, _, err = run(capsys, "gradcam", "--image",
                           str(dataset / rows[0][0]), "--ckpt", str(trained),
                           "--class", "9", "--out", str(tmp_path / "c"))
        assert code == 1 and "usage error" in err


class TestParsing:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == 1

    def test_malformed_config_flag(self, capsys):
        code, _, err = run(capsys, "train", "--data", "x", "--out", "y",
                           "--config", "epochs")
        assert code == 1 and "KEY=VAL" in err

    def test_shared_seed_applies_to_both_configs(self):
        model_cfg, train_cfg = parse_configs(["seed=42"])
        assert model_cfg.seed == 42 and train_cfg.seed == 42

    def test_bool_coercion(self):
        _, train_cfg = parse_configs(["cosine_decay=true"])
        assert train_cfg.cosine_decay is True

    def test_bad_value_type(self, capsys):
        code, _, err = run(capsys, "train", "--data", "x", "--out", "y",
                           "--config", "epochs=soon")
        assert code == 1 and "epochs" in err


def assert_one_line_error(code, err, expected_code, prefix):
    assert code == expected_code
    assert err.startswith(prefix)
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


class TestMalformedCheckpoint:
    def eval_ckpt(self, capsys, dataset, path):
        return run(capsys, "eval", "--data", str(dataset / "manifest.csv"),
                   "--ckpt", str(path))

    def test_shorter_than_preamble(self, dataset, tmp_path, capsys):
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(b"LSNFRMT1\x01\x00")
        code, _, err = self.eval_ckpt(capsys, dataset, bad)
        assert_one_line_error(code, err, 2, "data error")

    @pytest.mark.parametrize("field", ["name_length", "name", "count"])
    def test_cut_inside_array_field(self, dataset, trained, tmp_path, capsys,
                                    field):
        raw = trained.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 8)
        first = 12 + hlen  # start of the first array's name length
        (nlen,) = struct.unpack_from("<I", raw, first)
        cut = {"name_length": first + 2, "name": first + 4 + nlen - 1,
               "count": first + 4 + nlen + 3}[field]
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(raw[:cut])
        code, _, err = self.eval_ckpt(capsys, dataset, bad)
        assert_one_line_error(code, err, 2, "data error")

    def test_trailing_bytes_rejected(self, dataset, trained, tmp_path, capsys):
        bad = tmp_path / "trailing.ckpt"
        bad.write_bytes(trained.read_bytes() + b"garbage")
        code, _, err = self.eval_ckpt(capsys, dataset, bad)
        assert_one_line_error(code, err, 2, "data error")
        assert "trailing" in err


class TestInvalidTrainConfig:
    def test_zero_batch_size_is_usage_error(self, dataset, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--data",
                           str(dataset / "manifest.csv"), "--out",
                           str(tmp_path / "m.ckpt"), *SMALL,
                           "--config", "batch_size=0")
        assert_one_line_error(code, err, 1, "usage error")
        assert "batch_size" in err
        assert not (tmp_path / "m.ckpt").exists()


class TestInvalidModelConfig:
    def test_indivisible_embed_dim_is_usage_error(self, dataset, tmp_path,
                                                  capsys):
        code, _, err = run(capsys, "train", "--data",
                           str(dataset / "manifest.csv"), "--out",
                           str(tmp_path / "m.ckpt"), "--config", "embed_dim=30")
        assert_one_line_error(code, err, 1, "usage error")
        assert "embed_dim" in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("pair", ["grid_side=3", "np_dtype=x", "validate=1",
                                      "num_patches=4", "mlp_hidden=8"])
    def test_property_or_method_is_unknown_key(self, dataset, tmp_path, capsys,
                                               pair):
        code, _, err = run(capsys, "train", "--data",
                           str(dataset / "manifest.csv"), "--out",
                           str(tmp_path / "m.ckpt"), *SMALL, "--config", pair)
        assert_one_line_error(code, err, 1, "usage error")
        assert "unknown config key" in err and "valid keys" in err
        assert not (tmp_path / "m.ckpt").exists()


def with_header(raw, edit):
    """``raw`` checkpoint bytes with the header replaced by ``edit(header)``."""
    (hlen,) = struct.unpack_from("<I", raw, 8)
    header = edit(raw[12:12 + hlen])
    return raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + hlen:]


def drop_line(key):
    return lambda h: re.sub(rb"(?m)^" + key + rb"=.*\n", b"", h)


class TestMalformedHeader:
    @pytest.mark.parametrize("edit", [
        lambda h: b"\xff\xfe" + h,
        lambda h: h.replace(b"format_version=%d\n" % FORMAT_VERSION, b"format_version=x\n"),
        lambda h: h.replace(b"model.image_h=8\n", b"model.image_h=x\n"),
        drop_line(b"step"),
        drop_line(b"n_arrays"),
        # the trained checkpoint stores moments: -1 says it has none to read
        lambda h: re.sub(rb"(?m)^opt_t=\d+$", b"opt_t=-1", h),
        lambda h: re.sub(rb"(?m)^opt_t=\d+$", b"opt_t=-2", h),
    ], ids=["non_utf8", "format_version", "image_h", "no_step",
            "no_n_arrays", "moments_under_opt_t_minus_one", "opt_t_below_minus_one"])
    def test_eval_exits_with_data_error(self, dataset, trained, tmp_path, capsys,
                                        edit):
        raw = trained.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(raw, edit))
        assert bad.read_bytes() != raw
        code, _, err = run(capsys, "eval", "--data",
                           str(dataset / "manifest.csv"), "--ckpt", str(bad))
        assert_one_line_error(code, err, 2, "data error")

    @pytest.mark.parametrize("key, value", [
        # the arrays are float64, as train.dtype says
        (b"dtype", b"float32"),
        # the same values, spelled as save_checkpoint does not spell them
        (b"train.learning_rate", b"3e-4"), (b"model.mlp_ratio", b"2.00")])
    def test_line_save_checkpoint_would_not_write_is_named(self, dataset, trained,
                                                           tmp_path, capsys, key, value):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(trained.read_bytes(), lambda h: re.sub(
            rb"(?m)^" + re.escape(key) + rb"=.*$", key + b"=" + value, h)))
        code, _, err = run(capsys, "eval", "--data",
                           str(dataset / "manifest.csv"), "--ckpt", str(bad))
        assert_one_line_error(code, err, 2, "data error")
        assert key.decode() + "=" in err

    def test_format_version_1_names_its_weight_layout(self, dataset, trained, tmp_path,
                                                     capsys):
        bad = tmp_path / "v1.ckpt"
        bad.write_bytes(with_header(trained.read_bytes(), lambda h: h.replace(
            b"format_version=%d\n" % FORMAT_VERSION, b"format_version=1\n")))
        code, _, err = run(capsys, "eval", "--data",
                           str(dataset / "manifest.csv"), "--ckpt", str(bad))
        assert_one_line_error(
            code, err, 2, "data error: bad checkpoint header: format version 1 stores "
            "patch_proj.w, mlp.w1, mlp.w2 and head.w (out, in); this code reads "
            f"version {FORMAT_VERSION}: retrain")


class TestCheckpointArraySet:
    """A checkpoint holds each array its header implies once, and no other
    (``TestMalformedHeader`` edits ``opt_t`` under the stored moments)."""

    @staticmethod
    def first_record(raw):
        (hlen,) = struct.unpack_from("<I", raw, 8)
        pos = 12 + hlen
        (nlen,) = struct.unpack_from("<I", raw, pos)
        (count,) = struct.unpack_from("<Q", raw, pos + 4 + nlen)
        return raw[pos:pos + 4 + nlen + 8 + count * 8]  # float64 checkpoint

    @staticmethod
    def appended(raw, record):
        """``raw`` with one more array record and ``n_arrays`` counting it."""
        return with_header(raw, lambda h: re.sub(
            rb"(?m)^n_arrays=(\d+)$", lambda m: b"n_arrays=%d" % (int(m[1]) + 1),
            h)) + record

    @pytest.mark.parametrize("case", ["junk", "duplicate"])
    def test_eval_exits_with_data_error(self, dataset, trained, tmp_path, capsys,
                                        case):
        raw = trained.read_bytes()
        if case == "junk":
            bad = self.appended(raw, struct.pack("<I", 4) + b"junk"
                                + struct.pack("<Qd", 1, 0.0))
        else:
            bad = self.appended(raw, self.first_record(raw))
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bad)
        code, _, err = run(capsys, "eval", "--data", str(dataset / "manifest.csv"),
                           "--ckpt", str(path))
        assert_one_line_error(code, err, 2, "data error")
        # the bumped n_arrays is the first byte save_checkpoint would not write
        assert "n_arrays" in err


class TestHeaderShapesBeforeAllocation:
    # imports first, then caps the address space at 1 GiB; the header below
    # asks for a 20000000 x 16 patch projection alone, 2.56 GB at float64
    CHILD = ("import resource, sys\n"
             "from lesionformer.cli import main\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "sys.exit(main(sys.argv[1:]))\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps memory on Linux")
    def test_huge_embed_dim_is_data_error_without_allocating(self, dataset, trained,
                                                             tmp_path):
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(with_header(trained.read_bytes(), lambda h: re.sub(
            rb"(?m)^model\.embed_dim=.*$", b"model.embed_dim=20000000", h)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, "eval", "--data",
             str(dataset / "manifest.csv"), "--ckpt", str(bad)],
            capture_output=True, text=True, env=env, timeout=120)
        assert_one_line_error(proc.returncode, proc.stderr, 2, "data error")
        assert "patch_proj.w" in proc.stderr


class TestDumpConfig:
    def test_prints_the_checkpoint_config_lines(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        code, out, _ = run(capsys, "train", "--data",
                           str(dataset / "manifest.csv"), "--out", str(ckpt),
                           "--dump-config", *SMALL, "--config", "cosine_decay=true",
                           "--config", "learning_rate=0.1")
        assert code == 0
        raw = ckpt.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 8)
        header = raw[12:12 + hlen].decode("utf-8").splitlines()
        config = [l for l in header if l.startswith(("model.", "train."))]
        assert len(config) == (len(dataclasses.fields(ModelConfig))
                               + len(dataclasses.fields(TrainConfig)))
        assert out.splitlines()[:len(config)] == config


class TestConfigRanges:
    @pytest.mark.parametrize("pair", [
        "image_h=0", "channels=0", "patch=0", "embed_dim=0", "heads=0",
        "scales=0", "classes=0", "layers=-1", "mlp_ratio=0", "mlp_ratio=inf",
        "seed=-1", "epochs=0", "epochs=-1", "eval_fraction=1.5",
        "eval_fraction=-0.1", "eval_fraction=0.99", "lambda_attn=-1",
        "lambda_attn=nan", "weight_epsilon=0", "adam_eps=0",
        "learning_rate=nan", "scales=1000000000000", "learning_rate=inf",
        "adam_eps=inf", "weight_epsilon=inf", "lambda_attn=inf"])
    def test_train_exits_with_usage_error(self, dataset, tmp_path, capsys, pair):
        code, _, err = run(capsys, "train", "--data",
                           str(dataset / "manifest.csv"), "--out",
                           str(tmp_path / "m.ckpt"), *SMALL, "--config", pair)
        assert_one_line_error(code, err, 1, "usage error")
        assert pair.partition("=")[0] in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_unallocatable_parameters_are_a_usage_error(self, dataset, tmp_path, capsys):
        # numpy refuses a dimension this large without allocating anything
        code, _, err = run(capsys, "train", "--data", str(dataset / "manifest.csv"),
                           "--out", str(tmp_path / "m.ckpt"), "--log",
                           str(tmp_path / "m.log"), *SMALL, "--config", "mlp_ratio=1e300")
        assert_one_line_error(code, err, 1, "usage error")
        assert "allocate the initial parameters" in err
        assert list(tmp_path.iterdir()) == [dataset]

    @pytest.mark.parametrize("key, value", [
        (b"model.patch", b"0"), (b"model.heads", b"0"), (b"model.layers", b"-1"),
        (b"model.classes", b"0"), (b"train.epochs", b"0"),
        (b"train.weight_epsilon", b"0.0"), (b"model.scales", b"1000000000000"),
        (b"train.adam_eps", b"inf")])
    def test_bad_header_value_is_data_error(self, dataset, trained, tmp_path,
                                            capsys, key, value):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(trained.read_bytes(), lambda h: re.sub(
            rb"(?m)^" + re.escape(key) + rb"=.*$", key + b"=" + value, h)))
        code, _, err = run(capsys, "eval", "--data",
                           str(dataset / "manifest.csv"), "--ckpt", str(bad))
        assert_one_line_error(code, err, 2, "data error")
        assert key.decode().partition(".")[2] in err

    def test_unknown_header_key_is_data_error(self, dataset, trained, tmp_path, capsys):
        # a field removed from the config, even at its old default
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(trained.read_bytes(),
                                    lambda h: h + b"model.literal_multiscale=false\n"))
        code, _, err = run(capsys, "eval", "--data",
                           str(dataset / "manifest.csv"), "--ckpt", str(bad))
        assert_one_line_error(code, err, 2, "data error")
        assert "model.literal_multiscale" in err


class TestOneLineAborts:
    def test_huge_mlp_ratio_header_names_the_parameter_in_one_short_line(
            self, dataset, trained, tmp_path, capsys):
        # the config is valid, but the MLP width it implies has 300 digits
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(trained.read_bytes(), lambda h: re.sub(
            rb"(?m)^model\.mlp_ratio=.*$", b"model.mlp_ratio=1e+300", h)))
        code, _, err = run(capsys, "eval", "--data",
                           str(dataset / "manifest.csv"), "--ckpt", str(bad))
        assert_one_line_error(code, err, 2, "data error")
        assert "layer0.mlp.w1" in err
        assert len(err.strip()) < 200

    def test_overflowing_learning_rate_aborts_in_one_line(self, dataset, tmp_path):
        # a child process, so that NumPy's warnings print as they would for a user
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run(
            [sys.executable, "-m", "lesionformer", "train", "--data",
             str(dataset / "manifest.csv"), "--out", str(tmp_path / "m.ckpt"), *SMALL,
             "--config", "learning_rate=1e308"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert_one_line_error(proc.returncode, proc.stderr, 3, "numeric abort:")
        assert not (tmp_path / "m.ckpt").exists()


class TestManifestLabels:
    @pytest.fixture
    def bad_label(self, dataset):
        path = dataset / "manifest.csv"
        lines = path.read_text().splitlines()
        image, _, mask = lines[5].split(",")
        lines[5] = f"{image},3,{mask}"  # the model has 3 classes: 0, 1, 2
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_train_rejects_label_at_load_time(self, bad_label, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--data", str(bad_label), "--out",
                           str(tmp_path / "m.ckpt"), *SMALL)
        assert_one_line_error(code, err, 2, "data error")
        assert f"{bad_label}:6:" in err and "label 3" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_eval_rejects_label_at_load_time(self, trained, bad_label, capsys):
        code, _, err = run(capsys, "eval", "--data", str(bad_label), "--ckpt",
                           str(trained))
        assert_one_line_error(code, err, 2, "data error")
        assert f"{bad_label}:6:" in err and "label 3" in err

    def test_empty_manifest_is_data_error(self, trained, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("image,label,mask\n")
        for argv in (["train", "--out", str(tmp_path / "m.ckpt"), *SMALL],
                     ["eval", "--ckpt", str(trained)]):
            code, _, err = run(capsys, argv[0], "--data", str(path), *argv[1:])
            assert_one_line_error(code, err, 2, "data error")
            assert "no sample rows" in err


class TestUnreadableInputs:
    """Inputs that once ended in a traceback now end in a one-line data error."""

    def train(self, capsys, manifest, tmp_path, *extra):
        return run(capsys, "train", "--data", str(manifest), "--out",
                   str(tmp_path / "m.ckpt"), *SMALL, *extra)

    def test_manifest_with_non_utf8_byte(self, dataset, tmp_path, capsys):
        path = dataset / "manifest.csv"
        path.write_bytes(path.read_bytes().replace(b"img00003", b"img\xff0003"))
        code, _, err = self.train(capsys, path, tmp_path)
        assert_one_line_error(code, err, 2, "data error")
        assert str(path) in err and "UTF-8" in err

    def test_manifest_field_over_csv_limit(self, dataset, tmp_path, capsys):
        path = dataset / "manifest.csv"
        lines = path.read_text().splitlines()
        lines[3] += "x" * 131073
        path.write_text("\n".join(lines) + "\n")
        code, _, err = self.train(capsys, path, tmp_path)
        assert_one_line_error(code, err, 2, "data error")
        assert f"{path}:4:" in err

    def test_checkpoint_array_name_with_non_utf8_byte(self, dataset, trained,
                                                      tmp_path, capsys):
        raw = bytearray(trained.read_bytes())
        (hlen,) = struct.unpack_from("<I", raw, 8)
        raw[12 + hlen + 4] = 0xFF  # first byte of the first array's name
        bad = tmp_path / "name.ckpt"
        bad.write_bytes(bytes(raw))
        code, _, err = run(capsys, "eval", "--data", str(dataset / "manifest.csv"),
                           "--ckpt", str(bad))
        assert_one_line_error(code, err, 2, "data error")
        assert "patch_proj.w" in err

    def test_checkpoint_optimizer_array_of_wrong_size(self, dataset, trained,
                                                       tmp_path, capsys):
        # the last array is an optimizer moment: one element fewer, and
        # its count says so, leaves the container itself consistent
        raw = trained.read_bytes()
        itemsize = 8  # float64 checkpoint
        (hlen,) = struct.unpack_from("<I", raw, 8)
        pos = 12 + hlen
        while True:
            (nlen,) = struct.unpack_from("<I", raw, pos)
            (count,) = struct.unpack_from("<Q", raw, pos + 4 + nlen)
            end = pos + 4 + nlen + 8 + count * itemsize
            if end == len(raw):
                break
            pos = end
        assert raw[pos + 4:pos + 4 + nlen].startswith(b"opt.")
        bad = tmp_path / "short_moment.ckpt"
        bad.write_bytes(raw[:pos + 4 + nlen] + struct.pack("<Q", count - 1)
                        + raw[pos + 4 + nlen + 8:-itemsize])
        code, _, err = run(capsys, "eval", "--data", str(dataset / "manifest.csv"),
                           "--ckpt", str(bad))
        assert_one_line_error(code, err, 2, "data error")
        assert "opt.v.head.b" in err

    def test_channel_count_the_images_cannot_take(self, dataset, tmp_path, capsys):
        code, _, err = self.train(capsys, dataset / "manifest.csv", tmp_path,
                                  "--config", "channels=2")
        assert_one_line_error(code, err, 2, "data error")
        assert "img00000.ppm" in err and "3 channels to 2" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_model_without_layers_trains_on_masked_set(self, dataset, tmp_path, capsys):
        code, _, err = self.train(capsys, dataset / "manifest.csv", tmp_path,
                                  "--config", "layers=0")
        assert code == 0 and err == ""
        assert (tmp_path / "m.ckpt").exists()
