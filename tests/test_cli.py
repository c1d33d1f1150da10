import struct

import numpy as np
import pytest

from lesionformer.cli import main, parse_configs
from lesionformer.data import read_manifest, read_netpbm


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
    def test_writes_heat_and_overlay(self, dataset, trained, tmp_path, capsys):
        rows = read_manifest(dataset / "manifest.csv")
        prefix = tmp_path / "cam"
        code, out, _ = run(capsys, "gradcam", "--image",
                           str(dataset / rows[0][0]), "--ckpt", str(trained),
                           "--class", str(rows[0][1]), "--out", str(prefix))
        assert code == 0
        heat = read_netpbm(f"{prefix}.heat.pgm")
        overlay = read_netpbm(f"{prefix}.overlay.ppm")
        assert heat.shape == (8, 8)
        assert overlay.shape == (8, 8, 3)
        # min-max normalized, or all-zero when ReLU removes every token
        assert heat.max() in (0, 255)
        assert out.startswith("argmax=(")

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
        model_cfg, train_cfg = parse_configs(["cosine_decay=true",
                                              "literal_multiscale=true"])
        assert train_cfg.cosine_decay is True
        assert model_cfg.literal_multiscale is True

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
