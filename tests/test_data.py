import numpy as np
import pytest

from lesionformer.data import (ManifestError, NetpbmError, Sample, SynthConfig,
                               class_frequencies, load_image, load_mask,
                               load_samples, mask_to_patch_grid, read_manifest,
                               read_netpbm, resize_nearest, split_samples,
                               synth_generate, synth_sample, write_manifest,
                               write_netpbm)


class TestNetpbm:
    def test_single_white_pgm_pixel(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\xff")
        img = load_image(path)
        np.testing.assert_array_equal(img, [[[1.0]]])

    def test_two_pixel_ppm(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P6\n1 2\n255\n\x00\x00\x00\xff\xff\xff")
        img = load_image(path)
        np.testing.assert_array_equal(img[0], [[0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(img[1], [[1.0, 1.0, 1.0]])

    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(7, 5, 3)).astype(np.uint8)
        path = tmp_path / "r.ppm"
        write_netpbm(path, arr)
        assert np.array_equal(read_netpbm(path), arr)
        gray = rng.integers(0, 256, size=(4, 9)).astype(np.uint8)
        write_netpbm(tmp_path / "g.pgm", gray)
        assert np.array_equal(read_netpbm(tmp_path / "g.pgm"), gray)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(NetpbmError, match="offset 0"):
            read_netpbm(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(NetpbmError, match="truncated"):
            read_netpbm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(NetpbmError, match="maxval"):
            read_netpbm(path)

    def test_loader_output_range(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(6, 6)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_netpbm(path, arr)
        img = load_image(path)
        assert img.min() >= 0.0 and img.max() <= 1.0
        mask = load_mask(path)
        assert set(np.unique(mask)) <= {0.0, 1.0}


class TestResize:
    def test_nearest_preserves_binary_masks(self, rng):
        mask = (rng.random((16, 16)) > 0.5).astype(np.uint8) * 255
        small = resize_nearest(mask, 8, 8)
        assert set(np.unique(small)) <= {0, 255}

    def test_identity_when_dims_match(self, rng):
        arr = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
        assert np.array_equal(resize_nearest(arr, 8, 8), arr)


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.csv"
        rows = [("a.ppm", 0, "a_mask.pgm"), ("b.ppm", 2, None)]
        write_manifest(path, rows)
        assert read_manifest(path) == [("a.ppm", 0, "a_mask.pgm"), ("b.ppm", 2, None)]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("img,lbl\n")
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("image,label,mask\na.ppm,x,\n")
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_load_samples_resolves_relative_paths(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
        write_netpbm(tmp_path / "a.ppm", arr)
        write_netpbm(tmp_path / "a_mask.pgm",
                     (rng.random((8, 8)) > 0.5).astype(np.uint8) * 255)
        write_manifest(tmp_path / "manifest.csv", [("a.ppm", 1, "a_mask.pgm")])
        samples = load_samples(tmp_path / "manifest.csv", (8, 8), 3)
        assert len(samples) == 1
        assert samples[0].label == 1
        assert samples[0].image.shape == (8, 8, 3)
        assert samples[0].mask.shape == (8, 8)


class TestMaskToPatchGrid:
    def test_full_mask(self):
        grid = mask_to_patch_grid(np.ones((8, 8)), 4)
        np.testing.assert_array_equal(grid, np.ones((2, 2)))

    def test_single_patch_mask(self):
        mask = np.zeros((8, 8))
        mask[4:8, 0:4] = 1.0
        grid = mask_to_patch_grid(mask, 4)
        np.testing.assert_array_equal(grid, [[0.0, 0.0], [1.0, 0.0]])

    def test_matches_brute_force_block_means(self, rng):
        mask = (rng.random((12, 12)) > 0.5).astype(float)
        grid = mask_to_patch_grid(mask, 4)
        for i in range(3):
            for j in range(3):
                ref = mask[4 * i:4 * i + 4, 4 * j:4 * j + 4].mean()
                assert abs(grid[i, j] - ref) < 1e-12
        # a stack gives each of its masks' grids
        stack = np.stack([mask, rng.random((12, 12)), 1.0 - mask])
        grids = mask_to_patch_grid(stack, 4)
        assert grids.shape == (3, 3, 3)
        for m, got in zip(stack, grids):
            assert np.array_equal(got, mask_to_patch_grid(m, 4))

    def test_conservation(self, rng):
        mask = (rng.random((16, 16)) > 0.7).astype(float)
        grid = mask_to_patch_grid(mask, 4)
        assert grid.sum() * 16 == mask.sum()

    def test_divisibility(self):
        with pytest.raises(ValueError):
            mask_to_patch_grid(np.zeros((9, 9)), 4)


class TestSynth:
    def test_determinism(self):
        cfg = SynthConfig(seed=5)
        a = synth_generate(8, cfg)
        b = synth_generate(8, cfg)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.image, s2.image)
            assert np.array_equal(s1.mask, s2.mask)
            assert s1.label == s2.label

    def test_masks_nonempty_and_in_bounds(self):
        for s in synth_generate(20, SynthConfig(seed=1)):
            assert s.mask.sum() > 0
            assert s.mask.shape == s.image.shape[:2]
            # lesion fully inside the frame: border stays background
            assert s.mask[0].sum() == 0 and s.mask[-1].sum() == 0
            assert s.mask[:, 0].sum() == 0 and s.mask[:, -1].sum() == 0

    def test_pixels_in_range(self):
        for s in synth_generate(10, SynthConfig(seed=2)):
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert set(np.unique(s.mask)) <= {0.0, 1.0}

    def test_order_independent_generation(self):
        cfg = SynthConfig(seed=9)
        full = synth_generate(6, cfg)
        lone = synth_sample(3, full[3].label, cfg)
        assert np.array_equal(full[3].image, lone.image)

    def test_quota_counts_exact(self):
        samples = synth_generate(100, SynthConfig(seed=0, imbalance=(0.6, 0.3, 0.1)))
        counts = np.bincount([s.label for s in samples], minlength=3)
        assert counts.tolist() == [60, 30, 10]

    def test_mean_pixel_probe_separates_dark_from_ringed(self):
        cfg = SynthConfig(seed=4, imbalance=(0.5, 0.5, 0.0))
        samples = [s for s in synth_generate(200, cfg) if s.label in (0, 1)]
        means = np.array([s.image[s.mask == 1.0].mean() for s in samples])
        labels = np.array([s.label for s in samples])
        # best threshold on the 1-D statistic
        best = max(np.mean((means > t) == labels) for t in means)
        assert best > 0.9


class TestClassFrequencies:
    def test_even_split(self):
        samples = [Sample(None, l, None, str(i)) for i, l in enumerate([0, 0, 1, 1])]
        np.testing.assert_array_equal(class_frequencies(samples), [0.5, 0.5])

    def test_single_label(self):
        samples = [Sample(None, 0, None, "a")]
        np.testing.assert_array_equal(class_frequencies(samples), [1.0])

    def test_matches_histogram(self, rng):
        labels = rng.integers(0, 5, size=1000)
        samples = [Sample(None, int(l), None, str(i)) for i, l in enumerate(labels)]
        f = class_frequencies(samples, 5)
        ref = np.bincount(labels, minlength=5) / 1000
        assert np.array_equal(f, ref)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_frequencies([])


class TestSplit:
    def test_deterministic(self):
        samples = synth_generate(20, SynthConfig(seed=1))
        t1, e1 = split_samples(samples, 0.25, seed=3)
        t2, e2 = split_samples(samples, 0.25, seed=3)
        assert [s.id for s in t1] == [s.id for s in t2]
        assert [s.id for s in e1] == [s.id for s in e2]
        assert len(e1) == 5 and len(t1) == 15

    def test_disjoint_and_complete(self):
        samples = synth_generate(11, SynthConfig(seed=1))
        t, e = split_samples(samples, 0.3, seed=0)
        ids = sorted(s.id for s in t) + sorted(s.id for s in e)
        assert sorted(ids) == sorted(s.id for s in samples)
