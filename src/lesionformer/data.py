"""Dataset ingestion and synthesis.

Binary netpbm (P5/P6, maxval 255) readers and writers, a manifest format
(`image,label,mask` CSV), a deterministic synthetic lesion generator for
desk-scale verification, mask reduction to the patch grid, class
frequencies, and a seeded train/eval split.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class NetpbmError(ValueError):
    """Malformed netpbm file; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ManifestError(ValueError):
    pass


class ImageError(ValueError):
    """A well-formed image that cannot be adapted to the requested shape."""


@dataclass
class Sample:
    image: np.ndarray            # H x W x C floats in [0, 1]
    label: int
    mask: np.ndarray | None      # H x W floats in {0, 1}
    id: str


# ---------------------------------------------------------------------------
# netpbm


def read_netpbm(path) -> np.ndarray:
    """Read binary PGM (P5) or PPM (P6), 8-bit. Returns uint8 (H,W) or (H,W,3)."""
    raw = Path(path).read_bytes()
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(raw):
            if raw[pos:pos + 1].isspace():
                pos += 1
            elif raw[pos:pos + 1] == b"#":
                while pos < len(raw) and raw[pos] != 0x0A:
                    pos += 1
            else:
                break

    def token():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise NetpbmError("unexpected end of header", start)
        return raw[start:pos], start

    magic, off = token()
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"unsupported magic {magic!r}", off)
    fields = []
    for _ in range(3):
        tok, off = token()
        try:
            fields.append(int(tok))
        except ValueError:
            raise NetpbmError(f"non-numeric header token {tok!r}", off) from None
    w, h, maxval = fields
    if w <= 0 or h <= 0:
        raise NetpbmError(f"bad dimensions {w}x{h}", off)
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval}", off)
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        raise NetpbmError("missing whitespace before payload", pos)
    pos += 1
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    payload = raw[pos:pos + need]
    if len(payload) < need:
        raise NetpbmError(
            f"truncated payload: need {need} bytes, have {len(payload)}", pos + len(payload))
    arr = np.frombuffer(payload, dtype=np.uint8)
    return arr.reshape(h, w) if channels == 1 else arr.reshape(h, w, 3)


def write_netpbm(path, arr: np.ndarray):
    """Write uint8 (H,W) as P5 or (H,W,3) as P6, maxval 255."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        magic = b"P5"
        h, w = arr.shape
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
        h, w = arr.shape[:2]
    else:
        raise ValueError(f"cannot write array of shape {arr.shape} as netpbm")
    header = magic + b"\n" + f"{w} {h}".encode() + b"\n255\n"
    Path(path).write_bytes(header + arr.tobytes())


def resize_nearest(arr: np.ndarray, h: int, w: int) -> np.ndarray:
    """Nearest-neighbor resize; preserves binary masks."""
    sh, sw = arr.shape[:2]
    rows = (np.arange(h) * sh) // h
    cols = (np.arange(w) * sw) // w
    return arr[rows][:, cols]


def load_image(path, target_hw=None, channels=None) -> np.ndarray:
    """Load a netpbm image as H x W x C floats in [0, 1]."""
    raw = read_netpbm(path)
    if raw.ndim == 2:
        raw = raw[:, :, None]
    if target_hw is not None and raw.shape[:2] != tuple(target_hw):
        raw = resize_nearest(raw, *target_hw)
    if channels is not None and raw.shape[2] != channels:
        if raw.shape[2] == 1:
            raw = np.repeat(raw, channels, axis=2)
        elif channels == 1:
            raw = raw.mean(axis=2, keepdims=True).astype(np.uint8)
        else:
            raise ImageError(f"{path}: cannot adapt {raw.shape[2]} channels to {channels}")
    return raw.astype(np.float64) / 255.0


def load_mask(path, target_hw=None) -> np.ndarray:
    raw = read_netpbm(path)
    if raw.ndim == 3:
        raw = raw.mean(axis=2).astype(np.uint8)
    if target_hw is not None and raw.shape != tuple(target_hw):
        raw = resize_nearest(raw, *target_hw)
    return (raw >= 128).astype(np.float64)


# ---------------------------------------------------------------------------
# manifest

MANIFEST_HEADER = ["image", "label", "mask"]


def write_manifest(path, rows):
    """rows: iterable of (image_path, label, mask_path_or_empty)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for image, label, mask in rows:
            writer.writerow([image, label, mask or ""])


def read_manifest(path, classes=None):
    """Rows of (image, label, mask or None); with ``classes`` given, a label
    outside [0, classes) is an error naming its line. Text that is not
    UTF-8 or that the csv module rejects is an error naming the file."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != MANIFEST_HEADER:
                raise ManifestError(f"bad manifest header {header}, expected {MANIFEST_HEADER}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise ManifestError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
                image, label, mask = row
                try:
                    label = int(label)
                except ValueError:
                    raise ManifestError(f"{path}:{lineno}: non-integer label {label!r}") from None
                if label < 0:
                    raise ManifestError(f"{path}:{lineno}: negative label {label}")
                if classes is not None and label >= classes:
                    raise ManifestError(
                        f"{path}:{lineno}: label {label} out of range for {classes} classes")
                rows.append((image, label, mask or None))
        except UnicodeDecodeError as e:
            raise ManifestError(f"{path}: not UTF-8 text ({e.reason})") from None
        except csv.Error as e:
            raise ManifestError(f"{path}:{reader.line_num}: {e}") from None
    if not rows:
        raise ManifestError(f"{path}: no sample rows")
    return rows


def load_samples(manifest_path, target_hw, channels, classes=None) -> list[Sample]:
    """Load every manifest row; paths are resolved relative to the manifest.
    ``classes`` bounds the labels as in :func:`read_manifest`."""
    base = Path(manifest_path).parent
    samples = []
    for image_rel, label, mask_rel in read_manifest(manifest_path, classes):
        image = load_image(base / image_rel, target_hw, channels)
        mask = load_mask(base / mask_rel, target_hw) if mask_rel else None
        samples.append(Sample(image=image, label=label, mask=mask, id=image_rel))
    return samples


# ---------------------------------------------------------------------------
# synthetic lesions


@dataclass
class SynthConfig:
    height: int = 32
    width: int = 32
    channels: int = 3
    classes: int = 3
    imbalance: tuple = (0.6, 0.3, 0.1)
    seed: int = 0


def _quota_counts(n, proportions):
    """Largest-remainder apportionment; counts sum to n exactly."""
    props = np.asarray(proportions, dtype=np.float64)
    props = props / props.sum()
    raw = props * n
    counts = np.floor(raw).astype(np.int64)
    remainder = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="mergesort")
    for i in range(remainder):
        counts[order[i]] += 1
    return counts


def _paint_lesion(image, mask, label, rng):
    h, w, c = image.shape
    cy = rng.uniform(0.32, 0.68) * h
    cx = rng.uniform(0.32, 0.68) * w
    ry = rng.uniform(0.12, 0.2) * h
    rx = rng.uniform(0.12, 0.2) * w
    theta = rng.uniform(0.0, np.pi)
    yy, xx = np.mgrid[0:h, 0:w]
    dy, dx = yy - cy, xx - cx
    u = (dx * np.cos(theta) + dy * np.sin(theta)) / rx
    v = (-dx * np.sin(theta) + dy * np.cos(theta)) / ry
    r2 = u * u + v * v
    inside = r2 <= 1.0
    mask[inside] = 1.0
    noise = rng.uniform(-0.03, 0.03, size=(h, w, c))
    if label == 0:
        # dark disk
        color = np.array([0.10, 0.08, 0.08][:c])
        image[inside] = np.clip(color + noise[inside], 0.0, 1.0)
    elif label == 1:
        # bright ring with a mid-tone core
        ring = inside & (r2 > 0.55)
        core = inside & ~ring
        ring_color = np.array([0.92, 0.58, 0.35][:c])
        core_color = np.array([0.48, 0.30, 0.22][:c])
        image[ring] = np.clip(ring_color + noise[ring], 0.0, 1.0)
        image[core] = np.clip(core_color + noise[core], 0.0, 1.0)
    else:
        # high-contrast speckle
        spots = rng.random((h, w)) < 0.5
        bright = np.array([0.88, 0.84, 0.50][:c])
        dark = np.array([0.28, 0.22, 0.12][:c])
        image[inside & spots] = np.clip(bright + noise[inside & spots], 0.0, 1.0)
        image[inside & ~spots] = np.clip(dark + noise[inside & ~spots], 0.0, 1.0)


def synth_sample(index, label, cfg: SynthConfig) -> Sample:
    """Deterministic per-index sample; safe to generate in any order."""
    rng = np.random.default_rng([cfg.seed, 1000 + index])
    h, w, c = cfg.height, cfg.width, cfg.channels
    base = rng.uniform(0.40, 0.62, size=c)
    grad_y = rng.uniform(-0.08, 0.08)
    grad_x = rng.uniform(-0.08, 0.08)
    yy, xx = np.mgrid[0:h, 0:w]
    image = (base[None, None, :]
             + grad_y * (yy / h)[:, :, None]
             + grad_x * (xx / w)[:, :, None]
             + rng.uniform(-0.04, 0.04, size=(h, w, c)))
    image = np.clip(image, 0.05, 0.95)
    mask = np.zeros((h, w), dtype=np.float64)
    _paint_lesion(image, mask, label % 3, rng)
    return Sample(image=image, label=label, mask=mask, id=f"synth{index:05d}")


def synth_generate(n, cfg: SynthConfig) -> list[Sample]:
    """n samples with exact quota class counts and a seeded label order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if min(cfg.height, cfg.width) < 1:
        raise ValueError(f"image size {cfg.height}x{cfg.width} must be at least 1x1")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    shares = cfg.imbalance[:cfg.classes]
    # written `not ok` so that NaN fails
    if len(shares) != cfg.classes or not (all(0 <= p for p in shares)
                                          and 0 < sum(shares) < np.inf):
        raise ValueError(f"imbalance {shares} must give each of {cfg.classes} "
                         f"classes a share >= 0, with a finite positive sum")
    counts = _quota_counts(n, shares)
    labels = np.repeat(np.arange(cfg.classes), counts)
    order = np.random.default_rng([cfg.seed, 917]).permutation(n)
    labels = labels[order]
    return [synth_sample(i, int(labels[i]), cfg) for i in range(n)]


# ---------------------------------------------------------------------------
# derived quantities


def class_frequencies(samples, k=None) -> np.ndarray:
    if not samples:
        raise ValueError("empty sample list")
    labels = np.asarray([s.label for s in samples], dtype=np.int64)
    if k is None:
        k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    return counts / counts.sum()


def mask_to_patch_grid(mask: np.ndarray, patch: int) -> np.ndarray:
    """Mean occupancy of each patch-sized block, of one mask or of each
    mask of a stack."""
    *lead, h, w = mask.shape
    if h % patch or w % patch:
        raise ValueError(f"mask {h}x{w} not divisible by patch {patch}")
    blocks = mask.reshape(*lead, h // patch, patch, w // patch, patch)
    return blocks.sum(axis=(-3, -1)) / (patch * patch)


def split_samples(samples, eval_fraction, seed):
    """Deterministic seeded split into (train, eval)."""
    n = len(samples)
    perm = np.random.default_rng([seed, 271]).permutation(n)
    n_eval = int(round(eval_fraction * n))
    eval_idx = set(perm[:n_eval].tolist())
    train = [samples[i] for i in range(n) if i not in eval_idx]
    evals = [samples[i] for i in sorted(eval_idx)]
    return train, evals
