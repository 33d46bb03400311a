"""Datasets: the bundled synthetic image generator, CSV loading, and the
label-shifted drift variant used to exercise on-device retraining."""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import DTYPE

SPLIT_FRACTIONS = (0.6, 0.2, 0.2)  # of the samples: train, eval, test
_DTYPE_MAX = float(np.finfo(DTYPE).max)


@dataclass
class Dataset:
    x: np.ndarray            # (n, channels, height, width), nn.DTYPE (float32)
    y: np.ndarray            # (n,), int class labels
    class_count: int
    splits: dict             # split name -> index array

    def __post_init__(self):
        if self.x.ndim != 4:
            raise ConfigError(f"expected 4-d inputs, got shape {self.x.shape}")
        if np.any(self.y < 0) or np.any(self.y >= self.class_count):
            raise ConfigError("label outside [0, class_count)")

    def split(self, name):
        idx = self.splits[name]
        return self.x[idx], self.y[idx]

    def split_size(self, name) -> int:
        return len(self.splits[name])


def _make_splits(n, rng):
    order = rng.permutation(n)
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_eval = int(round(SPLIT_FRACTIONS[1] * n))
    splits = {
        "train": np.sort(order[:n_train]),
        "eval": np.sort(order[n_train:n_train + n_eval]),
        "test": np.sort(order[n_train + n_eval:]),
    }
    for name, idx in splits.items():
        if idx.size == 0:
            raise ConfigError(f"{n} samples leave the {name} split empty")
    return splits


def _class_patterns(rng, classes, shape):
    """Smooth per-class template images: low-res random fields, upsampled."""
    c, h, w = shape
    low = 3
    patterns = np.empty((classes, c, h, w))
    ys = np.linspace(0, low - 1, h)
    xs = np.linspace(0, low - 1, w)
    yi = np.clip(ys.astype(int), 0, low - 2)
    xi = np.clip(xs.astype(int), 0, low - 2)
    fy = (ys - yi)[None, :, None]
    fx = (xs - xi)[None, None, :]
    for k in range(classes):
        grid = rng.standard_normal((c, low, low))
        top = grid[:, yi][:, :, xi] * (1 - fx) + grid[:, yi][:, :, xi + 1] * fx
        bot = grid[:, yi + 1][:, :, xi] * (1 - fx) + grid[:, yi + 1][:, :, xi + 1] * fx
        patterns[k] = top * (1 - fy) + bot * fy
    return patterns


def synth_dataset(seed, classes, samples_per_class, shape, noise) -> Dataset:
    """Gaussian-blob image classification set; deterministic given seed."""
    rng = np.random.default_rng(seed)
    patterns = _class_patterns(rng, classes, shape)
    n = classes * samples_per_class
    x = np.empty((n, *shape), dtype=DTYPE)   # each class drawn in float64, then cast
    y = np.empty(n, dtype=int)
    for k in range(classes):
        lo = k * samples_per_class
        with np.errstate(over="ignore"):
            block = patterns[k][None] + noise * rng.standard_normal(
                (samples_per_class, *shape))
        if not (np.abs(block) <= _DTYPE_MAX).all():
            raise ConfigError(f"dataset.generator.noise {noise} draws pixels beyond "
                              f"float32's range (magnitude > {_DTYPE_MAX:.8g})")
        x[lo:lo + samples_per_class] = block
        y[lo:lo + samples_per_class] = k
    return Dataset(x=x, y=y, class_count=classes,
                   splits=_make_splits(n, rng))


def drift_dataset(ds: Dataset, seed=0) -> Dataset:
    """Label-shifted variant of a dataset for retraining experiments: cyclic
    relabeling (class k becomes (k+1) mod C), which an FC-only retraining
    pass can fully correct. `seed` is not used."""
    y = (ds.y + 1) % ds.class_count
    return Dataset(x=ds.x.copy(), y=y, class_count=ds.class_count,
                   splits={k: v.copy() for k, v in ds.splits.items()})


def load_csv(path, input_shape, class_count, seed) -> Dataset:
    """One row per sample of UTF-8 text: a label in [0, class_count), then
    channel-major flattened pixels, each a finite number within float32's
    range."""
    shape = (input_shape.channels, input_shape.height, input_shape.width)
    size = shape[0] * shape[1] * shape[2]
    rows = []
    labels = []
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text: {exc}") from exc
    # split as a text file reads lines: at \n, \r or \r\n
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != size + 1:
            raise ConfigError(
                f"{path}:{lineno}: expected {size + 1} fields, got {len(parts)}")
        try:
            labels.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not 0 <= labels[-1] < class_count:
            raise ConfigError(f"{path}:{lineno}: label {labels[-1]} outside "
                              f"[0, {class_count})")
        if not all(map(math.isfinite, rows[-1])):
            raise ConfigError(f"{path}:{lineno}: non-finite value")
        if max(map(abs, rows[-1])) > _DTYPE_MAX:
            raise ConfigError(f"{path}:{lineno}: value beyond float32's range "
                              f"(magnitude > {_DTYPE_MAX:.8g})")
    if not rows:
        raise ConfigError(f"{path}: no samples")
    x = np.asarray(rows, dtype=DTYPE).reshape(len(rows), *shape)
    y = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    return Dataset(x=x, y=y, class_count=class_count,
                   splits=_make_splits(len(rows), rng))
