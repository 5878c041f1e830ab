"""Synthetic clustered datasets, view augmentation, the GVEC binary format,
and the per-step metrics CSV.

All randomness flows from seeded generators, so equal seeds reproduce
datasets, views, and splits bit for bit.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .diffgrad import check_count

__all__ = [
    "Dataset",
    "SynthConfig",
    "GvecFormatError",
    "synth_generate",
    "check_view_noise",
    "augment_view",
    "split_dataset",
    "gvec_write",
    "gvec_read",
    "metrics_append",
]


class GvecFormatError(ValueError):
    """Malformed GVEC file; messages carry the byte offset of the problem."""


@dataclass
class Dataset:
    """Labeled vectors (labels optional, used only for evaluation). Every
    entry of `vectors` must be finite after the cast to float32."""

    vectors: np.ndarray  # (count, dim) float32
    labels: np.ndarray | None = None  # (count,) uint32 class ids 0..C-1
    provenance: str = ""

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an entry past the float32 range becomes inf, rejected below
            self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValueError(f"vectors must be (count >= 1, dim), got {self.vectors.shape}")
        bad = np.flatnonzero(~np.isfinite(self.vectors).all(axis=1))
        if bad.size:
            raise ValueError(f"vectors must be finite, row {int(bad[0])} is not")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (self.vectors.shape[0],):
                raise ValueError("labels must be one unsigned integer per vector")
            # checked before the cast, which would wrap -1 and truncate 1.7
            with np.errstate(invalid="ignore"):
                bad = np.flatnonzero(~((labels >= 0) & (labels <= 0xFFFFFFFF) & (labels % 1 == 0)))
            if bad.size:
                raise ValueError(f"labels must be integers in 0..2**32 - 1, row {int(bad[0])} is not")
            self.labels = np.ascontiguousarray(labels, dtype=np.uint32)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SynthConfig:
    """Gaussian cluster generator: seeded centers scaled by `center_scale`,
    instances jittered by `inst_noise`. The noise of training views is
    `TrainConfig.view_noise`."""

    clusters: int = 8
    dim: int = 32
    per_cluster: int = 200
    center_scale: float = 4.0
    inst_noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("clusters", "dim", "per_cluster"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))  # frozen
        if self.clusters < 1 or self.dim < 1 or self.per_cluster < 1:
            raise ValueError("clusters, dim, per_cluster must be positive")
        if not (math.isfinite(self.center_scale) and self.center_scale > 0):
            raise ValueError(f"center_scale must be finite and positive, got {self.center_scale}")
        if not (math.isfinite(self.inst_noise) and self.inst_noise >= 0):
            raise ValueError(f"inst_noise must be finite and >= 0, got {self.inst_noise}")


def synth_generate(config: SynthConfig) -> Dataset:
    """Deterministic clustered vectors: cluster-major layout, labels 0..C-1."""
    rng = np.random.default_rng(config.seed)
    centers = rng.standard_normal((config.clusters, config.dim)) * config.center_scale
    noise = rng.standard_normal((config.clusters * config.per_cluster, config.dim))
    vectors = np.repeat(centers, config.per_cluster, axis=0) + noise * config.inst_noise
    labels = np.repeat(np.arange(config.clusters, dtype=np.uint32), config.per_cluster)
    prov = (
        f"synth(clusters={config.clusters},dim={config.dim},per_cluster={config.per_cluster},"
        f"center_scale={config.center_scale},inst_noise={config.inst_noise},seed={config.seed})"
    )
    return Dataset(vectors.astype(np.float32), labels, prov)


def check_view_noise(view_noise, dim: int | None = None):
    """Validate a view-noise level: one scalar standard deviation for every
    coordinate, or a 1-D sequence with one entry per coordinate. Entries must
    be finite and >= 0; when `dim` is given a sequence must have exactly `dim`
    entries.
    Returns the scalar as a float or the sequence as a float64 array."""
    sigma = np.asarray(view_noise, dtype=np.float64)
    if sigma.ndim > 1:
        raise ValueError(f"view_noise must be a scalar or 1-D sequence, got shape {sigma.shape}")
    if not (np.all(np.isfinite(sigma)) and np.all(sigma >= 0)):
        raise ValueError(f"view_noise entries must be finite and >= 0, got {view_noise}")
    if sigma.ndim == 0:
        return float(sigma)
    if dim is not None and sigma.shape[0] != dim:
        raise ValueError(f"view_noise has {sigma.shape[0]} entries, data dim is {dim}")
    return sigma


def augment_view(x, view_noise, rng: np.random.Generator) -> np.ndarray:
    """One noisy view of each row of x (or of a single vector): x plus
    per-coordinate Gaussian noise from the supplied stream, scaled by
    `view_noise` (a scalar, or one standard deviation per coordinate; see
    `check_view_noise`). The noise is drawn row after row, so a (k, D) block
    equals k one-row calls on the same stream. The stream advances the same
    way regardless of the noise level, so replaying a generator state
    replays the views."""
    x = np.asarray(x, dtype=np.float64)
    sigma = check_view_noise(view_noise, x.shape[-1] if x.ndim else 1)
    return x + rng.standard_normal(x.shape) * sigma


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (train, test); labels follow their vectors."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    order = np.random.default_rng(seed).permutation(dataset.count)
    n_test = max(1, int(round(dataset.count * test_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size < 1:
        raise ValueError("split leaves an empty train set")

    def subset(idx, tag):
        return Dataset(
            dataset.vectors[idx],
            None if dataset.labels is None else dataset.labels[idx],
            f"{dataset.provenance}|{tag}(fraction={test_fraction},seed={seed})",
        )

    return subset(train_idx, "train"), subset(test_idx, "test")


# ---------------------------------------------------------------------------
# GVEC binary format, little-endian:
#   magic "GVEC", version u32=1, count u32, dim u32, has_labels u8,
#   3 zero pad bytes, count*dim float32 row-major, then count u32 labels
#   when has_labels is 1.

_MAGIC = b"GVEC"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIB3s")


def gvec_write(dataset: Dataset, path) -> None:
    has_labels = dataset.labels is not None
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(_MAGIC, _VERSION, dataset.count, dataset.dim, int(has_labels), b"\x00\x00\x00")
        )
        fh.write(np.ascontiguousarray(dataset.vectors, dtype="<f4").tobytes())
        if has_labels:
            fh.write(np.ascontiguousarray(dataset.labels, dtype="<u4").tobytes())


def gvec_read(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise GvecFormatError(f"truncated header: file ends at offset {len(blob)}")
    magic, version, count, dim, has_labels, pad = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise GvecFormatError(f"bad magic {magic!r} at offset 0")
    if version != _VERSION:
        raise GvecFormatError(f"unsupported version {version} at offset 4")
    if count < 1 or dim < 1:
        raise GvecFormatError(f"invalid count={count}/dim={dim} at offset 8")
    if has_labels not in (0, 1):
        raise GvecFormatError(f"invalid has_labels byte {has_labels} at offset 16")
    if pad != b"\x00\x00\x00":
        raise GvecFormatError(f"non-zero padding at offset 17")
    offset = _HEADER.size
    vec_bytes = 4 * count * dim
    if len(blob) < offset + vec_bytes:
        raise GvecFormatError(f"truncated vector data at offset {len(blob)}")
    vectors = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=offset).reshape(count, dim)
    offset += vec_bytes
    labels = None
    if has_labels:
        if len(blob) < offset + 4 * count:
            raise GvecFormatError(f"truncated labels at offset {len(blob)}")
        labels = np.frombuffer(blob, dtype="<u4", count=count, offset=offset)
        offset += 4 * count
    if offset != len(blob):
        raise GvecFormatError(f"trailing bytes at offset {offset}")
    return Dataset(vectors.copy(), None if labels is None else labels.copy(), provenance=str(path))


# ---------------------------------------------------------------------------
# metrics CSV

_REQUIRED_FIELDS = ("epoch", "step", "loss", "lr")


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def metrics_append(fh, record) -> None:
    """Append one CSV row to the open text file `fh` (opened with
    `newline=""`), writing the header first when the file is empty, and
    flush it. Floats keep 12 significant digits."""
    missing = [k for k in _REQUIRED_FIELDS if k not in record]
    if missing:
        raise ValueError(f"metrics record missing required fields: {missing}")
    extras = sorted(k for k in record if k not in _REQUIRED_FIELDS)
    fields = [*_REQUIRED_FIELDS, *extras]
    writer = csv.writer(fh)
    if os.fstat(fh.fileno()).st_size == 0:
        writer.writerow(fields)
    writer.writerow([_format_value(record[k]) for k in fields])
    fh.flush()
