"""Structured row subsampling of range images and within-frame ensembling.

Dropping whole range-image rows simulates a LiDAR with fewer beams; a
batch of subsampled variants of one scan is predicted independently and
the per-point class probabilities are averaged back onto the parent
cloud.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError
from .geometry import PointCloud, RangeImageIndex, SensorConfig, project_to_range_image
from .lam import segment_sum

PREDICTION_MAGIC = b"LPRB"
SIMPLEX_TOL = 1e-5


@dataclass(frozen=True)
class SubsampleSpec:
    """How to build a subsample ensemble.

    ratio is target beams / source beams: in random mode each row is kept
    independently with probability min(1, ratio); regular mode keeps every
    m-th row and is only defined for ratio = 1/m.
    """

    mode: str
    ratio: float
    trials: int = 1
    include_identity: bool = True

    def __post_init__(self):
        if self.mode not in ("random", "regular"):
            raise ValueError(f"mode must be 'random' or 'regular', got {self.mode!r}")
        if self.ratio <= 0:
            raise ValueError("ratio must be > 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mode == "regular":
            self._regular_step()

    def _regular_step(self) -> int:
        step = round(1.0 / self.ratio)
        if step < 1 or abs(1.0 / self.ratio - step) > 1e-9:
            raise ValueError(f"ratio must be 1/m for an integer m in regular mode, got {self.ratio}")
        return step


@dataclass(frozen=True)
class PredictionMatrix:
    """N x K class probabilities plus the original point index of each row."""

    probs: np.ndarray
    point_index: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        idx = np.ascontiguousarray(np.asarray(self.point_index, dtype=np.int64))
        if probs.ndim != 2:
            raise ValueError(f"probs must be 2-D, got shape {probs.shape}")
        if idx.shape != (probs.shape[0],):
            raise ValueError("point_index must have one entry per probability row")
        if len(idx) and idx.min() < 0:
            raise ValueError(f"point_index must be nonnegative, got {idx.min()}")
        if probs.size:
            sums = probs.sum(axis=1)
            # a row holding NaN or inf sums to NaN or inf
            if not np.isfinite(sums).all():
                raise ValueError("probabilities must be finite")
            if probs.min() < 0.0:
                raise ValueError("probabilities must be nonnegative")
            worst = np.abs(sums - 1.0).max()
            if worst > SIMPLEX_TOL:
                raise ValueError(f"probability rows must sum to 1 within {SIMPLEX_TOL}, worst error {worst:.2e}")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "point_index", idx)

    def __len__(self) -> int:
        return len(self.probs)

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


def row_mask(config: SensorConfig, spec: SubsampleSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one keep/drop mask over the H rows of the range image: a
    boolean keep flag per row."""
    if spec.mode == "random":
        return rng.random(config.height) < min(1.0, spec.ratio)
    return np.arange(config.height) % spec._regular_step() == 0


def apply_row_mask(cloud: PointCloud, index: RangeImageIndex, keep: np.ndarray):
    """Keep exactly the points whose range-image row is kept (keep holds
    one flag per row).

    Returns the subsampled cloud and the injective map from its points back
    to indices in the parent cloud (ascending).
    """
    if len(keep) != index.height:
        raise ValueError(f"mask length {len(keep)} does not match image height {index.height}")
    point_kept = keep[index.rows_of_points()]
    parent_indices = np.flatnonzero(point_kept)
    sub = PointCloud(
        points=cloud.points[parent_indices],
        intensity=None if cloud.intensity is None else cloud.intensity[parent_indices],
        frame_id=cloud.frame_id,
    )
    return sub, parent_indices


def make_ensemble(cloud: PointCloud, config: SensorConfig, spec: SubsampleSpec, rng: np.random.Generator):
    """Build the subsample ensemble of one scan.

    Returns spec.trials pairs (subsampled cloud, parent index map); when
    include_identity is set the first pair is the untouched cloud with the
    identity map, the rest are independently drawn row subsamples.
    """
    index = project_to_range_image(cloud, config)
    out = []
    for trial in range(spec.trials):
        if spec.include_identity and trial == 0:
            out.append((cloud, np.arange(len(cloud), dtype=np.int64)))
            continue
        mask = row_mask(config, spec, rng)
        out.append(apply_row_mask(cloud, index, mask))
    return out


def within_frame_ensemble(predictions, parent_size: int) -> PredictionMatrix:
    """Average all predictions of each parent point across ensemble trials.

    Every parent point must appear in at least one prediction (the
    identity trial guarantees this in normal pipelines). With one matrix
    that lists every point once, the result is that matrix's rows in point
    order, bit for bit: each row is added once into zeros and divided by 1.
    """
    if not predictions:
        raise ValueError("at least one prediction matrix required")
    if len({pred.num_classes for pred in predictions}) > 1:
        raise ValueError("prediction matrices disagree on class count")
    # the trials' rows one after another, so each point's rows add in trial order
    point_index = np.concatenate([pred.point_index for pred in predictions])
    if len(point_index) and point_index.max() >= parent_size:
        raise ValueError("point_index exceeds parent cloud size")
    sums = segment_sum(np.concatenate([pred.probs for pred in predictions]), point_index, parent_size)
    counts = np.bincount(point_index, minlength=parent_size)
    missing = counts == 0
    if missing.any():
        raise ValueError(
            f"parent points with zero predictions: indices {np.flatnonzero(missing)[:10].tolist()}"
        )
    return PredictionMatrix(probs=sums / counts[:, None], point_index=np.arange(parent_size))


# ---------------------------------------------------------------------------
# Prediction matrix binary format
# ---------------------------------------------------------------------------
# 16-byte header: magic "LPRB", u32 N, u32 K, u32 flags (reserved, 0); then
# N*K float32 probabilities row-major, then N u32 point indices. All values
# little-endian.

def write_prediction_matrix(pred: PredictionMatrix, path) -> None:
    with open(path, "wb") as fh:
        fh.write(PREDICTION_MAGIC)
        fh.write(struct.pack("<III", len(pred), pred.num_classes, 0))
        fh.write(pred.probs.astype("<f4").tobytes())
        fh.write(pred.point_index.astype("<u4").tobytes())


def read_prediction_matrix(path) -> PredictionMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise FileFormatError(f"{path}: truncated header at byte offset {len(blob)}")
    if blob[:4] != PREDICTION_MAGIC:
        raise FileFormatError(f"{path}: bad magic at byte offset 0")
    n, k, flags = struct.unpack_from("<III", blob, 4)
    if flags != 0:
        raise FileFormatError(f"{path}: unsupported flags at byte offset 12")
    need = 16 + 4 * n * k + 4 * n
    if len(blob) != need:
        raise FileFormatError(f"{path}: expected {need} bytes, file ends at byte offset {len(blob)}")
    probs = np.frombuffer(blob, dtype="<f4", count=n * k, offset=16)
    bad = np.flatnonzero(~np.isfinite(probs))
    if bad.size:
        raise FileFormatError(f"{path}: non-finite probability at byte offset {16 + 4 * bad[0]}")
    probs = probs.reshape(n, k).astype(np.float64)
    idx = np.frombuffer(blob, dtype="<u4", count=n, offset=16 + 4 * n * k).astype(np.int64)
    return PredictionMatrix(probs=probs, point_index=idx)


def read_scan_prediction(path) -> PredictionMatrix:
    """A whole-scan prediction file, its rows put in point order.

    The file may list its rows in any order, but must name every point
    index in [0, N) once, N being its row count.
    """
    pred = read_prediction_matrix(path)
    try:
        return within_frame_ensemble([pred], len(pred))
    except ValueError as exc:
        raise FileFormatError(
            f"{path}: each point index in [0, {len(pred)}) must appear once ({exc})") from exc
