"""Cross-frame label refinement: kernel-weighted averaging of neighbor labels.

Each query point's refined probability row is a normalized weighted sum of
its dense-cloud neighbors' single-scan pseudo labels. The kernel is either
uniform (plain k-NN averaging) or the learned aggregation model, which
scores each pair from its feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import phi_layout
from .lam import LamParams, PairRecord, eval_scores, segment_softmax
from .neighbors import DenseCloud, Neighborhoods
from .subsample import PredictionMatrix

# neighbor rows gathered at once by the uniform kernel
_PAIR_CHUNK = 1 << 16


@dataclass(frozen=True)
class UniformKernel:
    """Constant positive score: refinement reduces to k-NN averaging."""


@dataclass(frozen=True)
class LamKernel:
    """exp of the learned aggregation model's score."""

    params: LamParams

    def __post_init__(self):
        if self.params.mode != "eval":
            raise ValueError("LAM kernel requires params in eval mode")


@dataclass(frozen=True)
class AggregationSpec:
    """Cross-frame refinement parameters: kernel, k, epsilon, window, stride."""

    kernel: object
    k: int = 60
    epsilon: float | None = 0.2
    window: int = 90
    stride: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive or None")
        if self.window < 0 or self.stride < 1:
            raise ValueError("window must be >= 0 and stride >= 1")

    @property
    def kernel_name(self) -> str:
        return "lam" if isinstance(self.kernel, LamKernel) else "uniform"


def _slice_features(dense: DenseCloud, flat_idx: np.ndarray, dists: np.ndarray) -> dict:
    """The phi columns the weight histograms slice by, per pair."""
    norm = 1.0 / dense.window if dense.window >= 1 else 0.0
    return {
        "temporal": dense.temporal_offset[flat_idx] * norm,
        "sensor_distance": dense.sensor_distance[flat_idx],
        "center_distance": dists,
    }


def phi_pairs(points: np.ndarray, v: np.ndarray, dense: DenseCloud, nbh: Neighborhoods):
    """Feature rows for every (query, neighbor) pair of a scan.

    Returns (phi_rows (R, D), row_query (R,), neighbor_probs (R, K)) where
    row i is nbh's pair i and row_query maps it back to its query index,
    so stored neighbor distances transfer directly.
    """
    row_query, flat_idx = nbh.row_query, nbh.indices
    features = _slice_features(dense, flat_idx, nbh.distances)
    k = dense.num_classes
    rows = np.empty((len(flat_idx), phi_layout.feature_dim(k)))
    rows[:, phi_layout.DISTANCE_COLUMN] = features["center_distance"]
    rows[:, phi_layout.query_label_columns(k)] = v[row_query]
    rows[:, phi_layout.neighbor_label_columns(k)] = dense.probs[flat_idx]
    rows[:, phi_layout.temporal_column(k)] = features["temporal"]
    rows[:, phi_layout.sensor_distance_column(k)] = features["sensor_distance"]
    return rows, row_query, dense.probs[flat_idx]


def refine_labels(points: np.ndarray, probs: np.ndarray, dense: DenseCloud,
                  nbh: Neighborhoods, kernel, return_pairs: bool = False):
    """Kernel-weighted average of neighbor labels for every query point.

    Queries with an empty neighborhood keep their unrefined row. LAM scores
    are shifted by the per-neighborhood maximum before exponentiation,
    which leaves the normalized weights unchanged and cannot overflow.
    Returns the refined PredictionMatrix; with return_pairs, also the
    scan's PairRecord for the weight histograms.
    """
    points = np.asarray(points, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if len(points) != len(probs) or len(points) != len(nbh):
        raise ValueError("points, probs, and neighborhoods must align")

    out = probs.copy()
    if isinstance(kernel, UniformKernel):
        # summing each query's rows along an axis of a (queries, n, K) block
        # adds them in pair order, exactly as a per-query .sum(axis=0) does
        counts = nbh.valid_count
        for n in np.unique(counts[counts > 0]):
            queries = np.flatnonzero(counts == n)
            step = max(1, _PAIR_CHUNK // n)
            for lo in range(0, len(queries), step):
                group = queries[lo:lo + step]
                out[group] = dense.probs[nbh.indices[nbh.offsets[group, None] + np.arange(n)]].sum(axis=1) / n
    else:
        phi_rows, row_query, neighbor_probs = phi_pairs(points, probs, dense, nbh)
        scores = np.zeros(0)
        if len(phi_rows):
            scores = eval_scores(kernel.params, phi_rows)
            # phi_pairs emits rows grouped by query, so the per-neighborhood
            # softmax and label sums are contiguous-segment reductions
            touched = nbh.valid_count > 0
            starts = nbh.offsets[:-1][touched]
            segment = np.cumsum(touched) - 1
            shift = np.maximum.reduceat(scores, starts)
            w = np.exp(scores - shift[segment[row_query]])
            z = np.add.reduceat(w, starts)
            sums = np.add.reduceat(w[:, None] * neighbor_probs, starts, axis=0)
            out[touched] = sums / z[:, None]
    refined = PredictionMatrix(probs=out, point_index=np.arange(len(points)))
    if not return_pairs:
        return refined
    if isinstance(kernel, UniformKernel):
        scores = np.zeros(len(nbh.indices))
    # segment_softmax, not the reduceat weights above, so that the
    # histograms equal weight_histograms' bit for bit
    weights = segment_softmax(scores, nbh.row_query, len(points))
    return refined, PairRecord(_slice_features(dense, nbh.indices, nbh.distances), weights)


def write_refinement_manifest(path, spec: AggregationSpec) -> None:
    """Sidecar record of how a refined prediction file was produced."""
    lines = [
        f"kernel = {spec.kernel_name}",
        f"k = {spec.k}",
        f"epsilon = {'none' if spec.epsilon is None else repr(spec.epsilon)}",
        f"window = {spec.window}",
        f"stride = {spec.stride}",
        f"phi_layout_version = {phi_layout.PHI_LAYOUT_VERSION}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
