"""Cross-frame label refinement: kernel-weighted averaging of neighbor labels.

Each query point's refined probability row is a normalized weighted sum of
its dense-cloud neighbors' single-scan pseudo labels. The kernel is either
uniform (plain k-NN averaging) or the learned aggregation model, which
scores each pair from its feature vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import phi_layout
from .lam import LamParams, PairRecord, eval_scores, segment_exp, segment_sum
from .neighbors import DenseCloud, Neighborhoods
from .subsample import PredictionMatrix


@dataclass(frozen=True)
class UniformKernel:
    """Constant positive score: refinement reduces to k-NN averaging."""


@dataclass(frozen=True)
class LamKernel:
    """exp of the learned aggregation model's score."""

    params: LamParams


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
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive, or None")
        if self.window < 0 or self.stride < 1:
            raise ValueError("window must be >= 0 and stride >= 1")

    @property
    def kernel_name(self) -> str:
        return "lam" if isinstance(self.kernel, LamKernel) else "uniform"


def _slice_features(dense: DenseCloud, flat_idx: np.ndarray, dists: np.ndarray) -> dict:
    """The phi columns the weight histograms slice by, per pair."""
    return {
        "temporal": phi_layout.temporal_feature(dense.temporal_offset[flat_idx], dense.window),
        "sensor_distance": dense.sensor_distance[flat_idx],
        "center_distance": dists,
    }


def phi_pairs(v: np.ndarray, dense: DenseCloud, nbh: Neighborhoods):
    """Feature rows for every (query, neighbor) pair of a scan.

    Returns (phi_rows (R, D), row_query (R,)) where row i is nbh's pair i
    and row_query maps it back to its query index, so stored neighbor
    distances transfer directly. The neighbor's pseudo-label row is the
    phi_layout.neighbor_label_columns view of its phi row.
    """
    row_query, flat_idx = nbh.row_query, nbh.indices
    features = _slice_features(dense, flat_idx, nbh.distances)
    rows = phi_layout.write_rows(
        np.empty((len(flat_idx), phi_layout.feature_dim(dense.num_classes))),
        features["center_distance"], v[row_query], dense.probs[flat_idx], features["temporal"],
        features["sensor_distance"])
    return rows, row_query


def refine_labels(points: np.ndarray, probs: np.ndarray, dense: DenseCloud,
                  nbh: Neighborhoods, kernel, return_pairs: bool = False):
    """Kernel-weighted average of neighbor labels for every query point.

    Each neighbor's weight is exp(score) / sum of its neighborhood's
    exp(score); the uniform kernel scores every pair 0, the LAM kernel
    scores its phi row. Queries with an empty neighborhood keep their
    unrefined row. Returns the refined PredictionMatrix; with return_pairs,
    also the scan's PairRecord for the weight histograms.
    """
    points = np.asarray(points, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if len(points) != len(probs) or len(points) != len(nbh):
        raise ValueError("points, probs, and neighborhoods must align")

    if isinstance(kernel, UniformKernel):
        scores, labels = np.zeros(len(nbh.indices)), dense.probs[nbh.indices]
    else:
        phi_rows, _ = phi_pairs(probs, dense, nbh)
        scores = eval_scores(kernel.params, phi_rows) if len(phi_rows) else np.zeros(0)
        labels = phi_rows[:, phi_layout.neighbor_label_columns(dense.num_classes)]
    e, z = segment_exp(scores, nbh.row_query, len(points))
    sums = segment_sum(e[:, None] * labels, nbh.row_query, len(points))
    touched = nbh.valid_count > 0
    out = probs.copy()
    out[touched] = sums[touched] / z[touched, None]
    refined = PredictionMatrix(probs=out, point_index=np.arange(len(points)))
    if not return_pairs:
        return refined
    weights = e / z[nbh.row_query]
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
