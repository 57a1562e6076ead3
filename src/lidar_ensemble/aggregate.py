"""Cross-frame label refinement: kernel-weighted averaging of neighbor labels.

Each query point's refined probability row is a normalized weighted sum of
its dense-cloud neighbors' single-scan pseudo labels. The kernel is either
uniform (plain k-NN averaging) or the learned aggregation model, which
scores each pair from its feature vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phi_layout
from .lam import LamParams, PairRecord, RowMoments, column_moments, eval_scores, segment_exp, segment_sum
from .neighbors import DenseCloud, Neighborhoods, _query_blocks
from .subsample import PredictionMatrix

# pairs per block of the weighted label sums: a (block, K) array of
# neighbor rows and the block's per-query sums are all a refinement holds
# besides its per-pair vectors
_PAIR_BUDGET = 1 << 13


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
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def kernel_name(self) -> str:
        return "lam" if isinstance(self.kernel, LamKernel) else "uniform"

    def manifest_items(self):
        """The refinement.txt record of how refined predictions were made."""
        return [
            ("kernel", self.kernel_name),
            ("k", str(self.k)),
            ("epsilon", "none" if self.epsilon is None else repr(self.epsilon)),
            ("window", str(self.window)),
            ("stride", str(self.stride)),
            ("phi_layout_version", str(phi_layout.PHI_LAYOUT_VERSION)),
        ]


def _slice_features(dense: DenseCloud, flat_idx: np.ndarray, dists: np.ndarray) -> dict:
    """The phi columns the weight histograms slice by, per pair."""
    return {
        "temporal": phi_layout.temporal_feature(dense.temporal_offset.take(flat_idx), dense.window),
        "sensor_distance": dense.sensor_distance.take(flat_idx),
        "center_distance": dists,
    }


def phi_pairs(v: np.ndarray, dense: DenseCloud, nbh: Neighborhoods, lo: int = 0, hi: int | None = None,
              out: np.ndarray | None = None):
    """Feature rows of the (query, neighbor) pairs lo:hi of a scan (all
    of them by default), written into out (R, D) when it is given.

    Returns (phi_rows (R, D), row_query (R,)) where row i is nbh's pair
    lo + i and row_query maps it back to its query index, so stored
    neighbor distances transfer directly. The neighbor's pseudo-label row
    is the phi_layout.neighbor_label_columns view of its phi row.
    """
    hi = len(nbh.indices) if hi is None else hi
    row_query = np.searchsorted(nbh.offsets, np.arange(lo, hi), side="right") - 1
    flat_idx = nbh.indices[lo:hi]
    features = _slice_features(dense, flat_idx, nbh.distances[lo:hi])
    if out is None:
        out = np.empty((hi - lo, phi_layout.feature_dim(dense.num_classes)))
    # take gathers rows several times faster than fancy indexing
    rows = phi_layout.write_rows(
        out, features["center_distance"], v.take(row_query, axis=0), dense.probs.take(flat_idx, axis=0),
        features["temporal"], features["sensor_distance"])
    return rows, row_query


def phi_moments(v: np.ndarray, dense: DenseCloud, nbh: Neighborhoods) -> RowMoments:
    """The RowMoments of the scan's phi_pairs rows, for a scan with at
    least one pair; the rows are built a block at a time, twice
    (lam.column_moments)."""
    return column_moments(lambda lo, hi, out: phi_pairs(v, dense, nbh, lo, hi, out),
                          len(nbh.indices), phi_layout.feature_dim(dense.num_classes))


def refine_labels(points: np.ndarray, probs: np.ndarray, dense: DenseCloud,
                  nbh: Neighborhoods, kernel, return_pairs: bool = False):
    """Kernel-weighted average of neighbor labels for every query point.

    Each neighbor's weight is exp(score) / sum of its neighborhood's
    exp(score); the uniform kernel scores every pair 0, the LAM kernel
    scores its phi row. Queries with an empty neighborhood keep their
    unrefined row. Returns the refined PredictionMatrix; with return_pairs,
    also the scan's PairRecord for the weight histograms.

    The scan holds per-pair vectors only: eval_scores has the LAM
    kernel's phi rows built a chunk at a time, and the weighted label sums
    run over blocks of whole queries of at most _PAIR_BUDGET pairs, so
    every query's sum adds its pairs in order, as over the whole scan.
    """
    points = np.asarray(points, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if len(points) != len(probs) or len(points) != len(nbh):
        raise ValueError("points, probs, and neighborhoods must align")

    n, pairs, row_query = len(points), len(nbh.indices), nbh.row_query
    if isinstance(kernel, UniformKernel):
        scores = np.zeros(pairs)
    else:
        width = phi_layout.feature_dim(dense.num_classes)
        if kernel.params.feature_dim != width:
            raise ValueError(f"LAM parameters take {kernel.params.feature_dim} features, "
                             f"the scan's phi rows have {width}")
        scores = eval_scores(kernel.params, pairs,
                             lambda lo, hi, out: phi_pairs(probs, dense, nbh, lo, hi, out))
    e, z = segment_exp(scores, row_query, n)
    out = probs.copy()
    for q0, q1 in _query_blocks(nbh.offsets, _PAIR_BUDGET):
        p0, p1 = nbh.offsets[q0], nbh.offsets[q1]
        labels = dense.probs.take(nbh.indices[p0:p1], axis=0)
        np.multiply(e[p0:p1, None], labels, out=labels)
        sums = segment_sum(labels, row_query[p0:p1] - q0, q1 - q0)
        touched = nbh.offsets[q0 + 1:q1 + 1] > nbh.offsets[q0:q1]
        out[q0:q1][touched] = sums[touched] / z[q0:q1][touched, None]
    refined = PredictionMatrix(probs=out, point_index=np.arange(n))
    if not return_pairs:
        return refined
    weights = e / z[row_query]
    return refined, PairRecord(_slice_features(dense, nbh.indices, nbh.distances), weights)
