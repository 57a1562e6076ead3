"""Multi-scan dense cloud construction and exact k-NN / epsilon-ball queries.

A dense cloud is the union of pose-aligned scans over a temporal window,
expressed in the reference scan's frame. Neighborhood queries are exact:
the returned sets match a brute-force distance scan, with ties broken by
lower dense-cloud index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud, RigidTransform, compose, invert
from .subsample import PredictionMatrix

_TIE_PAD = 8
_QUERY_CHUNK = 1024


@dataclass(frozen=True)
class DenseCloud:
    """Pose-aligned aggregation of several scans around a reference frame.

    points are in the reference scan's frame; probs carries each point's
    single-scan pseudo-label row; sensor_distance is the range to the
    originating sensor, computed in the point's own scan frame before
    alignment; temporal_offset is source frame index minus reference index.
    """

    points: np.ndarray
    probs: np.ndarray
    temporal_offset: np.ndarray
    sensor_distance: np.ndarray
    source_frame: np.ndarray
    window: int

    def __post_init__(self):
        m = len(self.points)
        for name in ("probs", "temporal_offset", "sensor_distance", "source_frame"):
            if len(getattr(self, name)) != m:
                raise ValueError(f"{name} must have length {m}")
        if m and np.abs(self.temporal_offset).max() > self.window:
            raise ValueError("temporal offsets exceed the window")
        if m and (self.probs.min() < 0.0 or np.abs(self.probs.sum(axis=1) - 1.0).max() > 1e-5):
            raise ValueError("probability rows must lie on the simplex")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


class Neighborhoods:
    """Precomputed neighbor sets for every query point of one scan.

    Row i holds query i's neighborhood in k zero-padded slots: the first
    valid_count[i] hold dense-cloud indices and their distances, sorted by
    (distance, index); padding slots are index 0, distance 0.0.
    """

    def __init__(self, indices: np.ndarray, distances: np.ndarray, valid_count: np.ndarray):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.distances = np.asarray(distances, dtype=np.float64)
        self.valid_count = np.asarray(valid_count, dtype=np.int64)
        if self.indices.shape != self.distances.shape or self.indices.ndim != 2:
            raise ValueError("indices and distances must both be (N, k)")
        if self.valid_count.shape != (self.indices.shape[0],):
            raise ValueError("valid_count must have one entry per query")

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def capacity(self) -> int:
        return self.indices.shape[1]

    def mask(self) -> np.ndarray:
        """Boolean (N, k) validity mask."""
        return np.arange(self.capacity)[None, :] < self.valid_count[:, None]


def build_dense_cloud(scans, poses, t: int, window: int, stride: int = 1) -> DenseCloud:
    """Aggregate scans at frames {t-window, t-window+stride, ...} <= t+window.

    scans is a list of (PointCloud, PredictionMatrix) pairs covering the
    sequence; poses maps each frame into the shared global frame. Every
    selected scan is re-expressed in frame t via inv(pose_t) . pose_i.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if not (0 <= t < len(scans)):
        raise ValueError(f"reference frame {t} outside sequence of length {len(scans)}")
    frames = [i for i in range(t - window, t + window + 1, stride) if 0 <= i < len(scans)]
    to_ref = invert(_pose_at(poses, t, t))

    pts_parts, prob_parts, off_parts, dist_parts, frame_parts = [], [], [], [], []
    for i in frames:
        cloud, pred = scans[i]
        if pred is None:
            raise ValueError(f"missing prediction for frame {i}")
        probs = _aligned_probs(cloud, pred, i)
        align = compose(to_ref, _pose_at(poses, i, t))
        own = cloud.points
        dist_parts.append(np.sqrt(own[:, 0] ** 2 + own[:, 1] ** 2 + own[:, 2] ** 2))
        pts_parts.append(align.apply(own))
        prob_parts.append(probs)
        off_parts.append(np.full(len(cloud), i - t, dtype=np.int64))
        frame_parts.append(np.full(len(cloud), i, dtype=np.int64))

    return DenseCloud(
        points=np.concatenate(pts_parts, axis=0),
        probs=np.concatenate(prob_parts, axis=0),
        temporal_offset=np.concatenate(off_parts),
        sensor_distance=np.concatenate(dist_parts),
        source_frame=np.concatenate(frame_parts),
        window=window,
    )


def _pose_at(poses, i: int, t: int) -> RigidTransform:
    if i >= len(poses) or poses[i] is None:
        raise ValueError(f"missing pose for frame {i} (reference {t})")
    return poses[i]


def _aligned_probs(cloud: PointCloud, pred: PredictionMatrix, frame: int) -> np.ndarray:
    if len(pred) != len(cloud):
        raise ValueError(f"frame {frame}: prediction covers {len(pred)} of {len(cloud)} points")
    idx = pred.point_index
    if not np.array_equal(np.sort(idx), np.arange(len(cloud))):
        raise ValueError(f"frame {frame}: prediction does not cover every point exactly once")
    out = np.empty_like(pred.probs)
    out[idx] = pred.probs
    return out


class SpatialIndex:
    """Exact nearest-neighbor index over the points of a dense cloud.

    Backed by a kd-tree for the candidate search, with distances recomputed
    canonically (sqrt(dx^2 + dy^2 + dz^2)) and ties resolved by lower point
    index, so query results equal a brute-force scan exactly. The tree is
    built with balanced_tree=False and compact_nodes=False (sliding-midpoint
    splits, node boxes not shrunk to their points), which builds about
    twice as fast; the canonical recheck and the tie rule, not the tree's
    shape, decide every result.
    """

    def __init__(self, points: np.ndarray):
        points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
            raise ValueError("index requires a nonempty (M, 3) point array")
        self.points = points
        self._tree = cKDTree(points, balanced_tree=False, compact_nodes=False)

    def __len__(self) -> int:
        return len(self.points)

    def query_batch(self, queries: np.ndarray, k: int, eps: float | None = None):
        """k nearest neighbors per query, then epsilon filtering.

        Returns (indices (N, k), distances (N, k), valid_count (N,)); for
        each query the valid prefix is sorted by (distance, index) and the
        remaining slots are zeroed.

        Queries run in chunks of _QUERY_CHUNK rows, so temporaries stay
        O(chunk * k) whatever N is. Each chunk asks the kd-tree for k + 8
        candidates; with eps set the tree search is bounded at slightly
        more than eps, so it stops early and leaves the slots beyond the
        ball empty. The chunk's candidates are then cut to the widest row
        the tree filled: the empty slots come last in every row, so the
        recheck, the sort and the output copy work on that width only.
        Every candidate's distance is recomputed canonically, one
        coordinate at a time, and rechecked against eps, so the result
        equals a brute-force scan bit for bit. A tie can span the
        candidate window only in a chunk where some row fills all k + 8
        slots (always so without eps); such a chunk keeps its full width
        and its tied rows are redone exhaustively.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = len(queries)
        out_idx = np.zeros((n, k), dtype=np.int64)
        out_dist = np.zeros((n, k))
        valid = np.zeros(n, dtype=np.int64)
        for lo in range(0, n, _QUERY_CHUNK):
            hi = min(lo + _QUERY_CHUNK, n)
            self._query_chunk(queries[lo:hi], k, eps, out_idx[lo:hi], out_dist[lo:hi], valid[lo:hi])
        return out_idx, out_dist, valid

    def _query_chunk(self, queries, k, eps, out_idx, out_dist, valid):
        n = len(queries)
        m = len(self.points)
        kq = min(k + _TIE_PAD, m)
        # the tree's own distances may differ from the canonical ones in the
        # last bits, so the bound is inflated (the added term stays nonzero
        # when the tree squares it, so eps = 0 still admits duplicates); the
        # canonical recheck below decides membership
        bound = np.inf if eps is None else eps * (1.0 + 1e-9) + 1e-100
        _, cand = self._tree.query(queries, k=kq, distance_upper_bound=bound)
        cand = cand.reshape(n, kq)
        # a bounded search puts each row's found slots first and marks the
        # rest empty with index m, so columns past the widest filled row
        # hold nothing and the recheck, sort and copy skip them
        found = cand < m
        width = int(found.sum(axis=1).max())
        cand, found = cand[:, :width], found[:, :width]
        safe = np.where(found, cand, 0)
        sq = np.zeros((n, width))
        for axis in range(3):
            sq += (self.points[safe, axis] - queries[:, axis, None]) ** 2
        dist = np.where(found, np.sqrt(sq), np.inf)
        order = np.lexsort((cand, dist), axis=1)
        cand = np.take_along_axis(cand, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)

        take = min(k, width)
        sel_idx = cand[:, :take]
        sel_dist = dist[:, :take]
        if width == kq > k:
            # a tie spanning the candidate window may hide better-indexed
            # duplicates beyond it; redo those rows exhaustively. A row with
            # empty slots already holds every point inside the bound, so a
            # chunk cut below kq has no such row.
            ambiguous = np.flatnonzero(np.isfinite(dist[:, kq - 1]) & (dist[:, k - 1] >= dist[:, kq - 1]))
            for row in ambiguous:
                idx_r, dist_r = self._query_ties(queries[row], dist[row, k - 1], k)
                sel_idx[row] = idx_r
                sel_dist[row] = dist_r

        # distances are sorted, so the epsilon ball is a prefix
        limit = np.inf if eps is None else eps
        valid[:] = (sel_dist <= limit).sum(axis=1)
        keep = np.arange(take)[None, :] < valid[:, None]
        out_idx[:, :take] = np.where(keep, sel_idx, 0)
        out_dist[:, :take] = np.where(keep, sel_dist, 0.0)

    def _query_ties(self, query: np.ndarray, radius: float, k: int):
        cand = np.asarray(self._tree.query_ball_point(query, r=radius * (1.0 + 1e-12) + 1e-300), dtype=np.int64)
        diff = self.points[cand] - query
        dist = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2)
        order = np.lexsort((cand, dist))[:k]
        return cand[order], dist[order]


def precompute_neighborhoods(index: SpatialIndex, queries: np.ndarray, k: int, eps: float | None = None) -> Neighborhoods:
    """One-pass neighborhood precomputation for all query points of a scan."""
    idx, dist, valid = index.query_batch(queries, k, eps)
    return Neighborhoods(idx, dist, valid)
