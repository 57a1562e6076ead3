"""Multi-scan dense cloud construction and exact k-NN / epsilon-ball queries.

A dense cloud is the union of pose-aligned scans over a temporal window,
expressed in the reference scan's frame. Neighborhood queries are exact:
the returned sets match a brute-force distance scan, with ties broken by
lower dense-cloud index. Both kinds of query, k nearest within an epsilon
ball and k nearest without one, run on one numpy cell grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform, compose, invert, sensor_range

# candidate pairs per chunk of a grid search, with or without epsilon
# (256 KB per temporary)
_CANDIDATE_BUDGET = 1 << 15
# the (dx, dy) cell offsets of the 9 z-columns around a cell
_COLUMNS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


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
    """Neighbor sets of every query point of one scan, in compressed rows.

    Query i's pairs are indices[offsets[i]:offsets[i + 1]] (dense-cloud
    indices) and the matching distances, sorted by (distance, index);
    offsets has one entry per query plus a leading 0, and no row holds more
    than capacity (the search's k) pairs.
    """

    def __init__(self, offsets: np.ndarray, indices: np.ndarray, distances: np.ndarray, capacity: int):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.distances = np.asarray(distances, dtype=np.float64)
        self.capacity = int(capacity)
        counts = np.diff(self.offsets)
        if (self.indices.shape != self.distances.shape or self.offsets[0] != 0
                or self.offsets[-1] != len(self.indices) or ((counts < 0) | (counts > self.capacity)).any()):
            raise ValueError("offsets must rise from 0 to the pair count, by at most capacity per query")

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def valid_count(self) -> np.ndarray:
        """Number of pairs of each query."""
        return np.diff(self.offsets)

    @property
    def row_query(self) -> np.ndarray:
        """Query index of each pair."""
        return np.repeat(np.arange(len(self)), self.valid_count)


def build_dense_cloud(scans, poses, t: int, window: int, stride: int = 1) -> DenseCloud:
    """Aggregate scans at frames t + j*stride for every integer j with
    |j*stride| <= window.

    scans is a list of (PointCloud, PredictionMatrix) pairs covering the
    sequence, each prediction's rows in point order (within_frame_ensemble
    puts them so); poses maps each frame into the shared global frame.
    Every selected scan is re-expressed in frame t via inv(pose_t) . pose_i.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if not (0 <= t < len(scans)):
        raise ValueError(f"reference frame {t} outside sequence of length {len(scans)}")
    reach = window // stride * stride
    frames = [i for i in range(t - reach, t + reach + 1, stride) if 0 <= i < len(scans)]
    to_ref = invert(_pose_at(poses, t, t))

    pts_parts, prob_parts, off_parts, dist_parts, frame_parts = [], [], [], [], []
    for i in frames:
        cloud, pred = scans[i]
        if pred is None:
            raise ValueError(f"missing prediction for frame {i}")
        if not np.array_equal(pred.point_index, np.arange(len(cloud))):
            raise ValueError(f"frame {i}: prediction rows are not the {len(cloud)} points in point order")
        align = compose(to_ref, _pose_at(poses, i, t))
        dist_parts.append(sensor_range(cloud.points))
        pts_parts.append(align.apply(cloud.points))
        prob_parts.append(pred.probs)
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


class SpatialIndex:
    """Exact neighbor search over the points of a dense cloud.

    Every distance is computed canonically (sqrt(dx^2 + dy^2 + dz^2)) and
    ties are resolved by lower point index, so query results equal a
    brute-force scan exactly. Every search, with or without epsilon, runs
    on a numpy cell grid built for the query (see query_batch).
    """

    def __init__(self, points: np.ndarray):
        points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0 or not np.isfinite(points).all():
            raise ValueError("index requires a nonempty (M, 3) array of finite points")
        self.points = points

    def __len__(self) -> int:
        return len(self.points)

    def query_batch(self, queries: np.ndarray, k: int, eps: float | None = None):
        """The k nearest neighbors of each query, all within eps when eps is set.

        Returns Neighborhoods with capacity k: query i's pairs are
        indices[offsets[i]:offsets[i + 1]] and the matching distances,
        sorted by (distance, index).

        With eps set, the points and queries go on a grid of cubic cells of
        side slightly above eps, so every point within eps of a query lies
        in one of the 27 cells around the query's cell. The points are
        sorted once by linear cell key; the queries are sorted by cell, and
        for each distinct query cell two binary searches per z-column, for
        the first keys of its z - 1 and z + 2 cells, find the point range of
        the column's three cells (adjacent keys along z). A column whose
        box lies beyond eps from the query in x or y is skipped; a z cell
        beyond eps is not, as its candidates fail the distance test anyway.
        The queries then run in chunks of about
        _CANDIDATE_BUDGET candidate pairs, so temporaries stay bounded
        whatever N is: each candidate's distance is computed canonically,
        one coordinate at a time, and only pairs within eps are kept; these
        are ordered by (query, distance, index) and each query's row is cut
        at k.

        Without eps, the same search runs at a radius r, first
        sqrt(e1 * e2 * min(k, M) / (pi * M)), or 1 where that is 0: the
        radius that holds min(k, M) points of a cloud spread evenly over an
        e1 x e2 plane. e1 and e2 are the two largest of twice the per-axis
        interquartile ranges, which are the extents of an evenly spread
        cloud; a few far points, which would make the extents and so r and
        every query's candidates huge, leave them unchanged. A row with
        min(k, M) pairs within r is final: every point outside the ball is
        farther than each of them. The other rows are searched again at 2r
        until every row is full.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if eps is not None and not (math.isfinite(eps) and eps >= 0):
            raise ValueError("eps must be finite and >= 0, or None")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if not np.isfinite(queries).all():
            raise ValueError("query coordinates must be finite")
        if eps is not None:
            return _grid_search(self.points, queries, k, eps)
        m = len(self.points)
        width = min(k, m)
        # the quartiles by linear interpolation, np.quantile's default
        pos = np.array([0.25, 0.75]) * (m - 1)
        below = np.floor(pos).astype(np.int64)
        above = np.minimum(below + 1, m - 1)
        part = np.partition(self.points, sorted({*below, *above}), axis=0)
        low, high = part[below] + (part[above] - part[below]) * (pos - below)[:, None]
        e1, e2 = np.sort(2.0 * (high - low))[1:]
        radius = math.sqrt(e1 * e2 * width / (math.pi * m)) or 1.0
        idx = np.empty((len(queries), width), np.int64)
        dist = np.empty((len(queries), width))
        rows = np.arange(len(queries))
        while len(rows):
            found = _grid_search(self.points, queries[rows], k, radius)
            full = found.valid_count == width
            pairs = np.repeat(full, found.valid_count)
            idx[rows[full]] = found.indices[pairs].reshape(-1, width)
            dist[rows[full]] = found.distances[pairs].reshape(-1, width)
            rows = rows[~full]
            radius *= 2.0
            if math.isinf(radius):
                raise ValueError("point distances overflow float64")
        return Neighborhoods(np.arange(len(queries) + 1) * width, idx.ravel(), dist.ravel(), k)


def _grid_search(points: np.ndarray, queries: np.ndarray, k: int, eps: float) -> Neighborhoods:
    """Exact epsilon search on a cell grid; see SpatialIndex.query_batch."""
    n = len(queries)
    if n == 0:
        return Neighborhoods(np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0), k)
    grid = _CellGrid(np.concatenate([_bounds(points), _bounds(queries)]), eps)
    pkey, _ = grid.keys(points)
    order = np.argsort(pkey)
    cell_keys = pkey[order]
    xs, ys, zs = (points[order, axis] for axis in range(3))

    qkey, frac = grid.keys(queries)
    qorder = np.argsort(qkey)
    qkey, frac = qkey[qorder], frac[qorder]
    qx, qy, qz = (queries[qorder, axis] for axis in range(3))
    start, length = grid.candidate_ranges(cell_keys, qkey, frac)
    per_query = length.sum(axis=1)

    # candidates of each chunk: rows [lo, hi) of the cell-sorted queries
    total = np.cumsum(per_query)
    lo, before = 0, 0
    shift = -(math.frexp(eps)[1] + 1)
    valid = np.empty(n, np.int64)
    idx_parts, dist_parts = [], []
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(total, before + _CANDIDATE_BUDGET, "right")))
        counts = per_query[lo:hi]
        span_len = length[lo:hi].ravel()
        span_start = start[lo:hi].ravel()[span_len > 0]
        span_len = span_len[span_len > 0]
        pos = np.repeat(span_start - (np.cumsum(span_len) - span_len), span_len)
        pos += np.arange(len(pos))
        sq = xs[pos] - np.repeat(qx[lo:hi], counts)
        sq *= sq
        for coords, query_coords in ((ys, qy), (zs, qz)):
            diff = coords[pos] - np.repeat(query_coords[lo:hi], counts)
            diff *= diff
            sq += diff
        dist = np.sqrt(sq, out=sq)
        hit = np.flatnonzero(dist <= eps)
        row = np.repeat(np.arange(hi - lo), counts)[hit]
        idx, dist = order[pos[hit]], dist[hit]

        # one sort by (row, distance): the row plus the distance scaled by a
        # power of two below 1/(2 eps) orders the rows apart and the pairs of
        # a row by distance, up to rounding, which can only merge keys;
        # every run of equal keys is then put in (distance, index) order
        key = np.ldexp(dist, shift)
        key += row
        rank = np.argsort(key)
        key = key[rank]
        tied = np.flatnonzero(key[1:] == key[:-1])
        if len(tied):
            in_run = np.zeros(len(key), bool)
            in_run[tied] = in_run[tied + 1] = True
            runs = np.flatnonzero(in_run)
            members = rank[runs]
            rank[runs] = members[np.lexsort((idx[members], dist[members], key[runs]))]
        idx, dist = idx[rank], dist[rank]
        found = np.bincount(row, minlength=hi - lo)
        if found.max(initial=0) > k:
            first = np.cumsum(found) - found
            keep = np.arange(len(idx)) - np.repeat(first, found) < k
            idx, dist = idx[keep], dist[keep]
        valid[lo:hi] = np.minimum(found, k)
        idx_parts.append(idx)
        dist_parts.append(dist)
        lo, before = hi, int(total[hi - 1])

    # back from cell order to query order
    sorted_first = np.cumsum(valid) - valid
    valid_out = np.empty(n, np.int64)
    valid_out[qorder] = valid
    first_out = np.empty(n, np.int64)
    first_out[qorder] = sorted_first
    offsets = np.concatenate([[0], np.cumsum(valid_out)])
    gather = np.repeat(first_out - offsets[:-1], valid_out) + np.arange(offsets[-1])
    return Neighborhoods(offsets, np.concatenate(idx_parts)[gather], np.concatenate(dist_parts)[gather], k)


def _bounds(points: np.ndarray) -> np.ndarray:
    """Per-axis minimum and maximum, (2, 3); reduced one column at a time,
    which numpy does several times faster than along axis 0 of (M, 3)."""
    return np.array([[col.min() for col in points.T], [col.max() for col in points.T]])


class _CellGrid:
    """Cubic cells of side c > eps over a bounding box, keyed by int64.

    A point's cell is floor(p / c) per axis, counted from one cell below the
    box, and its key is the row-major linear index of that cell with z
    fastest. c exceeds eps by more than the rounding of p / c can move a
    coordinate (it grows with the box's largest coordinate, which also keeps
    p / c below 2^48, so cell indices are exact in float64); so two points
    within eps of each other (canonical distance) lie in the same or
    adjacent cells on every axis. With eps = 0 only exact duplicates match,
    and they share a cell under any c. Where the keys would not fit in
    int64, c is doubled until they do; larger cells stay exact.
    """

    def __init__(self, box: np.ndarray, eps: float):
        reach = float(np.abs(box).max())
        cell = eps * (1.0 + 2.0 ** -40) + reach * 2.0 ** -48 or 1.0
        while True:
            first = np.floor(box.min(axis=0) / cell)
            dims = np.floor(box.max(axis=0) / cell) - first + 3
            if np.prod(dims) < 2.0 ** 62:
                break
            cell *= 2.0
        self.cell = cell
        self.eps = eps
        self.origin = first - 1
        self.stride = np.array([dims[1] * dims[2], dims[2], 1], dtype=np.int64)
        # bound, in cell units, on how far the computed position of a point
        # inside its cell can sit from the true one: the rounding of p / c and
        # of its fraction, with a factor 4 to spare
        self.slack = (reach / cell + 1.0) * 2.0 ** -51

    def keys(self, points: np.ndarray):
        """(linear cell key, position inside the cell in [0, 1] per axis)."""
        scaled = points / self.cell
        floor = np.floor(scaled)
        cells = (floor - self.origin).astype(np.int64)
        return cells @ self.stride, scaled - floor

    def candidate_ranges(self, cell_keys: np.ndarray, qkey: np.ndarray, frac: np.ndarray):
        """Start and length in cell_keys order of the 9 z-columns of 3 cells
        around each query's cell, (N, 9) each, for queries sorted by cell
        key; a column whose middle cell's box lies beyond eps from the query
        has length 0."""
        first = np.concatenate([[True], qkey[1:] != qkey[:-1]])
        middle = qkey[first][:, None] + _COLUMNS @ self.stride[:2]
        # each column runs from the first key of its z - 1 cell to that of z + 2
        bounds = np.searchsorted(cell_keys, middle[:, :, None] + np.array([-1, 2]))[np.cumsum(first) - 1]
        # squared gap from the query to the lower and upper face of its cell
        # in x and y, in cell units, less the rounding slack
        below = np.maximum(frac[:, :2] - self.slack, 0.0) ** 2
        above = np.maximum(1.0 - frac[:, :2] - self.slack, 0.0) ** 2
        gap = np.stack([below, np.zeros_like(below), above], axis=2)
        column_gap = (gap[:, 0, :, None] + gap[:, 1, None, :]).reshape(len(qkey), 9)
        limit = (self.eps / self.cell) ** 2 * (1.0 + 2.0 ** -30)
        start = bounds[..., 0]
        return start, np.where(column_gap <= limit, bounds[..., 1] - start, 0)


def precompute_neighborhoods(index: SpatialIndex, queries: np.ndarray, k: int, eps: float | None = None) -> Neighborhoods:
    """One-pass neighborhood precomputation for all query points of a scan."""
    return index.query_batch(queries, k, eps)
