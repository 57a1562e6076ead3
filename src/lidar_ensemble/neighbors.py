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
from .subsample import SIMPLEX_TOL

# candidate pairs per chunk of a grid search, with or without epsilon (256 KB
# per temporary); its queries find their ranges 1/64 as many at a time
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
        if m and (self.probs.min() < 0.0 or np.abs(self.probs.sum(axis=1) - 1.0).max() > SIMPLEX_TOL):
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

    for i in frames:
        cloud, pred = scans[i]
        if pred is None:
            raise ValueError(f"missing prediction for frame {i}")
        if not np.array_equal(pred.point_index, np.arange(len(cloud))):
            raise ValueError(f"frame {i}: prediction rows are not the {len(cloud)} points in point order")
    # each field allocated once and every scan written into its slice: no scan is held twice
    first = np.cumsum([0] + [len(scans[i][0]) for i in frames])
    m = int(first[-1])
    points, probs = np.empty((m, 3)), np.empty((m, scans[t][1].probs.shape[1]))
    offset, distance, source = np.empty(m, np.int64), np.empty(m), np.empty(m, np.int64)
    for i, a, b in zip(frames, first[:-1], first[1:]):
        cloud, pred = scans[i]
        align = compose(to_ref, _pose_at(poses, i, t))
        distance[a:b] = sensor_range(cloud.points)
        points[a:b] = align.apply(cloud.points)
        probs[a:b] = pred.probs
        offset[a:b] = i - t
        source[a:b] = i
    return DenseCloud(points=points, probs=probs, temporal_offset=offset, sensor_distance=distance,
                      source_frame=source, window=window)


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
        The points are keyed one axis at a time, and the cell-sorted queries
        find their ranges a block of _CANDIDATE_BUDGET / 64 queries at a
        time (about 64 values per query, as many as a chunk has candidates)
        and then run in chunks of about _CANDIDATE_BUDGET candidate
        pairs, so temporaries stay bounded whatever N is: each candidate's
        distance is computed canonically, one coordinate at a time, and only
        pairs within eps are kept; these are ordered by (query, distance,
        index) and each query's row is cut at k. Once every chunk has run, each
        chunk's pairs are written into its queries' rows of the result and
        the chunk is dropped, so the pairs are held at most twice.

        Without eps, the same search runs at a radius r, first
        sqrt(e1 * e2 * min(k, M) / (pi * M)), or 1 where that is 0: the
        radius that holds min(k, M) points of a cloud spread evenly over an
        e1 x e2 plane. e1 and e2 are the two largest of twice the per-axis
        interquartile ranges, which are the extents of an evenly spread
        cloud; a few far points, which would make the extents and so r and
        every query's candidates huge, leave them unchanged. A row with
        min(k, M) pairs within r is final: every point outside the ball is
        farther than each of them. Each chunk writes its full rows into
        the (N, min(k, M)) result; the other rows are searched again at 2r
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
        del part
        e1, e2 = np.sort(2.0 * (high - low))[1:]
        radius = math.sqrt(e1 * e2 * width / (math.pi * m)) or 1.0
        idx = np.empty((len(queries), width), np.int64)
        dist = np.empty((len(queries), width))
        done = np.zeros(len(queries), bool)
        rows = np.arange(len(queries))
        while len(rows):
            # each chunk's full rows go straight to their rows of the output
            for chunk_rows, found, chunk_idx, chunk_dist in _grid_chunks(self.points, queries[rows], k, radius):
                full = found == width
                pairs = np.repeat(full, found)
                out = rows[chunk_rows[full]]
                idx[out] = chunk_idx[pairs].reshape(-1, width)
                dist[out] = chunk_dist[pairs].reshape(-1, width)
                done[out] = True
            rows = np.flatnonzero(~done)
            radius *= 2.0
            if math.isinf(radius):
                raise ValueError("point distances overflow float64")
        return Neighborhoods(np.arange(len(queries) + 1) * width, idx.ravel(), dist.ravel(), k)


def _grid_search(points: np.ndarray, queries: np.ndarray, k: int, eps: float) -> Neighborhoods:
    """Exact epsilon search on a cell grid; see SpatialIndex.query_batch."""
    valid = np.zeros(len(queries), np.int64)
    chunks = []
    for rows, found, idx, dist in _grid_chunks(points, queries, k, eps):
        valid[rows] = found
        chunks.append((rows, found, idx, dist))
    offsets = np.zeros(len(queries) + 1, np.int64)
    np.cumsum(valid, out=offsets[1:])
    indices = np.empty(offsets[-1], np.int64)
    distances = np.empty(offsets[-1])
    # each chunk's pairs into its queries' rows, the chunk dropped once written
    chunks.reverse()
    while chunks:
        rows, found, idx, dist = chunks.pop()
        to = np.repeat(offsets[rows] - (np.cumsum(found) - found), found)
        to += np.arange(len(to))
        indices[to] = idx
        distances[to] = dist
    return Neighborhoods(offsets, indices, distances, k)


def _grid_chunks(points: np.ndarray, queries: np.ndarray, k: int, eps: float):
    """(rows, found, idx, dist) of each chunk of an epsilon search: the
    chunk's queries (indices into queries), the number of pairs each keeps
    (at most k), and those pairs, query after query, each query's in
    (distance, index) order.

    The queries are sorted by cell and taken in blocks of
    _CANDIDATE_BUDGET / 64 queries: a block's (queries, 9) candidate ranges
    and their temporaries take about 64 int64 or float64 values per query,
    so a block holds about as many values as a chunk has candidates. A
    query cell split across two blocks is looked up in both; the search is
    exact for any block size. Each block is cut by _query_blocks into
    chunks of about _CANDIDATE_BUDGET candidate pairs.
    """
    n = len(queries)
    if n == 0:
        return
    grid = _CellGrid(np.concatenate([_bounds(points), _bounds(queries)]), eps)
    pkey = grid.keys(points)
    order = np.argsort(pkey)
    cell_keys = pkey[order]
    del pkey
    xs, ys, zs = (points[order, axis] for axis in range(3))

    qkey = grid.keys(queries)
    qorder = np.argsort(qkey)
    qkey = qkey[qorder]
    shift = -(math.frexp(eps)[1] + 1)
    step = max(1, _CANDIDATE_BUDGET // 64)
    for b0 in range(0, n, step):
        rows = qorder[b0:b0 + step]
        block = queries[rows]
        start, length = grid.candidate_ranges(cell_keys, qkey[b0:b0 + step], grid.fractions(block))
        per_query = length.sum(axis=1)
        qx, qy, qz = block.T
        # candidates of each chunk: rows [lo, hi) of the block
        for lo, hi in _query_blocks(np.concatenate([[0], np.cumsum(per_query)]), _CANDIDATE_BUDGET):
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

            # one sort by (row, distance): the row plus the distance scaled by
            # a power of two below 1/(2 eps) orders the rows apart and the
            # pairs of a row by distance, up to rounding, which can only merge
            # keys; every run of equal keys is then put in (distance, index)
            # order
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
            yield rows[lo:hi], np.minimum(found, k), idx, dist


def _query_blocks(offsets: np.ndarray, budget: int):
    """(q0, q1): consecutive ranges of whole queries, each holding at most
    budget pairs, or a single query that alone holds more; query q holds
    pairs offsets[q]:offsets[q + 1]."""
    n = len(offsets) - 1
    q0 = 0
    while q0 < n:
        q1 = max(q0 + 1, int(np.searchsorted(offsets, offsets[q0] + budget, side="right")) - 1)
        yield q0, q1
        q0 = q1


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

    def keys(self, points: np.ndarray) -> np.ndarray:
        """Linear cell key of each point, summed one axis at a time: integer
        sums are exact, so no (M, 3) temporary is needed."""
        key = np.zeros(len(points), np.int64)
        for axis in range(3):
            cells = points[:, axis] / self.cell
            np.floor(cells, out=cells)
            cells -= self.origin[axis]
            part = cells.astype(np.int64)
            part *= self.stride[axis]
            key += part
        return key

    def fractions(self, points: np.ndarray) -> np.ndarray:
        """Position of each point inside its cell, in [0, 1] per axis."""
        scaled = points / self.cell
        return scaled - np.floor(scaled)

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
