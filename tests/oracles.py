"""Reference implementations the tests compare the library against.

The scalar feature and kernel of one (query, neighbor) pair, and the
per-frame feature stream the CLI analysis commands used to build with their
own dense cloud, index and query per frame.
"""

import numpy as np

from lidar_ensemble.aggregate import UniformKernel, phi_pairs
from lidar_ensemble.lam import lam_forward
from lidar_ensemble.neighbors import SpatialIndex, build_dense_cloud, precompute_neighborhoods


def phi(point, v_point, dense, neighbor_index):
    """Feature vector of one (query, neighbor) pair; see phi_layout."""
    point = np.asarray(point, dtype=np.float64)
    v_point = np.asarray(v_point, dtype=np.float64)
    other = dense.points[neighbor_index]
    dx, dy, dz = point - other
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    offset = float(dense.temporal_offset[neighbor_index])
    norm_offset = offset / dense.window if dense.window >= 1 else 0.0
    return np.concatenate([
        [dist],
        v_point,
        dense.probs[neighbor_index],
        [norm_offset, dense.sensor_distance[neighbor_index]],
    ])


def kernel_score(kernel, feature):
    """Positive score of one pair. Uniform is 1.0; LAM is exp(g(phi))."""
    feature = np.asarray(feature, dtype=np.float64)
    if not np.isfinite(feature).all():
        raise ValueError("feature vector contains non-finite entries")
    if isinstance(kernel, UniformKernel):
        return 1.0
    scores, _ = lam_forward(kernel.params, feature.reshape(1, -1))
    return float(np.exp(scores[0]))


def phi_stream(scans, poses, within, agg):
    """Per-frame feature rows and per-frame row -> query maps, each frame
    searched on its own dense cloud and index."""
    pairs = list(zip(scans, within))
    chunks, queries = [], []
    for t in range(len(scans)):
        dense = build_dense_cloud(pairs, poses, t, agg.window, agg.stride)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), scans[t].points, agg.k, agg.epsilon)
        rows, row_query, _ = phi_pairs(scans[t].points, within[t].probs, dense, nbh)
        chunks.append(rows)
        queries.append(row_query)
    return chunks, queries


def sequence_rows(scans, chunks, queries):
    """The per-frame streams joined into one, with each frame's query
    indices shifted past the points of the frames before it. Returns
    (rows, row_query, total query count)."""
    offsets = np.cumsum([0] + [len(scan) for scan in scans])
    row_query = np.concatenate([rq + offsets[t] for t, rq in enumerate(queries)])
    return np.concatenate(chunks, axis=0), row_query, int(offsets[-1])
