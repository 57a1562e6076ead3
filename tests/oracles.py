"""Reference implementations the tests compare the library against.

The scalar feature and kernel of one (query, neighbor) pair; the per-frame
feature stream the CLI analysis commands used to build with their own dense
cloud, index and query per frame; conversions between compressed-row
Neighborhoods and the padded (N, k) layout; the per-query LAM
training-set builder and list-concatenating training loop the compressed
rows replaced; the training-set builder that concatenated each frame's
kept feature rows, and every feature row of a training set as one array;
the per-trial accumulation within-frame ensembling
used before its rows went through lam.segment_sum; the weight
histograms scored from joined phi rows, as the analysis commands computed
them before the refinement pass recorded each pair's weight; and
refinement over whole-scan (pairs, K) and (pairs, 2K + 3) arrays, as it
ran before its blocks.
"""

import numpy as np

from lidar_ensemble import lam, phi_layout
from lidar_ensemble.aggregate import UniformKernel, _slice_features, phi_pairs
from lidar_ensemble.lam import lam_forward
from lidar_ensemble.neighbors import (
    Neighborhoods,
    SpatialIndex,
    build_dense_cloud,
    precompute_neighborhoods,
)
from lidar_ensemble.selftrain import frame_neighborhoods
from lidar_ensemble.subsample import PredictionMatrix


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
        rows, row_query = phi_pairs(within[t].probs, dense, nbh)
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


def padded(nbh):
    """(indices (N, k), distances (N, k), valid_count (N,)) of nbh in k
    slots per query: the first valid_count[i] slots of row i hold query i's
    pairs in order, the rest index 0 and distance 0.0."""
    valid = nbh.valid_count
    slots = np.arange(nbh.capacity)[None, :] < valid[:, None]
    indices = np.zeros((len(nbh), nbh.capacity), dtype=np.int64)
    distances = np.zeros((len(nbh), nbh.capacity))
    indices[slots] = nbh.indices
    distances[slots] = nbh.distances
    return indices, distances, valid


def from_padded(indices, distances, valid_count):
    """Neighborhoods holding the first valid_count[i] slots of each padded
    row i."""
    indices = np.asarray(indices, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    valid_count = np.asarray(valid_count, dtype=np.int64)
    slots = np.arange(indices.shape[1])[None, :] < valid_count[:, None]
    return Neighborhoods(np.concatenate([[0], np.cumsum(valid_count)]),
                         indices[slots], distances[slots], indices.shape[1])


def training_lists(scans, poses, predictions, truth_labels, agg, ignore_label=None):
    """Per-query (feature rows, neighbor label rows) lists and truth labels
    of a labeled sequence, one query at a time; queries with no neighbors
    or ignored truth are dropped."""
    phis, probs, labels = [], [], []
    for t in range(len(scans)):
        dense, nbh = frame_neighborhoods(scans, poses, predictions, t, agg)
        phi_rows, _ = phi_pairs(predictions[t].probs, dense, nbh)
        neighbor_probs = dense.probs[nbh.indices]
        bounds = np.concatenate([[0], np.cumsum(nbh.valid_count)])
        truth = np.asarray(truth_labels[t], dtype=np.int64)
        for q in range(len(nbh)):
            lo, hi = bounds[q], bounds[q + 1]
            if hi == lo or (ignore_label is not None and truth[q] == ignore_label):
                continue
            phis.append(phi_rows[lo:hi])
            probs.append(neighbor_probs[lo:hi])
            labels.append(truth[q])
    return phis, probs, np.asarray(labels, dtype=np.int64)


def concatenated_training_set(scans, poses, predictions, truth_labels, agg, ignore_label=None):
    """selftrain.build_lam_training_set as dense rows: each frame's kept
    feature rows gathered from all of its rows, then all concatenated.
    Returns (phis (R, D), offsets, labels)."""
    phis, counts, labels = [], [], []
    for t in range(len(scans)):
        dense, nbh = frame_neighborhoods(scans, poses, predictions, t, agg)
        phi_rows, _ = phi_pairs(predictions[t].probs, dense, nbh)
        truth = np.asarray(truth_labels[t], dtype=np.int64)
        keep = nbh.valid_count > 0
        if ignore_label is not None:
            keep &= truth != ignore_label
        phis.append(phi_rows[np.repeat(keep, nbh.valid_count)])
        counts.append(nbh.valid_count[keep])
        labels.append(truth[keep])
    return (np.concatenate(phis), np.concatenate([[0], np.cumsum(np.concatenate(counts))]),
            np.concatenate(labels))


def phi_matrix(data):
    """Every feature row of a LamTrainingSet, in pair order, as one (R, D)
    array."""
    pairs = np.arange(len(data.neighbor))
    return data.phi_rows(pairs, np.searchsorted(data.offsets, pairs, side="right") - 1,
                         np.empty((len(pairs), data.feature_dim)))


def train_lam_lists(phis, probs, labels, config):
    """lam.train_lam over per-neighborhood lists, each batch concatenated
    from its neighborhoods' arrays."""
    params = lam.initialize_lam_params(phis[0].shape[1], seed=config.seed)
    params = lam.modulate_statistics(params, np.concatenate(phis, axis=0))
    rng = np.random.default_rng(config.seed)
    adam = lam._Adam([name for name, _ in params.named_parameters()], config.learning_rate)
    sizes = np.array([len(p) for p in phis])
    ws = lam._Workspace()
    trace = []
    for epoch in range(config.epochs):
        perm = rng.permutation(len(labels))
        ce_sum = lov_sum = 0.0
        for start in range(0, len(perm), config.batch):
            sel = perm[start:start + config.batch]
            batch_phis = np.concatenate([phis[i] for i in sel], axis=0)
            batch_probs = np.concatenate([probs[i] for i in sel], axis=0)
            row_query = np.repeat(np.arange(len(sel)), sizes[sel])
            _, ce, lov, grads = lam.training_loss_and_grads(
                params, batch_phis, row_query, batch_probs, labels[sel],
                config.ce_weight, config.lovasz_weight, workspace=ws)
            adam.step(params, grads)
            ce_sum += ce * len(sel)
            lov_sum += lov * len(sel)
        mean_ce, mean_lov = ce_sum / len(perm), lov_sum / len(perm)
        trace.append(lam.EpochStats(epoch, mean_ce, mean_lov,
                                    config.ce_weight * mean_ce + config.lovasz_weight * mean_lov))
    return params, trace


def within_frame_add_at(predictions, parent_size):
    """Per-trial np.add.at accumulation of the trials' rows and counts,
    divided per point."""
    sums = np.zeros((parent_size, predictions[0].num_classes))
    counts = np.zeros(parent_size)
    for pred in predictions:
        np.add.at(sums, pred.point_index, pred.probs)
        np.add.at(counts, pred.point_index, 1.0)
    return sums / counts[:, None]


def score_array(params, feats):
    """lam.eval_scores of the rows of an (R, D) array."""
    feats = np.asarray(feats, dtype=np.float64)
    return lam.eval_scores(params, len(feats), lambda lo, hi, out: np.copyto(out, feats[lo:hi]))


def weight_histograms(params, phis, row_query, num_queries, bins=20):
    """lam.weight_histograms of one record built from phi rows: each pair's
    weight is the segment softmax of its eval score (of 0 for params None,
    the uniform kernel), and the slices are the rows' temporal, sensor
    distance and center distance columns."""
    phis = np.asarray(phis, dtype=np.float64)
    if len(phis) == 0:
        raise ValueError("no neighbor pairs to analyze")
    scores = np.zeros(len(phis)) if params is None else score_array(params, phis)
    weights = lam.segment_softmax(scores, row_query, num_queries)
    k = phi_layout.num_classes_of(phis.shape[1])
    columns = {
        "temporal": phi_layout.temporal_column(k),
        "sensor_distance": phi_layout.sensor_distance_column(k),
        "center_distance": phi_layout.DISTANCE_COLUMN,
    }
    features = {name: phis[:, column] for name, column in columns.items()}
    return lam.weight_histograms([lam.PairRecord(features, weights)], bins)


def refine_labels_unblocked(probs, dense, nbh, kernel, return_pairs=False):
    """aggregate.refine_labels with every array of the scan held whole:
    the phi rows of all pairs scored by one eval_scores call, and the
    weighted neighbor rows of all pairs summed by one segment_sum."""
    probs = np.asarray(probs, dtype=np.float64)
    n = len(probs)
    if isinstance(kernel, UniformKernel):
        scores, labels = np.zeros(len(nbh.indices)), dense.probs[nbh.indices]
    else:
        phi_rows, _ = phi_pairs(probs, dense, nbh)
        scores = score_array(kernel.params, phi_rows)
        labels = phi_rows[:, phi_layout.neighbor_label_columns(dense.num_classes)]
    e, z = lam.segment_exp(scores, nbh.row_query, n)
    sums = lam.segment_sum(e[:, None] * labels, nbh.row_query, n)
    touched = nbh.valid_count > 0
    out = probs.copy()
    out[touched] = sums[touched] / z[touched, None]
    refined = PredictionMatrix(probs=out, point_index=np.arange(n))
    if not return_pairs:
        return refined
    weights = e / z[nbh.row_query]
    return refined, lam.PairRecord(_slice_features(dense, nbh.indices, nbh.distances), weights)
