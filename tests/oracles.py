"""Reference implementations the tests compare the library against.

The scalar feature and kernel of one (query, neighbor) pair; the per-frame
feature stream the CLI analysis commands used to build with their own dense
cloud, index and query per frame; conversions between compressed-row
Neighborhoods and the padded (N, k) layout, and the padded neighbor sets of
a full distance scan; the LAM forward and its train backward as plain
whole-array numpy, one fresh array per step; the per-query LAM
training-set builder and list-concatenating training loop the compressed
rows replaced; the training-set builder that concatenated each frame's
kept feature rows, and every feature row of a training set as one array;
the per-trial accumulation within-frame ensembling
used before its rows went through lam.segment_sum; the weight
histograms pooled from float64 feature slices, as they were computed
before the pair records became references into the sequence, and scored
from joined phi rows, as the analysis commands computed them before the
refinement pass recorded each pair's weight;
refinement over whole-scan (pairs, K) and (pairs, 2K + 3) arrays, as it
ran before its blocks; cross_frame_refine finish callbacks that keep each
scan's refined rows, hard labels or pair record; the LAM loss and the
Lovasz-Softmax value without gradients, beside the training loss that
computes them with gradients; the student's data augmentation, which no
command runs (config checks its augment.* keys); and the rigid-transform,
augmentation-scheme and synthetic-sensor helpers that only tests use;
and two test predictors, one that labels by intensity when it sees it and
one whose noise is keyed to each point's own bytes.
"""

import dataclasses

import numpy as np

from lidar_ensemble import lam, phi_layout
from lidar_ensemble.aggregate import UniformKernel, phi_pairs
from lidar_ensemble.geometry import PointCloud, RigidTransform, SensorConfig
from lidar_ensemble.lam import lam_forward
from lidar_ensemble.neighbors import (
    Neighborhoods,
    SpatialIndex,
    build_dense_cloud,
    precompute_neighborhoods,
)
from lidar_ensemble.selftrain import HeightThresholdRule, Predictor, frame_neighborhoods, hard_labels
from lidar_ensemble.subsample import PredictionMatrix
from lidar_ensemble.synth import HEIGHT_THRESHOLDS


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


def brute_force_batch(points, queries, k, eps=None):
    """Padded (indices, distances, valid_count) of every query by a full
    distance scan, ordered by (distance, index)."""
    diff = points[None, :, :] - queries[:, None, :]
    d = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2)
    index = np.broadcast_to(np.arange(len(points)), d.shape)
    order = np.lexsort((index, d), axis=1)[:, :k]
    dist = np.take_along_axis(d, order, axis=1)
    valid = (dist <= (np.inf if eps is None else eps)).sum(axis=1)
    keep = np.arange(order.shape[1])[None, :] < valid[:, None]
    out_idx = np.zeros((len(queries), k), dtype=np.int64)
    out_dist = np.zeros((len(queries), k))
    out_idx[:, :order.shape[1]] = np.where(keep, order, 0)
    out_dist[:, :order.shape[1]] = np.where(keep, dist, 0.0)
    return out_idx, out_dist, valid


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


def row_moments(a):
    """The lam.RowMoments of an (R, D) array, R >= 1."""
    return lam.RowMoments(len(a), a.mean(axis=0), a.var(axis=0))


def phi_matrix(data):
    """Every feature row of a LamTrainingSet, in pair order, as one (R, D)
    array."""
    pairs = np.arange(len(data.neighbor))
    return data.phi_rows(pairs, np.searchsorted(data.offsets, pairs, side="right") - 1,
                         np.empty((len(pairs), data.feature_dim)))


def oracle_forward(params, feats, train=False, workspace=None):
    """lam_forward as plain whole-array numpy, one fresh array per step."""
    feats = np.asarray(feats, dtype=np.float64)
    act = (feats - params.std_mean) / np.sqrt(params.std_var)
    cache = {"x0": act, "layers": []}
    rows = len(feats)
    for layer in params.layers:
        z = act @ layer.weight.T
        if train:
            mean = z.mean(axis=0)
            var = z.var(axis=0)
            run_var_update = var * rows / (rows - 1) if rows > 1 else var
            layer.run_mean += 0.1 * (mean - layer.run_mean)
            layer.run_var += 0.1 * (run_var_update - layer.run_var)
        else:
            mean = layer.run_mean
            var = layer.run_var
        ivar = 1.0 / np.sqrt(var + 1e-5)
        xhat = (z - mean) * ivar
        y = layer.gamma * xhat + layer.beta
        cache["layers"].append({"a_prev": act, "xhat": xhat, "y": y, "ivar": ivar})
        act = np.maximum(y, 0.0)
    cache["a_last"] = act
    scores = act @ params.head_weight + params.head_bias
    return scores, cache


def oracle_backward(params, cache, dscores, workspace=None):
    """lam_backward (of a train forward) as plain whole-array numpy."""
    grads = {}
    a_last = cache["a_last"]
    grads["head.weight"] = a_last.T @ dscores
    grads["head.bias"] = np.atleast_1d(dscores.sum())
    d_act = np.outer(dscores, params.head_weight)
    rows = len(dscores)
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        lc = cache["layers"][i]
        dy = d_act * (lc["y"] > 0)
        grads[f"layer{i}.gamma"] = (dy * lc["xhat"]).sum(axis=0)
        grads[f"layer{i}.beta"] = dy.sum(axis=0)
        dxhat = dy * layer.gamma
        dz = (lc["ivar"] / rows) * (
            rows * dxhat - dxhat.sum(axis=0) - lc["xhat"] * (dxhat * lc["xhat"]).sum(axis=0)
        )
        grads[f"layer{i}.weight"] = dz.T @ lc["a_prev"]
        d_act = dz @ layer.weight
    return grads


def train_lam_lists(phis, probs, labels, config):
    """lam.train_lam over per-neighborhood lists, each batch concatenated
    from its neighborhoods' arrays."""
    params = lam.initialize_lam_params(phis[0].shape[1], seed=config.seed)
    params = lam.modulate_statistics(params, [row_moments(np.concatenate(phis, axis=0))])
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


def pooled_weight_histograms(features, weights, bins=20):
    """lam.weight_histograms as it was when each scan's record held its
    pairs' float64 feature slices ({slice name: values}) beside their
    weights: the weights of all scans pooled, then each slice's values."""
    weights = np.concatenate(weights)
    if len(weights) == 0:
        raise ValueError("no neighbor pairs to analyze")
    report = {}
    for name in lam.HISTOGRAM_SLICES:
        values = np.concatenate([f[name] for f in features])
        edges = np.histogram_bin_edges(values, bins=bins)
        counts, _ = np.histogram(values, bins=edges)
        weight_sum, _ = np.histogram(values, bins=edges, weights=weights)
        mean_weight = np.divide(weight_sum, counts, out=np.zeros(len(counts)), where=counts > 0)
        report[name] = lam.HistogramSlice(edges=edges, counts=counts, mean_weight=mean_weight)
    return report


def weight_histograms(params, phis, row_query, num_queries, bins=20):
    """pooled_weight_histograms of one scan's phi rows: each pair's weight
    is the segment softmax of its eval score (of 0 for params None, the
    uniform kernel), and the slices are the rows' temporal, sensor
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
    return pooled_weight_histograms([features], [weights], bins)


def refine_labels_unblocked(probs, dense, nbh, kernel):
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
    return PredictionMatrix(probs=out, point_index=np.arange(n)), e / z[nbh.row_query]


def keep_refined(t, refined, pairs):
    """A cross_frame_refine finish that keeps every scan's refined matrix,
    as cross_frame_refine returned them before each frame ended in its
    worker."""
    return refined()


def keep_pairs(t, refined, pairs):
    """A cross_frame_refine finish that keeps every scan's PairRecord."""
    return pairs()


def keep_labels(t, refined, pairs):
    """A cross_frame_refine finish that keeps every scan's (labels,
    confidence), which apply_cbst takes."""
    return hard_labels(refined())


def lovasz_softmax(probs, truth) -> float:
    """Lovasz-Softmax loss: mean over present classes of the Lovasz extension
    of the Jaccard loss applied to the per-class probability errors.

    Zero exactly when predictions are one-hot correct for every present
    class; always in [0, 1]. The loss half of the term that
    lam.training_loss_and_grads differentiates.
    """
    probs = np.asarray(probs, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    loss, _ = lam._lovasz_softmax_with_grad(probs, truth)
    return loss


def lam_loss(refined, truth, ce_weight: float = 1.0, lovasz_weight: float = 1.0,
             ignore_label: int | None = None) -> float:
    """Weighted sum of multi-class cross-entropy and Lovasz-Softmax, the
    loss lam.training_loss_and_grads computes with its gradients.

    Cross-entropy clamps probabilities at 1e-12; points whose truth equals
    ignore_label are excluded from both terms.
    """
    probs = np.asarray(getattr(refined, "probs", refined), dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    if ignore_label is not None:
        keep = truth != ignore_label
        probs, truth = probs[keep], truth[keep]
    if len(truth) == 0:
        raise ValueError("all points ignored")
    ce, _ = lam._cross_entropy_with_grad(probs, truth)
    lov, _ = lam._lovasz_softmax_with_grad(probs, truth)
    return ce_weight * ce + lovasz_weight * lov


def identity_transform() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3))


def apply_transform(cloud: PointCloud, t: RigidTransform) -> PointCloud:
    """Rigidly move a cloud; intensity and frame_id are preserved."""
    return dataclasses.replace(cloud, points=t.apply(cloud.points))


@dataclasses.dataclass(frozen=True)
class AugmentationSpec:
    """Random augmentation parameters, applied rotate -> flip -> scale -> translate."""

    rotation_range: float = 0.0
    flip_x: bool = False
    flip_y: bool = False
    scale_range: tuple = (1.0, 1.0)
    translation_sigma: float = 0.0

    def __post_init__(self):
        lo, hi = self.scale_range
        if not (lo <= hi and hi > 0.0):
            raise ValueError(f"scale_range must be a nonempty interval with positive values: {self.scale_range}")
        if self.rotation_range < 0:
            raise ValueError("rotation_range must be >= 0")
        if self.translation_sigma < 0:
            raise ValueError("translation_sigma must be >= 0")


def augment(cloud: PointCloud, spec: AugmentationSpec, rng: np.random.Generator) -> PointCloud:
    """Randomly augment a cloud; deterministic given the generator state.

    Draw order is fixed: rotation angle, flip-x coin (only when enabled),
    flip-y coin (only when enabled), scale, translation vector.
    """
    angle = np.radians(rng.uniform(-spec.rotation_range, spec.rotation_range))
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pts = cloud.points @ rot.T
    if spec.flip_x and rng.random() < 0.5:
        pts = pts * np.array([-1.0, 1.0, 1.0])
    if spec.flip_y and rng.random() < 0.5:
        pts = pts * np.array([1.0, -1.0, 1.0])
    pts = pts * rng.uniform(spec.scale_range[0], spec.scale_range[1])
    pts = pts + rng.normal(0.0, spec.translation_sigma, size=3)
    return dataclasses.replace(cloud, points=pts)


def basic_augmentation() -> AugmentationSpec:
    """The paper's basic scheme: rotation +-45 deg, x/y flips, scale
    [0.95, 1.05], translation sigma 0.1 m."""
    return AugmentationSpec(45.0, True, True, (0.95, 1.05), 0.1)


def intense_augmentation() -> AugmentationSpec:
    """The paper's intense scheme: as basic, but scale [0.9, 1.1] and
    translation sigma 0.5 m."""
    return AugmentationSpec(45.0, True, True, (0.9, 1.1), 0.5)


def sensor_config() -> SensorConfig:
    """Range-image geometry of the synthetic drives (synth.generate_sequence)."""
    return SensorConfig(height=32, width=512, fov_up=15.0, fov_down=25.0)


class IntensityPredictor(Predictor):
    """One-hot rows of the height rule of the synthetic drives, or, for a
    cloud that carries intensity, of the intensity band: class
    floor(intensity * K) of K equal bands of [0, 1]. Which of the two a
    scan's labels follow shows whether its predictor saw intensity."""

    def __init__(self):
        self.height = HeightThresholdRule(HEIGHT_THRESHOLDS)
        self.num_classes = self.height.num_classes

    def labels(self, cloud: PointCloud) -> np.ndarray:
        if cloud.intensity is None:
            return self.height(cloud.points)
        return np.minimum((cloud.intensity * self.num_classes).astype(np.int64), self.num_classes - 1)

    def __call__(self, cloud: PointCloud) -> PredictionMatrix:
        return PredictionMatrix(np.eye(self.num_classes)[self.labels(cloud)], np.arange(len(cloud)))


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise on uint64."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class PointKeyedNoise(Predictor):
    """base's rows mixed half and half with a random simplex row drawn
    from each point's own coordinate bytes and the seed, so a point gets
    the same row wherever it stands in its cloud (NoisyPredictor's draws
    follow the point order). perm, a permutation of the classes, reorders
    the columns of every row it returns."""

    def __init__(self, base: Predictor, seed: int = 0, perm=None):
        self.base, self.seed = base, seed
        self.num_classes = base.num_classes
        self.perm = np.arange(self.num_classes) if perm is None else np.asarray(perm)

    def __call__(self, cloud: PointCloud) -> PredictionMatrix:
        pred = self.base(cloud)
        key = np.full(len(cloud), self.seed, dtype=np.uint64)
        for column in np.ascontiguousarray(cloud.points).view(np.uint64).T:
            key = _mix64(key ^ column)
        draws = np.stack([_mix64(key + np.uint64(c + 1)) for c in range(self.num_classes)], axis=1)
        noise = (draws >> np.uint64(11)) * 2.0 ** -53 + 0.05
        probs = 0.5 * pred.probs + 0.5 * noise / noise.sum(axis=1, keepdims=True)
        return PredictionMatrix(probs[:, self.perm], pred.point_index)
