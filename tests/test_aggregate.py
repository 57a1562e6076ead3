"""Tests for kernel-weighted cross-frame label refinement."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidar_ensemble import aggregate, lam, neighbors, phi_layout
from lidar_ensemble.aggregate import (
    AggregationSpec,
    LamKernel,
    UniformKernel,
    phi_moments,
    phi_pairs,
    refine_labels,
)
from lidar_ensemble.geometry import sensor_range
from lidar_ensemble.lam import (DenseBnLayer, LamParams, LamTrainingSet, TrainConfig,
                                 initialize_lam_params, load_lam_params, save_lam_params,
                                 segment_softmax, train_lam)
from lidar_ensemble.neighbors import DenseCloud, Neighborhoods, SpatialIndex, precompute_neighborhoods
from lidar_ensemble.selftrain import (cross_frame_refine, frame_neighborhoods, sequence_sensor_range,
                                      write_manifest)
from lidar_ensemble.subsample import PredictionMatrix
from lidar_ensemble.synth import SyntheticSceneSpec, generate_sequence
from tests.conftest import traced
from tests.oracles import (from_padded, keep_pairs, kernel_score, padded, phi, phi_matrix,
                           refine_labels_unblocked, score_array)


def make_dense(rng, m=200, k_classes=3, window=10):
    raw = rng.uniform(0.05, 1.0, size=(m, k_classes))
    return DenseCloud(
        points=rng.uniform(-3, 3, size=(m, 3)),
        probs=raw / raw.sum(1, keepdims=True),
        temporal_offset=rng.integers(-window, window + 1, size=m),
        sensor_distance=rng.uniform(1.0, 40.0, size=m),
        source_frame=rng.integers(0, 5, size=m),
        window=window,
    )


def zero_lam_params(feature_dim, hidden=(4, 4, 4)):
    layers = [
        DenseBnLayer(
            weight=np.zeros((out, inp)),
            gamma=np.ones(out),
            beta=np.zeros(out),
            run_mean=np.zeros(out),
            run_var=np.ones(out),
        )
        for inp, out in zip((feature_dim,) + hidden[:-1], hidden)
    ]
    return LamParams(
        std_mean=np.zeros(feature_dim),
        std_var=np.ones(feature_dim),
        layers=layers,
        head_weight=np.zeros(hidden[-1]),
        head_bias=0.0,
    )


class TestPhi:
    def test_coincident_pair_layout(self):
        rng = np.random.default_rng(0)
        dense = make_dense(rng, m=5, k_classes=2)
        j = 2
        dense.temporal_offset[j] = 0
        p = dense.points[j]
        v = dense.probs[j]
        f = phi(p, v, dense, j)
        assert len(f) == 7  # 2K+3 with K=2
        assert f[0] == 0.0
        assert np.array_equal(f[1:3], v)
        assert np.array_equal(f[3:5], dense.probs[j])
        assert f[5] == 0.0
        assert f[6] == dense.sensor_distance[j]

    def test_feature_dim_is_2k_plus_3(self):
        assert phi_layout.feature_dim(2) == 7
        assert phi_layout.feature_dim(10) == 23
        assert phi_layout.num_classes_of(7) == 2

    def test_offset_normalization_endpoint(self):
        rng = np.random.default_rng(1)
        dense = make_dense(rng, m=4, k_classes=2, window=10)
        dense.temporal_offset[1] = 10
        f = phi(dense.points[0], dense.probs[0], dense, 1)
        assert f[5] == 1.0

    def test_window_zero_maps_offset_to_zero(self):
        rng = np.random.default_rng(2)
        dense = make_dense(rng, m=4, k_classes=2, window=0)
        dense.temporal_offset[:] = 0
        f = phi(dense.points[0], dense.probs[0], dense, 1)
        assert f[5] == 0.0

    def test_pairs_match_scalar_phi(self):
        rng = np.random.default_rng(3)
        dense = make_dense(rng, m=50, k_classes=3)
        queries = rng.uniform(-3, 3, size=(10, 3))
        raw = rng.uniform(0.05, 1.0, size=(10, 3))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=6)
        rows, row_query = phi_pairs(v, dense, nbh)
        indices, _, valid = padded(nbh)
        r = 0
        for q in range(10):
            for slot in range(int(valid[q])):
                j = indices[q, slot]
                expected = phi(queries[q], v[q], dense, j)
                assert np.abs(rows[r] - expected).max() < 1e-9
                assert row_query[r] == q
                assert np.array_equal(rows[r, phi_layout.neighbor_label_columns(3)], dense.probs[j])
                r += 1
        assert r == len(rows)


class TestKernelScore:
    def test_uniform_is_always_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            assert kernel_score(UniformKernel(), rng.normal(size=9)) == 1.0

    def test_zero_network_scores_one(self):
        params = zero_lam_params(7)
        f = np.random.default_rng(5).normal(size=7)
        assert kernel_score(LamKernel(params), f) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_forward_of_miniature(self):
        # two units per layer, hand-computed forward pass
        rng = np.random.default_rng(6)
        d = 7
        params = zero_lam_params(d, hidden=(2, 2, 2))
        for layer in params.layers:
            layer.weight = rng.normal(scale=0.5, size=layer.weight.shape)
            layer.gamma = rng.uniform(0.5, 1.5, size=2)
            layer.beta = rng.normal(scale=0.2, size=2)
            layer.run_mean = rng.normal(scale=0.2, size=2)
            layer.run_var = rng.uniform(0.5, 2.0, size=2)
        params.std_mean = rng.normal(size=d)
        params.std_var = rng.uniform(0.5, 2.0, size=d)
        params.head_weight = rng.normal(size=2)
        params.head_bias = 0.3

        f = rng.normal(size=d)
        act = [(f[i] - params.std_mean[i]) / np.sqrt(params.std_var[i]) for i in range(d)]
        for layer in params.layers:
            nxt = []
            for unit in range(2):
                z = sum(layer.weight[unit][i] * act[i] for i in range(len(act)))
                xhat = (z - layer.run_mean[unit]) / np.sqrt(layer.run_var[unit] + 1e-5)
                y = layer.gamma[unit] * xhat + layer.beta[unit]
                nxt.append(max(y, 0.0))
            act = nxt
        expected = np.exp(sum(params.head_weight[u] * act[u] for u in range(2)) + params.head_bias)
        assert kernel_score(LamKernel(params), f) == pytest.approx(expected, rel=1e-6)

    def test_non_finite_feature_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            kernel_score(UniformKernel(), np.array([np.inf, 0.0]))

    def test_trained_kernel_refines_like_its_checkpoint(self, tmp_path):
        # train_lam's params score with their running statistics as they
        # are: refining with them gives the bits of refining with their
        # saved-and-loaded checkpoint
        rng = np.random.default_rng(12)
        dense = make_dense(rng, m=300)
        queries = rng.uniform(-3, 3, size=(60, 3))
        raw = rng.uniform(0.05, 1.0, size=(60, 3))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=8)
        # the point table: the 60 queries at frame 0, then the dense points
        # at their temporal offsets
        data = LamTrainingSet(
            offsets=nbh.offsets, neighbor=60 + nbh.indices, distance=nbh.distances,
            query=np.arange(60), labels=rng.integers(0, 3, 60),
            probs=np.concatenate([v, dense.probs]),
            sensor_distance=np.concatenate([sensor_range(queries), dense.sensor_distance]),
            frame=np.concatenate([np.zeros(60, np.int64), dense.temporal_offset]), window=dense.window)
        assert phi_matrix(data).tobytes() == phi_pairs(v, dense, nbh)[0].tobytes()
        params, _ = train_lam(data, TrainConfig(epochs=2, batch=16, seed=4))
        save_lam_params(params, tmp_path / "lam.ckpt")
        loaded = load_lam_params(tmp_path / "lam.ckpt")
        trained, trained_weights = refine_labels(queries, v, dense, nbh, LamKernel(params))
        restored, restored_weights = refine_labels(queries, v, dense, nbh, LamKernel(loaded))
        assert not np.allclose(trained_weights, 1 / 8)
        assert trained.probs.tobytes() == restored.probs.tobytes()
        assert trained_weights.tobytes() == restored_weights.tobytes()


class TestRefineLabels:
    def test_two_one_hot_neighbors_average(self):
        dense = DenseCloud(
            points=np.array([[0.0, 0.0, 0.1], [0.0, 0.0, -0.1]]),
            probs=np.array([[1.0, 0.0], [0.0, 1.0]]),
            temporal_offset=np.array([0, 0]),
            sensor_distance=np.array([1.0, 1.0]),
            source_frame=np.array([0, 0]),
            window=1,
        )
        nbh = from_padded(indices=[[0, 1]], distances=[[0.1, 0.1]], valid_count=[2])
        out, _ = refine_labels(np.zeros((1, 3)), np.array([[1.0, 0.0]]), dense, nbh, UniformKernel())
        assert np.allclose(out.probs, [[0.5, 0.5]], atol=1e-12)

    def test_uniform_equals_arithmetic_mean_exactly(self):
        rng = np.random.default_rng(7)
        dense = make_dense(rng, m=300)
        queries = rng.uniform(-3, 3, size=(50, 3))
        raw = rng.uniform(0.05, 1.0, size=(50, 3))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=12)
        out, _ = refine_labels(queries, v, dense, nbh, UniformKernel())
        indices, _, valid = padded(nbh)
        for q in range(50):
            n = int(valid[q])
            expected = dense.probs[indices[q, :n]].mean(axis=0)
            assert np.array_equal(out.probs[q], expected)

    def test_uniform_matches_per_query_loop(self):
        # mixed valid counts (empty ones included) and 19 classes
        rng = np.random.default_rng(17)
        dense = make_dense(rng, m=2000, k_classes=19)
        queries = rng.uniform(-4, 4, size=(300, 3))
        raw = rng.uniform(0.05, 1.0, size=(300, 19))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=40, eps=0.6)
        assert (nbh.valid_count == 0).any() and len(np.unique(nbh.valid_count)) > 5
        out, _ = refine_labels(queries, v, dense, nbh, UniformKernel())
        indices, _, valid = padded(nbh)
        for q in range(300):
            n = int(valid[q])
            expected = v[q] if n == 0 else dense.probs[indices[q, :n]].sum(axis=0) / n
            assert np.array_equal(out.probs[q], expected)

    def test_lam_matches_brute_force_weighted_average(self):
        rng = np.random.default_rng(8)
        dense = make_dense(rng, m=200)
        queries = rng.uniform(-3, 3, size=(40, 3))
        raw = rng.uniform(0.05, 1.0, size=(40, 3))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=8)
        params = initialize_lam_params(phi_layout.feature_dim(3), hidden_sizes=(8, 8, 8), seed=1)
        kernel = LamKernel(params)
        out, _ = refine_labels(queries, v, dense, nbh, kernel)
        indices, _, valid = padded(nbh)
        for q in range(40):
            n = int(valid[q])
            num = np.zeros(3)
            den = 0.0
            for slot in range(n):
                j = indices[q, slot]
                score = kernel_score(kernel, phi(queries[q], v[q], dense, j))
                num += score * dense.probs[j]
                den += score
            assert np.abs(out.probs[q] - num / den).max() < 1e-6

    def test_lam_matches_per_query_loop(self):
        # each neighborhood's exp(s - max) * row added in pair order, over
        # its exp sum added in the same order; empty neighborhoods included
        rng = np.random.default_rng(19)
        dense = make_dense(rng, m=2000, k_classes=19)
        queries = rng.uniform(-4, 4, size=(300, 3))
        raw = rng.uniform(0.05, 1.0, size=(300, 19))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=40, eps=0.6)
        assert (nbh.valid_count == 0).any() and len(np.unique(nbh.valid_count)) > 5
        params = initialize_lam_params(phi_layout.feature_dim(19), hidden_sizes=(8, 8, 8), seed=4)
        out, _ = refine_labels(queries, v, dense, nbh, LamKernel(params))
        rows, _ = phi_pairs(v, dense, nbh)
        scores = score_array(params, rows)
        labels = dense.probs[nbh.indices]
        for q in range(300):
            lo, hi = nbh.offsets[q], nbh.offsets[q + 1]
            if hi == lo:
                assert np.array_equal(out.probs[q], v[q])
                continue
            e = np.exp(scores[lo:hi] - scores[lo:hi].max())
            num, den = np.zeros(19), 0.0
            for j in range(hi - lo):
                num += e[j] * labels[lo + j]
                den += e[j]
            assert np.array_equal(out.probs[q], num / den)

    def test_pair_weights_come_from_the_refinement_pass(self):
        rng = np.random.default_rng(20)
        dense = make_dense(rng, m=600, k_classes=5)
        queries = rng.uniform(-4, 4, size=(120, 3))
        raw = rng.uniform(0.05, 1.0, size=(120, 5))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=20, eps=0.8)
        assert (nbh.valid_count == 0).any()
        _, weights = refine_labels(queries, v, dense, nbh, UniformKernel())
        counts = nbh.valid_count[nbh.valid_count > 0]
        assert np.array_equal(weights, np.repeat(1 / counts, counts))
        params = initialize_lam_params(phi_layout.feature_dim(5), hidden_sizes=(8, 8, 8), seed=5)
        _, weights = refine_labels(queries, v, dense, nbh, LamKernel(params))
        rows, row_query = phi_pairs(v, dense, nbh)
        assert np.array_equal(weights,
                              segment_softmax(score_array(params, rows), row_query, len(queries)))

    def test_pair_features_equal_the_slice_gather(self):
        # both kernels, with and without eps, at zero and wider windows:
        # each scan's PairRecord, read through the sequence's sensor ranges
        # and the window, gives the bits of the phi columns that phi_pairs
        # gathers from the scan's dense cloud
        rng = np.random.default_rng(21)
        seq, _ = generate_sequence(SyntheticSceneSpec(num_frames=5, points_per_frame=150, seed=21))
        within = []
        for scan in seq.scans:
            raw = rng.uniform(0.05, 1.0, size=(len(scan), 4))
            within.append(PredictionMatrix(raw / raw.sum(1, keepdims=True), np.arange(len(scan))))
        table = sequence_sensor_range(seq.scans)
        params = initialize_lam_params(phi_layout.feature_dim(4), hidden_sizes=(8, 8, 8), seed=6)
        for kernel, (window, stride, epsilon) in itertools.product(
                (UniformKernel(), LamKernel(params)), ((0, 1, 0.8), (3, 2, 0.8), (2, 1, None))):
            agg = AggregationSpec(kernel=kernel, k=20, epsilon=epsilon, window=window, stride=stride)
            records = cross_frame_refine(seq.scans, seq.poses, within, agg, keep_pairs)
            for t, record in enumerate(records):
                dense, nbh = frame_neighborhoods(seq.scans, seq.poses, within, t, agg)
                assert [(a.dtype, a.flags.c_contiguous) for a in (
                    record.weights, record.center_distance, record.neighbor, record.temporal_offset)] == [
                    (np.float64, True), (np.float64, True), (np.uint32, True), (np.int8, True)]
                want = {"temporal": phi_layout.temporal_feature(dense.temporal_offset[nbh.indices], dense.window),
                        "sensor_distance": dense.sensor_distance[nbh.indices],
                        "center_distance": nbh.distances}
                for name, values in want.items():
                    got = record.feature(name, table, window, 0, np.empty(len(values)))
                    assert got.dtype == values.dtype
                    assert got.tobytes() == values.tobytes(), name

    def test_head_bias_shift_leaves_labels_unchanged(self):
        rng = np.random.default_rng(9)
        dense = make_dense(rng, m=150)
        queries = rng.uniform(-3, 3, size=(30, 3))
        raw = rng.uniform(0.05, 1.0, size=(30, 3))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=6)
        params = initialize_lam_params(phi_layout.feature_dim(3), hidden_sizes=(8, 8, 8), seed=2)
        base, _ = refine_labels(queries, v, dense, nbh, LamKernel(params))
        shifted_params = params.copy()
        shifted_params.head_bias += 37.5
        shifted, _ = refine_labels(queries, v, dense, nbh, LamKernel(shifted_params))
        assert np.abs(base.probs - shifted.probs).max() < 1e-9

    def test_neighbor_order_permutation_invariant(self):
        rng = np.random.default_rng(10)
        dense = make_dense(rng, m=100)
        queries = rng.uniform(-3, 3, size=(10, 3))
        raw = rng.uniform(0.05, 1.0, size=(10, 3))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=7)
        indices, distances, valid = padded(nbh)
        perm_idx = indices.copy()
        perm_dist = distances.copy()
        for q in range(10):
            n = int(valid[q])
            p = rng.permutation(n)
            perm_idx[q, :n] = indices[q, :n][p]
            perm_dist[q, :n] = distances[q, :n][p]
        shuffled = from_padded(perm_idx, perm_dist, valid)
        params = initialize_lam_params(phi_layout.feature_dim(3), hidden_sizes=(8, 8, 8), seed=3)
        for kernel in (UniformKernel(), LamKernel(params)):
            a, _ = refine_labels(queries, v, dense, nbh, kernel)
            b, _ = refine_labels(queries, v, dense, shuffled, kernel)
            assert np.abs(a.probs - b.probs).max() < 1e-12

    def test_empty_neighborhood_falls_back_to_input(self):
        rng = np.random.default_rng(11)
        dense = make_dense(rng, m=20)
        indices = np.zeros((2, 4), dtype=np.int64)
        indices[1, :2] = [3, 4]
        nbh = from_padded(indices=indices, distances=np.zeros((2, 4)), valid_count=[0, 2])
        raw = rng.uniform(0.05, 1.0, size=(2, 3))
        v = raw / raw.sum(1, keepdims=True)
        out, _ = refine_labels(rng.normal(size=(2, 3)), v, dense, nbh, UniformKernel())
        assert np.array_equal(out.probs[0], v[0])
        assert not np.array_equal(out.probs[1], v[1])

    def test_lam_with_interleaved_empty_neighborhoods(self):
        # empty rows between populated ones must not shift the segment math
        rng = np.random.default_rng(14)
        dense = make_dense(rng, m=60)
        queries = rng.uniform(-3, 3, size=(5, 3))
        raw = rng.uniform(0.05, 1.0, size=(5, 3))
        v = raw / raw.sum(1, keepdims=True)
        full = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=4)
        indices, distances, valid = padded(full)
        valid = valid.copy()
        valid[1] = 0
        valid[3] = 0
        holes = from_padded(indices, distances, valid)
        params = initialize_lam_params(phi_layout.feature_dim(3), hidden_sizes=(8, 8, 8), seed=5)
        out, _ = refine_labels(queries, v, dense, holes, LamKernel(params))
        assert np.array_equal(out.probs[1], v[1])
        assert np.array_equal(out.probs[3], v[3])
        reference, _ = refine_labels(queries, v, dense, full, LamKernel(params))
        for q in (0, 2, 4):
            assert np.abs(out.probs[q] - reference.probs[q]).max() < 1e-12

    def test_identical_neighbor_labels_idempotent(self):
        row = np.array([0.2, 0.5, 0.3])
        dense = DenseCloud(
            points=np.random.default_rng(12).normal(size=(5, 3)),
            probs=np.tile(row, (5, 1)),
            temporal_offset=np.zeros(5, dtype=np.int64),
            sensor_distance=np.ones(5),
            source_frame=np.zeros(5, dtype=np.int64),
            window=1,
        )
        nbh = from_padded(indices=[[0, 1, 2, 3, 4]], distances=[[0.0] * 5], valid_count=[5])
        out, _ = refine_labels(np.zeros((1, 3)), row.reshape(1, 3), dense, nbh, UniformKernel())
        assert np.abs(out.probs[0] - row).max() < 1e-12

    def test_simplex_preserved(self):
        rng = np.random.default_rng(13)
        dense = make_dense(rng, m=400, k_classes=5)
        queries = rng.uniform(-3, 3, size=(80, 3))
        raw = rng.uniform(0.05, 1.0, size=(80, 5))
        v = raw / raw.sum(1, keepdims=True)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=10)
        params = initialize_lam_params(phi_layout.feature_dim(5), hidden_sizes=(8, 8, 8), seed=4)
        for kernel in (UniformKernel(), LamKernel(params)):
            out, _ = refine_labels(queries, v, dense, nbh, kernel)
            assert out.probs.min() >= 0.0
            assert np.abs(out.probs.sum(axis=1) - 1.0).max() < 1e-5


def ragged_frame(rng, queries, capacity, k_classes, empty=0.2, full=0.5, m=300):
    """A dense cloud, query rows and Neighborhoods whose rows are empty
    with probability empty, else at capacity with probability full, else
    of a random size in between."""
    dense = make_dense(rng, m=m, k_classes=k_classes)
    draw = rng.uniform(size=queries)
    counts = np.where(draw < empty, 0,
                      np.where(draw < empty + (1 - empty) * full, capacity,
                               rng.integers(1, capacity + 1, size=queries)))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    nbh = Neighborhoods(offsets, rng.integers(0, m, size=offsets[-1]),
                        np.sort(rng.uniform(0, 2, size=offsets[-1])), capacity)
    raw = rng.uniform(0.05, 1.0, size=(queries, k_classes))
    return dense, raw / raw.sum(1, keepdims=True), nbh


def assert_same_refinement(got, want):
    (got, got_weights), (want, want_weights) = got, want
    assert np.array_equal(got_weights, want_weights)
    assert np.array_equal(got.probs, want.probs)
    assert np.array_equal(got.point_index, want.point_index)


# budgets either side of one and of four eval blocks
PAIR_BUDGETS = [1, 7, lam._ROW_BLOCK - 1, lam._ROW_BLOCK + 1, 2047, 2049, 12345]


class TestBlockedRefinement:
    """refine_labels scores lam._ROW_BLOCK pairs at a time and sums labels
    over blocks of whole queries; every output bit is that of the same
    arithmetic over the whole scan's arrays."""

    @settings(max_examples=60)
    @given(queries=st.integers(0, 400), capacity=st.integers(1, 12), k_classes=st.integers(1, 5),
           empty=st.floats(0, 1), full=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1),
           budget=st.sampled_from(PAIR_BUDGETS), kernel=st.sampled_from(["uniform", "lam"]))
    @example(queries=400, capacity=12, k_classes=3, empty=0.1, full=0.8, seed=0, budget=7, kernel="lam")
    def test_matches_the_unblocked_oracle(self, queries, capacity, k_classes, empty, full, seed, budget,
                                          kernel):
        rng = np.random.default_rng(seed)
        dense, v, nbh = ragged_frame(rng, queries, capacity, k_classes, empty, full)
        if kernel == "lam":
            params = initialize_lam_params(phi_layout.feature_dim(k_classes), hidden_sizes=(8, 8, 8),
                                           seed=seed % 1000)
            kernel = LamKernel(params)
        else:
            kernel = UniformKernel()
        want = refine_labels_unblocked(v, dense, nbh, kernel)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aggregate, "_PAIR_BUDGET", budget)
            got = refine_labels(np.zeros((queries, 3)), v, dense, nbh, kernel)
        assert_same_refinement(got, want)

    @pytest.mark.parametrize("budget", PAIR_BUDGETS)
    def test_query_blocks_cross_eval_chunks(self, budget, monkeypatch):
        rng = np.random.default_rng(budget)
        dense, v, nbh = ragged_frame(rng, 600, 16, 4, empty=0.1, full=0.6)
        blocks = list(neighbors._query_blocks(nbh.offsets, budget))
        assert [q for block in blocks for q in range(*block)] == list(range(len(nbh)))
        for q0, q1 in blocks:  # at most budget pairs, or one query
            assert nbh.offsets[q1] - nbh.offsets[q0] <= budget or q1 - q0 == 1
        chunk = lam._ROW_BLOCK
        assert len(nbh.indices) > 8 * chunk
        assert any(nbh.offsets[q0] // chunk != (nbh.offsets[q1] - 1) // chunk
                   for q0, q1 in blocks if nbh.offsets[q1] > nbh.offsets[q0])
        params = initialize_lam_params(phi_layout.feature_dim(4), hidden_sizes=(8, 8, 8), seed=7)
        monkeypatch.setattr(aggregate, "_PAIR_BUDGET", budget)
        for kernel in (UniformKernel(), LamKernel(params)):
            got = refine_labels(np.zeros((600, 3)), v, dense, nbh, kernel)
            assert_same_refinement(got, refine_labels_unblocked(v, dense, nbh, kernel))

    @pytest.mark.parametrize("kernel", ["uniform", "lam"])
    @pytest.mark.parametrize("k_classes", [3, 19])
    def test_scan_memory_has_no_pairs_times_k_term(self, k_classes, kernel):
        # per pair, a few float64 vectors (scores, exp, weights and their
        # temporaries); per scan, the refined
        # rows and their copy; per block, (_PAIR_BUDGET, K) neighbor rows
        # and, for the LAM, one eval block's phi rows and activations
        rng = np.random.default_rng(k_classes)
        dense, v, nbh = ragged_frame(rng, 10000, 30, k_classes, empty=0.05, full=0.3, m=5000)
        width = phi_layout.feature_dim(k_classes)
        if kernel == "lam":  # the default 32/64/128 network
            kernel, widest = LamKernel(initialize_lam_params(width, seed=1)), max(lam.HIDDEN_SIZES)
            eval_bytes = lam._ROW_BLOCK * 8 * (2 * width + 2 * widest)
        else:
            kernel, eval_bytes = UniformKernel(), 0
        pairs = len(nbh.indices)
        bound = (64 * pairs + 2 * v.nbytes + 2 * aggregate._PAIR_BUDGET * 8 * k_classes + eval_bytes)
        points = np.zeros((len(v), 3))
        _, peak, _ = traced(lambda: refine_labels(points, v, dense, nbh, kernel))
        assert peak <= bound, (peak / pairs, bound / pairs)

    def test_lam_of_another_class_count_is_rejected(self):
        rng = np.random.default_rng(3)
        dense, v, nbh = ragged_frame(rng, 40, 8, 3, empty=0.1, full=0.5)
        kernel = LamKernel(initialize_lam_params(phi_layout.feature_dim(4), seed=0))
        with pytest.raises(ValueError, match="take 11 features.*have 9"):
            refine_labels(np.zeros((40, 3)), v, dense, nbh, kernel)

    @pytest.mark.parametrize("queries", [1, 40, 600])
    def test_modulation_moments_give_the_bits_of_numpy(self, queries):
        # 600 queries hold several eval blocks of pairs
        rng = np.random.default_rng(queries)
        dense, v, nbh = ragged_frame(rng, queries, 16, 3, empty=0.0, full=0.5)
        rows, _ = phi_pairs(v, dense, nbh)
        moments = phi_moments(v, dense, nbh)
        assert moments.rows == len(rows)
        assert moments.mean.tobytes() == np.mean(rows, axis=0).tobytes()
        assert moments.var.tobytes() == np.var(rows, axis=0).tobytes()


class TestAggregationSpec:
    def test_manifest_contents(self, tmp_path):
        spec = AggregationSpec(kernel=UniformKernel(), k=60, epsilon=0.2, window=90, stride=3)
        path = tmp_path / "refinement.txt"
        write_manifest(path, spec.manifest_items())
        text = path.read_text()
        assert "kernel = uniform" in text
        assert "k = 60" in text
        assert "epsilon = 0.2" in text
        assert "window = 90" in text
        assert "stride = 3" in text
        assert f"phi_layout_version = {phi_layout.PHI_LAYOUT_VERSION}" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            AggregationSpec(kernel=UniformKernel(), k=0)
        with pytest.raises(ValueError):
            AggregationSpec(kernel=UniformKernel(), epsilon=-1.0)
        with pytest.raises(ValueError):
            AggregationSpec(kernel=UniformKernel(), stride=0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            AggregationSpec(kernel=UniformKernel(), epsilon=epsilon)
