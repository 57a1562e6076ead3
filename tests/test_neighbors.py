"""Tests for dense-cloud construction and exact neighborhood queries."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lidar_ensemble import neighbors
from lidar_ensemble.geometry import PointCloud, RigidTransform
from lidar_ensemble.neighbors import (
    Neighborhoods,
    SpatialIndex,
    build_dense_cloud,
    precompute_neighborhoods,
)
from lidar_ensemble.subsample import PredictionMatrix, within_frame_ensemble
from tests.conftest import traced
from tests.oracles import brute_force_batch, from_padded, padded


def brute_force_neighbors(points, query, k, eps=None):
    """O(N*M) oracle: sort by (distance, index), truncate, epsilon-filter."""
    d = np.sqrt(((points - query) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(len(points)), d))[:k]
    dd = d[order]
    if eps is not None:
        keep = dd <= eps
        order, dd = order[keep], dd[keep]
    return order, dd


def uniform_pred(n, k_classes, rng):
    raw = rng.uniform(0.05, 1.0, size=(n, k_classes))
    return PredictionMatrix(probs=raw / raw.sum(1, keepdims=True), point_index=np.arange(n))


def translation(x, y, z):
    return RigidTransform(np.eye(3), [x, y, z])


class TestBuildDenseCloud:
    def test_window_zero_is_reference_scan(self):
        rng = np.random.default_rng(0)
        scans = []
        poses = []
        for i in range(3):
            cloud = PointCloud(points=rng.normal(size=(20, 3)), frame_id=i)
            scans.append((cloud, uniform_pred(20, 3, rng)))
            poses.append(translation(float(i), 0.0, 0.0))
        dense = build_dense_cloud(scans, poses, t=1, window=0)
        assert len(dense) == 20
        assert np.abs(dense.points - scans[1][0].points).max() < 1e-12
        assert np.all(dense.temporal_offset == 0)
        assert np.all(dense.source_frame == 1)

    def test_relative_translation_between_frames(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 3))
        scans = [
            (PointCloud(points=pts, frame_id=0), uniform_pred(10, 2, rng)),
            (PointCloud(points=pts, frame_id=1), uniform_pred(10, 2, rng)),
        ]
        # frame 1 sits one meter ahead in the world: its points land shifted
        # by +1 x when expressed in frame 0
        poses = [translation(0, 0, 0), translation(1, 0, 0)]
        dense = build_dense_cloud(scans, poses, t=0, window=1)
        from_frame1 = dense.points[dense.source_frame == 1]
        expected = pts + np.array([1.0, 0.0, 0.0])
        assert np.abs(from_frame1 - expected).max() < 1e-9
        assert np.all(dense.temporal_offset[dense.source_frame == 1] == 1)

    def test_per_point_transform_oracle(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        poses = [RigidTransform(q, rng.normal(size=3)), translation(2.0, -1.0, 0.5)]
        pts = rng.normal(size=(15, 3))
        scans = [
            (PointCloud(points=rng.normal(size=(5, 3)), frame_id=0), uniform_pred(5, 2, rng)),
            (PointCloud(points=pts, frame_id=1), uniform_pred(15, 2, rng)),
        ]
        dense = build_dense_cloud(scans, poses, t=0, window=1)
        got = dense.points[dense.source_frame == 1]
        inv_rot = poses[0].rotation.T
        for i in range(15):
            world = poses[1].rotation @ pts[i] + poses[1].translation
            expected = inv_rot @ (world - poses[0].translation)
            assert np.abs(got[i] - expected).max() < 1e-9

    def test_stride_and_bounds(self):
        rng = np.random.default_rng(3)
        scans = [(PointCloud(points=rng.normal(size=(4, 3)), frame_id=i), uniform_pred(4, 2, rng))
                 for i in range(10)]
        poses = [translation(i, 0, 0) for i in range(10)]
        dense = build_dense_cloud(scans, poses, t=5, window=4, stride=2)
        assert sorted(set(dense.source_frame.tolist())) == [1, 3, 5, 7, 9]
        assert len(dense) == 5 * 4

    def test_stride_not_dividing_window_is_symmetric(self):
        # window 4 at stride 3 reaches offsets -3, 0, +3: the reference scan
        # stays in its own dense cloud
        rng = np.random.default_rng(3)
        scans = [(PointCloud(points=rng.normal(size=(4, 3)), frame_id=i), uniform_pred(4, 2, rng))
                 for i in range(10)]
        poses = [translation(i, 0, 0) for i in range(10)]
        dense = build_dense_cloud(scans, poses, t=5, window=4, stride=3)
        assert sorted(set(dense.source_frame.tolist())) == [2, 5, 8]
        assert sorted(set(dense.temporal_offset.tolist())) == [-3, 0, 3]

    def test_point_count_is_sum_of_selected_scans(self):
        rng = np.random.default_rng(4)
        sizes = [7, 13, 5]
        scans = [(PointCloud(points=rng.normal(size=(n, 3)), frame_id=i), uniform_pred(n, 2, rng))
                 for i, n in enumerate(sizes)]
        poses = [translation(i, 0, 0) for i in range(3)]
        dense = build_dense_cloud(scans, poses, t=1, window=5)
        assert len(dense) == sum(sizes)

    def test_sensor_distance_is_pre_transform(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 3)) + np.array([5.0, 0.0, 0.0])
        scans = [
            (PointCloud(points=rng.normal(size=(5, 3)), frame_id=0), uniform_pred(5, 2, rng)),
            (PointCloud(points=pts, frame_id=1), uniform_pred(30, 2, rng)),
        ]
        poses = [translation(0, 0, 0), translation(100.0, 0, 0)]
        dense = build_dense_cloud(scans, poses, t=0, window=1)
        got = dense.sensor_distance[dense.source_frame == 1]
        assert np.abs(got - np.linalg.norm(pts, axis=1)).max() < 1e-9

    def test_missing_pose_or_prediction(self):
        rng = np.random.default_rng(6)
        cloud = PointCloud(points=rng.normal(size=(4, 3)))
        scans = [(cloud, uniform_pred(4, 2, rng)), (cloud, None)]
        poses = [translation(0, 0, 0), translation(1, 0, 0)]
        with pytest.raises(ValueError, match="missing prediction"):
            build_dense_cloud(scans, poses, t=0, window=1)
        scans = [(cloud, uniform_pred(4, 2, rng)), (cloud, uniform_pred(4, 2, rng))]
        with pytest.raises(ValueError, match="missing pose"):
            build_dense_cloud(scans, poses[:1], t=0, window=1)

    def test_prediction_reordered_by_point_index(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(points=rng.normal(size=(6, 3)))
        perm = rng.permutation(6)
        raw = rng.uniform(0.1, 1.0, size=(6, 2))
        probs = raw / raw.sum(1, keepdims=True)
        pred = PredictionMatrix(probs=probs, point_index=perm)
        with pytest.raises(ValueError, match="point order"):
            build_dense_cloud([(cloud, pred)], [translation(0, 0, 0)], t=0, window=0)
        ordered = within_frame_ensemble([pred], len(cloud))
        dense = build_dense_cloud([(cloud, ordered)], [translation(0, 0, 0)], t=0, window=0)
        # dense probs must follow cloud order, not matrix row order
        assert np.abs(dense.probs[perm] - probs).max() < 1e-12


class TestKnnEpsilon:
    def test_coincident_point_at_distance_zero(self):
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        index = SpatialIndex(pts)
        idx, dist, valid = padded(index.query_batch([[0.0, 0.0, 0.0]], k=1))
        assert valid[0] == 1
        assert idx[0, 0] == 0
        assert dist[0, 0] == 0.0

    def test_everything_outside_epsilon(self):
        pts = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        index = SpatialIndex(pts)
        idx, dist, valid = padded(index.query_batch([[0.0, 0.0, 0.0]], k=2, eps=0.5))
        assert valid[0] == 0
        assert np.all(idx[0] == 0)
        assert np.all(dist[0] == 0.0)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-5, 5, size=(1000, 3))
        queries = rng.uniform(-5, 5, size=(100, 3))
        index = SpatialIndex(pts)
        idx, dist, valid = padded(precompute_neighborhoods(index, queries, k=60, eps=0.2))
        for qi in range(len(queries)):
            oi, od = brute_force_neighbors(pts, queries[qi], 60, eps=0.2)
            n = int(valid[qi])
            assert n == len(oi)
            assert np.array_equal(idx[qi, :n], oi)
            assert np.array_equal(dist[qi, :n], od)

    def test_no_epsilon_matches_brute_force(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(500, 3))
        queries = rng.normal(size=(40, 3))
        index = SpatialIndex(pts)
        idx, dist, _ = padded(precompute_neighborhoods(index, queries, k=10))
        for qi in range(len(queries)):
            oi, od = brute_force_neighbors(pts, queries[qi], 10)
            assert np.array_equal(idx[qi], oi)
            assert np.array_equal(dist[qi], od)

    def test_duplicate_points_tie_break_by_index(self):
        pts = np.array([[0.0, 0.0, 0.0]] * 5 + [[1.0, 0.0, 0.0]] * 5)
        index = SpatialIndex(pts)
        idx, _, _ = padded(index.query_batch([[0.0, 0.0, 0.0]], k=7))
        assert np.array_equal(idx[0, :5], [0, 1, 2, 3, 4])
        assert np.array_equal(idx[0, 5:7], [5, 6])

    def test_grid_ties_match_brute_force(self):
        # integer grid: massive exact distance ties at every shell
        xs = np.arange(5)
        grid = np.array([[x, y, z] for x in xs for y in xs for z in xs], dtype=np.float64)
        index = SpatialIndex(grid)
        rng = np.random.default_rng(10)
        for _ in range(30):
            q = grid[rng.integers(0, len(grid))]
            idx, dist, valid = padded(index.query_batch([q], k=9))
            oi, od = brute_force_neighbors(grid, q, 9)
            assert np.array_equal(idx[0, :valid[0]], oi)
            assert np.array_equal(dist[0, :valid[0]], od)

    def test_fewer_points_than_k(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        index = SpatialIndex(pts)
        idx, _, valid = padded(index.query_batch([[0.0, 0.0, 0.0]], k=10))
        assert valid[0] == 2
        assert idx.shape == (1, 10)
        assert np.all(idx[0, 2:] == 0)

    def test_distances_nondecreasing(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(300, 3))
        index = SpatialIndex(pts)
        _, dist, valid = padded(precompute_neighborhoods(index, rng.normal(size=(20, 3)), k=15))
        for qi in range(20):
            n = int(valid[qi])
            assert np.all(np.diff(dist[qi, :n]) >= 0)

    def test_overflowing_distance_rejected(self):
        # the canonical distance to the far point is inf, so no finite
        # radius fills the row
        index = SpatialIndex(np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            index.query_batch([[0.0, 0.0, 0.0]], k=2)

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            SpatialIndex(np.zeros((0, 3)))

    def test_k_must_be_positive(self):
        index = SpatialIndex(np.ones((3, 3)))
        with pytest.raises(ValueError, match="k"):
            index.query_batch([[0.0, 0.0, 0.0]], k=0)

    @pytest.mark.parametrize("eps", [-0.1, -np.inf, np.inf, np.nan])
    def test_eps_must_be_finite_and_non_negative(self, eps):
        index = SpatialIndex(np.ones((3, 3)))
        with pytest.raises(ValueError, match="eps"):
            index.query_batch([[0.0, 0.0, 0.0]], k=2, eps=eps)

    @pytest.mark.parametrize("eps", [None, 0.5])
    def test_non_finite_coordinates_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            SpatialIndex(np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            SpatialIndex(np.ones((3, 3))).query_batch([[0.0, np.inf, 0.0]], k=2, eps=eps)


class TestNeighborhoodsLayout:
    def test_counts_and_row_queries_follow_the_offsets(self):
        rng = np.random.default_rng(12)
        points = rng.uniform(-1.0, 1.0, size=(400, 3))
        nbh = precompute_neighborhoods(SpatialIndex(points), rng.uniform(-1.5, 1.5, size=(60, 3)), k=9, eps=0.3)
        assert len(nbh) == 60 and nbh.capacity == 9
        assert (nbh.valid_count == 0).any() and (nbh.valid_count == 9).any()
        assert np.array_equal(nbh.offsets, np.concatenate([[0], np.cumsum(nbh.valid_count)]))
        assert len(nbh.indices) == len(nbh.distances) == nbh.offsets[-1]
        assert np.array_equal(nbh.row_query, np.repeat(np.arange(60), nbh.valid_count))

    def test_no_query_is_empty_layout(self):
        nbh = SpatialIndex(np.ones((3, 3))).query_batch(np.zeros((0, 3)), k=2)
        assert len(nbh) == 0 and nbh.offsets.tolist() == [0] and nbh.indices.shape == (0,)

    @pytest.mark.parametrize("offsets, pairs", [
        ([1, 2], 2),     # does not start at 0
        ([0, 1], 2),     # does not end at the pair count
        ([0, 2, 1], 1),  # falls
        ([0, 0, 3], 3),  # a row over capacity
    ])
    def test_malformed_offsets_rejected(self, offsets, pairs):
        with pytest.raises(ValueError, match="offsets"):
            Neighborhoods(offsets, np.zeros(pairs, dtype=np.int64), np.zeros(pairs), capacity=2)


@st.composite
def adversarial_queries(draw):
    """Quantized cloud with one point copied at least 70 times, queries on
    and off the grid, and (optionally) an epsilon equal to a grid distance,
    so ties fall at the k-th slot and exactly at epsilon.

    Further draws: epsilon 0, so only exact duplicates match; epsilon equal
    to the grid step, with points at epsilon from the copied point along
    each axis and one ulp nearer and further, so pairs at epsilon straddle
    the faces of the search's cells (of side just above epsilon) from
    either side; far outliers, so the search's int64 cell-key span
    overflows and its cells grow; the cloud flattened to one point, a line
    or a plane; queries far outside the cloud; and the whole case
    translated far from the origin."""
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    cells = st.tuples(*[st.integers(-3, 3)] * 3)
    base = np.array(draw(st.lists(cells, min_size=1, max_size=10)), dtype=np.float64) * step
    copies = [draw(st.integers(70, 90))] + [draw(st.integers(1, 12)) for _ in base[1:]]
    points = np.repeat(base, copies, axis=0)
    points = points[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(points))]

    on_grid = np.array(draw(st.lists(cells, min_size=1, max_size=6)), dtype=np.float64) * step
    off_grid = np.array(draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), max_size=3)))
    seeds = [base[:1], on_grid, off_grid.reshape(-1, 3)]

    eps = None
    if draw(st.booleans()):
        offset = np.array(draw(cells), dtype=np.float64) * step
        # the canonical distance of a grid offset, so grid pairs tie with it
        # exactly; the query at that offset from the copied point sees the
        # whole ball boundary made of 70+ duplicates
        eps = float(np.sqrt(offset[0] ** 2 + offset[1] ** 2 + offset[2] ** 2)) or step
        seeds.append(base[:1] + offset)
    else:
        eps = draw(st.sampled_from([None, 0.0, step]))
    if eps == step and draw(st.booleans()):
        rim = base[:1] + np.concatenate([np.eye(3), -np.eye(3)]) * step
        points = np.concatenate([points, rim, np.nextafter(rim, base[:1]), np.nextafter(rim, 2 * rim - base[:1])])
    if draw(st.booleans()):
        corners = np.array([[x, y, z] for x in (-1e9, 1e9) for y in (-1e9, 1e9) for z in (-1e9, 1e9)])
        points = np.concatenate([points, corners])
    # all points coincident, collinear or coplanar: the cloud's extent is 0
    # on three, two or one axes
    flat = draw(st.sampled_from([(), (0, 1, 2), (1, 2), (2,)]))
    points[:, flat] = points[:1, flat]
    if draw(st.booleans()):
        # far outside the cloud, so a search without epsilon grows its radius
        # over many rounds
        seeds.append(base[:1] + np.array([[1.0, -1.0, 0.5]]) * draw(st.sampled_from([1e3, 1e7])))
    seeds = np.concatenate(seeds)
    count = draw(st.sampled_from([0, 1, 1023, 1024, 1025]))
    queries = seeds[np.arange(count) % len(seeds)]
    shift = draw(st.sampled_from([0.0, 1e6, 2.0 ** 40]))
    k = draw(st.integers(1, 100))
    return points + shift, queries + shift, k, eps


class TestQueryBatchProperty:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(adversarial_queries())
    def test_matches_brute_force_bit_for_bit(self, case):
        points, queries, k, eps = case
        idx, dist, valid = padded(SpatialIndex(points).query_batch(queries, k, eps))
        o_idx, o_dist, o_valid = brute_force_batch(points, queries, k, eps)
        assert idx.shape == dist.shape == (len(queries), k)
        assert np.array_equal(valid, o_valid)
        assert np.array_equal(idx, o_idx)
        assert np.array_equal(dist.view(np.uint64), o_dist.view(np.uint64))


def assert_matches_brute_force(points, queries, k, eps):
    idx, dist, valid = padded(SpatialIndex(points).query_batch(queries, k, eps))
    o_idx, o_dist, o_valid = brute_force_batch(points, queries, k, eps)
    assert np.array_equal(valid, o_valid)
    assert np.array_equal(idx, o_idx)
    assert np.array_equal(dist.view(np.uint64), o_dist.view(np.uint64))
    return valid


class TestFilledWidth:
    """Searches whose rows are mostly far from full: no neighbor at all, one
    full row tied at k among empty rows, and query sets whose widest row
    differs."""

    def test_no_neighbor_inside_epsilon(self):
        rng = np.random.default_rng(20)
        points = rng.uniform(5.0, 6.0, size=(300, 3))
        queries = rng.uniform(-1.0, 1.0, size=(40, 3))
        valid = assert_matches_brute_force(points, queries, 60, 0.2)
        assert valid.max() == 0

    def test_full_row_with_tie_at_k_among_empty_rows(self):
        # 100 copies of one point, shuffled among far-away points: query 0
        # sees all of them at one distance, so it ties at slot k, and only
        # the lowest indices may be kept
        rng = np.random.default_rng(21)
        points = np.concatenate([np.repeat([[0.1, 0.0, 0.0]], 100, axis=0),
                                 rng.uniform(10.0, 20.0, size=(400, 3))])
        points = points[rng.permutation(len(points))]
        queries = np.concatenate([[[0.0, 0.0, 0.0]], rng.uniform(-5.0, -4.0, size=(30, 3))])
        k = 5
        valid = assert_matches_brute_force(points, queries, k, 0.2)
        assert valid[0] == k and valid[1:].max() == 0
        # without eps every one of these queries sees the copies first
        valid = assert_matches_brute_force(points, queries[:1], k, None)
        assert valid[0] == k

    @pytest.mark.parametrize("count", [1023, 1024, 1025])
    def test_width_changes_across_chunks(self, count):
        # a dense cube (about 20 points per ball) next to a sparse one: the
        # widest row of the first 1024 queries sits far above their mean,
        # and the sparse queries after them alone are much narrower
        rng = np.random.default_rng(22)
        points = np.concatenate([rng.uniform(0.0, 1.0, size=(600, 3)),
                                 rng.uniform(-20.0, -10.0, size=(2000, 3))])
        queries = np.concatenate([rng.uniform(0.0, 1.0, size=(1000, 3)),
                                  rng.uniform(-20.0, -10.0, size=(count - 1000, 3))])
        valid = assert_matches_brute_force(points, queries, 60, 0.2)
        first = valid[:1024]
        assert first.max() > 2 * first.mean()
        if count > 1024:
            assert valid[1024:].max() < first.max()


class TestCellGrid:
    @pytest.mark.parametrize("budget", [1, 40, 5000])
    def test_candidate_budget_splits_queries(self, monkeypatch, budget):
        # a budget below one query's candidates gives one query per chunk
        monkeypatch.setattr(neighbors, "_CANDIDATE_BUDGET", budget)
        rng = np.random.default_rng(23)
        points = rng.uniform(0.0, 1.0, size=(800, 3))
        queries = rng.uniform(-0.1, 1.1, size=(300, 3))
        valid = assert_matches_brute_force(points, queries, 12, 0.2)
        assert valid.max() == 12 and valid.min() < 12

    def test_key_span_beyond_int64_enlarges_cells(self):
        box = np.array([[-1e9, -1e9, -1e9], [1e9, 1e9, 1e9]])
        grid = neighbors._CellGrid(box, 0.2)
        assert grid.cell > 1e3
        keys = grid.keys(box)
        assert 0 < keys[0] < keys[1] < 2 ** 62
        # summed one axis at a time, the keys are those of the (M, 3) product
        cells = (np.floor(box / grid.cell) - grid.origin).astype(np.int64)
        assert np.array_equal(keys, cells @ grid.stride)

    def test_pairs_at_eps_across_cell_faces(self):
        # pairs a 3-4-5 triangle apart (distance exactly eps in binary), each
        # placed a few ulps either side of the spot where it straddles a cell
        # face, edge or corner; anchors fix the box, hence the cell size
        eps = 0.3125
        anchors = np.array([[-8.0, -8.0, -8.0], [8.0, 8.0, 8.0]])
        cell = neighbors._CellGrid(anchors, eps).cell
        legs = np.array([[eps, 0.0, 0.0], [0.1875, 0.25, 0.0], [0.0, 0.1875, 0.25], [0.25, 0.0, 0.1875]])
        queries, points = [], [anchors]
        for leg in np.concatenate([legs, -legs]):
            for face in (-7, -1, 0, 1, 6):
                for ulps in range(-3, 4):
                    q = face * cell - leg
                    q += ulps * np.spacing(q)
                    queries.append(q)
                    points.append((q + leg)[None])
        # across the face at 0, p - q rounds down to eps though the pair is
        # further apart
        queries.append([-1e-18, 0.0, 0.0])
        points.append([[eps, 0.0, 0.0]])
        valid = assert_matches_brute_force(np.concatenate(points), np.array(queries), 500, eps)
        assert valid.min() >= 1


@st.composite
def split_block_queries(draw):
    """A search whose cell-sorted queries fill several candidate-range
    blocks of step queries, with more than step copies of one query, so
    that query's cell is split across two blocks; the budget is 9 * step.

    Also drawn: a quantized cloud with exact duplicates, so ties fall at
    the k-th slot; epsilon 0, None, or a grid distance, so ties fall at
    epsilon; points and queries on the faces of the search's cells and a
    few ulps either side, with a pair at epsilon across a face; and far
    corners that put the box's cell count just below or just above the
    int64 key-span guard, which doubles the cells above it."""
    step = draw(st.sampled_from([1, 2, 5, neighbors._CANDIDATE_BUDGET // len(neighbors._COLUMNS)]))
    grid_step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    cells = st.tuples(*[st.integers(-3, 3)] * 3)
    base = np.array(draw(st.lists(cells, min_size=1, max_size=8)), dtype=np.float64) * grid_step
    copies = [draw(st.integers(1, 12)) for _ in base]
    points = [np.repeat(base, copies, axis=0)]
    queries = [base, np.array(draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), max_size=3))).reshape(-1, 3)]

    kind = draw(st.sampled_from(["none", "zero", "grid"]))
    if kind == "grid":
        offset = np.array(draw(cells), dtype=np.float64) * grid_step
        eps = float(np.sqrt(offset[0] ** 2 + offset[1] ** 2 + offset[2] ** 2)) or grid_step
    else:
        eps = None if kind == "none" else 0.0
    # the box is +-bound on every axis, set by its corners; with the guard,
    # bound puts the cell count per axis near 2^(62/3)
    bound = 8.0
    guard = draw(st.sampled_from([None, -4, 4]))
    if guard is not None and eps:
        cell = eps * (1.0 + 2.0 ** -40)
        bound = cell * (2.0 ** (62 / 3) - 3 + guard) / 2
    corners = np.array([[x, y, z] for x in (-bound, bound) for y in (-bound, bound) for z in (-bound, bound)])
    points.append(corners)
    if eps:
        cell = neighbors._CellGrid(corners, eps).cell
        for face in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)):
            axis = draw(st.integers(0, 2))
            ulps = draw(st.integers(-2, 2))
            q = np.zeros(3)
            q[axis] = face * cell
            q[axis] += ulps * np.spacing(q[axis])
            leg = np.zeros(3)
            leg[axis] = eps
            queries.append(q[None])
            points.append(np.stack([q, q + leg, q - leg]))
    points = np.concatenate(points)
    points = points[np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(len(points))]

    split = draw(st.integers(0, len(base) - 1))
    queries.append(np.repeat(base[split:split + 1], draw(st.integers(step + 1, step + 40)), axis=0))
    queries = np.concatenate(queries)
    queries = queries[np.random.default_rng(len(queries)).permutation(len(queries))]
    return points, queries, draw(st.integers(1, 100)), eps, len(neighbors._COLUMNS) * step


class TestBlockedSearch:
    """The search takes its cell-sorted queries in blocks of
    _CANDIDATE_BUDGET / 9 and scatters each chunk's pairs straight into
    query order; the kNN rounds write their full rows into the output."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(split_block_queries())
    @example((np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]] * 3), np.zeros((7, 3)), 4, 0.5, 18))
    def test_matches_brute_force_bit_for_bit(self, case):
        points, queries, k, eps, budget = case
        step = budget // len(neighbors._COLUMNS)
        if eps is not None:  # some cell's queries straddle a block boundary
            grid = neighbors._CellGrid(np.concatenate([neighbors._bounds(points), neighbors._bounds(queries)]),
                                       eps)
            keys = np.sort(grid.keys(queries))
            assert len(keys) > step and (keys[step - 1:-1:step] == keys[step::step]).any()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neighbors, "_CANDIDATE_BUDGET", budget)
            got = SpatialIndex(points).query_batch(queries, k, eps)
        # every copy of a query has the same neighbors: scan each once
        unique, inverse = np.unique(queries, axis=0, return_inverse=True)
        o_idx, o_dist, o_valid = brute_force_batch(points, unique, k, eps)
        inverse = inverse.ravel()
        want = from_padded(o_idx[inverse], o_dist[inverse], o_valid[inverse])
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances.view(np.uint64), want.distances.view(np.uint64))

    @pytest.mark.parametrize("k, eps", [(60, 0.2), (16, None)])
    def test_memory_above_the_result_does_not_grow_with_the_queries(self, k, eps):
        # a chunk's working set is about eight float64 or int64 temporaries
        # per candidate; the points' cell keys, order and sorted coordinates
        # take 40 bytes per 24-byte point. Above its result the search holds
        # these, the query blocks' ranges and a few small per-query arrays,
        # so four times as many queries add less than one chunk
        chunk = 8 * 8 * neighbors._CANDIDATE_BUDGET
        rng = np.random.default_rng(24)
        points = rng.uniform(0.0, [12.0, 12.0, 1.0], size=(48000, 3))
        queries = rng.uniform(0.0, [12.0, 12.0, 1.0], size=(16000, 3))
        index = SpatialIndex(points)
        above = []
        for n in (4000, 16000):
            nbh, peak, _ = traced(lambda: index.query_batch(queries[:n], k, eps))
            above.append(peak - nbh.offsets.nbytes - nbh.indices.nbytes - nbh.distances.nbytes)
        assert above[1] - above[0] <= chunk, [a / chunk for a in above]
        assert max(above) <= 3 * chunk + 2 * points.nbytes, [a / chunk for a in above]
