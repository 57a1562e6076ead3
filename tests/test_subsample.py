"""Tests for row subsampling and within-frame prediction ensembling."""

import numpy as np
import pytest
from scipy import stats

from lidar_ensemble.errors import FileFormatError
from lidar_ensemble.geometry import PointCloud, SensorConfig, project_to_range_image
from lidar_ensemble.subsample import (
    PredictionMatrix,
    SubsampleSpec,
    apply_row_mask,
    make_ensemble,
    read_prediction_matrix,
    read_scan_prediction,
    row_mask,
    within_frame_ensemble,
    write_prediction_matrix,
)
from tests.oracles import within_frame_add_at

CONFIG = SensorConfig(height=64, width=512, fov_up=15.0, fov_down=25.0)


def spread_cloud(rng, n=2000):
    """Points spread over azimuth and elevation so every row is populated."""
    yaw = rng.uniform(-np.pi, np.pi, n)
    pitch = rng.uniform(np.radians(-24.0), np.radians(14.0), n)
    r = rng.uniform(2.0, 40.0, n)
    pts = np.stack([
        r * np.cos(pitch) * np.cos(yaw),
        r * np.cos(pitch) * np.sin(yaw),
        r * np.sin(pitch),
    ], axis=1)
    return PointCloud(points=pts)


class TestRowMask:
    def test_ratio_one_keeps_all_rows(self):
        spec = SubsampleSpec(mode="random", ratio=1.0)
        for seed in range(5):
            mask = row_mask(CONFIG, spec, np.random.default_rng(seed))
            assert mask.all()

    def test_half_ratio_keep_fraction(self):
        # drop probability 1 - min(1, r) with r = 0.5
        spec = SubsampleSpec(mode="random", ratio=0.5)
        rng = np.random.default_rng(0)
        total = sum(row_mask(CONFIG, spec, rng).sum() for _ in range(10000))
        frac = total / (10000 * CONFIG.height)
        assert abs(frac - 0.5) < 0.02

    def test_row_uniformity_chi_square(self):
        spec = SubsampleSpec(mode="random", ratio=0.5)
        rng = np.random.default_rng(1)
        counts = np.zeros(CONFIG.height)
        n = 10000
        for _ in range(n):
            counts += row_mask(CONFIG, spec, rng)
        expected = counts.mean()
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.99, CONFIG.height - 1)

    def test_regular_mode_alternates_from_row_zero(self):
        spec = SubsampleSpec(mode="regular", ratio=0.5)
        mask = row_mask(CONFIG, spec, np.random.default_rng(0))
        assert np.array_equal(np.flatnonzero(mask), np.arange(0, CONFIG.height, 2))

    def test_regular_mode_every_fourth(self):
        spec = SubsampleSpec(mode="regular", ratio=0.25)
        mask = row_mask(CONFIG, spec, np.random.default_rng(0))
        assert np.array_equal(np.flatnonzero(mask), np.arange(0, CONFIG.height, 4))

    def test_regular_mode_rejects_non_unit_fraction(self):
        with pytest.raises(ValueError, match="regular"):
            SubsampleSpec(mode="regular", ratio=0.3)

    def test_invalid_spec_fields(self):
        with pytest.raises(ValueError):
            SubsampleSpec(mode="random", ratio=0.0)
        with pytest.raises(ValueError):
            SubsampleSpec(mode="random", ratio=0.5, trials=0)
        with pytest.raises(ValueError):
            SubsampleSpec(mode="bogus", ratio=0.5)


class TestApplyRowMask:
    def test_all_keep_is_identity(self):
        cloud = spread_cloud(np.random.default_rng(2))
        index = project_to_range_image(cloud, CONFIG)
        sub, parent = apply_row_mask(cloud, index, np.ones(CONFIG.height, dtype=bool))
        assert np.array_equal(sub.points, cloud.points)
        assert np.array_equal(parent, np.arange(len(cloud)))

    def test_all_drop_is_empty(self):
        cloud = spread_cloud(np.random.default_rng(3))
        index = project_to_range_image(cloud, CONFIG)
        sub, parent = apply_row_mask(cloud, index, np.zeros(CONFIG.height, dtype=bool))
        assert len(sub) == 0 and len(parent) == 0

    def test_single_row_matches_pixel_map(self):
        cloud = spread_cloud(np.random.default_rng(4))
        index = project_to_range_image(cloud, CONFIG)
        keep = np.zeros(CONFIG.height, dtype=bool)
        keep[5] = True
        _, parent = apply_row_mask(cloud, index, keep)
        expected = [i for i, (u, v) in enumerate(index.pixel_of_point.tolist()) if v == 5]
        assert expected and parent.tolist() == expected

    def test_mask_length_mismatch(self):
        cloud = spread_cloud(np.random.default_rng(5))
        index = project_to_range_image(cloud, CONFIG)
        with pytest.raises(ValueError, match="mask length"):
            apply_row_mask(cloud, index, np.ones(10, dtype=bool))

    def test_map_is_injective_and_ascending(self):
        cloud = spread_cloud(np.random.default_rng(6))
        index = project_to_range_image(cloud, CONFIG)
        mask = row_mask(CONFIG, SubsampleSpec(mode="random", ratio=0.5), np.random.default_rng(0))
        sub, parent = apply_row_mask(cloud, index, mask)
        assert len(np.unique(parent)) == len(parent)
        assert np.all(np.diff(parent) > 0)
        assert np.array_equal(sub.points, cloud.points[parent])


class TestMakeEnsemble:
    def test_single_identity_trial(self):
        cloud = spread_cloud(np.random.default_rng(7))
        spec = SubsampleSpec(mode="random", ratio=0.5, trials=1, include_identity=True)
        trials = make_ensemble(cloud, CONFIG, spec, np.random.default_rng(0))
        assert len(trials) == 1
        assert trials[0][0] is cloud
        assert np.array_equal(trials[0][1], np.arange(len(cloud)))

    def test_identity_plus_two_random(self):
        cloud = spread_cloud(np.random.default_rng(8))
        spec = SubsampleSpec(mode="random", ratio=0.5, trials=3, include_identity=True)
        trials = make_ensemble(cloud, CONFIG, spec, np.random.default_rng(0))
        assert len(trials) == 3
        assert len(trials[0][0]) == len(cloud)
        for sub, parent in trials[1:]:
            assert len(sub) < len(cloud)
            assert np.array_equal(sub.points, cloud.points[parent])

    def test_fixed_seed_reproduces_ensembles(self):
        cloud = spread_cloud(np.random.default_rng(9))
        spec = SubsampleSpec(mode="random", ratio=0.5, trials=4, include_identity=True)
        a = make_ensemble(cloud, CONFIG, spec, np.random.default_rng(33))
        b = make_ensemble(cloud, CONFIG, spec, np.random.default_rng(33))
        for (ca, pa), (cb, pb) in zip(a, b):
            assert np.array_equal(ca.points, cb.points)
            assert np.array_equal(pa, pb)


def one_hot(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestWithinFrameEnsemble:
    def test_single_identity_prediction_is_unchanged(self):
        rng = np.random.default_rng(10)
        raw = rng.uniform(0.1, 1.0, size=(20, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        pred = PredictionMatrix(probs=probs, point_index=np.arange(20))
        out = within_frame_ensemble([pred], 20)
        assert np.array_equal(out.probs, probs)

    def test_two_appearance_mean(self):
        a = PredictionMatrix(probs=[[0.2, 0.8]], point_index=[0])
        b = PredictionMatrix(probs=[[0.4, 0.6]], point_index=[0])
        out = within_frame_ensemble([a, b], 1)
        assert np.allclose(out.probs, [[0.3, 0.7]], atol=1e-12)

    def test_matches_per_point_accumulation_oracle(self):
        rng = np.random.default_rng(11)
        parent = 100
        k = 4
        trials = []
        for _ in range(5):
            n = rng.integers(40, parent + 1)
            idx = rng.choice(parent, size=n, replace=False)
            raw = rng.uniform(0.05, 1.0, size=(n, k))
            trials.append(PredictionMatrix(probs=raw / raw.sum(1, keepdims=True), point_index=idx))
        # guarantee full coverage with an identity trial
        raw = rng.uniform(0.05, 1.0, size=(parent, k))
        trials.insert(0, PredictionMatrix(probs=raw / raw.sum(1, keepdims=True),
                                          point_index=np.arange(parent)))

        sums = np.zeros((parent, k))
        counts = np.zeros(parent)
        for pred in trials:
            for row, point in enumerate(pred.point_index):
                sums[point] += pred.probs[row]
                counts[point] += 1
        expected = sums / counts[:, None]

        out = within_frame_ensemble(trials, parent)
        assert np.abs(out.probs - expected).max() < 1e-9
        assert np.array_equal(out.probs, within_frame_add_at(trials, parent))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(12)
        parent = 30
        trials = []
        for _ in range(4):
            raw = rng.uniform(0.05, 1.0, size=(parent, 2))
            trials.append(PredictionMatrix(probs=raw / raw.sum(1, keepdims=True),
                                           point_index=np.arange(parent)))
        fwd = within_frame_ensemble(trials, parent)
        rev = within_frame_ensemble(trials[::-1], parent)
        assert np.abs(fwd.probs - rev.probs).max() < 1e-12

    def test_rows_stay_on_simplex(self):
        rng = np.random.default_rng(13)
        parent = 50
        trials = []
        for _ in range(3):
            raw = rng.uniform(0.01, 1.0, size=(parent, 5))
            trials.append(PredictionMatrix(probs=raw / raw.sum(1, keepdims=True),
                                           point_index=np.arange(parent)))
        out = within_frame_ensemble(trials, parent)
        assert out.probs.min() >= 0.0
        assert np.abs(out.probs.sum(axis=1) - 1.0).max() < 1e-5

    def test_uncovered_point_is_an_error(self):
        pred = PredictionMatrix(probs=[[1.0, 0.0]], point_index=[0])
        with pytest.raises(ValueError, match="zero predictions"):
            within_frame_ensemble([pred], 2)

    def test_negative_index_is_an_error(self):
        # it would otherwise wrap around to the last point
        with pytest.raises(ValueError, match="nonnegative"):
            within_frame_ensemble([PredictionMatrix(probs=[[1, 0], [0, 1], [.5, .5]],
                                                    point_index=[0, -1, 1])], 3)

    def test_out_of_range_index_is_an_error(self):
        pred = PredictionMatrix(probs=[[1.0, 0.0]], point_index=[5])
        with pytest.raises(ValueError, match="exceeds"):
            within_frame_ensemble([pred], 2)


class TestPredictionMatrixFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        raw = rng.uniform(0.05, 1.0, size=(64, 3)).astype(np.float32).astype(np.float64)
        probs = raw / raw.sum(1, keepdims=True)
        # quantize to float32 so the round trip is exact
        probs = probs.astype(np.float32).astype(np.float64)
        pred = PredictionMatrix(probs=probs, point_index=rng.permutation(64))
        path = tmp_path / "pred.lprb"
        write_prediction_matrix(pred, path)
        back = read_prediction_matrix(path)
        assert np.array_equal(back.probs, probs)
        assert np.array_equal(back.point_index, pred.point_index)

    def test_header_layout(self, tmp_path):
        pred = PredictionMatrix(probs=[[1.0, 0.0]], point_index=[0])
        path = tmp_path / "pred.lprb"
        write_prediction_matrix(pred, path)
        blob = path.read_bytes()
        assert blob[:4] == b"LPRB"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 0
        assert len(blob) == 16 + 4 * 2 + 4

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.lprb"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(FileFormatError, match="byte offset 0"):
            read_prediction_matrix(path)

    def test_truncated_body_reports_offset(self, tmp_path):
        pred = PredictionMatrix(probs=[[1.0, 0.0]], point_index=[0])
        path = tmp_path / "short.lprb"
        write_prediction_matrix(pred, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FileFormatError, match="byte offset"):
            read_prediction_matrix(path)

    def test_off_simplex_values_name_their_offset(self, tmp_path):
        probs = np.full((4, 3), 0.25)
        probs[:, 0] = 0.5
        path = tmp_path / "pred.lprb"
        write_prediction_matrix(PredictionMatrix(probs, np.arange(4)), path)
        blob = bytearray(path.read_bytes())
        blob[19] ^= 0x80  # the sign bit of row 0's first value
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="negative probability at byte offset 16$"):
            read_prediction_matrix(path)
        blob[19] ^= 0x80
        blob[16 + 4 * 3 * 2 + 7] ^= 0x01  # the exponent of row 2's second value
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match=f"does not sum to 1 within 1e-05 at byte offset {16 + 4 * 3 * 2}$"):
            read_prediction_matrix(path)

    @pytest.mark.parametrize("index, row", [([2, 0, 0, 1], 2), ([3, 1, 1, 1], 2), ([0, 9, 2, 2], 1)])
    def test_scan_index_names_the_first_repeated_or_out_of_range_row(self, tmp_path, index, row):
        path = tmp_path / "pred.lprb"
        write_prediction_matrix(PredictionMatrix(np.full((4, 2), 0.5), index), path)
        with pytest.raises(FileFormatError, match=f"index {index[row]} at byte offset {16 + 4 * 8 + 4 * row} "):
            read_scan_prediction(path)

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PredictionMatrix(probs=[[0.7, 0.7]], point_index=[0])
        with pytest.raises(ValueError, match="nonnegative"):
            PredictionMatrix(probs=[[1.2, -0.2]], point_index=[0])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_rows_rejected(self):
        for row in ([np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [np.inf, -np.inf]):
            with pytest.raises(ValueError, match="finite"):
                PredictionMatrix(probs=[[0.5, 0.5], row], point_index=[0, 1])
