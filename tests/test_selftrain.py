"""Tests for the self-training orchestration: mock predictors, pseudo-label
generation, CBST selection, the adaptation loop, and artifact files."""

import dataclasses
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidar_ensemble import phi_layout, selftrain
from lidar_ensemble.aggregate import AggregationSpec, LamKernel, UniformKernel
from lidar_ensemble.errors import FileFormatError
from lidar_ensemble.geometry import PointCloud
from lidar_ensemble.lam import (TrainConfig, initialize_lam_params, save_lam_params, train_lam,
                                 weight_histograms)
from lidar_ensemble.selftrain import (
    AdaptationConfig,
    AdaptationError,
    CbstConfig,
    HeightThresholdRule,
    LidarSequence,
    MockPredictor,
    NoisyPredictor,
    Predictor,
    PseudoLabelSet,
    RadialBandsRule,
    apply_cbst,
    build_lam_training_set,
    cbst_select,
    cross_frame_refine,
    frame_neighborhoods,
    generate_refined_predictions,
    load_labels,
    load_selection_mask,
    noop_student_hook,
    run_adaptation,
    save_labels,
    save_selection_mask,
    sequence_sensor_range,
    within_frame_predictions,
    write_manifest,
)
from lidar_ensemble.subsample import PredictionMatrix, SubsampleSpec
from lidar_ensemble.synth import HEIGHT_THRESHOLDS, SyntheticSceneSpec, generate_sequence
from tests.conftest import traced
from tests.oracles import (IntensityPredictor, PointKeyedNoise, concatenated_training_set, keep_labels,
                           keep_pairs, keep_refined, phi_matrix, pooled_weight_histograms,
                           refine_labels_unblocked, sensor_config, train_lam_lists, training_lists)


def identity_config(k=8, window=6):
    return AdaptationConfig(
        sensor=sensor_config(),
        subsample=SubsampleSpec(mode="random", ratio=0.5, trials=1, include_identity=True),
        aggregation=AggregationSpec(kernel=UniformKernel(), k=k, epsilon=None, window=window, stride=1),
        cbst=CbstConfig(portion=1.0),
    )


class TestMockPredictors:
    def test_height_threshold_classes(self):
        predictor = MockPredictor(HeightThresholdRule((0.0,)))
        cloud = PointCloud(points=np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]))
        pred = predictor(cloud)
        assert pred.probs.argmax(axis=1).tolist() == [0, 1]
        assert predictor.num_classes == 2

    def test_radial_bands_cycle(self):
        predictor = MockPredictor(RadialBandsRule(1.0, 3))
        pts = np.array([[0.5, 0.0, 0.0], [1.5, 0.0, 0.0], [2.5, 0.0, 0.0], [3.5, 0.0, 0.0]])
        pred = predictor(PointCloud(points=pts))
        assert pred.probs.argmax(axis=1).tolist() == [0, 1, 2, 0]

    def test_zero_flip_rate_matches_base(self):
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        noisy = NoisyPredictor(base, 0.0, 0.0, np.inf, seed=1)
        cloud = PointCloud(points=np.random.default_rng(0).normal(size=(100, 3)))
        assert np.array_equal(noisy(cloud).probs, base(cloud).probs)

    def test_flip_rate_monte_carlo(self):
        base = MockPredictor(HeightThresholdRule((0.0,)))
        noisy = NoisyPredictor(base, 0.3, 0.3, np.inf, seed=2)
        cloud = PointCloud(points=np.random.default_rng(1).normal(size=(100000, 3)))
        flips = (noisy(cloud).probs.argmax(1) != base(cloud).probs.argmax(1)).mean()
        assert abs(flips - 0.3) < 0.01

    def test_noise_is_pure_function_of_input(self):
        base = MockPredictor(HeightThresholdRule((0.0,)))
        noisy = NoisyPredictor(base, 0.5, 0.5, np.inf, seed=3)
        cloud = PointCloud(points=np.random.default_rng(2).normal(size=(500, 3)), frame_id=4)
        assert np.array_equal(noisy(cloud).probs, noisy(cloud).probs)
        other = PointCloud(points=cloud.points, frame_id=5)
        assert not np.array_equal(noisy(cloud).probs, noisy(other).probs)

    def test_range_gated_rates(self):
        base = MockPredictor(HeightThresholdRule((0.0,)))
        gated = NoisyPredictor(base, near_rate=0.0, far_rate=1.0, range_threshold=10.0, seed=4)
        rng = np.random.default_rng(3)
        near = rng.normal(size=(200, 3))
        far = rng.normal(size=(200, 3)) + np.array([100.0, 0.0, 0.0])
        pts = np.concatenate([near, far])
        pred = gated(PointCloud(points=pts))
        base_pred = base(PointCloud(points=pts))
        flipped = pred.probs.argmax(1) != base_pred.probs.argmax(1)
        assert not flipped[:200].any()
        assert flipped[200:].all()

    @pytest.mark.parametrize("near_rate, far_rate", [(0.0, 1.0), (1.0, 0.0)])
    def test_point_at_the_range_threshold_gets_the_near_rate(self, near_rate, far_rate):
        base = MockPredictor(HeightThresholdRule((0.0,)))
        gated = NoisyPredictor(base, near_rate=near_rate, far_rate=far_rate, range_threshold=5.0, seed=4)
        cloud = PointCloud(points=np.array([[3.0, 4.0, 0.0]]))  # exactly 5 m from the sensor
        flipped = gated(cloud).probs.argmax(1) != base(cloud).probs.argmax(1)
        assert flipped.tolist() == [near_rate == 1.0]

    def test_equal_rates_ignore_the_threshold(self):
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        cloud = PointCloud(points=np.random.default_rng(4).normal(scale=10.0, size=(2000, 3)), frame_id=2)
        ranges = np.linalg.norm(cloud.points, axis=1)
        assert (ranges <= 10.0).any() and (ranges > 10.0).any()
        preds = [NoisyPredictor(base, 0.3, 0.3, threshold, seed=6)(cloud)
                 for threshold in (0.0, 10.0, np.inf)]
        assert (preds[0].probs.argmax(1) != base(cloud).probs.argmax(1)).any()
        for pred in preds[1:]:
            assert pred.probs.tobytes() == preds[0].probs.tobytes()
            assert pred.point_index.tobytes() == preds[0].point_index.tobytes()

    def test_rows_are_one_hot_at_the_rule_label(self):
        predictor = MockPredictor(HeightThresholdRule((0.0,)))
        cloud = PointCloud(points=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        pred = predictor(cloud)
        assert pred.probs.argmax(axis=1).tolist() == [1, 0]
        assert pred.probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]


class TestCbst:
    def test_portion_one_selects_everything(self):
        labels = np.array([0, 0, 1, 1, 1])
        conf = np.array([0.9, 0.1, 0.8, 0.5, 0.3])
        assert cbst_select(labels, conf, CbstConfig(portion=1.0)).all()

    def test_top_fifth_of_five(self):
        labels = np.zeros(5, dtype=int)
        conf = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        selected = cbst_select(labels, conf, CbstConfig(portion=0.2))
        assert np.array_equal(selected, [True, False, False, False, False])

    def test_exact_ceil_counts_without_ties(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            sizes = rng.integers(1, 200, size=4)
            labels = np.concatenate([np.full(n, c) for c, n in enumerate(sizes)])
            conf = rng.permutation(len(labels)) / len(labels)  # all distinct
            selected = cbst_select(labels, conf, CbstConfig(portion=0.2))
            for c, n in enumerate(sizes):
                expected = -(-n // 5)  # ceil(n/5) in exact integer arithmetic
                assert selected[labels == c].sum() == expected

    def test_portion_times_count_a_rounding_error_above_an_integer(self):
        # 0.28 * 25 is 7.000000000000001 in floating point; the class keeps 7
        labels = np.zeros(25, dtype=int)
        conf = np.linspace(0.99, 0.01, 25)
        assert 0.28 * 25 > 7
        assert cbst_select(labels, conf, CbstConfig(portion=0.28)).sum() == 7

    def test_tiny_portion_keeps_one_point_per_class(self):
        labels = np.array([0, 0, 0, 1, 1, 2])
        conf = np.array([0.9, 0.5, 0.7, 0.4, 0.6, 0.3])
        selected = cbst_select(labels, conf, CbstConfig(portion=1e-12))
        assert selected.tolist() == [True, False, False, False, True, True]

    def test_ties_at_threshold_all_selected(self):
        labels = np.zeros(5, dtype=int)
        conf = np.array([0.9, 0.9, 0.9, 0.1, 0.1])
        selected = cbst_select(labels, conf, CbstConfig(portion=0.2))
        assert selected.sum() == 3

    def test_never_selects_below_threshold(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, 300)
        conf = rng.random(300)
        selected = cbst_select(labels, conf, CbstConfig(portion=0.4))
        for c in range(3):
            members = labels == c
            threshold = conf[members & selected].min()
            assert not (members & ~selected & (conf > threshold)).any()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            cbst_select(np.zeros(0, dtype=int), np.zeros(0), CbstConfig(portion=0.5))

    def test_portion_validation(self):
        with pytest.raises(ValueError):
            CbstConfig(portion=0.0)
        with pytest.raises(ValueError):
            CbstConfig(portion=1.5)


class TestGeneratePseudoLabels:
    def test_identity_pipeline_reproduces_rule_labels(self):
        # single trial, uniform kernel, window 0: argmax of the raw predictor
        spec = SyntheticSceneSpec(num_frames=1, points_per_frame=300, seed=6)
        seq, truths = generate_sequence(spec)
        predictor = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        config = identity_config(window=0)
        _, frames = generate_refined_predictions(seq.scans, seq.poses, predictor, config, keep_labels, seed=0)
        labels = apply_cbst(frames, CbstConfig(portion=1.0))
        assert len(labels) == 1
        assert np.array_equal(labels[0].labels, truths[0])
        assert np.all(labels[0].confidence == 1.0)
        assert labels[0].selected.all()

    def test_refinement_beats_unrefined_under_noise(self):
        spec = SyntheticSceneSpec(num_frames=5, points_per_frame=500, seed=7)
        seq, truths = generate_sequence(spec)
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        noisy = NoisyPredictor(base, 0.3, 0.3, np.inf, seed=8)
        config = AdaptationConfig(
            sensor=sensor_config(),
            subsample=SubsampleSpec(mode="random", ratio=0.5, trials=3, include_identity=True),
            aggregation=AggregationSpec(kernel=UniformKernel(), k=10, epsilon=None, window=5, stride=1),
            cbst=CbstConfig(portion=1.0),
        )
        within, refined = generate_refined_predictions(seq.scans, seq.poses, noisy, config, keep_refined,
                                                       seed=1)
        acc_within = np.mean([(w.probs.argmax(1) == t).mean() for w, t in zip(within, truths)])
        acc_refined = np.mean([(r.probs.argmax(1) == t).mean() for r, t in zip(refined, truths)])
        assert acc_refined > acc_within

    def test_corrupted_frame_repaired_by_clean_neighbors(self):
        # noise on the middle frame only; its clean temporal neighbors fix it
        target_frame = 2
        spec = SyntheticSceneSpec(num_frames=5, points_per_frame=500, seed=17)
        seq, truths = generate_sequence(spec)
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        noisy = NoisyPredictor(base, 0.3, 0.3, np.inf, seed=18)

        class FrameGatedNoise(Predictor):
            num_classes = base.num_classes

            def __call__(self, cloud):
                return noisy(cloud) if cloud.frame_id == target_frame else base(cloud)

        config = AdaptationConfig(
            sensor=sensor_config(),
            subsample=SubsampleSpec(mode="random", ratio=0.5, trials=3, include_identity=True),
            aggregation=AggregationSpec(kernel=UniformKernel(), k=10, epsilon=None, window=5, stride=1),
            cbst=CbstConfig(portion=1.0),
        )
        within, refined = generate_refined_predictions(
            seq.scans, seq.poses, FrameGatedNoise(), config, keep_refined, seed=2)
        truth = truths[target_frame]
        acc_within = (within[target_frame].probs.argmax(1) == truth).mean()
        acc_refined = (refined[target_frame].probs.argmax(1) == truth).mean()
        assert acc_within < 0.95  # the corruption is real
        assert acc_refined > acc_within

    def test_thread_count_does_not_change_results(self):
        spec = SyntheticSceneSpec(num_frames=4, points_per_frame=200, seed=9)
        seq, _ = generate_sequence(spec)
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        noisy = NoisyPredictor(base, 0.2, 0.2, np.inf, seed=10)
        config = identity_config(window=4)
        one = apply_cbst(generate_refined_predictions(seq.scans, seq.poses, noisy, config, keep_labels,
                                                      seed=2, threads=1)[1], config.cbst)
        many = apply_cbst(generate_refined_predictions(seq.scans, seq.poses, noisy, config, keep_labels,
                                                       seed=2, threads=8)[1], config.cbst)
        for a, b in zip(one, many):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.confidence, b.confidence)

    def test_predictor_shape_mismatch_detected(self):
        class BrokenPredictor(MockPredictor):
            def __call__(self, cloud):
                pred = super().__call__(cloud)
                from lidar_ensemble.subsample import PredictionMatrix
                return PredictionMatrix(pred.probs[:-1], pred.point_index[:-1])

        spec = SyntheticSceneSpec(num_frames=1, points_per_frame=50, seed=11)
        seq, _ = generate_sequence(spec)
        broken = BrokenPredictor(HeightThresholdRule((0.0,)))
        with pytest.raises(ValueError, match="shape mismatch"):
            generate_refined_predictions(seq.scans, seq.poses, broken, identity_config(window=0),
                                         keep_refined, seed=0)

    def test_negative_point_index_from_predictor_rejected(self):
        # idx_map[-1] would move the row onto the subsample's last point
        class WrappingPredictor(Predictor):
            num_classes = 2

            def __call__(self, cloud):
                index = np.arange(len(cloud))
                index[-1] = -1
                return PredictionMatrix(np.full((len(cloud), 2), 0.5), index)

        spec = SyntheticSceneSpec(num_frames=1, points_per_frame=50, seed=11)
        seq, _ = generate_sequence(spec)
        with pytest.raises(ValueError, match="nonnegative"):
            within_frame_predictions(seq.scans, WrappingPredictor(), identity_config(window=0))


    def test_repeated_point_index_from_predictor_rejected(self):
        # a subsample trial whose rows all land on point 0 would turn that
        # point's within-frame row into a mix of the trial's rows
        spec = SyntheticSceneSpec(num_frames=1, points_per_frame=50, seed=11)
        seq, _ = generate_sequence(spec)
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))

        class CollapsingPredictor(Predictor):
            num_classes = base.num_classes

            def __call__(self, cloud):
                pred = base(cloud)
                if len(cloud) == len(seq.scans[0]):  # the identity trial
                    return pred
                return PredictionMatrix(pred.probs, np.zeros(len(cloud), dtype=np.int64))

        config = dataclasses.replace(identity_config(window=0), subsample=SubsampleSpec(
            mode="random", ratio=0.5, trials=3, include_identity=True))
        with pytest.raises(ValueError, match="frame 0 does not list each of the .* exactly once"):
            within_frame_predictions(seq.scans, CollapsingPredictor(), config)


class TestRunAdaptation:
    def make_sequence(self, seed=12, frames=3, points=150):
        spec = SyntheticSceneSpec(num_frames=frames, points_per_frame=points, seed=seed)
        return generate_sequence(spec)

    def test_single_iteration_noop_hook_equals_generate(self, tmp_path):
        seq, _ = self.make_sequence()
        predictor = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        config = AdaptationConfig(
            sensor=sensor_config(),
            subsample=SubsampleSpec(mode="random", ratio=0.5, trials=1, include_identity=True),
            aggregation=AggregationSpec(kernel=UniformKernel(), k=8, epsilon=None, window=3, stride=1),
            cbst=CbstConfig(portion=1.0),
            iterations=1,
            seed=5,
        )
        results, _ = run_adaptation(seq, predictor, noop_student_hook, config, tmp_path / "run")
        assert len(results) == 1
        from lidar_ensemble.selftrain import _iteration_seed
        _, frames = generate_refined_predictions(seq.scans, seq.poses, predictor, config, keep_labels,
                                                 seed=_iteration_seed(5, 0), use_intensity=False)
        direct = apply_cbst(frames, CbstConfig(portion=1.0))
        for a, b in zip(results[0], direct):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.confidence, b.confidence)

    def test_intensity_flag_sequence_off_on_on(self, tmp_path):
        seq, _ = self.make_sequence()
        predictor = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        config = AdaptationConfig(
            sensor=sensor_config(),
            subsample=SubsampleSpec(mode="random", ratio=0.5, trials=1, include_identity=True),
            aggregation=AggregationSpec(kernel=UniformKernel(), k=6, epsilon=None, window=2, stride=1),
            cbst=CbstConfig(portion=1.0),
            iterations=3,
        )
        seen = []
        hook_calls = []

        def hook(iteration, labels):
            hook_calls.append(iteration)
            return predictor

        run_adaptation(seq, predictor, hook, config, tmp_path / "run")
        manifest = (tmp_path / "run" / "run_manifest.txt").read_text()
        for it, expected in enumerate(["false", "true", "true"]):
            assert f"iteration_{it:02d}.intensity_used = {expected}" in manifest
        assert hook_calls == [0, 1, 2]

    def test_artifacts_persisted_before_hook_runs(self, tmp_path):
        seq, _ = self.make_sequence()
        predictor = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        config = AdaptationConfig(
            sensor=sensor_config(),
            subsample=SubsampleSpec(mode="random", ratio=0.5, trials=1, include_identity=True),
            aggregation=AggregationSpec(kernel=UniformKernel(), k=6, epsilon=None, window=2, stride=1),
            cbst=CbstConfig(portion=1.0),
            iterations=1,
        )
        out = tmp_path / "run"

        def hook(iteration, labels):
            for frame in range(len(seq.scans)):
                assert (out / "iteration_00" / seq.name / f"{frame:06d}.label").exists()
                assert (out / "iteration_00" / seq.name / f"{frame:06d}.mask").exists()
            raise RuntimeError("student crashed")

        with pytest.raises(AdaptationError, match="iteration 0"):
            run_adaptation(seq, predictor, hook, config, out)

    def test_replay_is_byte_identical(self, tmp_path):
        seq, _ = self.make_sequence()
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        noisy = NoisyPredictor(base, 0.25, 0.25, np.inf, seed=13)
        config = AdaptationConfig(
            sensor=sensor_config(),
            subsample=SubsampleSpec(mode="random", ratio=0.5, trials=2, include_identity=True),
            aggregation=AggregationSpec(kernel=UniformKernel(), k=8, epsilon=None, window=3, stride=1),
            cbst=CbstConfig(portion=0.5),
            iterations=1,
            seed=99,
        )
        run_adaptation(seq, noisy, noop_student_hook, config, tmp_path / "a")
        run_adaptation(seq, noisy, noop_student_hook, config, tmp_path / "b")
        files_a = sorted((tmp_path / "a").rglob("*"))
        files_b = sorted((tmp_path / "b").rglob("*"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            if fa.is_file():
                assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_cbst_masks_written(self, tmp_path):
        seq, _ = self.make_sequence()
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        noisy = NoisyPredictor(base, 0.3, 0.3, np.inf, seed=14)
        config = AdaptationConfig(
            sensor=sensor_config(),
            subsample=SubsampleSpec(mode="random", ratio=0.5, trials=1, include_identity=True),
            aggregation=AggregationSpec(kernel=UniformKernel(), k=8, epsilon=None, window=3, stride=1),
            cbst=CbstConfig(portion=0.2),
            iterations=1,
        )
        results, _ = run_adaptation(seq, noisy, noop_student_hook, config, tmp_path / "run")
        label_sets = results[0]
        total = sum(len(ls.labels) for ls in label_sets)
        selected = sum(int(ls.selected.sum()) for ls in label_sets)
        assert 0 < selected < total
        mask = load_selection_mask(tmp_path / "run" / "iteration_00" / seq.name / "000000.mask")
        assert np.array_equal(mask, label_sets[0].selected)

    def test_held_bytes_per_point_do_not_grow_with_k(self, tmp_path):
        # once refined, a frame is its labels and confidences (and, at
        # iteration 0, its pair records), none of which has a K term; a
        # refined (N, K) float64 matrix kept per frame would add 128 bytes
        # per point from K 3 to K 19
        seq, _ = self.make_sequence(frames=3, points=400)
        points = sum(len(scan) for scan in seq.scans)
        held = {}
        for k_classes in (3, 19):
            rule = HeightThresholdRule(tuple(np.linspace(-1.5, 3.0, k_classes - 1)))
            config = AdaptationConfig(
                sensor=sensor_config(),
                subsample=SubsampleSpec(mode="random", ratio=0.5, trials=1, include_identity=True),
                aggregation=AggregationSpec(kernel=UniformKernel(), k=8, epsilon=None, window=2, stride=1),
                cbst=CbstConfig(portion=0.5),
            )

            def hook(iteration, label_sets):
                # bytes traced since traced() started, which traced nothing
                held[k_classes] = tracemalloc.get_traced_memory()[0]

            traced(lambda: run_adaptation(seq, MockPredictor(rule), hook, config, tmp_path / f"k{k_classes}"))
        assert held[19] - held[3] <= 4 * points, {k: b / points for k, b in held.items()}


class TestIntensityPolicy:
    """Iteration 0 hides intensity from the teacher, and later iterations
    show it to the student hook's predictor. At window 0 the labels are
    the within-frame argmax, so they show what the predictor saw."""

    def test_iteration_0_gets_height_labels_and_iteration_1_intensity_labels(self, tmp_path):
        seq, _ = generate_sequence(SyntheticSceneSpec(num_frames=2, points_per_frame=300, seed=8))
        predictor = IntensityPredictor()
        config = dataclasses.replace(identity_config(window=0), iterations=2)
        results, _ = run_adaptation(seq, predictor, lambda iteration, labels: predictor, config,
                                    tmp_path / "run")
        for scan, first, second in zip(seq.scans, *results):
            height, intensity = predictor.labels(scan.without_intensity()), predictor.labels(scan)
            assert not np.array_equal(height, intensity)
            assert np.array_equal(first.labels, height)
            assert np.array_equal(second.labels, intensity)


class TestMetamorphicRelations:
    """Relations of the uniform kernel that rest on no formula an oracle
    shares with the code: with eps and with kNN, shuffling each scan's
    points shuffles the refined rows, and permuting the classes permutes
    them, bit for bit. The noise is keyed to each point's own bytes, so
    it does not follow the point order."""

    @staticmethod
    def refined(scans, poses, predictor, epsilon):
        config = dataclasses.replace(
            identity_config(),
            subsample=SubsampleSpec(mode="random", ratio=0.5, trials=2, include_identity=True),
            aggregation=AggregationSpec(kernel=UniformKernel(), k=8, epsilon=epsilon, window=2, stride=1))
        return generate_refined_predictions(scans, poses, predictor, config, keep_refined, seed=4)[1]

    @staticmethod
    def drive(seed):
        seq, _ = generate_sequence(SyntheticSceneSpec(num_frames=3, points_per_frame=200, seed=seed))
        return seq

    @pytest.mark.parametrize("epsilon", [None, 0.5], ids=["knn", "eps"])
    @settings(max_examples=5)
    @given(seed=st.integers(0, 2 ** 16), noise_seed=st.integers(0, 2 ** 16))
    def test_shuffling_each_scan_shuffles_the_refined_rows(self, epsilon, seed, noise_seed):
        seq = self.drive(seed)
        rng = np.random.default_rng(noise_seed)
        orders = [rng.permutation(len(scan)) for scan in seq.scans]
        shuffled = [PointCloud(scan.points[order], scan.intensity[order], scan.frame_id)
                    for scan, order in zip(seq.scans, orders)]
        predictor = PointKeyedNoise(MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS)), seed=noise_seed)
        want = self.refined(seq.scans, seq.poses, predictor, epsilon)
        got = self.refined(shuffled, seq.poses, predictor, epsilon)
        for a, b, order in zip(want, got, orders):
            assert np.array_equal(b.probs, a.probs[order])

    @pytest.mark.parametrize("epsilon", [None, 0.5], ids=["knn", "eps"])
    @settings(max_examples=5)
    @given(seed=st.integers(0, 2 ** 16), perm=st.permutations(range(len(HEIGHT_THRESHOLDS) + 1)))
    def test_permuting_the_classes_permutes_the_refined_rows(self, epsilon, seed, perm):
        seq = self.drive(seed)
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        want = self.refined(seq.scans, seq.poses, PointKeyedNoise(base, seed=seed), epsilon)
        got = self.refined(seq.scans, seq.poses, PointKeyedNoise(base, seed=seed, perm=perm), epsilon)
        for a, b in zip(want, got):
            assert np.array_equal(b.probs, a.probs[:, perm])


def random_within(rng, scans, k_classes):
    """A random probability row per point of each scan."""
    out = []
    for scan in scans:
        raw = rng.uniform(0.05, 1.0, size=(len(scan), k_classes))
        out.append(PredictionMatrix(raw / raw.sum(axis=1, keepdims=True), np.arange(len(scan))))
    return out


class TestHistogramPairRecords:
    """Iteration 0's pairs are held as references into the sequence's
    points, and weight_histograms rebuilds the parent's pooled float64
    feature slices from them bit for bit."""

    @settings(max_examples=25)
    @given(frames=st.integers(1, 5), points=st.integers(20, 90), window=st.integers(0, 4),
           stride=st.integers(1, 3), k=st.integers(1, 12),
           epsilon=st.one_of(st.none(), st.floats(0.05, 2.0)), lam_kernel=st.booleans(),
           bins=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
    @example(frames=4, points=60, window=0, stride=1, k=6, epsilon=None, lam_kernel=False, bins=5, seed=0)
    @example(frames=5, points=60, window=4, stride=3, k=8, epsilon=0.5, lam_kernel=True, bins=7, seed=1)
    def test_histograms_match_the_pooled_feature_oracle(self, frames, points, window, stride, k, epsilon,
                                                        lam_kernel, bins, seed):
        rng = np.random.default_rng(seed)
        seq, _ = generate_sequence(SyntheticSceneSpec(num_frames=frames, points_per_frame=points, seed=seed))
        within = random_within(rng, seq.scans, 3)
        kernel = (LamKernel(initialize_lam_params(phi_layout.feature_dim(3), hidden_sizes=(8, 8, 8),
                                                  seed=seed)) if lam_kernel else UniformKernel())
        agg = AggregationSpec(kernel=kernel, k=k, epsilon=epsilon, window=window, stride=stride)
        records = cross_frame_refine(seq.scans, seq.poses, within, agg, keep_pairs)
        features, weights = [], []
        for t in range(frames):
            dense, nbh = frame_neighborhoods(seq.scans, seq.poses, within, t, agg)
            features.append({
                "temporal": phi_layout.temporal_feature(dense.temporal_offset[nbh.indices], dense.window),
                "sensor_distance": dense.sensor_distance[nbh.indices],
                "center_distance": nbh.distances})
            weights.append(refine_labels_unblocked(within[t].probs, dense, nbh, kernel)[1])
        want = pooled_weight_histograms(features, weights, bins)
        got = weight_histograms(records, sequence_sensor_range(seq.scans), window, bins)
        assert list(got) == list(want)
        for name, hs in want.items():
            for field in ("edges", "counts", "mean_weight"):
                assert getattr(got[name], field).tobytes() == getattr(hs, field).tobytes(), (name, field)

    def test_records_hold_at_most_24_bytes_per_pair(self):
        seq, _ = generate_sequence(SyntheticSceneSpec(num_frames=4, points_per_frame=2000, seed=4))
        within = random_within(np.random.default_rng(4), seq.scans, 3)
        agg = AggregationSpec(kernel=UniformKernel(), k=16, epsilon=None, window=2, stride=1)
        records, _, held = traced(lambda: cross_frame_refine(seq.scans, seq.poses, within, agg, keep_pairs))
        pairs = sum(len(r.weights) for r in records)
        assert pairs == 4 * 2000 * 16
        assert held <= 24 * pairs, held / pairs


class TestLamTrainingSet:
    @pytest.mark.filterwarnings("ignore:variance floored:RuntimeWarning")
    def test_equals_per_query_oracle_and_trains_to_its_checkpoint(self, tmp_path):
        # a stride of 2 over a window of 1 keeps only the query's own scan,
        # so every neighborhood holds at least the query itself; with one
        # class ignored, its queries are dropped
        seq, truths = generate_sequence(SyntheticSceneSpec(num_frames=4, points_per_frame=300, seed=23))
        base = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        predictor = NoisyPredictor(base, 0.2, 0.2, np.inf, seed=1)
        config = identity_config(window=1)
        within, _ = generate_refined_predictions(seq.scans, seq.poses, predictor, config, keep_refined,
                                                 seed=0)
        agg = dataclasses.replace(config.aggregation, k=6, epsilon=0.5, stride=2)
        data = build_lam_training_set(seq.scans, seq.poses, within, truths, agg, ignore_label=1)
        phis, probs, labels = training_lists(seq.scans, seq.poses, within, truths, agg, ignore_label=1)
        counts = [int(frame_neighborhoods(seq.scans, seq.poses, within, t, agg)[1].valid_count.min())
                  for t in range(len(seq.scans))]
        assert min(counts) >= 1 and 0 < len(labels) < sum(len(t) for t in truths)
        assert (np.concatenate(truths) == 1).any() and not (labels == 1).any()

        assert len(data) == len(labels) and np.array_equal(data.labels, labels)
        neighbor_labels = phi_layout.neighbor_label_columns(within[0].num_classes)
        for i in range(len(labels)):
            lo, hi = data.offsets[i], data.offsets[i + 1]
            rows = data.phi_rows(slice(lo, hi), np.full(hi - lo, i), np.empty((hi - lo, data.feature_dim)))
            assert rows.tobytes() == phis[i].tobytes()
            assert np.array_equal(rows[:, neighbor_labels], probs[i])
        assert data.offsets[-1] == len(data.neighbor) == len(data.distance)

        train = TrainConfig(learning_rate=1e-2, epochs=2, batch=32, seed=4)
        params, trace = train_lam(data, train)
        ref_params, ref_trace = train_lam_lists(phis, probs, labels, train)
        save_lam_params(params, tmp_path / "ragged.ckpt")
        save_lam_params(ref_params, tmp_path / "lists.ckpt")
        assert trace == ref_trace
        assert (tmp_path / "ragged.ckpt").read_bytes() == (tmp_path / "lists.ckpt").read_bytes()

    @pytest.mark.parametrize("epsilon, ignore_label", [(None, None), (0.5, None), (0.5, 1), (None, 2)])
    def test_two_pass_build_equals_concatenate_oracle(self, epsilon, ignore_label):
        # with eps the neighborhoods are ragged; with an ignore label all of
        # frame 2's queries are ignored, so it adds no rows
        seq, truths = generate_sequence(SyntheticSceneSpec(num_frames=5, points_per_frame=250, seed=29))
        predictor = NoisyPredictor(MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS)), 0.2, 0.2,
                                   np.inf, seed=2)
        within = [predictor(scan) for scan in seq.scans]
        if ignore_label is not None:
            truths[2][:] = ignore_label
        agg = AggregationSpec(kernel=UniformKernel(), k=7, epsilon=epsilon, window=2, stride=1)
        data = build_lam_training_set(seq.scans, seq.poses, within, truths, agg, ignore_label=ignore_label)
        phis, offsets, labels = concatenated_training_set(seq.scans, seq.poses, within, truths, agg,
                                                          ignore_label=ignore_label)
        sizes = np.diff(data.offsets)
        assert len(data) > 0 and (epsilon is None or sizes.min() < sizes.max())
        for got, want in ((phi_matrix(data), phis), (data.offsets, offsets), (data.labels, labels)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_build_holds_the_training_set_once(self):
        # criterion-7 search settings on a 12 x 600 drive: its feature rows
        # would take 8.3 MB. The set holds 16 bytes per pair and its query
        # and point tables; the build peaks at 0.74 times the rows' bytes
        # (mostly one frame's search) and training at batch 32 at 0.45
        # times; an (R, D) array alone would break the bound of 0.9 times
        seq, truths = generate_sequence(SyntheticSceneSpec(num_frames=12, points_per_frame=600, seed=5))
        predictor = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        within = [predictor(scan) for scan in seq.scans]
        agg = AggregationSpec(kernel=UniformKernel(), k=16, epsilon=None, window=20, stride=1)
        data, build_peak, _ = traced(lambda: build_lam_training_set(seq.scans, seq.poses, within, truths, agg))
        _, train_peak, _ = traced(lambda: train_lam(data, TrainConfig(epochs=1, batch=32, seed=0)))
        queries = points = 12 * 600
        pairs = queries * 16
        phi_bytes = pairs * phi_layout.feature_dim(3) * 8
        assert len(data.neighbor) == pairs
        assert data.neighbor.nbytes + data.distance.nbytes <= 16 * pairs
        assert data.offsets.nbytes + data.query.nbytes + data.labels.nbytes == 8 * (3 * queries + 1)
        assert data.probs.nbytes + data.sensor_distance.nbytes + data.frame.nbytes == points * (3 + 2) * 8
        assert build_peak < 0.9 * phi_bytes and train_peak < 0.9 * phi_bytes

    def test_label_length_mismatch_names_the_frame(self):
        seq, truths = generate_sequence(SyntheticSceneSpec(num_frames=3, points_per_frame=80, seed=19))
        predictor = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
        config = identity_config(window=1)
        within, _ = generate_refined_predictions(seq.scans, seq.poses, predictor, config, keep_refined,
                                                 seed=0)
        truths[1] = truths[1][:-5]
        with pytest.raises(FileFormatError, match="frame 1: 75 labels for a 80-point scan"):
            build_lam_training_set(seq.scans, seq.poses, within, truths, config.aggregation)


class TestArtifactFiles:
    def test_label_round_trip_and_reserved_bits(self, tmp_path):
        labels = np.array([0, 1, 2, 65535])
        path = tmp_path / "x.label"
        save_labels(labels, path)
        raw = np.fromfile(path, dtype="<u4")
        assert np.all(raw >> 16 == 0)
        assert np.array_equal(load_labels(path), labels)

    def test_label_range_validation(self, tmp_path):
        with pytest.raises(ValueError, match="16 bits"):
            save_labels(np.array([1 << 16]), tmp_path / "x.label")

    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        for n in (0, 1, 7, 8, 9, 100):
            mask = rng.random(n) < 0.5
            path = tmp_path / f"m{n}.mask"
            save_selection_mask(mask, path)
            assert np.array_equal(load_selection_mask(path), mask)

    def test_mask_header_counts_bits(self, tmp_path):
        path = tmp_path / "m.mask"
        save_selection_mask(np.array([True, False, True]), path)
        blob = path.read_bytes()
        assert int.from_bytes(blob[:4], "little") == 3
        assert len(blob) == 5
        assert blob[4] == 0b101

    def test_truncated_mask_reports_offset(self, tmp_path):
        path = tmp_path / "m.mask"
        save_selection_mask(np.ones(16, dtype=bool), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FileFormatError, match="byte offset"):
            load_selection_mask(path)

    def test_manifest_format(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, [("alpha", "1"), ("beta", "two")])
        assert path.read_text() == "alpha = 1\nbeta = two\n"

    def test_pseudo_label_set_validation(self):
        with pytest.raises(ValueError, match="align"):
            PseudoLabelSet(labels=[0, 1], confidence=[0.5], selected=[True, False])
        with pytest.raises(ValueError, match="confidence"):
            PseudoLabelSet(labels=[0], confidence=[1.5], selected=[True])

    def test_sequence_length_validation(self):
        cloud = PointCloud(points=np.ones((2, 3)))
        with pytest.raises(ValueError, match="equal length"):
            LidarSequence(name="x", scans=[cloud], poses=[])


class TestWorkerPool:
    """selftrain._map runs its items on the calling thread and at most
    min(threads, len(items)) - 1 helpers, in item order, and fails as the
    sequential loop would."""

    @staticmethod
    def run_recording(items, threads, fn=lambda i: i * i):
        ran = {}

        def record(i):
            ran[i] = threading.get_ident()
            time.sleep(0.02)  # lets every worker take an item
            return fn(i)

        return selftrain._map(record, items, threads), ran

    @pytest.mark.parametrize("items,threads", [(6, 1), (6, 2), (2, 3), (9, 4)])
    def test_results_come_back_in_item_order(self, items, threads):
        results, ran = self.run_recording(range(items), threads)
        assert results == [i * i for i in range(items)]
        assert sorted(ran) == list(range(items))

    @pytest.mark.parametrize("items,threads", [(6, 1), (6, 2), (2, 3), (9, 4)])
    def test_calling_thread_is_one_of_the_workers(self, items, threads):
        _, ran = self.run_recording(range(items), threads)
        assert threading.get_ident() in ran.values()
        assert len(set(ran.values())) <= min(threads, items)

    def test_calling_thread_runs_an_item_when_the_helpers_run_first(self, monkeypatch):
        # the fastest helpers there can be: each runs to completion inside
        # start(), before the calling thread reaches its own loop
        class EagerThread(threading.Thread):
            def start(self):
                super().start()
                self.join()

        monkeypatch.setattr(threading, "Thread", EagerThread)
        results, ran = self.run_recording(range(9), 4)
        assert results == [i * i for i in range(9)]
        assert threading.get_ident() in ran.values()

    def test_starts_no_more_helpers_than_items_need(self, monkeypatch):
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountingThread)
        results, ran = self.run_recording(range(3), 64)
        assert results == [0, 1, 4]
        assert len(started) <= 2
        assert len(set(ran.values())) <= 3

    @pytest.mark.parametrize("slow", [1, 2])
    def test_lowest_failing_item_propagates(self, slow):
        def fn(i):
            if i in (1, 2):
                if i == slow:
                    time.sleep(0.05)
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 1"):
            self.run_recording(range(6), 2, fn)

    def test_no_item_starts_after_a_failure(self):
        started = []

        def fn(i):
            started.append(i)
            if i == 0:
                raise ValueError("item 0")
            time.sleep(0.05)
            return i

        with pytest.raises(ValueError, match="item 0"):
            selftrain._map(fn, range(10), 2)
        assert set(started) <= {0, 1}

    def test_every_item_runs_once_under_frequent_switches(self):
        # more workers than cores, switching threads every microsecond: a
        # lost update of the shared counter would run an item twice or never
        runs, out = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: out.append(
                selftrain._map(lambda i: runs.append(i) or -i, range(3000), 8)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert out == [[-i for i in range(3000)]]
        assert sorted(runs) == list(range(3000))
