"""Tests for confusion matrices, IoU, and static/dynamic condensation."""

import numpy as np
import pytest

from lidar_ensemble.metrics import (
    ConfusionMatrix,
    condense_static_dynamic,
    confusion,
    iou,
    write_confusion_csv,
    write_iou_csv,
)


class TestConfusion:
    def test_perfect_predictions_fill_diagonal(self):
        truth = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        matrix = confusion(truth, truth, 3)
        assert np.trace(matrix.counts) == 10
        assert matrix.counts.sum() == 10

    def test_all_ignored_gives_zero_matrix(self):
        pred = np.array([0, 1, 2])
        truth = np.array([9, 9, 9])
        matrix = confusion(pred, truth, 3, ignore_label=9)
        assert matrix.counts.sum() == 0

    def test_hand_built_case(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([0, 1, 1, 1, 0, 2])
        matrix = confusion(pred, truth, 3)
        expected = np.array([
            [1, 1, 0],
            [0, 2, 0],
            [1, 0, 1],
        ])
        assert np.array_equal(matrix.counts, expected)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion([3], [0], 3)
        with pytest.raises(ValueError, match="out of range"):
            confusion([0], [5], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            confusion([0, 1], [0], 3)

    def test_additive_over_shards(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, 1000)
        truth = rng.integers(0, 4, 1000)
        whole = confusion(pred, truth, 4)
        parts = confusion(pred[:300], truth[:300], 4).counts + confusion(pred[300:], truth[300:], 4).counts
        assert np.array_equal(whole.counts, parts)


class TestIou:
    def test_perfect_predictions_score_100(self):
        truth = np.array([0, 1, 2] * 5)
        report = iou(confusion(truth, truth, 3))
        assert np.all(report.iou == 100.0)
        assert report.miou == 100.0

    def test_half_zero_quarter_case(self):
        # class 0: one hit, one miss counted as a false positive of class 1
        matrix = ConfusionMatrix(np.array([[1, 1], [0, 0]]))
        report = iou(matrix)
        assert report.iou[0] == pytest.approx(50.0)
        assert report.iou[1] == pytest.approx(0.0)
        assert report.miou == pytest.approx(25.0)

    def test_zero_denominator_class_excluded_and_flagged(self):
        matrix = ConfusionMatrix(np.array([[4, 0, 0], [0, 2, 0], [0, 0, 0]]))
        report = iou(matrix)
        assert np.isnan(report.iou[2])
        assert report.undefined == (2,)
        assert report.miou == pytest.approx(100.0)

    def test_two_decimal_rendering(self, tmp_path):
        # 7027 of 16795 scored points hit: IoU 41.8398..., shown as 41.84
        counts = np.zeros((2, 2), dtype=np.int64)
        counts[0, 0] = 7027
        counts[0, 1] = 5000
        counts[1, 0] = 4768
        counts[1, 1] = 100000
        report = iou(ConfusionMatrix(counts))
        assert f"{report.iou[0]:.2f}" == "41.84"
        write_iou_csv(report, tmp_path / "report.csv")
        rendered = (tmp_path / "report.csv").read_text()
        assert "41.84" in rendered
        assert rendered.splitlines()[-1].startswith("miou,")

    def test_invariant_under_class_relabeling(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 4, 500)
        truth = rng.integers(0, 4, 500)
        base = iou(confusion(pred, truth, 4))
        perm = np.array([2, 0, 3, 1])
        permuted = iou(confusion(perm[pred], perm[truth], 4))
        assert np.allclose(np.sort(base.iou), np.sort(permuted.iou), atol=1e-12)
        assert base.miou == pytest.approx(permuted.miou)

    def test_ignore_class_excluded_from_mean(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        matrix = confusion(pred, truth, 2, ignore_label=1)
        report = iou(matrix)
        assert np.isnan(report.iou[1])
        assert report.miou == pytest.approx(100.0)


class TestCondense:
    GROUPING = {0: "static", 1: "static", 2: "dynamic"}

    def test_all_static_correct(self):
        truth = np.zeros(10, dtype=int)
        matrix = confusion(truth, truth, 3)
        condensed = condense_static_dynamic(matrix, self.GROUPING)
        assert np.array_equal(condensed.normalized, [[1.0, 0.0], [0.0, 0.0]])
        assert condensed.empty_rows == ("dynamic",)

    def test_identity_confusion_condenses_to_identity(self):
        truth = np.array([0, 1, 2, 2])
        matrix = confusion(truth, truth, 3)
        condensed = condense_static_dynamic(matrix, self.GROUPING)
        assert np.array_equal(condensed.normalized, np.eye(2))

    def test_hand_built_fractions_and_mass(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 10, 2000)
        truth = rng.integers(0, 10, 2000)
        grouping = {c: ("static" if c < 6 else "dynamic") for c in range(10)}
        matrix = confusion(pred, truth, 10)
        condensed = condense_static_dynamic(matrix, grouping)
        # mass is preserved
        assert condensed.counts.sum() == matrix.counts.sum()
        # manual tally
        manual = np.zeros((2, 2), dtype=np.int64)
        for t in range(10):
            for p in range(10):
                manual[int(t >= 6), int(p >= 6)] += matrix.counts[t, p]
        assert np.array_equal(condensed.counts, manual)
        rows = manual.sum(axis=1, keepdims=True)
        assert np.abs(condensed.normalized - manual / rows).max() < 1e-12
        assert np.allclose(condensed.normalized.sum(axis=1), 1.0)

    def test_partial_grouping_rejected(self):
        matrix = confusion([0, 1], [0, 1], 3)
        with pytest.raises(ValueError, match="cover"):
            condense_static_dynamic(matrix, {0: "static", 1: "dynamic"})

    def test_ignore_class_needs_no_group(self):
        matrix = confusion([0, 1], [0, 1], 3, ignore_label=2)
        condensed = condense_static_dynamic(matrix, {0: "static", 1: "dynamic"})
        assert condensed.counts.sum() == 2


class TestReports:
    def test_iou_csv(self, tmp_path):
        truth = np.array([0, 1, 0, 1])
        report = iou(confusion(truth, truth, 2))
        path = tmp_path / "report.csv"
        write_iou_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class,iou,support"
        assert lines[1] == "0,100.00,2"
        assert lines[-1] == "miou,100.00,4"

    def test_confusion_csv(self, tmp_path):
        matrix = ConfusionMatrix(np.array([[3, 1], [0, 2]]))
        path = tmp_path / "confusion.csv"
        write_confusion_csv(matrix, path)
        assert path.read_text().strip().splitlines() == ["3,1", "0,2"]

    def test_json_summary(self, tmp_path):
        import json

        from lidar_ensemble.metrics import write_iou_summary

        matrix = ConfusionMatrix(np.array([[4, 0, 0], [0, 2, 0], [0, 0, 0]]))
        report = iou(matrix)
        path = tmp_path / "summary.json"
        write_iou_summary(report, path)
        payload = json.loads(path.read_text())
        assert payload["miou"] == 100.0
        assert payload["per_class"] == [100.0, 100.0, None]
        assert payload["undefined_classes"] == [2]
        assert payload["support"] == [4, 2, 0]
