"""Confusion matrices, per-class IoU, and static/dynamic condensation."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts, rows ground truth, columns prediction."""

    counts: np.ndarray
    ignore_label: int | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be square, got {counts.shape}")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]


def confusion(pred: np.ndarray, truth: np.ndarray, num_classes: int,
              ignore_label: int | None = None) -> ConfusionMatrix:
    """Tally predictions against ground truth; truth == ignore_label is skipped."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    if ignore_label is not None:
        keep = truth != ignore_label
        pred, truth = pred[keep], truth[keep]
    for name, arr in (("pred", pred), ("truth", truth)):
        if len(arr) and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} labels out of range [0, {num_classes})")
    counts = np.bincount(truth * num_classes + pred, minlength=num_classes * num_classes)
    return ConfusionMatrix(counts.reshape(num_classes, num_classes), ignore_label)


@dataclass(frozen=True)
class IouReport:
    """Per-class IoU percentages and their unweighted mean.

    iou holds nan for classes excluded from the mean: zero-denominator
    classes (listed in undefined) and the ignore class.
    """

    iou: np.ndarray
    miou: float
    support: np.ndarray
    undefined: tuple

    def render_summary(self) -> str:
        lines = []
        for c in range(len(self.iou)):
            val = "undefined" if np.isnan(self.iou[c]) else f"{self.iou[c]:.2f}"
            lines.append(f"class {c}: iou {val} support {int(self.support[c])}")
        lines.append(f"mIoU {self.miou:.2f}")
        return "\n".join(lines)


def iou(matrix: ConfusionMatrix) -> IouReport:
    """IoU_c = TP / (TP + FP + FN) in percent; undefined classes are
    excluded from the mean rather than scored zero."""
    counts = matrix.counts.astype(np.float64)
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    denom = tp + fp + fn
    vals = np.full(matrix.num_classes, np.nan)
    undefined = []
    for c in range(matrix.num_classes):
        if c == matrix.ignore_label:
            continue
        if denom[c] == 0:
            undefined.append(c)
            continue
        vals[c] = 100.0 * tp[c] / denom[c]
    defined = ~np.isnan(vals)
    miou = float(vals[defined].mean()) if defined.any() else float("nan")
    return IouReport(iou=vals, miou=miou, support=matrix.counts.sum(axis=1), undefined=tuple(undefined))


@dataclass(frozen=True)
class CondensedMatrix:
    """2x2 static/dynamic condensation: raw grouped counts and row-normalized
    fractions (empty rows stay zero and are listed in empty_rows)."""

    counts: np.ndarray
    normalized: np.ndarray
    empty_rows: tuple

    GROUPS = ("static", "dynamic")


def condense_static_dynamic(matrix: ConfusionMatrix, grouping: dict) -> CondensedMatrix:
    """Collapse a confusion matrix by a total class -> "static"/"dynamic" map."""
    group_idx = np.empty(matrix.num_classes, dtype=np.int64)
    for c in range(matrix.num_classes):
        if c == matrix.ignore_label:
            group_idx[c] = 0
            continue
        if c not in grouping:
            raise ValueError(f"grouping does not cover class {c}")
        name = grouping[c]
        if name not in CondensedMatrix.GROUPS:
            raise ValueError(f"unknown group {name!r} for class {c}")
        group_idx[c] = CondensedMatrix.GROUPS.index(name)

    counts = np.zeros((2, 2), dtype=np.int64)
    for t in range(matrix.num_classes):
        if t == matrix.ignore_label:
            continue
        for p in range(matrix.num_classes):
            if p == matrix.ignore_label:
                continue
            counts[group_idx[t], group_idx[p]] += matrix.counts[t, p]

    normalized = np.zeros((2, 2))
    empty = []
    for r in range(2):
        row_sum = counts[r].sum()
        if row_sum == 0:
            empty.append(CondensedMatrix.GROUPS[r])
        else:
            normalized[r] = counts[r] / row_sum
    return CondensedMatrix(counts=counts, normalized=normalized, empty_rows=tuple(empty))


def write_iou_csv(report: IouReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "iou", "support"])
        for c in range(len(report.iou)):
            val = "" if np.isnan(report.iou[c]) else f"{report.iou[c]:.2f}"
            writer.writerow([c, val, int(report.support[c])])
        writer.writerow(["miou", f"{report.miou:.2f}", int(report.support.sum())])


def write_confusion_csv(matrix: ConfusionMatrix, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in matrix.counts:
            writer.writerow([int(v) for v in row])


def write_iou_summary(report: IouReport, path) -> None:
    """JSON text summary mirroring the CSV, with undefined classes null."""
    payload = {
        "miou": round(report.miou, 2),
        "per_class": [
            None if np.isnan(report.iou[c]) else round(float(report.iou[c]), 2)
            for c in range(len(report.iou))
        ],
        "support": [int(s) for s in report.support],
        "undefined_classes": list(report.undefined),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
