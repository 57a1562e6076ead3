"""Two-stage self-training orchestration.

Pseudo labels for a target sequence are produced by running the teacher on
a subsample ensemble of every scan (within-frame), refining each scan
against its pose-aligned temporal window (cross-frame), then selecting the
most confident fraction per class (CBST). The segmentation network itself
is external: anything implementing Predictor plugs in, and deterministic
mock predictors ship for testing.
"""

from __future__ import annotations

import abc
import functools
import hashlib
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregate import AggregationSpec, refine_labels
from .errors import FileFormatError
from .geometry import PointCloud, SensorConfig, sensor_range
from .lam import LamTrainingSet, PairRecord, offset_dtype
from .neighbors import SpatialIndex, build_dense_cloud, precompute_neighborhoods
from .subsample import (PredictionMatrix, SubsampleSpec, make_ensemble, read_scan_prediction,
                        within_frame_ensemble)

class AdaptationError(RuntimeError):
    """Raised when the student trainer hook fails; carries the iteration."""


class Predictor(abc.ABC):
    """External segmentation model contract: cloud in, probability rows out.

    Implementations declare their class count; returned rows must lie on
    the simplex with one row per input point, indexed by point_index.
    """

    num_classes: int

    @abc.abstractmethod
    def __call__(self, cloud: PointCloud) -> PredictionMatrix:
        ...


@dataclass(frozen=True)
class PseudoLabelSet:
    """Per-point hard labels, confidences, and the post-CBST selection flags."""

    labels: np.ndarray
    confidence: np.ndarray
    selected: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "confidence", np.asarray(self.confidence, dtype=np.float64))
        object.__setattr__(self, "selected", np.asarray(self.selected, dtype=bool))
        n = len(self.labels)
        if len(self.confidence) != n or len(self.selected) != n:
            raise ValueError("labels, confidence, and selected must align")
        if n and (self.confidence.min() < 0 or self.confidence.max() > 1):
            raise ValueError("confidence must lie in [0, 1]")


@dataclass(frozen=True)
class CbstConfig:
    """Fraction of pseudo labels kept per class, in (0, 1]."""

    portion: float

    def __post_init__(self):
        if not (0.0 < self.portion <= 1.0):
            raise ValueError("portion must be in (0, 1]")


@dataclass(frozen=True)
class AdaptationConfig:
    """Everything one adaptation run needs besides the data and predictors."""

    sensor: SensorConfig
    subsample: SubsampleSpec
    aggregation: AggregationSpec
    cbst: CbstConfig
    iterations: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


# ---------------------------------------------------------------------------
# Pseudo-label generation
# ---------------------------------------------------------------------------

def _scan_rng(seed: int, scan: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, scan)))


def _map(fn, items, threads: int):
    """[fn(item) for item in items], run by the calling thread and
    min(threads, len(items)) - 1 helper threads, each taking the next item
    from one shared counter. After a failure no thread starts another
    item; once the helpers have stopped, the exception of the lowest-index
    failing item is raised, as the sequential loop would raise it."""
    items = list(items)
    results = [None] * len(items)
    errors = {}
    taken = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while not errors:
            with lock:
                i = next(taken, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised by the calling thread below
                errors[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(min(threads, len(items)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def within_frame_predictions(scans, predictor: Predictor, config: AdaptationConfig,
                             seed: int = 0, use_intensity: bool = True, threads: int = 1):
    """Per-scan subsample-ensemble average of the predictor's outputs
    (within-frame ensembling). Deterministic given the seed, independent of
    thread count."""

    def stage_within(t: int) -> PredictionMatrix:
        cloud = scans[t] if use_intensity else scans[t].without_intensity()
        ensemble = make_ensemble(cloud, config.sensor, config.subsample, _scan_rng(seed, t))
        covered = np.zeros(len(cloud), bool)
        for _, idx_map in ensemble:
            covered[idx_map] = True
        if not covered.all():
            raise ValueError(
                f"frame {cloud.frame_id}: {np.count_nonzero(~covered)} of {len(cloud)} points fall in "
                f"no subsample trial; set subsample.include_identity = true, or raise "
                f"subsample.ratio or subsample.trials")
        trials = []
        for sub, idx_map in ensemble:
            pred = predictor(sub)
            if len(pred) != len(sub) or pred.num_classes != predictor.num_classes:
                raise ValueError(
                    f"predictor output shape mismatch on frame {cloud.frame_id}: "
                    f"{len(pred)}x{pred.num_classes} for {len(sub)} points"
                )
            if (np.bincount(pred.point_index, minlength=len(sub)) != 1).any():
                raise ValueError(
                    f"predictor point_index on frame {cloud.frame_id} does not list each of "
                    f"the {len(sub)} subsample points exactly once"
                )
            trials.append(PredictionMatrix(pred.probs, idx_map[pred.point_index]))
        return within_frame_ensemble(trials, len(cloud))

    return _map(stage_within, range(len(scans)), threads)


def frame_neighborhoods(scans, poses, predictions, t: int, agg: AggregationSpec):
    """Neighbors of every point of scan t: the dense cloud of its
    pose-aligned window (scans with their predictions), an index over it
    and each point's k nearest within epsilon. Returns (DenseCloud,
    Neighborhoods)."""
    dense = build_dense_cloud(list(zip(scans, predictions)), poses, t, agg.window, agg.stride)
    nbh = precompute_neighborhoods(SpatialIndex(dense.points), scans[t].points, agg.k, agg.epsilon)
    return dense, nbh


def first_points(scans) -> np.ndarray:
    """Sequence index of each scan's first point, then the point count:
    the points of a sequence are its scans' points, one scan after
    another."""
    return np.cumsum([0] + [len(scan) for scan in scans])


def sequence_sensor_range(scans) -> np.ndarray:
    """Each sequence point's range to its own sensor."""
    return np.concatenate([sensor_range(scan.points) for scan in scans])


def sequence_points(dense, first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The sequence point index of rows of a dense cloud of the sequence
    whose scans start at first (first_points). The cloud holds its frames
    whole and in frame order, so row i of frame f is f's point i - (f's
    first row)."""
    shift = first[:-1] - np.searchsorted(dense.source_frame, np.arange(len(first) - 1))
    return rows + shift[dense.source_frame[rows]]


def cross_frame_refine(scans, poses, within, agg: AggregationSpec, finish, threads: int = 1):
    """Cross-frame ensembling: every scan's prediction refined with agg's
    kernel against its window, one neighbor search per scan. A zero-width
    window refines each scan against itself.

    Returns finish(t, refined, pairs) for every scan t, in frame order,
    called by the worker that handles t; refined() is t's refined
    prediction and pairs() builds t's PairRecord for the weight histograms
    (weight_histograms reads them with sequence_sensor_range and
    agg.window). t is searched and refined at the first call of either,
    once, so a finish that calls neither does no search. Independent of
    thread count.
    """
    first = first_points(scans)

    def refine(t: int):
        @functools.cache
        def searched():
            dense, nbh = frame_neighborhoods(scans, poses, within, t, agg)
            return (dense, nbh, *refine_labels(scans[t].points, within[t].probs, dense, nbh, agg.kernel))

        def pairs() -> PairRecord:
            dense, nbh, _, weights = searched()
            if first[-1] > np.iinfo(np.uint32).max + 1:
                raise ValueError(f"pair records index at most 2^32 sequence points, not {first[-1]}")
            return PairRecord(
                weights=weights, center_distance=nbh.distances,
                neighbor=sequence_points(dense, first, nbh.indices).astype(np.uint32),
                temporal_offset=dense.temporal_offset.take(nbh.indices).astype(offset_dtype(agg.window)))

        return finish(t, lambda: searched()[2], pairs)

    return _map(refine, range(len(scans)), threads)


def generate_refined_predictions(scans, poses, predictor: Predictor, config: AdaptationConfig, finish,
                                 seed: int = 0, use_intensity: bool = True, threads: int = 1):
    """Within-frame then cross-frame ensembling over a whole sequence.

    Returns (within, kept): the per-scan prediction matrices after the
    subsample-ensemble average, and finish(t, refined, pairs) of every scan
    (cross_frame_refine). At a zero-width window refined() is the
    within-frame prediction, so the pipeline with one identity trial and
    window 0 reduces to the raw predictor, and only pairs() searches the
    scan, against itself. Deterministic given the seed, independent of
    thread count.
    """
    agg = config.aggregation
    within = within_frame_predictions(scans, predictor, config, seed=seed,
                                      use_intensity=use_intensity, threads=threads)

    def finish_frame(t, refined, pairs):
        return finish(t, (lambda: within[t]) if agg.window == 0 else refined, pairs)

    return within, cross_frame_refine(scans, poses, within, agg, finish_frame, threads=threads)


def hard_labels(pred: PredictionMatrix):
    """(labels, confidence): each point's most probable class and its
    probability."""
    return pred.probs.argmax(axis=1), pred.probs.max(axis=1)


def cbst_select(labels: np.ndarray, confidence: np.ndarray, config: CbstConfig) -> np.ndarray:
    """Class-balanced selection mask.

    For each class with n points the threshold is the ceil(portion * n)-th
    highest confidence; a point is selected iff its confidence reaches its
    class threshold, so ties at the threshold are all kept.
    """
    labels = np.asarray(labels, dtype=np.int64)
    confidence = np.asarray(confidence, dtype=np.float64)
    if len(labels) == 0:
        raise ValueError("cbst_select requires at least one labeled point")
    selected = np.zeros(len(labels), dtype=bool)
    for c in np.flatnonzero(np.bincount(labels)):
        members = labels == c
        conf_c = np.sort(confidence[members])[::-1]
        rank = max(1, int(np.ceil(config.portion * len(conf_c) - 1e-9)))
        threshold = conf_c[rank - 1]
        selected |= members & (confidence >= threshold)
    return selected


def apply_cbst(frames, config: CbstConfig):
    """Each scan's PseudoLabelSet from its (labels, confidence) pair
    (hard_labels), with the class-balanced selection made over all scans
    pooled."""
    labels, confidence = zip(*frames)
    mask = cbst_select(np.concatenate(labels), np.concatenate(confidence), config)
    selected = np.split(mask, np.cumsum([len(scan) for scan in labels])[:-1])
    return [PseudoLabelSet(*fields) for fields in zip(labels, confidence, selected)]


# ---------------------------------------------------------------------------
# Adaptation loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LidarSequence:
    """One drive: scans plus their frame-to-global poses."""

    name: str
    scans: list
    poses: list

    def __post_init__(self):
        if len(self.scans) != len(self.poses):
            raise ValueError("scans and poses must have equal length")


def run_adaptation(seq: LidarSequence, teacher: Predictor, student_hook, config: AdaptationConfig,
                   out_dir, threads: int = 1):
    """Iterate label generation and student training on one sequence.

    Iteration 0 uses the teacher with intensity dropped; later iterations
    use the predictor returned by student_hook with intensity enabled.
    Labels, masks, and the manifest are persisted (atomically) before the
    hook runs, so a crashed student never loses its inputs. student_hook
    is called as hook(iteration, [PseudoLabelSet]) and returns the next
    predictor (or None to keep the current one).

    Returns the per-iteration [PseudoLabelSet] lists and the PairRecord of
    each scan of iteration 0's refinement, for the weight histograms.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    predictor = teacher
    results = []
    manifest_items = [("iterations", str(config.iterations)), ("seed", str(config.seed))]
    for iteration in range(config.iterations):
        use_intensity = iteration > 0
        manifest_items.append((f"iteration_{iteration:02d}.intensity_used", str(use_intensity).lower()))
        # each frame ends in its labels and confidences in the worker that
        # refined it, and in its PairRecord at iteration 0; no (N, K) rows,
        # within-frame or refined, outlive the call
        kept = generate_refined_predictions(
            seq.scans, seq.poses, predictor, config,
            lambda t, refined, pairs: (hard_labels(refined()), pairs() if iteration == 0 else None),
            seed=_iteration_seed(config.seed, iteration), use_intensity=use_intensity, threads=threads)[1]
        if iteration == 0:
            records = [record for _, record in kept]
        label_sets = apply_cbst([frame for frame, _ in kept], config.cbst)
        results.append(label_sets)
        seq_dir = out_dir / f"iteration_{iteration:02d}" / seq.name
        seq_dir.mkdir(parents=True, exist_ok=True)
        for frame, ls in enumerate(label_sets):
            save_labels(ls.labels, seq_dir / f"{frame:06d}.label")
            save_selection_mask(ls.selected, seq_dir / f"{frame:06d}.mask")
        write_manifest(out_dir / "run_manifest.txt", manifest_items)
        try:
            next_predictor = student_hook(iteration, label_sets)
        except Exception as exc:
            raise AdaptationError(f"student hook failed at iteration {iteration}") from exc
        if next_predictor is not None:
            predictor = next_predictor
    return results, records


def _iteration_seed(seed: int, iteration: int) -> int:
    # the trailing 0 was the sequence index when the loop took several
    # sequences; it stays so that no recorded run changes its seeds
    mix = np.random.SeedSequence(entropy=(seed, iteration, 0))
    return int(mix.generate_state(1, dtype=np.uint64)[0])


def noop_student_hook(iteration, label_sets):
    """Keeps the current predictor; useful for label-generation-only runs."""
    return None


# ---------------------------------------------------------------------------
# Mock predictors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeightThresholdRule:
    """Class = number of z thresholds at or below the point's height."""

    thresholds: tuple

    @property
    def num_classes(self) -> int:
        return len(self.thresholds) + 1

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.asarray(self.thresholds), points[:, 2], side="right")


@dataclass(frozen=True)
class RadialBandsRule:
    """Class cycles with horizontal distance in bands of band_width meters."""

    band_width: float
    num_classes: int

    def __call__(self, points: np.ndarray) -> np.ndarray:
        radius = np.sqrt(points[:, 0] ** 2 + points[:, 1] ** 2)
        return (np.floor(radius / self.band_width).astype(np.int64)) % self.num_classes


class MockPredictor(Predictor):
    """Deterministic geometric labeler emitting one-hot rows."""

    def __init__(self, rule):
        self.rule = rule
        self.num_classes = rule.num_classes

    def __call__(self, cloud: PointCloud) -> PredictionMatrix:
        labels = np.asarray(self.rule(cloud.points), dtype=np.int64)
        return PredictionMatrix(_one_hot(labels, self.num_classes), np.arange(len(cloud)))


class NoisyPredictor(Predictor):
    """Flips the base predictor's labels independently per point: at
    near_rate within range_threshold of the sensor, at far_rate beyond it.
    Equal rates give i.i.d. noise whatever the threshold. A flipped
    point's row becomes the one-hot row of its new label; the others keep
    the base predictor's row.

    The flip pattern is a pure function of (seed, frame id, point
    coordinates), so repeated calls on identical clouds agree regardless of
    call order.
    """

    def __init__(self, base: Predictor, near_rate: float, far_rate: float,
                 range_threshold: float, seed: int = 0):
        for name, rate in (("near_rate", near_rate), ("far_rate", far_rate)):
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        self.base = base
        self.near_rate = near_rate
        self.far_rate = far_rate
        self.range_threshold = range_threshold
        self.seed = seed
        self.num_classes = base.num_classes

    def __call__(self, cloud: PointCloud) -> PredictionMatrix:
        pred = self.base(cloud)
        rng = _cloud_rng(self.seed, cloud)
        rates = np.where(sensor_range(cloud.points) <= self.range_threshold, self.near_rate, self.far_rate)
        flip = rng.random(len(cloud)) < rates
        offsets = rng.integers(1, self.num_classes, size=len(cloud))
        probs = pred.probs.copy()
        labels = (probs[flip].argmax(axis=1) + offsets[flip]) % self.num_classes
        probs[flip] = _one_hot(labels, self.num_classes)
        return PredictionMatrix(probs, pred.point_index)


class PrecomputedPredictor(Predictor):
    """Serves stored prediction files, {frame id:06d}.lprb, by frame id; the
    integration path for external networks that export their probabilities."""

    def __init__(self, directory, num_classes: int):
        self.directory = Path(directory)
        self.num_classes = num_classes

    def __call__(self, cloud: PointCloud) -> PredictionMatrix:
        path = self.directory / f"{cloud.frame_id:06d}.lprb"
        pred = read_scan_prediction(path)
        if len(pred) != len(cloud):
            raise FileFormatError(f"{path}: {len(pred)} rows for a {len(cloud)}-point scan "
                                  f"(row count at byte offset 4)")
        if pred.num_classes != self.num_classes:
            raise FileFormatError(f"{path}: {pred.num_classes} classes, expected {self.num_classes} "
                                  f"(class count at byte offset 8)")
        return pred


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    probs = np.zeros((len(labels), num_classes))
    probs[np.arange(len(labels)), labels] = 1.0
    return probs


def _cloud_rng(seed: int, cloud: PointCloud) -> np.random.Generator:
    digest = hashlib.sha256()
    digest.update(struct.pack("<qq", seed, cloud.frame_id))
    digest.update(np.ascontiguousarray(cloud.points).tobytes())
    return np.random.default_rng(int.from_bytes(digest.digest()[:16], "little"))


# ---------------------------------------------------------------------------
# LAM training-set assembly
# ---------------------------------------------------------------------------

def build_lam_training_set(scans, poses, predictions, truth_labels, agg: AggregationSpec,
                           ignore_label: int | None = None) -> LamTrainingSet:
    """Collect per-query neighborhoods (pair references, truth) from a
    labeled sequence; queries with no neighbors or ignored truth are
    dropped.

    Each frame is searched once, and each kept pair is held as its
    neighbor's sequence-point index and its center distance (16 bytes,
    against 8 * (2K + 3) for its feature row, which train_lam builds a
    batch at a time)."""
    for t, truth in enumerate(truth_labels):
        if len(truth) != len(scans[t]):
            raise FileFormatError(
                f"frame {t}: {len(truth)} labels for a {len(scans[t])}-point scan "
                f"(label data ends at byte offset {4 * len(truth)})")
    first = first_points(scans)
    counts, neighbors, distances, queries, labels = [], [], [], [], []
    for t in range(len(scans)):
        dense, nbh = frame_neighborhoods(scans, poses, predictions, t, agg)
        truth = np.asarray(truth_labels[t], dtype=np.int64)
        keep = nbh.valid_count > 0
        if ignore_label is not None:
            keep &= truth != ignore_label
        pairs = np.repeat(keep, nbh.valid_count)
        neighbors.append(sequence_points(dense, first, nbh.indices[pairs]))
        distances.append(nbh.distances[pairs])
        counts.append(nbh.valid_count[keep])
        queries.append(first[t] + np.flatnonzero(keep))
        labels.append(truth[keep])
    return LamTrainingSet(
        offsets=np.concatenate([[0], np.cumsum(np.concatenate(counts))]),
        neighbor=np.concatenate(neighbors), distance=np.concatenate(distances),
        query=np.concatenate(queries), labels=np.concatenate(labels),
        probs=np.concatenate([pred.probs for pred in predictions]),
        sensor_distance=sequence_sensor_range(scans),
        frame=np.repeat(np.arange(len(scans)), np.diff(first)), window=agg.window)


# ---------------------------------------------------------------------------
# Label, mask, and manifest files
# ---------------------------------------------------------------------------

def atomic_write_bytes(path, data: bytes) -> None:
    """Write-temp-then-rename so a crash never leaves a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_labels(labels: np.ndarray, path) -> None:
    """KITTI-style label file: u32 per point, class in the low 16 bits."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) and (labels.min() < 0 or labels.max() >= 1 << 16):
        raise ValueError("labels must fit in 16 bits")
    atomic_write_bytes(path, labels.astype("<u4").tobytes())


def load_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    whole = len(blob) - len(blob) % 4
    if whole != len(blob):
        raise FileFormatError(f"{path}: truncated u32 label at byte offset {whole}")
    raw = np.frombuffer(blob, dtype="<u4")
    return (raw & 0xFFFF).astype(np.int64)


def save_selection_mask(mask: np.ndarray, path) -> None:
    """Packed bitset with a u32 count header, LSB-first within each byte."""
    mask = np.asarray(mask, dtype=bool)
    packed = np.packbits(mask, bitorder="little")
    atomic_write_bytes(path, struct.pack("<I", len(mask)) + packed.tobytes())


def load_selection_mask(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise FileFormatError(f"{path}: truncated header at byte offset {len(blob)}")
    (count,) = struct.unpack_from("<I", blob, 0)
    need = 4 + (count + 7) // 8
    if len(blob) != need:
        raise FileFormatError(f"{path}: expected {need} bytes, file ends at byte offset {len(blob)}")
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, offset=4), bitorder="little")
    return bits[:count].astype(bool)


def write_manifest(path, items) -> None:
    """Human-readable key-value run record; values must already be strings."""
    text = "".join(f"{key} = {value}\n" for key, value in items)
    atomic_write_bytes(path, text.encode())


def file_checksum(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
