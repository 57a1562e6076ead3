"""The benchmark's span tracer names library functions by dotted path; a
renamed or deleted function would break `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from lidar_ensemble.aggregate import AggregationSpec, UniformKernel, phi_pairs
from lidar_ensemble.neighbors import (DenseCloud, SpatialIndex, build_dense_cloud,
                                      precompute_neighborhoods)
from lidar_ensemble.selftrain import build_lam_training_set, frame_neighborhoods, mock_predictor
from lidar_ensemble.synth import HEIGHT_THRESHOLDS, SyntheticSceneSpec, generate_sequence

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = load_tracer()
    for span, dotted in tracer.TARGETS.items():
        module_name, *attrs = dotted.split(".")
        owner = importlib.import_module(f"lidar_ensemble.{module_name}")
        for attr in attrs:
            assert hasattr(owner, attr), f"{span}: lidar_ensemble.{dotted} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), span


def test_neighborhood_counts_read_the_search_result():
    tracer = load_tracer()
    points = np.random.default_rng(0).normal(size=(50, 3))
    nbh = precompute_neighborhoods(SpatialIndex(points), points[:7], k=4, eps=0.5)
    assert hasattr(nbh, "capacity") and hasattr(nbh, "valid_count")
    counts = tracer.COUNTS["neighbors.precompute"]({}, nbh)
    assert counts["queries"] == 7 and counts["slots"] == 28
    assert counts["valid"] == int(nbh.valid_count.sum())
    assert counts["empty"] == int((nbh.valid_count == 0).sum())


def test_phi_pair_count_reads_the_feature_rows():
    tracer = load_tracer()
    rng = np.random.default_rng(1)
    dense = DenseCloud(points=rng.uniform(-1, 1, size=(40, 3)), probs=np.full((40, 2), 0.5),
                       temporal_offset=np.zeros(40, dtype=np.int64), sensor_distance=np.ones(40),
                       source_frame=np.zeros(40, dtype=np.int64), window=0)
    near = rng.uniform(-1, 1, size=(6, 3))
    far = near + 100.0  # no point within eps: a frame with zero pairs
    for queries in (near, far):
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), queries, k=5, eps=0.5)
        result = phi_pairs(np.full((6, 2), 0.5), dense, nbh)
        counts = tracer.COUNTS["aggregate.phi"]({}, result)
        assert counts == {"pairs": int(nbh.valid_count.sum())}
    assert counts == {"pairs": 0}


def test_training_set_count_reads_the_neighborhoods():
    tracer = load_tracer()
    seq, truths = generate_sequence(SyntheticSceneSpec(num_frames=3, points_per_frame=60, seed=2))
    predictor = mock_predictor("height_threshold", thresholds=HEIGHT_THRESHOLDS)
    predictions = [predictor(scan) for scan in seq.scans]
    truths[1][:] = 9  # every query of frame 1 ignored: it adds zero pairs
    agg = AggregationSpec(kernel=UniformKernel(), k=4, epsilon=None, window=1, stride=1)
    data = build_lam_training_set(seq.scans, seq.poses, predictions, truths, agg, ignore_label=9)
    kept = [int(((frame_neighborhoods(seq.scans, seq.poses, predictions, t, agg)[1].valid_count > 0)
                 & (truths[t] != 9)).sum()) for t in range(3)]
    assert kept[1] == 0 and kept[0] > 0
    assert tracer.COUNTS["selftrain.trainset"]({}, data) == {"neighborhoods": sum(kept)}


def test_dense_cloud_count_reads_a_built_cloud():
    tracer = load_tracer()
    seq, _ = generate_sequence(SyntheticSceneSpec(num_frames=3, points_per_frame=60, seed=3))
    predictor = mock_predictor("height_threshold", thresholds=HEIGHT_THRESHOLDS)
    scans = [(scan, predictor(scan)) for scan in seq.scans]
    dense = build_dense_cloud(scans, seq.poses, t=1, window=1)
    counts = tracer.COUNTS["neighbors.dense"]({}, dense)
    assert counts["points"] == len(dense) == sum(len(scan) for scan in seq.scans)
    assert counts["bytes"] == sum(array.nbytes for array in (
        dense.points, dense.probs, dense.temporal_offset, dense.sensor_distance, dense.source_frame))
