"""The benchmark's span tracer names library functions by dotted path; a
renamed or deleted function would break `perfbench/run.py --trace 1`."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lidar_ensemble
from lidar_ensemble import selftrain
from lidar_ensemble.cli import EXIT_OK, main
from lidar_ensemble.aggregate import AggregationSpec, UniformKernel, phi_pairs
from lidar_ensemble.neighbors import (DenseCloud, SpatialIndex, build_dense_cloud,
                                      precompute_neighborhoods)
from lidar_ensemble.selftrain import (HeightThresholdRule, MockPredictor, build_lam_training_set,
                                      frame_neighborhoods)
from lidar_ensemble.synth import HEIGHT_THRESHOLDS, SyntheticSceneSpec, generate_sequence

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
RUN = TRACER.with_name("run.py")


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


class _ArgumentRecorder(dict):
    """Stands in for a call's bound arguments and records each name read."""

    def __init__(self, value):
        super().__init__()
        self.value, self.read = value, set()

    def __getitem__(self, name):
        self.read.add(name)
        return self.value


def test_count_arguments_are_parameters_of_the_wrapped_function(tmp_path):
    # a count reads the call's arguments by parameter name, so a renamed
    # parameter would still resolve as a target and break only --trace 1
    tracer = load_tracer()
    stand_in = tmp_path / "file"
    stand_in.write_bytes(b"x")
    read = {}
    for span, count in tracer.COUNTS.items():
        args = _ArgumentRecorder(str(stand_in))
        try:
            count(args, None)
        except (TypeError, AttributeError):  # a count of the result
            pass
        if args.read:
            read[span] = args.read
    assert read == {
        "geometry.project": {"cloud"}, tracer.PREDICT: {"cloud"}, "lam.forward": {"feats"},
        "selftrain.save_labels": {"path"}, "selftrain.save_mask": {"path"},
        "selftrain.write_manifest": {"path"},
    }
    predictors = [cls.__call__ for cls in vars(selftrain).values()
                  if isinstance(cls, type) and issubclass(cls, selftrain.Predictor)
                  and "__call__" in vars(cls)
                  and not getattr(cls.__call__, "__isabstractmethod__", False)]
    assert len(predictors) >= 3
    for span, names in read.items():
        if span == tracer.PREDICT:
            wrapped = predictors
        else:
            module_name, *attrs = tracer.TARGETS[span].split(".")
            owner = importlib.import_module(f"lidar_ensemble.{module_name}")
            for attr in attrs:
                owner = getattr(owner, attr)
            wrapped = [owner]
        for fn in wrapped:
            assert names <= set(inspect.signature(fn).parameters), (span, fn.__qualname__)


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
    predictor = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
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
    predictor = MockPredictor(HeightThresholdRule(HEIGHT_THRESHOLDS))
    scans = [(scan, predictor(scan)) for scan in seq.scans]
    dense = build_dense_cloud(scans, seq.poses, t=1, window=1)
    counts = tracer.COUNTS["neighbors.dense"]({}, dense)
    assert counts["points"] == len(dense) == sum(len(scan) for scan in seq.scans)
    assert counts["bytes"] == sum(array.nbytes for array in (
        dense.points, dense.probs, dense.temporal_offset, dense.sensor_distance, dense.source_frame))


def test_traced_pipeline_counts_predictions_and_times_histograms(tmp_path):
    # one run under the tracer, as run.py --trace 1 makes it
    tracer = load_tracer()
    drive, out, spans_path = tmp_path / "drive", tmp_path / "run", tmp_path / "spans.json"
    assert main(["synthgen", "--out", str(drive), "--frames", "3", "--points", "300",
                 "--seed", "4"]) == EXIT_OK
    config = tmp_path / "pipeline.ini"
    config.write_text(f"[dataset]\nroot = {drive}\n\n[predictor]\nnoise = 0.3\n")
    src = str(Path(lidar_ensemble.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(TRACER), "--spans", str(spans_path), "--run-id", "test", "--",
                    "pipeline", "--config", str(config), "--out", str(out), "--threads", "1"],
                   env=env, check=True, timeout=300, capture_output=True)
    spans = json.loads(spans_path.read_text())
    metrics = tracer.layer_metrics(spans["spans"], spans["main_thread"], traced_wall_s=1.0)
    # 3 frames x 3 subsample trials; the noise wrapper's call of its base predictor is not counted
    assert metrics["selftrain.predict_calls"] == 9
    assert metrics["lam.histogram_s"] > 0


def test_setup_probe_loads_a_drive(tmp_path):
    # setup_s times this probe in a fresh process; it reads the config's
    # paths by name, so a config refactor could break it unseen
    probe = next(ast.literal_eval(node.value) for node in ast.parse(RUN.read_text()).body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "SETUP_PROBE")
    assert main(["synthgen", "--out", str(tmp_path / "drive"), "--frames", "2", "--points", "100",
                 "--seed", "1"]) == EXIT_OK
    (tmp_path / "config.ini").write_text("[dataset]\nroot = drive\n")
    src = str(Path(lidar_ensemble.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe, "config.ini"], cwd=tmp_path, env=env,
                            timeout=120, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
