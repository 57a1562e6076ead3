"""Golden digests: the sha256 of every output file of every command, run on
tiny synthetic drives, against the table in tests/golden_digests.json.

Criterion 11 compares reruns and thread counts with each other; this test
compares them with a record, so a change that moves any output byte fails
here. A change that moves bytes on purpose re-records only the entries it
moves and declares them:

    PYTHONPATH=src python -m tests.test_golden --record

Every path in the configs and on the command lines is relative to one work
directory, so the manifests are covered too.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lidar_ensemble.cli import EXIT_OK, build_parser, main
from lidar_ensemble.selftrain import load_labels
from lidar_ensemble.subsample import PredictionMatrix, write_prediction_matrix

TABLE = Path(__file__).resolve().parent / "golden_digests.json"

SENSOR = "[sensor]\nheight = 32\nwidth = 512\nfov_up = 15\nfov_down = 25\nbeams = 32\n"
# 19 classes, SemanticKITTI's count: 18 height thresholds over the 3-class drive
THRESHOLDS_19 = ",".join(f"{0.25 * i:g}" for i in range(1, 19))
LAM_CLASSES = 19

CONFIGS = {
    # uniform kernel inside eps, mock labeler with i.i.d. noise
    "uniform.ini": SENSOR + """
[dataset]
root = target
[subsample]
trials = 2
[aggregate]
k = 10
epsilon = 0.5
window = 2
stride = 1
[predictor]
noise = 0.2
[run]
seed = 3
""",
    # kNN without eps, a stride that does not divide the window, range-gated
    # noise and an ignore label
    "knn.ini": SENSOR + """
[dataset]
root = target
[aggregate]
k = 6
epsilon =
window = 4
stride = 3
[predictor]
near_noise = 0.05
far_noise = 0.5
range_threshold = 8
[run]
seed = 5
ignore_label = 1
""",
    # the LAM at 19 classes: training on the source drive
    "lam-train.ini": SENSOR + f"""
[dataset]
root = source
[subsample]
trials = 2
[aggregate]
k = 8
epsilon =
window = 2
stride = 1
[lam]
epochs = 2
batch = 128
[predictor]
thresholds = {THRESHOLDS_19}
noise = 0.3
[run]
seed = 7
ignore_label = 2
""",
    # the LAM at 3 classes inside eps: a stride of 2 over a window of 4 on
    # 3 frames clips the middle frame's window at both ends of the drive
    "lam-train-eps.ini": SENSOR + """
[dataset]
root = source
[aggregate]
k = 8
epsilon = 0.5
window = 4
stride = 2
[lam]
epochs = 2
batch = 64
[predictor]
noise = 0.2
[run]
seed = 9
ignore_label = 1
""",
    # ... and refining the target drive with the trained checkpoint
    "lam.ini": SENSOR + f"""
[dataset]
root = target
[subsample]
trials = 2
[aggregate]
kernel = lam
checkpoint = ../lam-train/lam.ckpt
k = 8
epsilon =
window = 2
stride = 1
[cbst]
portion = 0.5
[predictor]
thresholds = {THRESHOLDS_19}
noise = 0.3
[run]
seed = 7
""",
    # the radial-bands labeler, regular row subsampling, and a second
    # iteration (intensity on, no pair records)
    "bands.ini": SENSOR + """
[dataset]
root = target
[subsample]
mode = regular
ratio = 0.5
trials = 3
[aggregate]
k = 5
epsilon = 0.6
window = 1
stride = 1
[adaptation]
iterations = 2
[predictor]
kind = mock_bands
band_width = 3.0
num_classes = 4
noise = 0.1
[run]
seed = 13
""",
    # the stored 19-class predictions as the teacher
    "precomputed.ini": SENSOR + """
[dataset]
root = target
[subsample]
trials = 1
[aggregate]
k = 7
epsilon = 0.5
window = 1
stride = 1
[cbst]
portion = 0.4
[predictor]
kind = precomputed
directory = ../preds
num_classes = 19
[run]
seed = 17
""",
}

# case -> command line; each case writes under its own output directory, given
# as --out unless the command line names its own output file in that directory
COMMANDS = {
    "pipeline-uniform-t1": ["pipeline", "--config", "uniform.ini", "--threads", "1"],
    "pipeline-uniform-t2": ["pipeline", "--config", "uniform.ini", "--threads", "2"],
    "pipeline-knn-t2": ["pipeline", "--config", "knn.ini", "--threads", "2", "--bins", "7"],
    "lam-train": ["lam-train", "--config", "lam-train.ini", "--threads", "2"],
    "lam-train-eps": ["lam-train", "--config", "lam-train-eps.ini", "--threads", "1"],
    "pipeline-lam-t1": ["pipeline", "--config", "lam.ini", "--threads", "1"],
    "aggregate": ["aggregate", "--config", "lam.ini", "--pred-dir", "preds"],
    "lam-apply": ["lam-apply", "--config", "lam.ini", "--pred-dir", "preds",
                  "--checkpoint", "lam-train/lam.ckpt", "--modulate"],
    "lam-analyze": ["lam-analyze", "--config", "lam.ini", "--pred-dir", "preds",
                    "--checkpoint", "lam-train/lam.ckpt", "--bins", "5"],
    "cbst": ["cbst", "--config", "lam.ini", "--pred-dir", "aggregate/refined"],
    "metrics": ["metrics", "--pred", "cbst", "--truth", "target/labels",
                "--classes", str(LAM_CLASSES), "--ignore", "1", "--static", "0,2",
                "--dynamic", ",".join(map(str, [1, *range(3, LAM_CLASSES)]))],
    "project": ["project", "--config", "uniform.ini", "--frame", "1", "--out", "project/points.csv"],
    "subsample-random": ["subsample", "--config", "uniform.ini", "--frame", "2"],
    "subsample-regular": ["subsample", "--config", "bands.ini", "--frame", "0"],
    "ensemble": ["ensemble", "--inputs", "preds/000000.lprb", "aggregate/refined/000000.lprb",
                 "--parent-size", "220", "--out", "ensemble/000000.lprb"],
    "pipeline-bands-t2": ["pipeline", "--config", "bands.ini", "--threads", "2"],
    "pipeline-precomputed-t1": ["pipeline", "--config", "precomputed.ini", "--threads", "1"],
}


def _write_predictions(directory: Path, truth_dir: Path):
    """Soft 19-class rows that lean towards the truth, as an external
    network would export them."""
    directory.mkdir()
    rng = np.random.default_rng(11)
    for path in sorted(truth_dir.glob("*.label")):
        truth = load_labels(path)
        probs = rng.random((len(truth), LAM_CLASSES))
        probs[np.arange(len(truth)), truth] += 2.0
        probs /= probs.sum(axis=1, keepdims=True)
        write_prediction_matrix(PredictionMatrix(probs, np.arange(len(truth))),
                                directory / f"{path.stem}.lprb")


def run_all(work: Path) -> dict:
    """Runs every case in `work` and returns {case: {relative path: sha256}}."""
    work = Path(work)
    previous = os.getcwd()
    os.chdir(work)
    try:
        for drive, seed in (("target", "21"), ("source", "22")):
            assert main(["synthgen", "--out", drive, "--frames", "3", "--points", "220",
                         "--seed", seed]) == EXIT_OK
        for name, text in CONFIGS.items():
            Path(name).write_text(text)
        _write_predictions(Path("preds"), Path("target/labels"))
        for case, argv in COMMANDS.items():
            assert main(argv if "--out" in argv else argv + ["--out", case]) == EXIT_OK, case
    finally:
        os.chdir(previous)
    return {case: {path.relative_to(work / case).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted((work / case).rglob("*")) if path.is_file()}
            for case in COMMANDS}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


def test_every_public_command_has_a_case():
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    public = subcommands.metavar.strip("{}").split(",")
    assert sorted(set(public) - {argv[0] for argv in COMMANDS.values()}) == []


def test_table_covers_every_case():
    assert sorted(json.loads(TABLE.read_text())["cases"]) == sorted(COMMANDS)


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_output_bytes_match_the_table(case, digests):
    table = json.loads(TABLE.read_text())
    expected, actual = table["cases"][case], digests[case]
    moved = sorted(path for path in expected.keys() | actual.keys()
                   if expected.get(path) != actual.get(path))
    assert not moved, (f"{case}: {moved} differ from the table (recorded with numpy "
                       f"{table['numpy']}, running numpy {np.__version__})")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_golden --record")
    with tempfile.TemporaryDirectory() as work:
        cases = run_all(Path(work))
    TABLE.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, cases.values()))} digests in {TABLE}")
