"""Tests for the command-line surface: subcommand behavior, exit codes,
manifests, and end-to-end determinism."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_ensemble import cli, selftrain
from lidar_ensemble.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from lidar_ensemble.selftrain import load_labels, load_selection_mask
from lidar_ensemble.subsample import read_prediction_matrix, read_scan_prediction, write_prediction_matrix
from lidar_ensemble.subsample import PredictionMatrix
from tests.oracles import keep_refined, phi_stream, row_moments, sequence_rows, weight_histograms

CONFIG_TEMPLATE = """
[dataset]
root = {root}

[sensor]
height = 32
width = 512
fov_up = 15
fov_down = 25
beams = 32

[subsample]
trials = 2

[aggregate]
kernel = uniform
k = 10
epsilon =
window = 4
stride = 1

[lam]
epochs = 2
batch = 128

[predictor]
kind = mock_height
thresholds = 0.5,2.5
noise = 0.25

[run]
seed = 3
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    assert main(["synthgen", "--out", str(root), "--frames", "4", "--points", "250", "--seed", "5"]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def config_path(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "pipeline.ini"
    path.write_text(CONFIG_TEMPLATE.format(root=dataset))
    return path


def write_lam_config(path, dataset, checkpoint):
    """The test config with aggregate.kernel = lam and checkpoint as
    aggregate.checkpoint, written to path."""
    path.write_text(CONFIG_TEMPLATE.format(root=dataset).replace(
        "kernel = uniform", f"kernel = lam\ncheckpoint = {checkpoint}"))
    return path


@pytest.fixture(scope="module")
def lam_config_path(dataset, checkpoint, tmp_path_factory):
    return write_lam_config(tmp_path_factory.mktemp("cfg") / "lam.ini", dataset, checkpoint)


class TestParsing:
    def test_help_succeeds(self, capsys):
        assert main(["--help"]) == 0
        assert "pipeline" in capsys.readouterr().out

    def test_subcommand_help_documents_flags(self, capsys):
        assert main(["metrics", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--pred", "--truth", "--classes", "--ignore", "--static", "--dynamic", "--out"):
            assert flag in out

    def test_unknown_flag_is_config_error(self):
        assert main(["metrics", "--bogus", "x"]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["project", "--config", str(tmp_path / "nope.ini"),
                     "--frame", "0", "--out", "-"]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, dataset):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[dataset]\nroot = {dataset}\n[sensor]\nheihgt = 3\n")
        assert main(["project", "--config", str(bad), "--frame", "0", "--out", "-"]) == EXIT_CONFIG

    def test_malformed_binary_is_io_error(self, tmp_path, config_path):
        bad = tmp_path / "bad.lprb"
        bad.write_bytes(b"XXXX")
        assert main(["ensemble", "--inputs", str(bad), "--parent-size", "5",
                     "--out", str(tmp_path / "o.lprb")]) == EXIT_IO


class TestUncaughtErrors:
    @pytest.mark.parametrize("error, code, message", [
        (IndexError("index 7 is out of bounds for axis 0 with size 5"), EXIT_CONFIG,
         "invalid input: index 7 is out of bounds for axis 0 with size 5"),
        (KeyError("layer3.weight"), EXIT_CONFIG, "invalid input: 'layer3.weight'"),
        (MemoryError("Unable to allocate 8.00 GiB"), EXIT_NUMERIC,
         "numeric: out of memory: Unable to allocate 8.00 GiB"),
        (MemoryError(), EXIT_NUMERIC, "numeric: out of memory"),
    ], ids=["IndexError", "KeyError", "MemoryError", "MemoryError-no-message"])
    def test_maps_to_exit_code_without_traceback(self, error, code, message, tmp_path, monkeypatch,
                                                 capsys, caplog):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_metrics", fail)
        assert main(["metrics", "--pred", str(tmp_path), "--truth", str(tmp_path),
                     "--classes", "3", "--out", str(tmp_path / "m")]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert [r.getMessage() for r in caplog.records] == [message]


class TestProject:
    def test_stdout_csv(self, config_path, capsys):
        assert main(["project", "--config", str(config_path), "--frame", "0", "--out", "-"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "point,u,v,range"
        assert len(lines) == 251

    def test_file_output_with_manifest(self, config_path, tmp_path):
        out = tmp_path / "proj.csv"
        assert main(["project", "--config", str(config_path), "--frame", "1",
                     "--out", str(out)]) == EXIT_OK
        assert out.exists()
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "command = project" in manifest
        assert "input.000001.bin" in manifest

    def test_frame_out_of_range(self, config_path):
        assert main(["project", "--config", str(config_path), "--frame", "99", "--out", "-"]) == EXIT_CONFIG


class TestSubsample:
    def test_writes_cloud_and_index(self, config_path, tmp_path):
        out = tmp_path / "sub"
        assert main(["subsample", "--config", str(config_path), "--frame", "0",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "000000.bin").exists()
        blob = (out / "000000.lidx").read_bytes()
        assert blob[:4] == b"LIDX"
        n = int.from_bytes(blob[4:8], "little")
        assert len(blob) == 8 + 4 * n


class TestEnsemble:
    def test_averages_inputs(self, tmp_path):
        a = PredictionMatrix(probs=[[1.0, 0.0]], point_index=[0])
        b = PredictionMatrix(probs=[[0.0, 1.0]], point_index=[0])
        pa, pb = tmp_path / "a.lprb", tmp_path / "b.lprb"
        write_prediction_matrix(a, pa)
        write_prediction_matrix(b, pb)
        out = tmp_path / "avg.lprb"
        assert main(["ensemble", "--inputs", str(pa), str(pb), "--parent-size", "1",
                     "--out", str(out)]) == EXIT_OK
        merged = read_prediction_matrix(out)
        assert np.allclose(merged.probs, [[0.5, 0.5]])


@pytest.fixture(scope="module")
def prediction_dir(dataset, config_path, tmp_path_factory):
    """Per-frame within-frame predictions, produced through the library."""
    from lidar_ensemble.config import load_config
    from lidar_ensemble.cli import _load_sequence
    from lidar_ensemble.selftrain import within_frame_predictions

    cfg = load_config(config_path)
    seq, _ = _load_sequence(cfg)
    within = within_frame_predictions(seq.scans, cfg.predictor, cfg.adaptation,
                                      seed=cfg.adaptation.seed)
    out = tmp_path_factory.mktemp("preds")
    for t, pred in enumerate(within):
        write_prediction_matrix(pred, out / f"{t:06d}.lprb")
    return out


class TestAggregateCommand:
    @pytest.mark.parametrize("modulate", [False, True], ids=["aggregate", "aggregate-modulate"])
    def test_holds_one_refined_matrix_at_a_time(self, modulate, config_path, lam_config_path, prediction_dir,
                                                tmp_path, monkeypatch):
        # each frame's refined rows are written by the worker that refined
        # it, so none is alive when the next frame is refined
        import weakref

        from lidar_ensemble import selftrain

        alive, refined_rows = [], []
        original = selftrain.refine_labels

        def refine(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refined_rows))
            refined, weights = original(*args, **kwargs)
            refined_rows.append(weakref.ref(refined.probs))
            return refined, weights

        monkeypatch.setattr(selftrain, "refine_labels", refine)
        argv = ["aggregate", "--config", str(lam_config_path if modulate else config_path),
                "--pred-dir", str(prediction_dir)] + ["--modulate"] * modulate
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
        assert alive == [0, 0, 0, 0]

    def test_refines_and_writes_manifest(self, config_path, prediction_dir, tmp_path):
        out = tmp_path / "agg"
        assert main(["aggregate", "--config", str(config_path), "--pred-dir", str(prediction_dir),
                     "--out", str(out)]) == EXIT_OK
        for t in range(4):
            assert (out / "refined" / f"{t:06d}.lprb").exists()
        sidecar = (out / "refinement.txt").read_text()
        assert "kernel = uniform" in sidecar
        assert "phi_layout_version = 1" in sidecar
        manifest = (out / "manifest.txt").read_text()
        assert "command = aggregate\n" in manifest
        assert "modulated" not in manifest and "input.lam.ckpt" not in manifest

    def test_modulate_without_a_lam_kernel_is_config_error(self, config_path, prediction_dir, tmp_path):
        out = tmp_path / "agg"
        code, messages = _run_logged(["aggregate", "--config", str(config_path), "--pred-dir",
                                      str(prediction_dir), "--modulate", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert len(messages) == 1 and "\n" not in messages[0]
        assert "aggregate.kernel" in messages[0] and "kernel = uniform" in messages[0]
        assert not out.exists()


@pytest.fixture(scope="module")
def checkpoint(config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("lam")
    assert main(["lam-train", "--config", str(config_path), "--out", str(out),
                 "--threads", "1"]) == EXIT_OK
    return out / "lam.ckpt"


class TestLamCommands:
    def test_train_outputs(self, checkpoint):
        assert checkpoint.exists()
        trace = (checkpoint.parent / "loss_trace.csv").read_text().strip().splitlines()
        assert trace[0] == "epoch,mean_ce,mean_lovasz,total"
        assert len(trace) == 3  # header + 2 epochs

    def test_train_searches_each_frame_once(self, config_path, checkpoint, tmp_path, monkeypatch):
        from lidar_ensemble import cli, lam, neighbors, selftrain
        from lidar_ensemble.config import load_config

        calls = {"search": 0, "dense": 0, "refine": 0}

        def counting(key, original):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            return wrapper

        search = counting("search", neighbors.precompute_neighborhoods)
        for module in (neighbors, selftrain):
            monkeypatch.setattr(module, "precompute_neighborhoods", search)
        monkeypatch.setattr(selftrain, "refine_labels", counting("refine", selftrain.refine_labels))
        monkeypatch.setattr(selftrain, "build_dense_cloud", counting("dense", selftrain.build_dense_cloud))
        out = tmp_path / "lam"
        assert main(["lam-train", "--config", str(config_path), "--out", str(out),
                     "--threads", "2"]) == EXIT_OK
        # one dense cloud and one search per frame, no refinement
        assert calls == {"search": 4, "dense": 4, "refine": 0}
        monkeypatch.undo()

        # same checkpoint as training on the within-frame half of a full refinement pass
        cfg = load_config(config_path)
        seq, _ = cli._load_sequence(cfg)
        truths = cli._load_truths(cfg, seq)
        within, _ = selftrain.generate_refined_predictions(
            seq.scans, seq.poses, cfg.predictor, cfg.adaptation, keep_refined,
            seed=cfg.adaptation.seed, use_intensity=False)
        data = selftrain.build_lam_training_set(seq.scans, seq.poses, within, truths,
                                                cfg.adaptation.aggregation, ignore_label=cfg.ignore_label)
        params, _ = lam.train_lam(data, cfg.train)
        lam.save_lam_params(params, tmp_path / "reference.ckpt")
        assert (out / "lam.ckpt").read_bytes() == (tmp_path / "reference.ckpt").read_bytes()
        assert (out / "lam.ckpt").read_bytes() == checkpoint.read_bytes()

    def test_apply_with_modulation(self, lam_config_path, prediction_dir, checkpoint, tmp_path):
        out = tmp_path / "applied"
        assert main(["aggregate", "--config", str(lam_config_path), "--pred-dir", str(prediction_dir),
                     "--modulate", "--out", str(out)]) == EXIT_OK
        assert (out / "modulated.ckpt").exists()
        assert (out / "refined" / "000000.lprb").exists()
        assert "kernel = lam" in (out / "refinement.txt").read_text()
        manifest = (out / "manifest.txt").read_text()
        assert "modulated = true\n" in manifest
        assert f"input.lam.ckpt = {selftrain.file_checksum(checkpoint)}\n" in manifest

    def test_apply_misshapen_checkpoint_is_io_error(self, dataset, prediction_dir, tmp_path, caplog):
        from lidar_ensemble.lam import initialize_lam_params, save_lam_params

        params = initialize_lam_params(9, seed=0)
        params.layers[1].weight = np.zeros((64, 33))
        bad = tmp_path / "bad.ckpt"
        save_lam_params(params, bad)
        record = bad.read_bytes().index(b"layer1.weight") - 4
        cfg = write_lam_config(tmp_path / "c.ini", dataset, bad)
        assert main(["aggregate", "--config", str(cfg), "--pred-dir", str(prediction_dir),
                     "--modulate", "--out", str(tmp_path / "applied")]) == EXIT_IO
        assert f"byte offset {record}" in caplog.text

    def test_config_named_corrupt_checkpoint_is_io_error(self, dataset, checkpoint, tmp_path,
                                                         caplog):
        bad = tmp_path / "truncated.ckpt"
        bad.write_bytes(checkpoint.read_bytes()[:100])
        for ckpt, code, message in ((bad, EXIT_IO, "malformed tensor record at byte offset"),
                                    (tmp_path / "missing.ckpt", EXIT_CONFIG,
                                     "aggregate.checkpoint: path does not exist")):
            cfg = write_lam_config(tmp_path / "c.ini", dataset, ckpt)
            caplog.clear()
            assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--threads", "1"]) == code
            assert message in caplog.text

    def test_analyze_uniform_and_lam(self, config_path, lam_config_path, prediction_dir, tmp_path):
        # each run weighs with the kernel its config names
        for name, cfg in (("uniform", config_path), ("lam", lam_config_path)):
            out = tmp_path / name
            assert main(["lam-analyze", "--config", str(cfg),
                         "--pred-dir", str(prediction_dir), "--out", str(out),
                         "--bins", "5"]) == EXIT_OK
            lines = (out / "histograms.csv").read_text().strip().splitlines()
            assert lines[0] == "slice,bin_left,bin_right,count,normalized_weight_mean"
            assert len(lines) == 1 + 3 * 5
            assert f"\nkernel = {name}\n" in (out / "manifest.txt").read_text()
        assert (tmp_path / "lam" / "histograms.csv").read_bytes() != \
            (tmp_path / "uniform" / "histograms.csv").read_bytes()


@pytest.mark.parametrize("bins", ["0", "-3"])
@pytest.mark.parametrize("command", ["pipeline", "lam-analyze"])
def test_bins_below_one_exit_1_before_any_work(command, bins, config_path, prediction_dir, tmp_path,
                                               caplog):
    out = tmp_path / "out"
    extra = ["--threads", "1"] if command == "pipeline" else ["--pred-dir", str(prediction_dir)]
    assert main([command, "--config", str(config_path), "--out", str(out), "--bins", bins]
                + extra) == EXIT_CONFIG
    assert "--bins: must be at least 1" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["pipeline", "lam-train"])
def test_threads_below_one_exit_1_before_any_work(command, threads, config_path, tmp_path, caplog):
    out = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--out", str(out), "--threads", threads]) == EXIT_CONFIG
    assert "--threads: must be at least 1" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("classes", ["0", "-3"])
def test_classes_below_one_exit_1_before_any_work(classes, dataset, tmp_path, caplog):
    out = tmp_path / "out"
    labels = str(dataset / "labels")
    assert main(["metrics", "--pred", labels, "--truth", labels, "--classes", classes,
                 "--out", str(out)]) == EXIT_CONFIG
    assert "--classes: must be at least 1" in caplog.text
    assert not out.exists()


def _checkpoint_records(blob):
    """(start, data start, end) of every tensor record of a checkpoint."""
    records, off = [], 16
    while off < len(blob):
        name_len = int.from_bytes(blob[off:off + 4], "little")
        rank = int.from_bytes(blob[off + 4 + name_len:off + 8 + name_len], "little")
        head = off + 8 + name_len
        dims = np.frombuffer(blob, dtype="<u4", count=rank, offset=head)
        data = head + 4 * rank
        records.append((off, data, data + 8 * int(np.prod(dims))))
        off = records[-1][2]
    return records


class TestCheckpointFuzz:
    """A checkpoint cut at any byte, or with one bit flipped in its header,
    a record head or its data, loads or is rejected with a byte offset, and
    aggregate --modulate on a config naming it exits 2 without a
    traceback."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @pytest.fixture(scope="class")
    def fuzzed_config(self, dataset, work):
        return write_lam_config(work / "fuzzed.ini", dataset, work / "fuzzed.ckpt")

    @settings(max_examples=300)
    @given(case=st.data())
    def test_cut_or_flipped_checkpoint_loads_or_names_an_offset(self, case, fuzzed_config, prediction_dir,
                                                                 checkpoint, work):
        import logging
        import re

        from lidar_ensemble.errors import FileFormatError
        from lidar_ensemble.lam import load_lam_params

        blob = bytearray(checkpoint.read_bytes())
        records = _checkpoint_records(bytes(blob))
        kind = case.draw(st.sampled_from(["cut", "header", "head", "data"]), label="kind")
        if kind == "cut":
            ends = [start for start, _, _ in records]
            blob = blob[:case.draw(st.one_of(st.sampled_from(ends), st.integers(0, len(blob) - 1)),
                                   label="cut at")]
        else:
            start, data, end = case.draw(st.sampled_from(records), label="record")
            lo, hi = {"header": (0, 16), "head": (start, data), "data": (data, end)}[kind]
            bit = case.draw(st.integers(8 * lo, 8 * hi - 1), label="bit")
            blob[bit // 8] ^= 1 << bit % 8
        path = work / "fuzzed.ckpt"
        path.write_bytes(bytes(blob))
        try:
            load_lam_params(path)
        except FileFormatError as exc:
            error = str(exc)
            offset = re.search(r"byte offset (\d+)", error)
            assert offset is not None and int(offset.group(1)) <= len(blob), error
        else:
            return
        messages = []
        handler = logging.Handler()
        handler.emit = messages.append
        logging.getLogger("lidar_ensemble").addHandler(handler)
        try:
            assert main(["aggregate", "--config", str(fuzzed_config), "--pred-dir", str(prediction_dir),
                         "--modulate", "--out", str(work / "applied")]) == EXIT_IO
        finally:
            logging.getLogger("lidar_ensemble").removeHandler(handler)
        assert [m.getMessage() for m in messages] == [f"i/o: {error}"]


def _run_logged(argv):
    """main's exit code and the messages it logged at ERROR."""
    import logging

    messages = []
    handler = logging.Handler(level=logging.ERROR)
    handler.emit = messages.append
    logging.getLogger("lidar_ensemble").addHandler(handler)
    try:
        code = main(argv)
    finally:
        logging.getLogger("lidar_ensemble").removeHandler(handler)
    return code, [m.getMessage() for m in messages]


class TestReaderFuzz:
    """A prediction file, poses.txt, a scan or a label file cut at any
    byte, or with one bit flipped, is read or rejected: aggregate
    --pred-dir and pipeline exit 0, or exit 2 with one logged error that
    names a byte offset no larger than the file, and raise nothing. A
    config file so cut or flipped gives exit 0, or exit 1 with one logged
    error that names it, or exit 2 when it has fewer classes than the
    dataset's labels."""

    @pytest.fixture(scope="class")
    def work(self, dataset, prediction_dir, tmp_path_factory):
        import shutil

        work = tmp_path_factory.mktemp("reader-fuzz")
        shutil.copytree(dataset, work / "data")
        shutil.copytree(prediction_dir, work / "preds")
        (work / "c.ini").write_text(CONFIG_TEMPLATE.format(root=work / "data"))
        return work

    @staticmethod
    def fuzz(case, blob: bytes, regions) -> bytes:
        """blob cut at a region boundary or any byte, or with one bit of a
        region flipped; regions are (start, end) byte ranges."""
        blob = bytearray(blob)
        if case.draw(st.booleans(), label="cut"):
            ends = sorted({end for region in regions for end in region} - {len(blob)})
            return bytes(blob[:case.draw(st.one_of(st.sampled_from(ends), st.integers(0, len(blob) - 1)),
                                         label="cut at")])
        lo, hi = case.draw(st.sampled_from(regions), label="region")
        bit = case.draw(st.integers(8 * lo, 8 * hi - 1), label="bit")
        blob[bit // 8] ^= 1 << bit % 8
        return bytes(blob)

    @staticmethod
    def check(argv, size):
        code, errors = _run_logged(argv)
        assert code in (EXIT_OK, EXIT_IO), errors
        if code == EXIT_IO:
            (error,) = errors
            offset = re.search(r"byte offset (\d+)", error)
            assert error.startswith("i/o: ") and offset is not None and int(offset.group(1)) <= size, error

    @settings(max_examples=200)
    @given(case=st.data())
    def test_cut_or_flipped_prediction_file(self, case, work):
        path = work / "preds" / "000001.lprb"
        original = path.read_bytes()
        n, k = np.frombuffer(original, "<u4", count=2, offset=4)
        # header, probabilities, point indices
        regions = [(0, 16), (16, 16 + 4 * n * k), (16 + 4 * n * k, len(original))]
        blob = self.fuzz(case, original, regions)
        path.write_bytes(blob)
        try:
            self.check(["aggregate", "--config", str(work / "c.ini"), "--pred-dir", str(work / "preds"),
                        "--out", str(work / "aggregated")], len(blob))
        finally:
            path.write_bytes(original)

    @settings(max_examples=150)
    @given(case=st.data())
    def test_cut_or_flipped_poses(self, case, work):
        path = work / "data" / "poses.txt"
        original = path.read_bytes()
        lines = np.cumsum([0] + [len(line) for line in original.splitlines(keepends=True)])
        blob = self.fuzz(case, original, list(zip(lines[:-1], lines[1:])))
        path.write_bytes(blob)
        try:
            self.check(["pipeline", "--config", str(work / "c.ini"), "--out", str(work / "run"),
                        "--threads", "1"], len(blob))
        finally:
            path.write_bytes(original)

    def fuzz_pipeline_input(self, case, work, path, record_bytes):
        """pipeline over the dataset with path cut or flipped, its regions
        the file's records of record_bytes bytes."""
        original = path.read_bytes()
        starts = range(0, len(original), record_bytes)
        blob = self.fuzz(case, original, [(lo, lo + record_bytes) for lo in starts])
        path.write_bytes(blob)
        try:
            self.check(["pipeline", "--config", str(work / "c.ini"), "--out", str(work / "run"),
                        "--threads", "1"], len(blob))
        finally:
            path.write_bytes(original)

    @settings(max_examples=150)
    @given(case=st.data())
    def test_cut_or_flipped_scan(self, case, work):
        # records of (x, y, z, intensity) float32
        self.fuzz_pipeline_input(case, work, work / "data" / "velodyne" / "000002.bin", 16)

    @settings(max_examples=150)
    @given(case=st.data())
    def test_cut_or_flipped_labels(self, case, work):
        # one u32 per point: semantic class in the low 16 bits, instance above
        self.fuzz_pipeline_input(case, work, work / "data" / "labels" / "000002.label", 4)

    @settings(max_examples=150)
    @given(case=st.data())
    def test_cut_or_flipped_config(self, case, work):
        # the config file is read or rejected in one line that names it
        path = work / "c.ini"
        original = path.read_bytes()
        lines = np.cumsum([0] + [len(line) for line in original.splitlines(keepends=True)])
        path.write_bytes(self.fuzz(case, original, list(zip(lines[:-1], lines[1:]))))
        try:
            code, errors = _run_logged(["pipeline", "--config", str(path), "--out", str(work / "run"),
                                        "--threads", "1"])
        finally:
            path.write_bytes(original)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO), errors
        if code != EXIT_OK:
            (error,) = errors
            assert "\n" not in error, error
        if code == EXIT_CONFIG:
            assert error.startswith(f"configuration: {path}: "), error
        elif code == EXIT_IO:
            # a cut thresholds line leaves fewer classes than the dataset's
            # labels: the error names the label file and the config keys
            labels = re.escape(str(work / "data" / "labels"))
            assert re.fullmatch(rf"i/o: {labels}/\d+\.label: label \d+ at byte offset \d+ is neither a class "
                                rf"in \[0, ([12])\) nor the ignore label \(config: class count \1 from "
                                rf"predictor\.thresholds, run\.ignore_label unset\)", error), error


class TestCbstCommand:
    def test_writes_labels_and_masks(self, config_path, prediction_dir, tmp_path):
        out = tmp_path / "cbst"
        assert main(["cbst", "--config", str(config_path), "--pred-dir", str(prediction_dir),
                     "--out", str(out)]) == EXIT_OK
        labels = load_labels(out / "000000.label")
        mask = load_selection_mask(out / "000000.mask")
        assert len(labels) == len(mask) == 250
        masks = [load_selection_mask(out / f"{t:06d}.mask") for t in range(4)]
        frac = np.concatenate(masks).mean()
        assert 0.1 < frac < 0.9


class TestMetricsCommand:
    def test_identical_labels_print_100(self, dataset, tmp_path, capsys):
        out = tmp_path / "m"
        rc = main(["metrics", "--pred", str(dataset / "labels"), "--truth", str(dataset / "labels"),
                   "--classes", "3", "--out", str(out)])
        assert rc == EXIT_OK
        assert "mIoU 100.00" in capsys.readouterr().out
        report = (out / "report.csv").read_text()
        assert "miou,100.00" in report

    def test_condensed_output(self, dataset, tmp_path):
        out = tmp_path / "m2"
        rc = main(["metrics", "--pred", str(dataset / "labels"), "--truth", str(dataset / "labels"),
                   "--classes", "3", "--static", "0", "--dynamic", "1,2", "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "condensed.csv").read_text().strip().splitlines()
        assert lines[0] == "group,static,dynamic"
        assert lines[1].startswith("static,1.0,")

    def test_length_mismatch(self, dataset, tmp_path):
        rc = main(["metrics", "--pred", str(dataset / "labels" / "000000.label"),
                   "--truth", str(dataset / "labels"), "--classes", "3",
                   "--out", str(tmp_path / "m3")])
        assert rc == EXIT_CONFIG

    def test_truncated_label_file_is_io_error(self, dataset, tmp_path, caplog):
        pred = tmp_path / "short.label"
        pred.write_bytes((dataset / "labels" / "000000.label").read_bytes()[:-3])
        rc = main(["metrics", "--pred", str(pred), "--truth", str(dataset / "labels" / "000000.label"),
                   "--classes", "3", "--out", str(tmp_path / "m4")])
        assert rc == EXIT_IO
        assert f"byte offset {pred.stat().st_size - 1}" in caplog.text

    @pytest.mark.parametrize("side", ["pred", "truth"])
    def test_label_out_of_range_names_file_and_offset(self, side, tmp_path):
        # the second file of a directory; label 3 at a point whose truth is
        # the ignore label is skipped, as the confusion matrix skips it
        good = tmp_path / "good"
        bad = tmp_path / "bad"
        for d in (good, bad):
            d.mkdir()
            for name in ("a", "b"):
                np.array([0, 1, 2, 1], "<u4").tofile(d / f"{name}.label")
        np.array([0, 1, 7, 1], "<u4").tofile(bad / "b.label")
        if side == "truth":
            np.array([9, 1, 2, 1], "<u4").tofile(bad / "a.label")
        else:
            np.array([3, 1, 2, 1], "<u4").tofile(bad / "a.label")
            np.array([9, 1, 2, 1], "<u4").tofile(good / "a.label")
        paths = {"pred": good, "truth": good, side: bad}
        code, errors = _run_logged(["metrics", "--pred", str(paths["pred"]), "--truth", str(paths["truth"]),
                                    "--classes", "3", "--ignore", "9", "--out", str(tmp_path / "m")])
        assert code == EXIT_IO
        assert errors == [f"i/o: {bad / 'b.label'}: label 7 at byte offset 8 is not a class in [0, 3)"]
        assert not (tmp_path / "m").exists()


class TestPipelineCommand:
    def test_outputs_and_idempotency(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["pipeline", "--config", str(config_path), "--out", str(out1),
                     "--threads", "1"]) == EXIT_OK
        assert main(["pipeline", "--config", str(config_path), "--out", str(out2),
                     "--threads", "4"]) == EXIT_OK
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), str(rel)
        names = {str(f) for f in files1}
        assert "histograms.csv" in names
        assert "report.csv" in names
        assert "confusion.csv" in names
        assert "manifest.txt" in names
        assert "iteration_00/sequence/000000.label" in names
        assert "iteration_00/sequence/000000.mask" in names

    def test_manifest_records_config_and_checksums(self, config_path, tmp_path):
        out = tmp_path / "r3"
        assert main(["pipeline", "--config", str(config_path), "--out", str(out),
                     "--threads", "1"]) == EXIT_OK
        manifest = (out / "manifest.txt").read_text()
        assert "config.aggregate.k = 10" in manifest
        assert "config.run.seed = 3" in manifest
        assert "input.000000.bin = " in manifest
        assert (out / "summary.json").exists()

    def test_noise_is_the_equal_rate_range_gate(self, config_path, tmp_path):
        # predictor.noise = r flips like near_noise = far_noise = r at any range_threshold
        flat = config_path.read_text().replace("noise = 0.25", "noise = 0.3")
        gated = flat.replace("noise = 0.3", "near_noise = 0.3\nfar_noise = 0.3\nrange_threshold = 10")
        outs = []
        for name, text in (("flat", flat), ("gated", gated)):
            (tmp_path / f"{name}.ini").write_text(text)
            outs.append(tmp_path / name)
            assert main(["pipeline", "--config", str(tmp_path / f"{name}.ini"), "--out", str(outs[-1]),
                         "--threads", "1"]) == EXIT_OK
        files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
        assert files[0] == files[1]
        for rel in files[0]:
            if str(rel) != "manifest.txt":
                assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), str(rel)
        assert "config.predictor.near_noise = 0.3" in (outs[1] / "manifest.txt").read_text()

    def test_thread_env_variable(self, config_path, tmp_path, monkeypatch):
        # --threads is the one thread setting: the variable that used to
        # set the default is ignored, and outputs stay byte-identical
        out_env, out_flag = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("LIDAR_ENSEMBLE_THREADS", "junk")
        assert main(["pipeline", "--config", str(config_path), "--out", str(out_env)]) == EXIT_OK
        assert main(["pipeline", "--config", str(config_path), "--out", str(out_flag),
                     "--threads", "1"]) == EXIT_OK
        for rel in ("iteration_00/sequence/000000.label", "histograms.csv", "manifest.txt"):
            assert (out_env / rel).read_bytes() == (out_flag / rel).read_bytes()

    def test_bad_thread_env_without_flag_is_ignored(self, monkeypatch):
        import argparse

        from lidar_ensemble.cli import _resolve_threads

        args = argparse.Namespace(threads=None)
        monkeypatch.delenv("LIDAR_ENSEMBLE_THREADS", raising=False)
        unset = _resolve_threads(args)
        for value in ("junk", "0", "64"):
            monkeypatch.setenv("LIDAR_ENSEMBLE_THREADS", value)
            assert _resolve_threads(args) == unset


@pytest.fixture(scope="module")
def small_drive(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    assert main(["synthgen", "--out", str(root), "--frames", "3", "--points", "220", "--seed", "21"]) == EXIT_OK
    return root


def test_window_0_searches_each_scan_once(small_drive, tmp_path, monkeypatch):
    # at window 0 the labels are the within-frame argmax at every
    # iteration, and only iteration 0's pair records read the search
    calls = []
    original = selftrain.refine_labels

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(selftrain, "refine_labels", counted)
    config = tmp_path / "window0.ini"
    config.write_text(CONFIG_TEMPLATE.format(root=small_drive).replace("window = 4", "window = 0")
                      + "\n[adaptation]\niterations = 2\n")
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--threads", "1"]) == EXIT_OK
    assert calls == [220, 220, 220]


def test_subsamples_that_miss_a_point_name_the_frame_and_keys(small_drive, tmp_path):
    # two draws of half the rows leave some row of frame 0 in neither
    config = tmp_path / "no-identity.ini"
    config.write_text(CONFIG_TEMPLATE.format(root=small_drive).replace(
        "[subsample]\n", "[subsample]\nratio = 0.5\ninclude_identity = false\n"))
    code, messages = _run_logged(["pipeline", "--config", str(config), "--out", str(tmp_path / "out"),
                                  "--threads", "1"])
    assert code == EXIT_CONFIG
    assert len(messages) == 1
    assert re.fullmatch(r"invalid input: frame 0: \d+ of 220 points fall in no subsample trial; "
                        r"set subsample\.include_identity = true, or raise subsample\.ratio or "
                        r"subsample\.trials", messages[0]), messages[0]


class TestDatasetChecks:
    def test_label_count_differs_from_scan_count(self, dataset, config_path, tmp_path, caplog):
        import shutil

        root = tmp_path / "data"
        shutil.copytree(dataset, root)
        (root / "labels" / "000003.label").unlink()
        cfg = tmp_path / "c.ini"
        cfg.write_text(config_path.read_text().replace(f"root = {dataset}", f"root = {root}"))
        rc = main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "x"), "--threads", "1"])
        assert rc == EXIT_CONFIG
        assert "3 label files for 4 scans" in caplog.text

    @pytest.mark.parametrize("predictor, key", [("thresholds = 0.5", "predictor.thresholds"),
                                                ("kind = mock_bands\nnum_classes = 2", "predictor.num_classes")])
    def test_too_few_classes_names_the_config_keys(self, predictor, key, config_path, tmp_path):
        # a 2-class predictor over the 3-class drive: the labels are fine,
        # so the error names the keys that set the class count
        cfg = tmp_path / "c.ini"
        cfg.write_text(config_path.read_text().replace("kind = mock_height\nthresholds = 0.5,2.5", predictor))
        code, errors = _run_logged(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "x"),
                                    "--threads", "1"])
        assert code == EXIT_IO
        (error,) = errors
        assert re.fullmatch(r"i/o: .*/\d+\.label: label 2 at byte offset \d+ is neither a class in \[0, 2\) nor "
                            rf"the ignore label \(config: class count 2 from {re.escape(key)}, "
                            r"run\.ignore_label unset\)", error), error

    @pytest.mark.parametrize("command, code", [("aggregate", EXIT_OK), ("lam-analyze", EXIT_OK),
                                               ("pipeline", EXIT_IO)])
    def test_only_commands_that_score_or_train_read_labels(self, command, code, dataset, config_path,
                                                            prediction_dir, tmp_path):
        import shutil

        root = tmp_path / "data"
        shutil.copytree(dataset, root)
        (root / "labels" / "000001.label").write_bytes(b"\x01\x00\x00")
        cfg = tmp_path / "c.ini"
        cfg.write_text(config_path.read_text().replace(f"root = {dataset}", f"root = {root}"))
        extra = ["--threads", "1"] if command == "pipeline" else ["--pred-dir", str(prediction_dir)]
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")] + extra) == code

    def test_default_threads_follow_cpu_affinity(self, monkeypatch):
        import argparse
        import os

        from lidar_ensemble.cli import _resolve_threads

        args = argparse.Namespace(threads=None)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert _resolve_threads(args) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _resolve_threads(args) == 64


class TestPipelineReuse:
    """pipeline searches each frame once and builds its histograms from
    that search, with the same bytes as a separate analysis pass."""

    @pytest.mark.parametrize("kernel", ["uniform", "lam"])
    def test_one_search_per_frame_same_histograms(self, kernel, dataset, checkpoint, tmp_path,
                                                  monkeypatch):
        from lidar_ensemble import cli, lam, neighbors, selftrain
        from lidar_ensemble.config import load_config

        # the uniform run also takes the epsilon-bounded search
        text = CONFIG_TEMPLATE.format(root=dataset)
        if kernel == "uniform":
            text = text.replace("epsilon =", "epsilon = 1.0")
        else:
            text = text.replace("kernel = uniform", f"kernel = lam\ncheckpoint = {checkpoint}")
        path = tmp_path / "reuse.ini"
        path.write_text(text)
        calls = []
        original = neighbors.precompute_neighborhoods

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (neighbors, selftrain, cli):
            if getattr(module, "precompute_neighborhoods", None) is original:
                monkeypatch.setattr(module, "precompute_neighborhoods", counting)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out), "--threads", "2",
                     "--bins", "7"]) == EXIT_OK
        assert len(calls) == 4  # frames
        monkeypatch.undo()

        # reference: a separate analysis pass over iteration 0's within-frame
        # predictions, searched again and scored by weight_histograms
        cfg = load_config(path)
        seq, _ = cli._load_sequence(cfg)
        within, _ = selftrain.generate_refined_predictions(
            seq.scans, seq.poses, cfg.predictor, cfg.adaptation, keep_refined,
            seed=selftrain._iteration_seed(cfg.adaptation.seed, 0), use_intensity=False)
        chunks, queries = phi_stream(seq.scans, seq.poses, within, cfg.adaptation.aggregation)
        rows, row_query, num_queries = sequence_rows(seq.scans, chunks, queries)
        params = cfg.adaptation.aggregation.kernel.params if kernel == "lam" else None
        report = weight_histograms(params, rows, row_query, num_queries, bins=7)
        lam.write_histogram_csv(report, tmp_path / "old.csv")
        assert (out / "histograms.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _old_refine_from_files(seq, pred_dir, agg, out_dir):
    """aggregate's refinement as it was written before the commands shared
    selftrain.cross_frame_refine: its own dense cloud, index and query per
    frame."""
    from lidar_ensemble import phi_layout
    from lidar_ensemble.aggregate import refine_labels
    from lidar_ensemble.neighbors import SpatialIndex, build_dense_cloud, precompute_neighborhoods

    within = [read_prediction_matrix(pred_dir / f"{t:06d}.lprb") for t in range(len(seq.scans))]
    pairs = list(zip(seq.scans, within))
    refined_dir = out_dir / "refined"
    refined_dir.mkdir(parents=True, exist_ok=True)
    for t in range(len(seq.scans)):
        dense = build_dense_cloud(pairs, seq.poses, t, agg.window, agg.stride)
        nbh = precompute_neighborhoods(SpatialIndex(dense.points), seq.scans[t].points, agg.k, agg.epsilon)
        refined, _ = refine_labels(seq.scans[t].points, within[t].probs, dense, nbh, agg.kernel)
        write_prediction_matrix(refined, refined_dir / f"{t:06d}.lprb")
    epsilon = "none" if agg.epsilon is None else repr(agg.epsilon)
    (out_dir / "refinement.txt").write_text(
        f"kernel = {agg.kernel_name}\nk = {agg.k}\nepsilon = {epsilon}\nwindow = {agg.window}\n"
        f"stride = {agg.stride}\nphi_layout_version = {phi_layout.PHI_LAYOUT_VERSION}\n")


def _old_lam_apply(cfg, seq, pred_dir, checkpoint, modulate, out_dir):
    from lidar_ensemble.aggregate import AggregationSpec, LamKernel
    from lidar_ensemble.lam import load_lam_params, modulate_statistics, save_lam_params

    params = load_lam_params(checkpoint)
    base = cfg.adaptation.aggregation
    agg = AggregationSpec(kernel=LamKernel(params), k=base.k, epsilon=base.epsilon,
                          window=base.window, stride=base.stride)
    if modulate:
        within = [read_prediction_matrix(pred_dir / f"{t:06d}.lprb") for t in range(len(seq.scans))]
        chunks, _ = phi_stream(seq.scans, seq.poses, within, agg)
        params = modulate_statistics(params, [row_moments(chunk) for chunk in chunks if len(chunk)])
        save_lam_params(params, out_dir / "modulated.ckpt")
        agg = AggregationSpec(kernel=LamKernel(params), k=agg.k, epsilon=agg.epsilon,
                              window=agg.window, stride=agg.stride)
    _old_refine_from_files(seq, pred_dir, agg, out_dir)


def _old_lam_analyze(cfg, seq, pred_dir, checkpoint, bins, out_dir):
    from lidar_ensemble.lam import load_lam_params, write_histogram_csv

    params = load_lam_params(checkpoint) if checkpoint else None
    within = [read_prediction_matrix(pred_dir / f"{t:06d}.lprb") for t in range(len(seq.scans))]
    chunks, queries = phi_stream(seq.scans, seq.poses, within, cfg.adaptation.aggregation)
    rows, row_query, num_queries = sequence_rows(seq.scans, chunks, queries)
    report = weight_histograms(params, rows, row_query, num_queries, bins=bins)
    write_histogram_csv(report, out_dir / "histograms.csv")


class TestSharedNeighborPath:
    """aggregate, aggregate --modulate and lam-analyze find each frame's
    neighbors through selftrain.cross_frame_refine and write the same bytes
    as their earlier per-command searches."""

    @pytest.mark.filterwarnings("ignore:variance floored:RuntimeWarning")
    @pytest.mark.parametrize("window, epsilon", [(4, ""), (0, "1.0")])
    def test_same_bytes_as_per_command_search(self, window, epsilon, dataset, prediction_dir,
                                              checkpoint, tmp_path):
        from lidar_ensemble.cli import _load_sequence
        from lidar_ensemble.config import load_config

        path = tmp_path / "shared.ini"
        path.write_text(CONFIG_TEMPLATE.format(root=dataset)
                        .replace("window = 4", f"window = {window}")
                        .replace("epsilon =", f"epsilon = {epsilon}"))
        lam_path = tmp_path / "shared-lam.ini"
        lam_path.write_text(path.read_text().replace("kernel = uniform",
                                                     f"kernel = lam\ncheckpoint = {checkpoint}"))
        cfg = load_config(path)
        seq, _ = _load_sequence(cfg)
        common = ["--pred-dir", str(prediction_dir)]
        runs = [(["aggregate", "--config", str(path)], lambda out: _old_refine_from_files(
            seq, prediction_dir, cfg.adaptation.aggregation, out))]
        for modulate in (False, True):
            runs.append((["aggregate", "--config", str(lam_path)] + ["--modulate"] * modulate,
                         lambda out, m=modulate: _old_lam_apply(cfg, seq, prediction_dir,
                                                                checkpoint, m, out)))
        for config, ckpt in ((path, ""), (lam_path, str(checkpoint))):
            runs.append((["lam-analyze", "--config", str(config), "--bins", "6"],
                         lambda out, c=ckpt: _old_lam_analyze(cfg, seq, prediction_dir, c, 6, out)))
        for i, (command, reference) in enumerate(runs):
            out, old = tmp_path / f"new{i}", tmp_path / f"old{i}"
            old.mkdir()
            reference(old)
            assert main(command + common + ["--out", str(out)]) == EXIT_OK
            expected = sorted(p.relative_to(old) for p in old.rglob("*") if p.is_file())
            written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
            assert written == sorted(expected + [Path("manifest.txt")]), command
            for rel in expected:
                assert (out / rel).read_bytes() == (old / rel).read_bytes(), (command, str(rel))
            if command[0] == "lam-analyze":
                kernel = "lam" if str(lam_path) in command else "uniform"
                assert f"kernel = {kernel}\n" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("command", [["aggregate"], ["aggregate", "--modulate"], ["lam-analyze"]])
    def test_short_prediction_file_is_io_error(self, command, config_path, lam_config_path, prediction_dir,
                                               tmp_path, caplog):
        import shutil

        preds = tmp_path / "preds"
        shutil.copytree(prediction_dir, preds)
        full = read_prediction_matrix(preds / "000002.lprb")
        write_prediction_matrix(PredictionMatrix(full.probs[:-5], full.point_index[:-5]),
                                preds / "000002.lprb")
        cfg = config_path if command == ["aggregate"] else lam_config_path
        rc = main(command + ["--config", str(cfg), "--pred-dir", str(preds), "--out", str(tmp_path / "x")])
        assert rc == EXIT_IO
        assert "000002.lprb: 245 rows for a 250-point scan" in caplog.text


class TestPredictionRowOrder:
    """A whole-scan .lprb may list its rows in any order: every command that
    reads one puts the rows in point order first."""

    @pytest.fixture(scope="class")
    def permuted_dir(self, prediction_dir, tmp_path_factory):
        rng = np.random.default_rng(11)
        out = tmp_path_factory.mktemp("permuted")
        for path in sorted(prediction_dir.glob("*.lprb")):
            pred = read_prediction_matrix(path)
            perm = rng.permutation(len(pred))
            write_prediction_matrix(PredictionMatrix(pred.probs[perm], pred.point_index[perm]),
                                    out / path.name)
        return out

    @pytest.mark.parametrize("command", [
        ["aggregate"], ["aggregate", "--modulate"], ["lam-analyze"], ["cbst"]])
    def test_row_order_does_not_change_outputs(self, command, config_path, lam_config_path, prediction_dir,
                                               permuted_dir, tmp_path):
        cfg = lam_config_path if command in (["aggregate", "--modulate"], ["lam-analyze"]) else config_path
        outputs = []
        for name, preds in (("ordered", prediction_dir), ("permuted", permuted_dir)):
            out = tmp_path / name
            assert main(command + ["--config", str(cfg), "--pred-dir", str(preds),
                                   "--out", str(out)]) == EXIT_OK
            outputs.append({str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                            if p.is_file() and p.name != "manifest.txt"})
        assert outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["aggregate", "cbst"])
    @pytest.mark.parametrize("bad_index", [0, 250])
    def test_index_not_a_permutation_is_io_error(self, command, bad_index, config_path,
                                                 prediction_dir, tmp_path, caplog):
        import shutil

        preds = tmp_path / "preds"
        shutil.copytree(prediction_dir, preds)
        pred = read_prediction_matrix(preds / "000002.lprb")
        index = pred.point_index.copy()
        index[7] = bad_index  # a repeat of point 0, or one past the last point
        write_prediction_matrix(PredictionMatrix(pred.probs, index), preds / "000002.lprb")
        assert main([command, "--config", str(config_path), "--pred-dir", str(preds),
                     "--out", str(tmp_path / "x")]) == EXIT_IO
        assert "000002.lprb: each point index in [0, 250) must appear once" in caplog.text


class TestNonFiniteInput:
    """Each binary reader rejects a NaN with exit 2 and the byte offset of
    the first bad value; a pose that is not a rigid motion names its line."""

    @pytest.fixture()
    def copied(self, dataset, tmp_path):
        import shutil

        root = tmp_path / "data"
        shutil.copytree(dataset, root)
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG_TEMPLATE.format(root=root))
        return root, cfg

    def test_nan_scan_coordinate(self, copied, caplog):
        root, cfg = copied
        scan = root / "velodyne" / "000001.bin"
        raw = np.fromfile(scan, dtype="<f4")
        raw[7 * 4 + 1] = np.nan  # point 7, y
        raw.tofile(scan)
        for command in (["project", "--frame", "1", "--out", "-"],
                        ["pipeline", "--out", str(root / "run"), "--threads", "1"]):
            caplog.clear()
            assert main([command[0], "--config", str(cfg)] + command[1:]) == EXIT_IO
            assert f"000001.bin: non-finite value at byte offset {7 * 16 + 4}" in caplog.text

    def test_nan_probability(self, config_path, prediction_dir, tmp_path, caplog):
        import shutil

        preds = tmp_path / "preds"
        shutil.copytree(prediction_dir, preds)
        path = preds / "000002.lprb"
        blob = bytearray(path.read_bytes())
        k = int.from_bytes(blob[8:12], "little")
        offset = 16 + 4 * (3 * k + 1)  # row 3, class 1
        blob[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        assert main(["aggregate", "--config", str(config_path), "--pred-dir", str(preds),
                     "--out", str(tmp_path / "agg")]) == EXIT_IO
        assert f"000002.lprb: non-finite probability at byte offset {offset}" in caplog.text

    def test_nan_checkpoint_weight(self, dataset, prediction_dir, tmp_path, caplog):
        from lidar_ensemble.lam import initialize_lam_params, save_lam_params

        params = initialize_lam_params(9, seed=0)
        params.layers[0].weight[2, 3] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_lam_params(params, bad)
        # record: name length, name, rank, two dims, then the float64 data
        data = bad.read_bytes().index(b"layer0.weight") + len(b"layer0.weight") + 4 + 8
        cfg = write_lam_config(tmp_path / "c.ini", dataset, bad)
        assert main(["aggregate", "--config", str(cfg), "--pred-dir", str(prediction_dir),
                     "--modulate", "--out", str(tmp_path / "applied")]) == EXIT_IO
        assert (f"tensor 'layer0.weight' holds a non-finite value at byte offset {data + 8 * (2 * 9 + 3)}"
                in caplog.text)

    def test_non_rigid_pose(self, copied, caplog):
        root, cfg = copied
        poses = root / "poses.txt"
        lines = poses.read_text().splitlines()
        vals = lines[2].split()
        vals[0] = repr(2 * float(vals[0]))  # scales the first rotation row
        lines[2] = " ".join(vals)
        poses.write_text("\n".join(lines) + "\n")
        assert main(["pipeline", "--config", str(cfg), "--out", str(root / "run"),
                     "--threads", "1"]) == EXIT_IO
        assert f"{poses}:3: rotation is not orthonormal" in caplog.text


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency, so the CLI starts without it
    import os
    import subprocess
    import sys

    code = "import sys, lidar_ensemble.cli; print('scipy' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command, epsilon", [("pipeline", "0.5"), ("pipeline", ""), ("aggregate", ""),
                                              pytest.param("aggregate --modulate", "", id="aggregate-modulate-"),
                                              ("lam-train", "")])
def test_no_command_loads_scipy(command, epsilon, dataset, prediction_dir, checkpoint, tmp_path):
    # searches with and without epsilon both run on the numpy cell grid; nor
    # numpy.ma, which np.unique and np.quantile import on their first call
    import os
    import subprocess
    import sys

    command, *flags = command.split()
    text = CONFIG_TEMPLATE.format(root=dataset).replace("epsilon =", f"epsilon = {epsilon}")
    if flags:  # --modulate re-fits the configured LAM
        text = text.replace("kernel = uniform", f"kernel = lam\ncheckpoint = {checkpoint}")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")] + flags
    if command == "aggregate":
        argv += ["--pred-dir", str(prediction_dir)]
    if command in ("pipeline", "lam-train"):
        argv += ["--threads", "1"]
    code = ("import sys; from lidar_ensemble.cli import main; "
            f"code = main({argv!r}); print(code, 'scipy' in sys.modules, 'numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == [str(EXIT_OK), "False", "False"]


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_non_finite_epsilon_is_config_error(epsilon, dataset, tmp_path, caplog):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEMPLATE.format(root=dataset).replace("epsilon =", f"epsilon = {epsilon}"))
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", "1"]) == EXIT_CONFIG
    assert "aggregate.epsilon" in caplog.text


# commands that read a config, with their other required arguments
CONFIG_COMMANDS = [
    ["project", "--frame", "0"],
    ["subsample", "--frame", "0"],
    ["aggregate", "--pred-dir", "."],
    ["aggregate", "--pred-dir", ".", "--modulate"],
    ["lam-train"],
    ["lam-analyze", "--pred-dir", "."],
    ["cbst", "--pred-dir", "."],
    ["pipeline"],
]


@pytest.mark.parametrize("key, value", [
    ("predictor.thresholds", "2.5,0.5"),
    ("predictor.thresholds", "0.5,0.5"),
    ("predictor.thresholds", "0.5,nan"),
    ("predictor.thresholds", "0.5,inf"),
    ("predictor.thresholds", "low,high"),
    ("predictor.band_width", "0"),
    ("predictor.band_width", "-1"),
    ("predictor.band_width", "inf"),
    ("predictor.band_width", "nan"),
    ("predictor.band_width", "wide"),
    ("predictor.num_classes", "0"),
    ("predictor.num_classes", "three"),
    ("predictor.noise", "1.5"),
    ("predictor.noise", "-0.1"),
    ("predictor.noise", "nan"),
    ("predictor.near_noise", "2"),
    ("predictor.far_noise", "-1"),
    ("predictor.range_threshold", "nan"),
    ("run.seed", "-1"),
    ("lam.learning_rate", "nan"),
    ("lam.learning_rate", "inf"),
    ("lam.ce_weight", "nan"),
    ("lam.lovasz_weight", "inf"),
    ("subsample.ratio", "nan"),
    ("sensor.fov_up", "nan"),
    ("sensor.fov_down", "inf"),
    ("sensor.height", "0"),
    ("sensor.width", "0"),
    ("sensor.fov_up", "-30"),
    ("lam.epochs", "0"),
    ("lam.batch", "0"),
    ("lam.learning_rate", "-1"),
    ("cbst.portion", "0"),
    ("subsample.trials", "0"),
    ("subsample.mode", "foo"),
    ("subsample.ratio", "0"),
    ("adaptation.iterations", "0"),
])
def test_bad_value_exits_1_from_every_command(key, value, dataset, tmp_path, caplog):
    # the config is read in one place, so each command rejects the value
    # the same way, whatever it builds, and the message names the key
    section, name = key.split(".")
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[dataset]\nroot = {dataset}\n[{section}]\n{name} = {value}\n")
    for command in CONFIG_COMMANDS:
        caplog.clear()
        assert main(command[:1] + ["--config", str(cfg), "--out", str(tmp_path / command[0])] + command[1:]) \
            == EXIT_CONFIG, command
        assert key in caplog.text, command


class TestPipelineWithLearnedKernel:
    def test_histograms_reflect_learned_weights(self, dataset, checkpoint, tmp_path):
        cfg = tmp_path / "lam_pipeline.ini"
        cfg.write_text(f"""
[dataset]
root = {dataset}
[sensor]
height = 32
width = 512
fov_up = 15
fov_down = 25
beams = 32
[subsample]
trials = 2
[aggregate]
kernel = lam
checkpoint = {checkpoint}
k = 10
epsilon =
window = 4
stride = 1
[predictor]
kind = mock_height
thresholds = 0.5,2.5
noise = 0.25
[run]
seed = 3
""")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out),
                     "--threads", "1", "--bins", "4"]) == EXIT_OK
        lines = (out / "histograms.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 4
        # learned weights are not the uniform 1/valid_count constant
        means = {float(line.split(",")[4]) for line in lines[1:] if int(line.split(",")[3]) > 0}
        assert len(means) > 1


class TestPrecomputedPredictor:
    """The integration surface for external networks: exported predictions."""

    def precomputed_config(self, dataset, prediction_dir, tmp_path, trials=1, noise="0.0"):
        path = tmp_path / "pre.ini"
        path.write_text(f"""
[dataset]
root = {dataset}
[sensor]
height = 32
width = 512
fov_up = 15
fov_down = 25
beams = 32
[subsample]
trials = {trials}
[aggregate]
kernel = uniform
k = 10
epsilon =
window = 4
stride = 1
[predictor]
kind = precomputed
directory = {prediction_dir}
num_classes = 3
noise = {noise}
[run]
seed = 3
""")
        return path

    def test_pipeline_consumes_exported_predictions(self, dataset, prediction_dir, tmp_path):
        cfg = self.precomputed_config(dataset, prediction_dir, tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == EXIT_OK
        labels = load_labels(out / "iteration_00" / "sequence" / "000000.label")
        assert len(labels) == 250

    def test_noise_applies_to_exported_predictions(self, dataset, prediction_dir, tmp_path):
        # the noise keys wrap every kind of predictor, stored predictions too
        labels = {}
        for noise in ("0.0", "0.4"):
            cfg = self.precomputed_config(dataset, prediction_dir, tmp_path, noise=noise)
            out = tmp_path / f"noise-{noise}"
            assert main(["pipeline", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == EXIT_OK
            labels[noise] = np.concatenate([load_labels(p) for p in
                                            sorted((out / "iteration_00" / "sequence").glob("*.label"))])
        assert (labels["0.0"] != labels["0.4"]).mean() > 0.05

        # a flipped point's row becomes one-hot; every other point keeps its
        # stored row, soft as exported
        from lidar_ensemble.config import load_config

        soft = tmp_path / "soft"
        soft.mkdir()
        for path in sorted(prediction_dir.glob("*.lprb")):
            pred = read_prediction_matrix(path)
            write_prediction_matrix(PredictionMatrix(0.7 * pred.probs + 0.1, pred.point_index),
                                    soft / path.name)
        cfg = load_config(self.precomputed_config(dataset, soft, tmp_path, noise="0.4"))
        seq, _ = cli._load_sequence(cfg)
        flipped = []
        for scan in seq.scans:
            stored = read_scan_prediction(soft / f"{scan.frame_id:06d}.lprb").probs
            rows = cfg.predictor(scan).probs
            flip = rows.max(axis=1) == 1.0
            assert rows[~flip].tobytes() == stored[~flip].tobytes()
            assert (rows[flip].argmax(axis=1) != stored[flip].argmax(axis=1)).all()
            flipped.append(flip)
        assert 0.3 < np.concatenate(flipped).mean() < 0.5

    def test_short_prediction_file_is_io_error(self, dataset, prediction_dir, tmp_path, caplog):
        import shutil

        preds = tmp_path / "preds"
        shutil.copytree(prediction_dir, preds)
        full = read_prediction_matrix(preds / "000002.lprb")
        write_prediction_matrix(PredictionMatrix(full.probs[:-5], full.point_index[:-5]),
                                preds / "000002.lprb")
        cfg = self.precomputed_config(dataset, preds, tmp_path)
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--threads", "1"]) == EXIT_IO
        assert "000002.lprb: 245 rows for a 250-point scan" in caplog.text

    @pytest.mark.parametrize("command", ["aggregate", "pipeline"])
    def test_class_count_mismatch_is_io_error(self, command, dataset, config_path, prediction_dir, tmp_path,
                                              caplog):
        # frame 1 exported with 4 classes, the others with the configured 3
        import shutil

        preds = tmp_path / "preds"
        shutil.copytree(prediction_dir, preds)
        full = read_prediction_matrix(preds / "000001.lprb")
        wide = np.hstack([full.probs, np.zeros((len(full), 1))])
        write_prediction_matrix(PredictionMatrix(wide, full.point_index), preds / "000001.lprb")
        if command == "aggregate":
            argv = ["aggregate", "--config", str(config_path), "--pred-dir", str(preds)]
        else:
            argv = ["pipeline", "--config", str(self.precomputed_config(dataset, preds, tmp_path)),
                    "--threads", "1"]
        assert main(argv + ["--out", str(tmp_path / "x")]) == EXIT_IO
        assert "000001.lprb: 4 classes, expected 3 (class count at byte offset 8)" in caplog.text

    def test_subsample_trials_rejected(self, dataset, prediction_dir, tmp_path):
        cfg = self.precomputed_config(dataset, prediction_dir, tmp_path, trials=3)
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--threads", "1"]) == EXIT_CONFIG
