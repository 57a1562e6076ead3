"""Command-line surface for the pipeline.

Every subcommand reads its declared inputs, writes its declared outputs
plus a manifest, and exits 0 on success or with a category code on
failure: 1 configuration, 2 I/O or malformed files, 3 numeric failure.
Logs go to standard error; data goes to files, or to standard output only
where "-" is accepted.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .aggregate import LamKernel, phi_moments
from .config import ConfigError, PipelineConfig, load_config
from .errors import FileFormatError
from .geometry import load_point_cloud_bin, load_poses, project_to_range_image, save_point_cloud_bin
from .lam import (LamTrainingError, modulate_statistics, save_lam_params, train_lam, weight_histograms,
                  write_histogram_csv, write_loss_trace_csv)
from .metrics import (condense_static_dynamic, confusion, iou, write_confusion_csv,
                      write_iou_csv, write_iou_summary)
from .selftrain import (LidarSequence, PrecomputedPredictor, apply_cbst, build_lam_training_set,
                        cross_frame_refine, file_checksum, frame_neighborhoods, hard_labels,
                        load_labels, run_adaptation, save_labels, save_selection_mask,
                        sequence_sensor_range, within_frame_predictions, write_manifest)
from .subsample import (apply_row_mask, read_prediction_matrix, read_scan_prediction, row_mask,
                        within_frame_ensemble, write_prediction_matrix)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

INDEX_MAGIC = b"LIDX"

log = logging.getLogger("lidar_ensemble")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _at_least_one(text: str) -> int:
    """--bins, --threads and --classes: a histogram needs a bin, a run a
    worker and a confusion matrix a class, so a smaller value fails here
    and not after the run has written its labels or blamed a label file."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------

def _scan_paths(cfg: PipelineConfig):
    paths = sorted(cfg.scans_dir.glob("*.bin"))
    if not paths:
        raise ConfigError(f"dataset.scans: no .bin files under {cfg.scans_dir}")
    return paths


def _load_sequence(cfg: PipelineConfig):
    """The dataset's scans and poses as a sequence, and the scans' paths."""
    paths = _scan_paths(cfg)
    scans = [load_point_cloud_bin(p, frame_id=i) for i, p in enumerate(paths)]
    poses = load_poses(cfg.poses_path)
    if len(poses) < len(scans):
        raise FileFormatError(f"{cfg.poses_path}: {len(poses)} poses for {len(scans)} scans, file ends "
                              f"at byte offset {cfg.poses_path.stat().st_size}")
    return LidarSequence(scans=scans, poses=poses[: len(scans)]), paths


def _load_truths(cfg: PipelineConfig, seq: LidarSequence):
    """The dataset's labels, one array per scan of seq, or None without a
    labels directory. Each file holds one label per point of its scan,
    each a class of the predictor or the ignore label; a label that is
    neither names both config keys too, as the config may be what is off."""
    if cfg.labels_dir is None:
        return None
    label_paths = sorted(cfg.labels_dir.glob("*.label"))
    if len(label_paths) != len(seq.scans):
        raise ConfigError(f"dataset.labels: {len(label_paths)} label files for {len(seq.scans)} scans")
    truths = []
    for path, scan in zip(label_paths, seq.scans):
        labels = load_labels(path)
        if len(labels) != len(scan):
            raise FileFormatError(f"{path}: {len(labels)} labels for a {len(scan)}-point scan, first unmatched "
                                  f"at byte offset {4 * min(len(labels), len(scan))}")
        num_classes = cfg.predictor.num_classes
        bad = np.flatnonzero((labels >= num_classes) & (labels != cfg.ignore_label))
        if bad.size:
            key = "thresholds" if cfg.raw["predictor"]["kind"].strip() == "mock_height" else "num_classes"
            ignore = "unset" if cfg.ignore_label is None else f"= {cfg.ignore_label}"
            raise FileFormatError(f"{path}: label {labels[bad[0]]} at byte offset {4 * bad[0]} is neither a "
                                  f"class in [0, {num_classes}) nor the ignore label (config: class count "
                                  f"{num_classes} from predictor.{key}, run.ignore_label {ignore})")
        truths.append(labels)
    return truths


def _load_frame(cfg: PipelineConfig, frame: int):
    """Scan --frame of the dataset and its path."""
    paths = _scan_paths(cfg)
    if not (0 <= frame < len(paths)):
        raise ConfigError(f"--frame {frame} outside dataset of {len(paths)} scans")
    return load_point_cloud_bin(paths[frame], frame_id=frame), paths[frame]


def _read_pred_dir(cfg: PipelineConfig, seq: LidarSequence, pred_dir):
    """The stored prediction of every scan, read from --pred-dir."""
    stored = PrecomputedPredictor(pred_dir, cfg.predictor.num_classes)
    return [stored(scan) for scan in seq.scans]


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return args.threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _command_manifest(out_dir: Path, cfg: PipelineConfig | None, args, inputs=(), extra=()):
    items = [("tool", "lidar-ensemble"), ("version", __version__), ("command", args.command)]
    if cfg is not None:
        items += [("seed", str(cfg.adaptation.seed))] + cfg.manifest_items()
    items += list(extra)
    for path in inputs:
        items.append((f"input.{Path(path).name}", file_checksum(path)))
    write_manifest(out_dir / "manifest.txt", items)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_project(args) -> int:
    cfg = load_config(args.config)
    cloud, path = _load_frame(cfg, args.frame)
    index = project_to_range_image(cloud, cfg.adaptation.sensor)
    lines = ["point,u,v,range"]
    for i in range(len(cloud)):
        u, v = index.pixel_of_point[i]
        lines.append(f"{i},{u},{v},{index.range_of_point[i].item()!r}")
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        _command_manifest(out.parent, cfg, args, inputs=[path],
                          extra=[("frame", str(args.frame)), ("output", out.name)])
    return EXIT_OK


def cmd_subsample(args) -> int:
    cfg = load_config(args.config)
    cloud, path = _load_frame(cfg, args.frame)
    index = project_to_range_image(cloud, cfg.adaptation.sensor)
    rng = np.random.default_rng(cfg.adaptation.seed)
    mask = row_mask(cfg.adaptation.sensor, cfg.adaptation.subsample, rng)
    sub, parent = apply_row_mask(cloud, index, mask)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_point_cloud_bin(sub, out_dir / f"{args.frame:06d}.bin")
    with open(out_dir / f"{args.frame:06d}.lidx", "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(np.uint32(len(parent)).tobytes())
        fh.write(parent.astype("<u4").tobytes())
    _command_manifest(out_dir, cfg, args, inputs=[path],
                      extra=[("frame", str(args.frame)),
                             ("kept_points", str(len(sub))),
                             ("kept_rows", str(int(mask.sum())))])
    log.info("kept %d of %d points (%d rows)", len(sub), len(cloud), int(mask.sum()))
    return EXIT_OK


def cmd_ensemble(args) -> int:
    predictions = [read_prediction_matrix(p) for p in args.inputs]
    merged = within_frame_ensemble(predictions, args.parent_size)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_prediction_matrix(merged, out)
    _command_manifest(out.parent, None, args, inputs=args.inputs,
                      extra=[("parent_size", str(args.parent_size)), ("output", out.name)])
    return EXIT_OK


def _write_refined(seq: LidarSequence, within, agg, out_dir: Path):
    """Each scan's refined/{t:06d}.lprb, written by the worker that refined it."""
    refined_dir = out_dir / "refined"
    refined_dir.mkdir(parents=True, exist_ok=True)

    def write(t, refined, pairs):
        write_prediction_matrix(refined(), refined_dir / f"{t:06d}.lprb")

    cross_frame_refine(seq.scans, seq.poses, within, agg, write)
    write_manifest(out_dir / "refinement.txt", agg.manifest_items())


def cmd_aggregate(args) -> int:
    cfg = load_config(args.config)
    agg = cfg.adaptation.aggregation
    if args.modulate and not isinstance(agg.kernel, LamKernel):
        raise ConfigError(f"{args.config}: aggregate.kernel: --modulate re-fits a LAM checkpoint, and the "
                          f"config names kernel = {agg.kernel_name}")
    seq, paths = _load_sequence(cfg)
    within = _read_pred_dir(cfg, seq, args.pred_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs, extra = list(paths), [("pred_dir", str(args.pred_dir))]
    if args.modulate:
        def frame_moments():  # each frame's feature-row moments, built one block at a time
            for t in range(len(seq.scans)):
                dense, nbh = frame_neighborhoods(seq.scans, seq.poses, within, t, agg)
                if len(nbh.indices):
                    yield phi_moments(within[t].probs, dense, nbh)

        params = modulate_statistics(agg.kernel.params, frame_moments())
        save_lam_params(params, out_dir / "modulated.ckpt")
        agg = dataclasses.replace(agg, kernel=LamKernel(params))
        inputs.append(cfg.checkpoint)
        extra.append(("modulated", "true"))
    _write_refined(seq, within, agg, out_dir)
    _command_manifest(out_dir, cfg, args, inputs=inputs, extra=extra)
    return EXIT_OK


def cmd_lam_train(args) -> int:
    cfg = load_config(args.config)
    seq, paths = _load_sequence(cfg)
    truths = _load_truths(cfg, seq)
    if truths is None:
        raise ConfigError("dataset.labels: ground-truth labels are required to train the aggregation model")
    within = within_frame_predictions(seq.scans, cfg.predictor, cfg.adaptation,
                                      seed=cfg.adaptation.seed, use_intensity=False,
                                      threads=_resolve_threads(args))
    data = build_lam_training_set(seq.scans, seq.poses, within, truths,
                                  cfg.adaptation.aggregation, ignore_label=cfg.ignore_label)
    params, trace = train_lam(data, cfg.train)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_lam_params(params, out_dir / "lam.ckpt")
    write_loss_trace_csv(trace, out_dir / "loss_trace.csv")
    _command_manifest(out_dir, cfg, args, inputs=paths,
                      extra=[("neighborhoods", str(len(data))),
                             ("final_loss", repr(trace[-1].total))])
    log.info("trained %d epochs on %d neighborhoods, final loss %.6f",
             cfg.train.epochs, len(data), trace[-1].total)
    return EXIT_OK


def _write_histograms(seq: LidarSequence, records, window: int, bins: int, out_dir: Path):
    """histograms.csv of the PairRecords of seq's scans, searched with window."""
    report = weight_histograms(records, sequence_sensor_range(seq.scans), window, bins=bins)
    write_histogram_csv(report, out_dir / "histograms.csv")


def cmd_lam_analyze(args) -> int:
    cfg = load_config(args.config)
    seq, paths = _load_sequence(cfg)
    agg = cfg.adaptation.aggregation
    within = _read_pred_dir(cfg, seq, args.pred_dir)
    records = cross_frame_refine(seq.scans, seq.poses, within, agg, lambda t, refined, pairs: pairs())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_histograms(seq, records, agg.window, args.bins, out_dir)
    _command_manifest(out_dir, cfg, args, inputs=paths,
                      extra=[("kernel", agg.kernel_name), ("bins", str(args.bins))])
    return EXIT_OK


def cmd_cbst(args) -> int:
    cfg = load_config(args.config)
    portion = cfg.adaptation.cbst.portion
    pred_dir = Path(args.pred_dir)
    paths = sorted(pred_dir.glob("*.lprb"))
    if not paths:
        raise ConfigError(f"--pred-dir: no .lprb files under {pred_dir}")
    label_sets = apply_cbst([hard_labels(read_scan_prediction(p)) for p in paths], cfg.adaptation.cbst)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, ls in zip(paths, label_sets):
        save_labels(ls.labels, out_dir / (path.stem + ".label"))
        save_selection_mask(ls.selected, out_dir / (path.stem + ".mask"))
    mask = np.concatenate([ls.selected for ls in label_sets])
    _command_manifest(out_dir, cfg, args, inputs=paths,
                      extra=[("portion", repr(portion)),
                             ("selected", str(int(mask.sum()))),
                             ("total", str(len(mask)))])
    log.info("selected %d of %d points at portion %.3f", int(mask.sum()), len(mask), portion)
    return EXIT_OK


def _load_label_inputs(spec: str):
    """The labels of a .label file, or of every .label file under a
    directory in name order, with the files and the index of each file's
    first label."""
    path = Path(spec)
    if path.is_dir():
        files = sorted(path.glob("*.label"))
        if not files:
            raise ConfigError(f"no .label files under {path}")
    else:
        files = [path]
    parts = [load_labels(p) for p in files]
    starts = np.cumsum([0] + [len(part) for part in parts[:-1]])
    return np.concatenate(parts), files, starts


def _reject_label(labels, files, starts, bad, classes: int):
    """A FileFormatError naming the file and byte offset of the first label
    flagged in bad, if any."""
    first = np.flatnonzero(bad)
    if first.size:
        i = first[0]
        f = int(np.searchsorted(starts, i, side="right")) - 1
        raise FileFormatError(f"{files[f]}: label {labels[i]} at byte offset {4 * (i - starts[f])} is not a class "
                              f"in [0, {classes})")


def cmd_metrics(args) -> int:
    grouping = {}
    for group in ("static", "dynamic"):
        for c in _parse_class_list(getattr(args, group)):
            if not 0 <= c < args.classes:
                raise ConfigError(f"--{group}: class {c} is not in [0, {args.classes})")
            if grouping.setdefault(c, group) != group:
                raise ConfigError(f"--{group}: class {c} is listed by --{grouping[c]} too")
    pred, pred_files, pred_starts = _load_label_inputs(args.pred)
    truth, truth_files, truth_starts = _load_label_inputs(args.truth)
    if len(pred) != len(truth):
        raise ConfigError(f"prediction and truth cover {len(pred)} vs {len(truth)} points")
    # the points the confusion matrix counts, whose two labels must be classes
    scored = np.ones(len(truth), bool) if args.ignore is None else truth != args.ignore
    for labels, files, starts in ((truth, truth_files, truth_starts), (pred, pred_files, pred_starts)):
        _reject_label(labels, files, starts, scored & (labels >= args.classes), args.classes)
    matrix = confusion(pred, truth, args.classes, ignore_label=args.ignore)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = _write_scores(matrix, out_dir)
    extra = [("classes", str(args.classes)), ("miou", f"{report.miou:.2f}")]
    if args.static or args.dynamic:
        condensed = condense_static_dynamic(matrix, grouping)
        lines = ["group,static,dynamic"]
        for r, name in enumerate(("static", "dynamic")):
            lines.append(f"{name},{condensed.normalized[r, 0].item()!r},{condensed.normalized[r, 1].item()!r}")
        (out_dir / "condensed.csv").write_text("\n".join(lines) + "\n")
        extra.append(("condensed", "condensed.csv"))
    _command_manifest(out_dir, None, args, inputs=list(pred_files) + list(truth_files), extra=extra)
    sys.stdout.write(f"mIoU {report.miou:.2f}\n")
    return EXIT_OK


def _write_scores(matrix, out_dir: Path):
    """report.csv, summary.json and confusion.csv of a confusion matrix;
    returns its IoU report."""
    report = iou(matrix)
    write_iou_csv(report, out_dir / "report.csv")
    write_iou_summary(report, out_dir / "summary.json")
    write_confusion_csv(matrix, out_dir / "confusion.csv")
    return report


def _parse_class_list(text):
    if not text:
        return []
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    seq, paths = _load_sequence(cfg)
    truths = _load_truths(cfg, seq)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results, pairs = run_adaptation(seq, cfg.predictor, cfg.adaptation, out_dir,
                                    threads=_resolve_threads(args))

    # analysis artifacts reflect iteration 0, which hides intensity
    _write_histograms(seq, pairs, cfg.adaptation.aggregation.window, args.bins, out_dir)

    if truths is not None:
        pred_all = np.concatenate([ls.labels for ls in results[0]])
        truth_all = np.concatenate(truths)
        matrix = confusion(pred_all, truth_all, cfg.predictor.num_classes, ignore_label=cfg.ignore_label)
        miou_report = _write_scores(matrix, out_dir)
        log.info("teacher mIoU vs ground truth: %.2f", miou_report.miou)

    _command_manifest(out_dir, cfg, args, inputs=paths, extra=[("frames", str(len(seq.scans)))])
    return EXIT_OK


def cmd_synthgen(args) -> int:
    from .synth import SyntheticSceneSpec, generate_sequence, write_dataset

    spec = SyntheticSceneSpec(num_frames=args.frames, points_per_frame=args.points, seed=args.seed)
    seq, truths = generate_sequence(spec)
    write_dataset(args.out, seq, truths)
    log.info("wrote %d synthetic frames to %s", args.frames, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lidar-ensemble", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    public = ("project", "subsample", "ensemble", "aggregate", "lam-train", "lam-analyze", "cbst",
              "metrics", "pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(public) + "}", parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        return p

    p = add("project", cmd_project, "Project one scan to range-image pixels (CSV: point,u,v,range).")
    p.add_argument("--config", required=True, help="pipeline configuration file")
    p.add_argument("--frame", type=int, required=True, help="scan index within the dataset")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")

    p = add("subsample", cmd_subsample, "Row-subsample one scan; writes the cloud and its parent index map.")
    p.add_argument("--config", required=True, help="pipeline configuration file")
    p.add_argument("--frame", type=int, required=True, help="scan index within the dataset")
    p.add_argument("--out", required=True, help="output directory")

    p = add("ensemble", cmd_ensemble, "Average prediction files over a parent cloud (within-frame ensembling).")
    p.add_argument("--inputs", nargs="+", required=True, help="prediction (.lprb) files to average")
    p.add_argument("--parent-size", type=int, required=True, help="point count of the parent cloud")
    p.add_argument("--out", required=True, help="output .lprb path")

    p = add("aggregate", cmd_aggregate, "Cross-frame refinement of per-frame predictions with the configured kernel.")
    p.add_argument("--config", required=True, help="pipeline configuration file")
    p.add_argument("--pred-dir", required=True, help="directory of per-frame .lprb predictions")
    p.add_argument("--modulate", action="store_true",
                   help="re-fit the LAM's standardization statistics to this dataset first (aggregate.kernel = lam)")
    p.add_argument("--out", required=True, help="output directory")

    p = add("lam-train", cmd_lam_train, "Train the aggregation model on the configured labeled dataset.")
    p.add_argument("--config", required=True, help="pipeline configuration file")
    p.add_argument("--out", required=True, help="output directory (lam.ckpt, loss_trace.csv)")
    p.add_argument("--threads", type=_at_least_one, default=None, help="worker threads (default: the CPUs this process may run on)")

    p = add("lam-analyze", cmd_lam_analyze, "Histogram the normalized aggregation weights over feature slices.")
    p.add_argument("--config", required=True, help="pipeline configuration file")
    p.add_argument("--pred-dir", required=True, help="directory of per-frame .lprb predictions")
    p.add_argument("--bins", type=_at_least_one, default=20, help="histogram bins per slice")
    p.add_argument("--out", required=True, help="output directory")

    p = add("cbst", cmd_cbst, "Class-balanced selection of the most confident pseudo labels.")
    p.add_argument("--config", required=True, help="pipeline configuration file")
    p.add_argument("--pred-dir", required=True, help="directory of refined .lprb predictions")
    p.add_argument("--out", required=True, help="output directory (.label and .mask files)")

    p = add("metrics", cmd_metrics, "Confusion matrix, per-class IoU, and mIoU between label files.")
    p.add_argument("--pred", required=True, help="predicted .label file or directory")
    p.add_argument("--truth", required=True, help="ground-truth .label file or directory")
    p.add_argument("--classes", type=_at_least_one, required=True, help="number of classes")
    p.add_argument("--ignore", type=int, default=None, help="ground-truth label to skip")
    p.add_argument("--static", default="", help="comma-separated static class ids for 2x2 condensation")
    p.add_argument("--dynamic", default="", help="comma-separated dynamic class ids for 2x2 condensation")
    p.add_argument("--out", required=True, help="output directory")

    p = add("pipeline", cmd_pipeline, "Full pseudo-label pipeline: ensembling, refinement, CBST, reports.")
    p.add_argument("--config", required=True, help="pipeline configuration file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bins", type=_at_least_one, default=20, help="histogram bins per slice")
    p.add_argument("--threads", type=_at_least_one, default=None, help="worker threads (default: the CPUs this process may run on)")

    # internal: synthetic dataset generator used by tests and CI
    p = sub.add_parser("synthgen", description="Generate a synthetic labeled dataset.")
    p.set_defaults(func=cmd_synthgen)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("configuration: %s", exc)
        return EXIT_CONFIG
    except (FileFormatError, OSError) as exc:
        log.error("i/o: %s", exc)
        return EXIT_IO
    except (LamTrainingError, FloatingPointError, np.linalg.LinAlgError) as exc:
        log.error("numeric: %s", exc)
        return EXIT_NUMERIC
    except MemoryError as exc:
        log.error("numeric: out of memory%s", f": {exc}" if str(exc) else "")
        return EXIT_NUMERIC
    except (ValueError, IndexError, KeyError) as exc:
        log.error("invalid input: %s", exc)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())
