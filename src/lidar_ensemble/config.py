"""Sectioned key-value (INI-style) pipeline configuration.

Every hyperparameter defaults to the reference experiment values:
aggregation k 60, epsilon 0.2 m, a 90-frame half-window at stride 3,
within-frame trials of the original plus two random subsamples at ratio
0.5, learning rate 1e-3 over 25 epochs, and a CBST portion of 0.2.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .aggregate import AggregationSpec, LamKernel, UniformKernel
from .errors import FileFormatError
from .geometry import AugmentationSpec, SensorConfig
from .lam import TrainConfig, load_lam_params
from .selftrain import AdaptationConfig, CbstConfig, SubsampleSpec


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key path."""


DEFAULTS = {
    "dataset": {"root": ".", "scans": "velodyne", "poses": "poses.txt", "labels": "labels"},
    "sensor": {"height": "64", "width": "2048", "fov_up": "3.0", "fov_down": "25.0", "beams": "64"},
    "subsample": {"mode": "random", "ratio": "0.5", "trials": "3", "include_identity": "true"},
    "aggregate": {"kernel": "uniform", "checkpoint": "", "k": "60", "epsilon": "0.2",
                  "window": "90", "stride": "3"},
    "lam": {"learning_rate": "1e-3", "epochs": "25", "batch": "256",
            "ce_weight": "1.0", "lovasz_weight": "1.0"},
    "cbst": {"portion": "0.2"},
    "adaptation": {"iterations": "1", "intensity_policy": "drop_first_iteration_then_use"},
    "augment": {"rotation": "45", "flip_x": "true", "flip_y": "true",
                "scale_min": "0.9", "scale_max": "1.1", "translation_sigma": "0.5"},
    "predictor": {"kind": "mock_height", "thresholds": "0.5,2.5", "noise": "0.0",
                  "near_noise": "", "far_noise": "", "range_threshold": "",
                  "band_width": "4.0", "num_classes": "3", "directory": ""},
    "run": {"seed": "0", "ignore_label": ""},
}


@dataclass
class PipelineConfig:
    """Parsed and validated pipeline configuration."""

    root: Path
    scans_dir: Path
    poses_path: Path
    labels_dir: Path | None
    sensor: SensorConfig
    subsample: SubsampleSpec
    aggregation: AggregationSpec
    train: TrainConfig
    cbst: CbstConfig
    adaptation_iterations: int
    student_augmentation: AugmentationSpec
    predictor: dict
    seed: int
    ignore_label: int | None
    raw: dict = field(default_factory=dict)

    def adaptation(self) -> AdaptationConfig:
        return AdaptationConfig(
            sensor=self.sensor,
            subsample=self.subsample,
            aggregation=self.aggregation,
            cbst=self.cbst,
            iterations=self.adaptation_iterations,
            seed=self.seed,
        )

    def manifest_items(self):
        items = []
        for section in sorted(self.raw):
            for key in sorted(self.raw[section]):
                items.append((f"config.{section}.{key}", self.raw[section][key]))
        return items


def _get(raw, section, key, convert, validate=None):
    text = raw[section][key]
    try:
        value = convert(text)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc
    if validate is not None and not validate(value):
        raise ConfigError(f"{section}.{key}: invalid value {text!r}")
    return value


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _optional_float(text: str):
    text = text.strip()
    if text in ("", "none", "off"):
        return None
    return float(text)


def _optional_int(text: str):
    text = text.strip()
    if text == "":
        return None
    return int(text)


def load_config(path) -> PipelineConfig:
    """Parse, validate, and resolve a configuration file.

    Unknown sections or keys are errors; the dataset root, scans and poses
    must exist, and a labels directory that does not is treated as unset.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    raw = {section: dict(DEFAULTS[section]) for section in DEFAULTS}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            raw[section][key] = value

    root = Path(raw["dataset"]["root"])
    scans_dir = root / raw["dataset"]["scans"]
    poses_path = root / raw["dataset"]["poses"]
    labels_dir = root / raw["dataset"]["labels"] if raw["dataset"]["labels"].strip() else None
    for name, p in (("dataset.root", root), ("dataset.scans", scans_dir), ("dataset.poses", poses_path)):
        if not p.exists():
            raise ConfigError(f"{name}: path does not exist: {p}")
    if labels_dir is not None and not labels_dir.exists():
        labels_dir = None

    try:
        sensor = SensorConfig(
            height=_get(raw, "sensor", "height", int),
            width=_get(raw, "sensor", "width", int),
            fov_up=_get(raw, "sensor", "fov_up", float),
            fov_down=_get(raw, "sensor", "fov_down", float),
            beams=_get(raw, "sensor", "beams", int),
        )
        subsample = SubsampleSpec(
            mode=raw["subsample"]["mode"],
            ratio=_get(raw, "subsample", "ratio", float),
            trials=_get(raw, "subsample", "trials", int),
            include_identity=_get(raw, "subsample", "include_identity", _bool),
        )
        kernel_name = raw["aggregate"]["kernel"].strip().lower()
        if kernel_name == "uniform":
            kernel = UniformKernel()
        elif kernel_name == "lam":
            ckpt = raw["aggregate"]["checkpoint"].strip()
            if not ckpt:
                raise ConfigError("aggregate.checkpoint: required when aggregate.kernel = lam")
            ckpt_path = root / ckpt if not Path(ckpt).is_absolute() else Path(ckpt)
            if not ckpt_path.exists():
                raise ConfigError(f"aggregate.checkpoint: path does not exist: {ckpt_path}")
            kernel = LamKernel(load_lam_params(ckpt_path))
        else:
            raise ConfigError(f"aggregate.kernel: must be 'uniform' or 'lam', got {kernel_name!r}")
        try:
            aggregation = AggregationSpec(
                kernel=kernel,
                k=_get(raw, "aggregate", "k", int),
                epsilon=_get(raw, "aggregate", "epsilon", _optional_float),
                window=_get(raw, "aggregate", "window", int),
                stride=_get(raw, "aggregate", "stride", int),
            )
        except ValueError as exc:
            # the spec's messages start with the field name
            raise ConfigError(f"aggregate.{exc}") from exc
        train = TrainConfig(
            learning_rate=_get(raw, "lam", "learning_rate", float),
            epochs=_get(raw, "lam", "epochs", int),
            batch=_get(raw, "lam", "batch", int),
            ce_weight=_get(raw, "lam", "ce_weight", float),
            lovasz_weight=_get(raw, "lam", "lovasz_weight", float),
            seed=_get(raw, "run", "seed", int),
        )
        cbst = CbstConfig(portion=_get(raw, "cbst", "portion", float))
        augmentation = AugmentationSpec(
            rotation_range=_get(raw, "augment", "rotation", float),
            flip_x=_get(raw, "augment", "flip_x", _bool),
            flip_y=_get(raw, "augment", "flip_y", _bool),
            scale_range=(
                _get(raw, "augment", "scale_min", float),
                _get(raw, "augment", "scale_max", float),
            ),
            translation_sigma=_get(raw, "augment", "translation_sigma", float),
        )
        iterations = _get(raw, "adaptation", "iterations", int, lambda v: v >= 1)
        # the one policy there is: intensity off in iteration 0, on afterwards
        _get(raw, "adaptation", "intensity_policy", str.strip,
             lambda v: v == "drop_first_iteration_then_use")
    except (ConfigError, FileFormatError):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    predictor = {key: raw["predictor"][key] for key in DEFAULTS["predictor"]}
    return PipelineConfig(
        root=root,
        scans_dir=scans_dir,
        poses_path=poses_path,
        labels_dir=labels_dir,
        sensor=sensor,
        subsample=subsample,
        aggregation=aggregation,
        train=train,
        cbst=cbst,
        adaptation_iterations=iterations,
        student_augmentation=augmentation,
        predictor=predictor,
        seed=_get(raw, "run", "seed", int),
        ignore_label=_get(raw, "run", "ignore_label", _optional_int),
        raw=raw,
    )
