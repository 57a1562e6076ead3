"""Sectioned key-value (INI-style) pipeline configuration.

Every hyperparameter defaults to the reference experiment values:
aggregation k 60, epsilon 0.2 m, a 90-frame half-window at stride 3,
within-frame trials of the original plus two random subsamples at ratio
0.5, learning rate 1e-3 over 25 epochs, and a CBST portion of 0.2.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .aggregate import AggregationSpec, LamKernel, UniformKernel
from .geometry import SensorConfig
from .lam import TrainConfig, load_lam_params
from .selftrain import (AdaptationConfig, CbstConfig, HeightThresholdRule, MockPredictor,
                        NoisyPredictor, PrecomputedPredictor, Predictor, RadialBandsRule,
                        SubsampleSpec)


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
    adaptation: AdaptationConfig
    train: TrainConfig
    predictor: Predictor
    ignore_label: int | None
    checkpoint: Path | None  # aggregate.checkpoint resolved, when aggregate.kernel = lam
    raw: dict = field(default_factory=dict)

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


def _build(section: str, cls, **fields):
    """cls(**fields), with the ValueError of its checks, whose messages
    start with the field name, turned into a ConfigError naming
    section.field."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _float(text: str) -> float:
    """The one converter of every float key: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _optional_float(text: str):
    text = text.strip()
    if text in ("", "none", "off"):
        return None
    return _float(text)


def _optional(convert):
    return lambda text: convert(text) if text.strip() else None


def _floats(text: str) -> tuple:
    return tuple(_float(tok) for tok in text.split(",") if tok.strip())


def _increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _rate(value) -> bool:
    return value is None or 0.0 <= value <= 1.0


def _predictor(raw, root: Path, subsample: SubsampleSpec, seed: int) -> Predictor:
    """The teacher: the base predictor of predictor.kind, wrapped in label
    noise when a rate is set. Every key is checked, whatever the kind."""
    thresholds = _get(raw, "predictor", "thresholds", _floats, _increasing)
    band_width = _get(raw, "predictor", "band_width", _float, lambda v: v > 0)
    num_classes = _get(raw, "predictor", "num_classes", int, lambda v: v >= 1)
    noise = _get(raw, "predictor", "noise", _float, _rate)
    near = _get(raw, "predictor", "near_noise", _optional(_float), _rate)
    far = _get(raw, "predictor", "far_noise", _optional(_float), _rate)
    gate = _get(raw, "predictor", "range_threshold", _optional(_float), lambda v: v is None or v >= 0)
    kind = raw["predictor"]["kind"].strip()
    if kind == "mock_height":
        base = MockPredictor(HeightThresholdRule(thresholds))
    elif kind == "mock_bands":
        base = MockPredictor(RadialBandsRule(band_width, num_classes))
    elif kind == "precomputed":
        directory = raw["predictor"]["directory"].strip()
        if not directory:
            raise ConfigError("predictor.directory: required for kind = precomputed")
        if subsample.trials != 1:
            raise ConfigError(
                "subsample.trials: stored predictions only cover full frames; "
                "use trials = 1 with kind = precomputed")
        base = PrecomputedPredictor(root / directory, num_classes)
    else:
        raise ConfigError(f"predictor.kind: unknown kind {kind!r}")
    if (near, far, gate) != (None, None, None):
        if None in (near, far, gate):
            raise ConfigError("predictor: near_noise, far_noise, and range_threshold must be set together")
        return NoisyPredictor(base, near, far, gate, seed)
    if noise > 0:
        # one rate on both sides of the gate: any threshold gives the same flips
        return NoisyPredictor(base, noise, noise, math.inf, seed)
    return base


def load_config(path) -> PipelineConfig:
    """Parse, validate, and resolve a configuration file.

    Unknown sections or keys are errors; the dataset root, scans and poses
    must exist, and a labels directory that does not is treated as unset.
    Every ConfigError raised names the file in one line.
    """
    path = Path(path)
    try:
        return _load_config(path)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_config(path: Path) -> PipelineConfig:
    if not path.exists():
        raise ConfigError("file not found")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"byte 0x{exc.object[exc.start]:02x} at byte offset {exc.start} is not UTF-8") from exc
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
        sections = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:  # parsing, or a value's % interpolation
        raise ConfigError("cannot parse: " + " ".join(str(exc).split())) from exc

    raw = {section: dict(DEFAULTS[section]) for section in DEFAULTS}
    for section, items in sections.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in items:
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

    sensor = _build(
        "sensor", SensorConfig,
        height=_get(raw, "sensor", "height", int),
        width=_get(raw, "sensor", "width", int),
        fov_up=_get(raw, "sensor", "fov_up", _float),
        fov_down=_get(raw, "sensor", "fov_down", _float),
    )
    subsample = _build(
        "subsample", SubsampleSpec,
        mode=raw["subsample"]["mode"],
        ratio=_get(raw, "subsample", "ratio", _float),
        trials=_get(raw, "subsample", "trials", int),
        include_identity=_get(raw, "subsample", "include_identity", _bool),
    )
    kernel_name = raw["aggregate"]["kernel"].strip().lower()
    ckpt_path = None
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
    aggregation = _build(
        "aggregate", AggregationSpec,
        kernel=kernel,
        k=_get(raw, "aggregate", "k", int),
        epsilon=_get(raw, "aggregate", "epsilon", _optional_float),
        window=_get(raw, "aggregate", "window", int),
        stride=_get(raw, "aggregate", "stride", int),
    )
    seed = _get(raw, "run", "seed", int, lambda v: v >= 0)
    train = _build(
        "lam", TrainConfig,
        learning_rate=_get(raw, "lam", "learning_rate", _float),
        epochs=_get(raw, "lam", "epochs", int),
        batch=_get(raw, "lam", "batch", int),
        ce_weight=_get(raw, "lam", "ce_weight", _float),
        lovasz_weight=_get(raw, "lam", "lovasz_weight", _float),
        seed=seed,
    )
    adaptation = _build(
        "adaptation", AdaptationConfig,
        sensor=sensor,
        subsample=subsample,
        aggregation=aggregation,
        cbst=_build("cbst", CbstConfig, portion=_get(raw, "cbst", "portion", _float)),
        iterations=_get(raw, "adaptation", "iterations", int),
        seed=seed,
    )
    predictor = _predictor(raw, root, subsample, seed)
    # checked but read by nothing; the keys go at the benchmark re-baseline
    _get(raw, "sensor", "beams", int, lambda v: v >= 1)
    _get(raw, "augment", "rotation", _float, lambda v: v >= 0)
    _get(raw, "augment", "flip_x", _bool)
    _get(raw, "augment", "flip_y", _bool)
    scale_min = _get(raw, "augment", "scale_min", _float)
    scale_max = _get(raw, "augment", "scale_max", _float, lambda v: v > 0)
    if scale_min > scale_max:
        raise ConfigError(f"augment.scale_min: {scale_min!r} exceeds augment.scale_max {scale_max!r}")
    _get(raw, "augment", "translation_sigma", _float, lambda v: v >= 0)
    # the one policy there is: intensity off in iteration 0, on afterwards
    _get(raw, "adaptation", "intensity_policy", str.strip,
         lambda v: v == "drop_first_iteration_then_use")

    return PipelineConfig(
        root=root,
        scans_dir=scans_dir,
        poses_path=poses_path,
        labels_dir=labels_dir,
        adaptation=adaptation,
        train=train,
        predictor=predictor,
        ignore_label=_get(raw, "run", "ignore_label", _optional(int)),
        checkpoint=ckpt_path,
        raw=raw,
    )
