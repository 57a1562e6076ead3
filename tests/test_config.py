"""Tests for configuration parsing, defaults, and validation."""

import itertools
import re

import numpy as np
import pytest

from lidar_ensemble.aggregate import LamKernel, UniformKernel
from lidar_ensemble.cli import EXIT_OK, main
from lidar_ensemble.config import DEFAULTS, ConfigError, load_config
from lidar_ensemble.geometry import load_point_cloud_bin
from lidar_ensemble.lam import initialize_lam_params, save_lam_params
from lidar_ensemble.selftrain import HeightThresholdRule, MockPredictor, RadialBandsRule
from lidar_ensemble.subsample import write_prediction_matrix
from tests.oracles import AugmentationSpec


@pytest.fixture
def dataset(tmp_path):
    root = tmp_path / "data"
    (root / "velodyne").mkdir(parents=True)
    (root / "velodyne" / "000000.bin").write_bytes(b"\x00" * 16)
    (root / "poses.txt").write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
    return root


def write_config(tmp_path, dataset, body=""):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[dataset]\nroot = {dataset}\n{body}")
    return path


class TestDefaults:
    def test_reference_hyperparameters(self, tmp_path, dataset):
        cfg = load_config(write_config(tmp_path, dataset))
        assert cfg.adaptation.aggregation.k == 60
        assert cfg.adaptation.aggregation.epsilon == 0.2
        assert cfg.adaptation.aggregation.window == 90
        assert cfg.adaptation.aggregation.stride == 3
        assert isinstance(cfg.adaptation.aggregation.kernel, UniformKernel)
        assert cfg.train.learning_rate == 1e-3
        assert cfg.train.epochs == 25
        assert cfg.adaptation.cbst.portion == 0.2
        assert cfg.adaptation.subsample.ratio == 0.5
        assert cfg.adaptation.subsample.trials == 3
        assert cfg.adaptation.subsample.include_identity
        assert cfg.adaptation.sensor.height == 64 and cfg.adaptation.sensor.width == 2048
        assert (cfg.raw["augment"]["scale_min"], cfg.raw["augment"]["scale_max"]) == ("0.9", "1.1")
        assert cfg.raw["augment"]["translation_sigma"] == "0.5"
        assert ("config.adaptation.intensity_policy",
                "drop_first_iteration_then_use") in cfg.manifest_items()

    def test_blank_epsilon_disables_filtering(self, tmp_path, dataset):
        cfg = load_config(write_config(tmp_path, dataset, "[aggregate]\nepsilon =\n"))
        assert cfg.adaptation.aggregation.epsilon is None

    def test_manifest_items_cover_every_key(self, tmp_path, dataset):
        cfg = load_config(write_config(tmp_path, dataset))
        keys = {k for k, _ in cfg.manifest_items()}
        assert "config.aggregate.k" in keys
        assert "config.run.seed" in keys
        assert "config.predictor.kind" in keys


class TestUnreadableFile:
    """Every error of load_config is one line that starts with the file."""

    @pytest.mark.parametrize("tail, message", [
        (b"[ru", r": cannot parse: Source contains parsing errors: .* \[line 3\]: '\[ru'$"),
        (b"[aggregate]\nk = 1%0\n", r": cannot parse: '%' must be followed by '%' or '\(', found: '%0'$"),
        (b"[aggregate]\nk = \xff1\n", r": byte 0xff at byte offset {offset} is not UTF-8$"),
        (b"[aggregate]\nkk = 1\n", r": unknown key aggregate.kk$"),
    ], ids=["cut", "interpolation", "not-utf8", "unknown-key"])
    def test_error_names_the_file_in_one_line(self, tmp_path, dataset, tail, message):
        path = write_config(tmp_path, dataset)
        head = path.read_bytes()
        path.write_bytes(head + tail)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        text = str(info.value)
        assert "\n" not in text and text.startswith(f"{path}: ")
        assert re.search(message.format(offset=len(head) + len(b"[aggregate]\nk = ")), text), text

    def test_missing_file_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match=f"^{re.escape(str(tmp_path / 'none.ini'))}: file not found$"):
            load_config(tmp_path / "none.ini")


class TestValidation:
    def test_unknown_section(self, tmp_path, dataset):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(write_config(tmp_path, dataset, "[bogus]\nx = 1\n"))

    def test_unknown_key_names_path(self, tmp_path, dataset):
        with pytest.raises(ConfigError, match="sensor.heihgt"):
            load_config(write_config(tmp_path, dataset, "[sensor]\nheihgt = 3\n"))

    def test_bad_value_names_path(self, tmp_path, dataset):
        with pytest.raises(ConfigError, match="aggregate.k"):
            load_config(write_config(tmp_path, dataset, "[aggregate]\nk = sixty\n"))

    def test_missing_dataset_path(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[dataset]\nroot = {tmp_path / 'missing'}\n")
        with pytest.raises(ConfigError, match="dataset.root"):
            load_config(path)

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "0", "-0.2"])
    def test_epsilon_must_be_finite_and_positive(self, tmp_path, dataset, epsilon):
        with pytest.raises(ConfigError, match="aggregate.epsilon"):
            load_config(write_config(tmp_path, dataset, f"[aggregate]\nepsilon = {epsilon}\n"))

    def test_lam_kernel_requires_checkpoint(self, tmp_path, dataset):
        with pytest.raises(ConfigError, match="aggregate.checkpoint"):
            load_config(write_config(tmp_path, dataset, "[aggregate]\nkernel = lam\n"))

    def test_lam_kernel_loads_checkpoint(self, tmp_path, dataset):
        ckpt = dataset / "model.ckpt"
        save_lam_params(initialize_lam_params(9, seed=0), ckpt)
        cfg = load_config(write_config(
            tmp_path, dataset, "[aggregate]\nkernel = lam\ncheckpoint = model.ckpt\n"))
        assert isinstance(cfg.adaptation.aggregation.kernel, LamKernel)
        assert cfg.adaptation.aggregation.kernel.params.feature_dim == 9

    def test_only_the_one_intensity_policy_loads(self, tmp_path, dataset):
        with pytest.raises(ConfigError, match="adaptation.intensity_policy"):
            load_config(write_config(tmp_path, dataset, "[adaptation]\nintensity_policy = always\n"))
        cfg = load_config(write_config(
            tmp_path, dataset, "[adaptation]\nintensity_policy = drop_first_iteration_then_use\n"))
        assert cfg.adaptation.iterations == 1

    def test_module_invariants_enforced(self, tmp_path, dataset):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, dataset, "[cbst]\nportion = 1.5\n"))
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, dataset, "[subsample]\nratio = 0\n"))

    @pytest.mark.parametrize("body, key", [
        ("[sensor]\nbeams = 0\n", "sensor.beams"),
        ("[augment]\nscale_min = 2\n", r"augment\.scale_min"),
        ("[augment]\nscale_max = 0.5\n", r"augment\.scale_max"),
        ("[augment]\nscale_min = -1\nscale_max = 0\n", r"augment\.scale_max"),
        ("[augment]\nrotation = -1\n", r"augment\.rotation"),
        ("[augment]\ntranslation_sigma = -0.1\n", r"augment\.translation_sigma"),
        ("[augment]\nflip_x = maybe\n", r"augment\.flip_x"),
    ])
    def test_keys_without_effect_are_still_checked(self, tmp_path, dataset, body, key):
        # read by nothing, listed in every manifest: removed at the benchmark re-baseline
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, dataset, body))

    def test_augment_keys_accept_what_the_augmentation_spec_accepted(self, tmp_path, dataset):
        # the checks of the deleted geometry.AugmentationSpec, kept in oracles
        for rotation, scale_min, scale_max, sigma in itertools.product(
                ("-1", "-0.0", "45"), ("-1", "0.9", "2"), ("-0.5", "0", "1.1", "2"), ("-0.1", "0", "0.5")):
            try:
                AugmentationSpec(float(rotation), True, True, (float(scale_min), float(scale_max)), float(sigma))
                accepted = True
            except ValueError:
                accepted = False
            body = (f"[augment]\nrotation = {rotation}\nscale_min = {scale_min}\n"
                    f"scale_max = {scale_max}\ntranslation_sigma = {sigma}\n")
            if accepted:
                load_config(write_config(tmp_path, dataset, body))
            else:
                with pytest.raises(ConfigError, match=r"augment\."):
                    load_config(write_config(tmp_path, dataset, body))


# ---------------------------------------------------------------------------
# Every key changes some output or is rejected
# ---------------------------------------------------------------------------

# read by nothing, waiting for ROADMAP item 1 (the benchmark re-baseline)
UNREAD_KEYS = {"sensor.beams", "augment.rotation", "augment.flip_x", "augment.flip_y",
               "augment.scale_min", "augment.scale_max", "augment.translation_sigma",
               "adaptation.intensity_policy"}

# what changes each key: a second valid value, the command whose output it
# changes, and the other keys that command needs for it to show. The mock
# predictors label by geometry, so sensor.* and subsample.* show only in
# project and subsample, and a seed shows only through label noise. With 3
# frames at stride 3 each frame's window holds only itself, so poses and
# the window need stride 1; so few points lie within epsilon that k and
# the CBST portion (which needs confidences below 1) need the search
# without it. {drive}, {drive_b}, {ckpt_a}, {ckpt_b}, {preds_a} and
# {preds_b} name the files the drives fixture makes.
NOISE = {"predictor.noise": "0.3"}
KNN = {"aggregate.epsilon": ""}
LAM = {"aggregate.stride": "1", "lam.epochs": "1"}
GATED = {"predictor.near_noise": "0.0", "predictor.far_noise": "0.5", "predictor.range_threshold": "10"}
KEY_EFFECTS = {
    "dataset.root": ("{drive_b}", "project", {}),
    "dataset.scans": ("velodyne_b", "project", {}),
    "dataset.poses": ("poses_b.txt", "pipeline", {"aggregate.stride": "1"}),
    "dataset.labels": ("", "pipeline", {}),
    "sensor.height": ("32", "project", {}),
    "sensor.width": ("1024", "project", {}),
    "sensor.fov_up": ("10", "project", {}),
    "sensor.fov_down": ("20", "project", {}),
    "sensor.beams": ("32", "pipeline", {}),
    "subsample.mode": ("regular", "subsample", {}),
    "subsample.ratio": ("0.25", "subsample", {}),
    "subsample.trials": ("2", "pipeline", NOISE),
    # without the identity trial every point must land in a subsample
    "subsample.include_identity": ("false", "pipeline", {**NOISE, "subsample.ratio": "0.9"}),
    "aggregate.kernel": ("lam", "pipeline", {"aggregate.checkpoint": "{ckpt_a}"}),
    "aggregate.checkpoint": ("{ckpt_b}", "pipeline", {"aggregate.kernel": "lam",
                                                      "aggregate.checkpoint": "{ckpt_a}"}),
    "aggregate.k": ("5", "pipeline", KNN),
    "aggregate.epsilon": ("0.5", "pipeline", {}),
    "aggregate.window": ("1", "pipeline", {"aggregate.stride": "1"}),
    "aggregate.stride": ("1", "pipeline", {}),
    "lam.learning_rate": ("1e-2", "lam-train", LAM),
    "lam.epochs": ("2", "lam-train", LAM),
    "lam.batch": ("64", "lam-train", LAM),
    "lam.ce_weight": ("0.5", "lam-train", LAM),
    "lam.lovasz_weight": ("0.5", "lam-train", LAM),
    "cbst.portion": ("0.5", "pipeline", KNN),
    "adaptation.iterations": ("2", "pipeline", {}),
    "adaptation.intensity_policy": ("use_always", "pipeline", {}),
    "augment.rotation": ("30", "pipeline", {}),
    "augment.flip_x": ("false", "pipeline", {}),
    "augment.flip_y": ("false", "pipeline", {}),
    "augment.scale_min": ("0.8", "pipeline", {}),
    "augment.scale_max": ("1.2", "pipeline", {}),
    "augment.translation_sigma": ("0.25", "pipeline", {}),
    "predictor.kind": ("mock_bands", "pipeline", {}),
    "predictor.thresholds": ("0.2,2.0", "pipeline", {}),
    "predictor.band_width": ("2.0", "pipeline", {"predictor.kind": "mock_bands"}),
    "predictor.num_classes": ("4", "pipeline", {"predictor.kind": "mock_bands"}),
    "predictor.directory": ("{preds_b}", "pipeline", {"predictor.kind": "precomputed",
                                                      "predictor.directory": "{preds_a}",
                                                      "subsample.trials": "1"}),
    "predictor.noise": ("0.3", "pipeline", {}),
    "predictor.near_noise": ("0.5", "pipeline", GATED),
    "predictor.far_noise": ("0.2", "pipeline", GATED),
    "predictor.range_threshold": ("20", "pipeline", GATED),
    "run.seed": ("7", "pipeline", NOISE),
    "run.ignore_label": ("1", "pipeline", {}),
}
COMMAND_ARGS = {"project": ["--frame", "0"], "subsample": ["--frame", "0"],
                "pipeline": ["--threads", "1"], "lam-train": ["--threads", "1"]}


@pytest.fixture(scope="module")
def drives(tmp_path_factory):
    root = tmp_path_factory.mktemp("keys")
    names = {"drive": root / "drive", "drive_b": root / "drive_b", "ckpt_a": root / "a.ckpt",
             "ckpt_b": root / "b.ckpt", "preds_a": "preds_a", "preds_b": "preds_b"}
    for seed, name in ((5, "drive"), (6, "drive_b")):
        assert main(["synthgen", "--out", str(names[name]), "--frames", "3", "--points", "150",
                     "--seed", str(seed)]) == EXIT_OK
    drive = names["drive"]
    scans = sorted((drive / "velodyne").glob("*.bin"))
    (drive / "velodyne_b").mkdir()
    for path, source in zip(scans, reversed(scans)):
        (drive / "velodyne_b" / path.name).write_bytes(source.read_bytes())
    poses = np.loadtxt(drive / "poses.txt")
    poses[:, 3] += np.arange(len(poses)) * 0.4  # frames drift apart along x
    np.savetxt(drive / "poses_b.txt", poses)
    for seed, name in ((0, "ckpt_a"), (1, "ckpt_b")):
        save_lam_params(initialize_lam_params(9, seed=seed), names[name])
    for rule, name in ((HeightThresholdRule((0.5, 2.5)), "preds_a"), (RadialBandsRule(4.0, 3), "preds_b")):
        (drive / name).mkdir()
        for i, path in enumerate(scans):
            pred = MockPredictor(rule)(load_point_cloud_bin(path, frame_id=i))
            write_prediction_matrix(pred, drive / name / f"{i:06d}.lprb")
    return names


def test_every_key_changes_an_output_or_is_rejected(drives, tmp_path):
    # ROADMAP aim 2 deletes config that is accepted but ignored: a key that
    # no command reads fails here, so a new key needs its reader, and a
    # table entry, from the start
    keys = {f"{section}.{key}" for section, items in DEFAULTS.items() for key in items}
    assert set(KEY_EFFECTS) == keys
    run_ids = itertools.count()
    baselines = {}

    def outputs(command, settings):
        """Every output file of command under settings but the manifests,
        or None when load_config rejects the settings."""
        sections = {"dataset": {"root": str(drives["drive"])}}
        for dotted, value in settings.items():
            section, key = dotted.split(".")
            sections.setdefault(section, {})[key] = value.format(**drives)
        run = next(run_ids)
        cfg = tmp_path / f"{run}.ini"
        cfg.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                               for section, items in sections.items()))
        try:
            load_config(cfg)
        except ConfigError:
            return None
        out = tmp_path / f"out{run}"
        target = out / "pixels.csv" if command == "project" else out
        assert main([command, "--config", str(cfg), "--out", str(target)] + COMMAND_ARGS[command]) \
            == EXIT_OK, (command, settings)
        return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                if p.is_file() and not p.name.endswith("manifest.txt")}

    for key, (value, command, context) in KEY_EFFECTS.items():
        base = (command, tuple(sorted(context.items())))
        if base not in baselines:
            baselines[base] = outputs(command, context)
        assert baselines[base] is not None, (key, "its context must load")
        changed = outputs(command, {**context, key: value})
        if key in UNREAD_KEYS:
            assert changed is None or changed == baselines[base], f"{key} now changes an output"
        else:
            assert changed != baselines[base], f"{key} = {value!r} changes no {command} output"
