"""Tests for configuration parsing, defaults, and validation."""

import numpy as np
import pytest

from lidar_ensemble.aggregate import LamKernel, UniformKernel
from lidar_ensemble.config import ConfigError, load_config
from lidar_ensemble.lam import initialize_lam_params, save_lam_params


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
        assert cfg.aggregation.k == 60
        assert cfg.aggregation.epsilon == 0.2
        assert cfg.aggregation.window == 90
        assert cfg.aggregation.stride == 3
        assert isinstance(cfg.aggregation.kernel, UniformKernel)
        assert cfg.train.learning_rate == 1e-3
        assert cfg.train.epochs == 25
        assert cfg.cbst.portion == 0.2
        assert cfg.subsample.ratio == 0.5
        assert cfg.subsample.trials == 3
        assert cfg.subsample.include_identity
        assert cfg.sensor.height == 64 and cfg.sensor.width == 2048
        assert cfg.student_augmentation.scale_range == (0.9, 1.1)
        assert cfg.student_augmentation.translation_sigma == 0.5
        assert ("config.adaptation.intensity_policy",
                "drop_first_iteration_then_use") in cfg.manifest_items()

    def test_blank_epsilon_disables_filtering(self, tmp_path, dataset):
        cfg = load_config(write_config(tmp_path, dataset, "[aggregate]\nepsilon =\n"))
        assert cfg.aggregation.epsilon is None

    def test_manifest_items_cover_every_key(self, tmp_path, dataset):
        cfg = load_config(write_config(tmp_path, dataset))
        keys = {k for k, _ in cfg.manifest_items()}
        assert "config.aggregate.k" in keys
        assert "config.run.seed" in keys
        assert "config.predictor.kind" in keys


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
        assert isinstance(cfg.aggregation.kernel, LamKernel)
        assert cfg.aggregation.kernel.params.feature_dim == 9

    def test_only_the_one_intensity_policy_loads(self, tmp_path, dataset):
        with pytest.raises(ConfigError, match="adaptation.intensity_policy"):
            load_config(write_config(tmp_path, dataset, "[adaptation]\nintensity_policy = always\n"))
        cfg = load_config(write_config(
            tmp_path, dataset, "[adaptation]\nintensity_policy = drop_first_iteration_then_use\n"))
        assert cfg.adaptation().iterations == 1

    def test_module_invariants_enforced(self, tmp_path, dataset):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, dataset, "[cbst]\nportion = 1.5\n"))
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, dataset, "[subsample]\nratio = 0\n"))
