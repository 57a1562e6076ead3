"""Tests for geometry: projection, rigid transforms, augmentation, file IO."""

import numpy as np
import pytest

from lidar_ensemble.errors import FileFormatError
from lidar_ensemble.geometry import (
    AugmentationSpec,
    PointCloud,
    RigidTransform,
    SensorConfig,
    apply_transform,
    augment,
    compose,
    invert,
    load_point_cloud_bin,
    load_poses,
    project_to_range_image,
    save_point_cloud_bin,
    save_poses,
)


def random_rigid(rng):
    # QR of a random matrix gives an orthonormal basis; flip to det +1
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return RigidTransform(q, rng.normal(size=3))


def scalar_pixel(point, config):
    """Independent scalar re-evaluation of the projection formula."""
    x, y, z = (np.float64(point[0]), np.float64(point[1]), np.float64(point[2]))
    r = np.sqrt(x * x + y * y + z * z)
    width = float(config.width)
    height = float(config.height)
    fov_down = np.radians(config.fov_down)
    fov = np.radians(config.fov_up + config.fov_down)
    cu = 0.5 * (1.0 - np.arctan2(y, x) / np.pi) * width
    cv = (1.0 - (np.arcsin(min(max(z / r, -1.0), 1.0)) + fov_down) / fov) * height
    u = int(np.floor(min(max(cu, 0.0), np.nextafter(width, 0.0))))
    v = int(np.floor(min(max(cv, 0.0), np.nextafter(height, 0.0))))
    return u, v


KITTI_LIKE = SensorConfig(height=64, width=2048, fov_up=3.0, fov_down=25.0)


class TestProjection:
    def test_forward_axis_maps_to_center_column(self):
        cloud = PointCloud(points=np.array([[10.0, 0.0, 0.0]]))
        index = project_to_range_image(cloud, KITTI_LIKE)
        assert index.pixel_of_point[0, 0] == 1024

    def test_left_axis_maps_to_quarter_column(self):
        cloud = PointCloud(points=np.array([[0.0, 10.0, 0.0]]))
        index = project_to_range_image(cloud, KITTI_LIKE)
        assert index.pixel_of_point[0, 0] == 512

    def test_horizontal_point_row(self):
        # fov 3 above / 25 below: the horizon lands at floor((1 - 25/28) * 64) = 6
        cloud = PointCloud(points=np.array([[10.0, 0.0, 0.0]]))
        index = project_to_range_image(cloud, KITTI_LIKE)
        assert index.pixel_of_point[0, 1] == 6
        assert index.pixel_of_point[0, 1] == scalar_pixel([10.0, 0.0, 0.0], KITTI_LIKE)[1]

    def test_batch_matches_scalar_evaluation_exactly(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(scale=15.0, size=(2000, 3))
        cloud = PointCloud(points=pts)
        index = project_to_range_image(cloud, KITTI_LIKE)
        for i in range(len(pts)):
            assert tuple(index.pixel_of_point[i]) == scalar_pixel(pts[i], KITTI_LIKE)

    def test_all_pixels_in_bounds(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(scale=50.0, size=(5000, 3))
        index = project_to_range_image(PointCloud(points=pts), KITTI_LIKE)
        u, v = index.pixel_of_point[:, 0], index.pixel_of_point[:, 1]
        assert u.min() >= 0 and u.max() < KITTI_LIKE.width
        assert v.min() >= 0 and v.max() < KITTI_LIKE.height

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(points=rng.normal(size=(500, 3)))
        a = project_to_range_image(cloud, KITTI_LIKE)
        b = project_to_range_image(cloud, KITTI_LIKE)
        assert np.array_equal(a.pixel_of_point, b.pixel_of_point)
        assert np.array_equal(a.range_of_point, b.range_of_point)

    def test_pixel_map_consistency(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(points=rng.normal(scale=5.0, size=(800, 3)))
        index = project_to_range_image(cloud, KITTI_LIKE)
        assert index.pixel_of_point.shape == (len(cloud), 2)
        points_of_pixel = {}
        for i, (u, v) in enumerate(index.pixel_of_point.tolist()):
            points_of_pixel.setdefault((u, v), []).append(i)
        seen = 0
        for (u, v), members in points_of_pixel.items():
            assert 0 <= u < KITTI_LIKE.width and 0 <= v < KITTI_LIKE.height
            seen += len(members)
            for i in members:
                assert tuple(index.pixel_of_point[i]) == (u, v)
        assert seen == len(cloud)

    def test_rows_decrease_with_elevation(self):
        # at fixed horizontal position, higher points land on smaller rows
        z = np.linspace(-4.0, 4.0, 40)
        pts = np.stack([np.full(40, 10.0), np.zeros(40), z], axis=1)
        index = project_to_range_image(PointCloud(points=pts), KITTI_LIKE)
        rows = index.pixel_of_point[:, 1]
        assert np.all(np.diff(rows) <= 0)

    def test_zero_range_point_rejected_with_index(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\[1\]"):
            project_to_range_image(PointCloud(points=pts), KITTI_LIKE)

    def test_non_finite_point_rejected(self):
        cloud = PointCloud(points=np.array([[1.0, 0.0, 0.0]]))
        object.__setattr__(cloud, "points", np.array([[np.nan, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            project_to_range_image(cloud, KITTI_LIKE)


class TestRigidTransform:
    def test_identity_leaves_cloud_unchanged(self):
        cloud = PointCloud(points=np.array([[1.0, 2.0, 3.0]]))
        out = apply_transform(cloud, RigidTransform.identity())
        assert np.array_equal(out.points, cloud.points)

    def test_translation(self):
        cloud = PointCloud(points=np.zeros((1, 3)))
        out = apply_transform(cloud, RigidTransform(np.eye(3), [1.0, 0.0, 0.0]))
        assert np.array_equal(out.points, [[1.0, 0.0, 0.0]])

    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(points=rng.normal(size=(200, 3)))
        for _ in range(20):
            t = random_rigid(rng)
            back = apply_transform(apply_transform(cloud, t), invert(t))
            assert np.abs(back.points - cloud.points).max() < 1e-9

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 3))
        for _ in range(100):
            t1, t2 = random_rigid(rng), random_rigid(rng)
            lhs = compose(t1, t2).apply(pts)
            rhs = t1.apply(t2.apply(pts))
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_compose_identity_is_noop(self):
        rng = np.random.default_rng(6)
        t = random_rigid(rng)
        for composed in (compose(RigidTransform.identity(), t), compose(t, RigidTransform.identity())):
            assert np.allclose(composed.rotation, t.rotation, atol=1e-12)
            assert np.allclose(composed.translation, t.translation, atol=1e-12)

    def test_invert_identity(self):
        inv = invert(RigidTransform.identity())
        assert np.array_equal(inv.rotation, np.eye(3))
        assert np.array_equal(inv.translation, np.zeros(3))

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(points=rng.normal(size=(60, 3)))
        t = random_rigid(rng)
        moved = apply_transform(cloud, t)
        before = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=-1)
        after = np.linalg.norm(moved.points[:, None] - moved.points[None], axis=-1)
        assert np.abs(before - after).max() < 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            RigidTransform(reflection, np.zeros(3))

    def test_intensity_and_frame_preserved(self):
        cloud = PointCloud(points=np.ones((3, 3)), intensity=[0.1, 0.2, 0.3], frame_id=9)
        out = apply_transform(cloud, RigidTransform(np.eye(3), [1, 1, 1]))
        assert np.array_equal(out.intensity, cloud.intensity)
        assert out.frame_id == 9


class TestAugment:
    def test_identity_spec_leaves_cloud_unchanged(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud(points=rng.normal(size=(100, 3)))
        spec = AugmentationSpec(rotation_range=0.0, flip_x=False, flip_y=False,
                                scale_range=(1.0, 1.0), translation_sigma=0.0)
        out = augment(cloud, spec, np.random.default_rng(0))
        assert np.array_equal(out.points, cloud.points)

    def test_paper_schemes(self):
        basic = AugmentationSpec.basic()
        assert basic.rotation_range == 45.0
        assert basic.scale_range == (0.95, 1.05)
        assert basic.translation_sigma == 0.1
        intense = AugmentationSpec.intense()
        assert intense.scale_range == (0.9, 1.1)
        assert intense.translation_sigma == 0.5

    def test_equal_seeds_give_identical_outputs(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(points=rng.normal(size=(100, 3)))
        spec = AugmentationSpec.intense()
        a = augment(cloud, spec, np.random.default_rng(42))
        b = augment(cloud, spec, np.random.default_rng(42))
        assert np.array_equal(a.points, b.points)

    def test_pure_scaling_preserves_ray_directions(self):
        rng = np.random.default_rng(10)
        cloud = PointCloud(points=rng.normal(size=(100, 3)) + 5.0)
        spec = AugmentationSpec(rotation_range=0.0, flip_x=False, flip_y=False,
                                scale_range=(0.5, 2.0), translation_sigma=0.0)
        out = augment(cloud, spec, np.random.default_rng(1))
        dirs_in = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
        dirs_out = out.points / np.linalg.norm(out.points, axis=1, keepdims=True)
        assert np.abs(dirs_in - dirs_out).max() < 1e-9

    def test_rotation_stays_in_range(self):
        cloud = PointCloud(points=np.array([[1.0, 0.0, 0.0]]))
        spec = AugmentationSpec(rotation_range=45.0, flip_x=False, flip_y=False,
                                scale_range=(1.0, 1.0), translation_sigma=0.0)
        for seed in range(50):
            out = augment(cloud, spec, np.random.default_rng(seed))
            angle = np.degrees(np.arctan2(out.points[0, 1], out.points[0, 0]))
            assert -45.0 <= angle <= 45.0

    def test_flip_rates_are_half_and_independent(self):
        cloud = PointCloud(points=np.array([[1.0, 2.0, 3.0]]))
        spec = AugmentationSpec(rotation_range=0.0, flip_x=True, flip_y=True,
                                scale_range=(1.0, 1.0), translation_sigma=0.0)
        flips = np.zeros((1000, 2), dtype=bool)
        for seed in range(1000):
            out = augment(cloud, spec, np.random.default_rng(seed))
            flips[seed] = (out.points[0, 0] < 0, out.points[0, 1] < 0)
        assert abs(flips[:, 0].mean() - 0.5) < 0.05
        assert abs(flips[:, 1].mean() - 0.5) < 0.05
        both = (flips[:, 0] & flips[:, 1]).mean()
        assert abs(both - 0.25) < 0.05

    def test_flips_disabled_never_flip(self):
        cloud = PointCloud(points=np.array([[1.0, 2.0, 3.0]]))
        spec = AugmentationSpec(rotation_range=0.0, flip_x=False, flip_y=False,
                                scale_range=(1.0, 1.0), translation_sigma=0.0)
        for seed in range(50):
            out = augment(cloud, spec, np.random.default_rng(seed))
            assert out.points[0, 0] > 0 and out.points[0, 1] > 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            AugmentationSpec(scale_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            AugmentationSpec(rotation_range=-1.0)
        with pytest.raises(ValueError):
            AugmentationSpec(translation_sigma=-0.1)


class TestFileFormats:
    def test_point_cloud_bin_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 3)).astype(np.float32).astype(np.float64)
        inten = rng.random(50).astype(np.float32).astype(np.float64)
        cloud = PointCloud(points=pts, intensity=inten, frame_id=2)
        path = tmp_path / "scan.bin"
        save_point_cloud_bin(cloud, path)
        back = load_point_cloud_bin(path, frame_id=2)
        assert np.array_equal(back.points, pts)
        assert np.array_equal(back.intensity, inten)

    def test_truncated_bin_reports_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(FileFormatError, match="byte offset"):
            load_point_cloud_bin(path)

    def test_pose_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        poses = [random_rigid(rng) for _ in range(6)]
        path = tmp_path / "poses.txt"
        save_poses(poses, path)
        back = load_poses(path)
        assert len(back) == 6
        for a, b in zip(poses, back):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)

    def test_pose_wrong_field_count(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 1 0\n")
        with pytest.raises(FileFormatError, match="12"):
            load_poses(path)

    def test_non_rigid_pose_names_its_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n2 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(FileFormatError, match=":2: rotation is not orthonormal"):
            load_poses(path)

    def test_non_finite_point_value_reports_offset(self, tmp_path):
        path = tmp_path / "scan.bin"
        raw = np.ones((5, 4), dtype="<f4")
        raw[3, 2] = np.inf
        raw.tofile(path)
        with pytest.raises(FileFormatError, match=f"non-finite value at byte offset {3 * 16 + 8}$"):
            load_point_cloud_bin(path)

    def test_intensity_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="intensity"):
            PointCloud(points=np.ones((3, 3)), intensity=[1.0, 2.0])
