"""Point cloud containers, rigid transforms, range-image projection, augmentation.

Coordinates follow the usual automotive convention: x forward, y left,
z up, all in meters. A pose maps scan-local coordinates into a shared
global frame.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError

ROTATION_TOL = 1e-6


@dataclass(frozen=True)
class PointCloud:
    """One LiDAR sweep: (N, 3) points plus optional per-point intensity.

    points are float64 meters in the sensor frame of this scan; intensity,
    when present, has exactly one entry per point.
    """

    points: np.ndarray
    intensity: np.ndarray | None = None
    frame_id: int = 0

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite coordinates")
        object.__setattr__(self, "points", pts)
        if self.intensity is not None:
            inten = np.ascontiguousarray(np.asarray(self.intensity, dtype=np.float64))
            if inten.shape != (len(pts),):
                raise ValueError(
                    f"intensity must have one entry per point: {inten.shape} vs {len(pts)} points"
                )
            object.__setattr__(self, "intensity", inten)

    def __len__(self) -> int:
        return len(self.points)

    def without_intensity(self) -> "PointCloud":
        if self.intensity is None:
            return self
        return dataclasses.replace(self, intensity=None)


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> R @ p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        tra = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if not (np.isfinite(rot).all() and np.isfinite(tra).all()):
            raise ValueError("transform contains non-finite values")
        if np.abs(rot @ rot.T - np.eye(3)).max() > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > ROTATION_TOL:
            raise ValueError("rotation determinant must be +1")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation


def compose(t1: RigidTransform, t2: RigidTransform) -> RigidTransform:
    """Transform equal to applying t2 first, then t1."""
    return RigidTransform(t1.rotation @ t2.rotation, t1.rotation @ t2.translation + t1.translation)


def invert(t: RigidTransform) -> RigidTransform:
    rot_inv = t.rotation.T
    return RigidTransform(rot_inv, -rot_inv @ t.translation)


def apply_transform(cloud: PointCloud, t: RigidTransform) -> PointCloud:
    """Rigidly move a cloud; intensity and frame_id are preserved."""
    return dataclasses.replace(cloud, points=t.apply(cloud.points))


@dataclass(frozen=True)
class SensorConfig:
    """Range-image geometry of one LiDAR sensor.

    fov_up/fov_down are the angular extents above/below the horizon in
    degrees, both given as positive magnitudes.
    """

    height: int
    width: int
    fov_up: float
    fov_down: float

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("height must be >= 1")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.fov_up + self.fov_down <= 0:
            raise ValueError("fov_up + fov_down, the vertical field of view, must be positive")


@dataclass(frozen=True)
class RangeImageIndex:
    """Spherical (u, v) pixel assignment of every point of one scan.

    pixel_of_point is (N, 2) int64 columns (u, v); several points may share
    a pixel (all kept, no nearest-wins overwrite); range_of_point is the
    Euclidean norm.
    """

    height: int
    width: int
    pixel_of_point: np.ndarray
    range_of_point: np.ndarray

    def rows_of_points(self) -> np.ndarray:
        """Per-point row (v) coordinate."""
        return self.pixel_of_point[:, 1]


def sensor_range(points: np.ndarray) -> np.ndarray:
    """Distance of each (N, 3) point to the origin of its own sensor frame."""
    return np.sqrt(points[:, 0] ** 2 + points[:, 1] ** 2 + points[:, 2] ** 2)


def project_to_range_image(cloud: PointCloud, config: SensorConfig) -> RangeImageIndex:
    """Spherical projection of a scan onto an H x W pixel grid.

    u = floor((1/2) (1 - atan2(y, x)/pi) W), v = floor((1 - (asin(z/r)
    + fov_down)/fov) H), with the continuous values clamped into range
    before flooring so every point gets exactly one in-bounds pixel.

    Raises ValueError identifying the offending point indices for
    zero-range or non-finite points.
    """
    pts = cloud.points
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite points at indices {np.nonzero(bad)[0][:10].tolist()}")
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rng = sensor_range(pts)
    zero = rng <= 0.0
    if zero.any():
        raise ValueError(f"zero-range points at indices {np.nonzero(zero)[0][:10].tolist()}")

    width = float(config.width)
    height = float(config.height)
    fov_down = np.radians(config.fov_down)
    fov = np.radians(config.fov_up + config.fov_down)

    cu = 0.5 * (1.0 - np.arctan2(y, x) / np.pi) * width
    cv = (1.0 - (np.arcsin(np.clip(z / rng, -1.0, 1.0)) + fov_down) / fov) * height
    u = np.floor(np.clip(cu, 0.0, np.nextafter(width, 0.0))).astype(np.int64)
    v = np.floor(np.clip(cv, 0.0, np.nextafter(height, 0.0))).astype(np.int64)

    return RangeImageIndex(
        height=config.height,
        width=config.width,
        pixel_of_point=np.stack([u, v], axis=1),
        range_of_point=rng,
    )


@dataclass(frozen=True)
class AugmentationSpec:
    """Random augmentation parameters, applied rotate -> flip -> scale -> translate."""

    rotation_range: float = 0.0
    flip_x: bool = False
    flip_y: bool = False
    scale_range: tuple = (1.0, 1.0)
    translation_sigma: float = 0.0

    def __post_init__(self):
        lo, hi = self.scale_range
        if not (lo <= hi and hi > 0.0):
            raise ValueError(f"scale_range must be a nonempty interval with positive values: {self.scale_range}")
        if self.rotation_range < 0:
            raise ValueError("rotation_range must be >= 0")
        if self.translation_sigma < 0:
            raise ValueError("translation_sigma must be >= 0")

    @staticmethod
    def basic() -> "AugmentationSpec":
        """Rotation +-45 deg, x/y flips, scale [0.95, 1.05], translation sigma 0.1 m."""
        return AugmentationSpec(45.0, True, True, (0.95, 1.05), 0.1)

    @staticmethod
    def intense() -> "AugmentationSpec":
        """Same as basic but scale [0.9, 1.1] and translation sigma 0.5 m."""
        return AugmentationSpec(45.0, True, True, (0.9, 1.1), 0.5)


def augment(cloud: PointCloud, spec: AugmentationSpec, rng: np.random.Generator) -> PointCloud:
    """Randomly augment a cloud; deterministic given the generator state.

    Draw order is fixed: rotation angle, flip-x coin (only when enabled),
    flip-y coin (only when enabled), scale, translation vector.
    """
    angle = np.radians(rng.uniform(-spec.rotation_range, spec.rotation_range))
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pts = cloud.points @ rot.T
    if spec.flip_x and rng.random() < 0.5:
        pts = pts * np.array([-1.0, 1.0, 1.0])
    if spec.flip_y and rng.random() < 0.5:
        pts = pts * np.array([1.0, -1.0, 1.0])
    pts = pts * rng.uniform(spec.scale_range[0], spec.scale_range[1])
    pts = pts + rng.normal(0.0, spec.translation_sigma, size=3)
    return dataclasses.replace(cloud, points=pts)


# ---------------------------------------------------------------------------
# Dataset file formats (KITTI-style)
# ---------------------------------------------------------------------------

def load_point_cloud_bin(path, frame_id: int = 0) -> PointCloud:
    """Read consecutive (x, y, z, intensity) float32 little-endian records."""
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 4 != 0:
        raise FileFormatError(
            f"{path}: truncated point record at byte offset {(raw.size // 4) * 16}"
        )
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise FileFormatError(f"{path}: non-finite value at byte offset {4 * bad[0]}")
    raw = raw.reshape(-1, 4).astype(np.float64)
    return PointCloud(points=raw[:, :3], intensity=raw[:, 3], frame_id=frame_id)


def save_point_cloud_bin(cloud: PointCloud, path) -> None:
    inten = cloud.intensity if cloud.intensity is not None else np.zeros(len(cloud))
    rec = np.empty((len(cloud), 4), dtype="<f4")
    rec[:, :3] = cloud.points
    rec[:, 3] = inten
    rec.tofile(path)


def load_poses(path) -> list:
    """Read one pose per line: 12 decimals, row-major 3x4 frame-to-global matrix."""
    poses = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            vals = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        if len(vals) != 12:
            raise FileFormatError(f"{path}:{lineno}: expected 12 values per pose, got {len(vals)}")
        mat = np.array(vals).reshape(3, 4)
        try:
            poses.append(RigidTransform(mat[:, :3], mat[:, 3]))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    return poses


def save_poses(poses, path) -> None:
    lines = []
    for pose in poses:
        mat = np.hstack([pose.rotation, pose.translation.reshape(3, 1)])
        lines.append(" ".join(repr(float(val)) for val in mat.reshape(-1)))
    Path(path).write_text("\n".join(lines) + "\n")
