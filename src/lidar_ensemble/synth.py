"""Synthetic labeled drives for tests and CI.

A scene is three height-separated structures: a ground slab (class 0),
pillar shells (class 1), and canopy boxes (class 2), sampled fresh every
frame around a sensor that drives through the corridor with yaw-only
rotation. Heights are preserved in the sensor frame, so the class of
every point is recoverable with a height-threshold rule, which makes the
labeler exact and noise fully controlled.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import PointCloud, RigidTransform, invert, save_point_cloud_bin, save_poses
from .selftrain import LidarSequence, save_labels

HEIGHT_THRESHOLDS = (0.5, 2.5)
NUM_CLASSES = 3

SPEED = 2.5  # meters per frame along x
EXTENT = 15.0  # half-width of the scene around the sensor's path
NUM_PILLARS = 24
NUM_CANOPIES = 10
GROUND_Z = (0.05, 0.4)
PILLAR_Z = (0.6, 2.4)
CANOPY_Z = (2.6, 4.0)
CLASS_MIX = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class SyntheticSceneSpec:
    num_frames: int = 20
    points_per_frame: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.num_frames < 1 or self.points_per_frame < 1:
            raise ValueError("num_frames and points_per_frame must be >= 1")


def _sensor_pose(frame: int) -> RigidTransform:
    yaw = 0.06 * np.sin(0.4 * frame + 1.0)
    c, s = np.cos(yaw), np.sin(yaw)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    translation = np.array([SPEED * frame, 0.8 * np.sin(0.25 * frame), 0.0])
    return RigidTransform(rotation, translation)


def generate_sequence(spec: SyntheticSceneSpec):
    """Build one synthetic drive.

    Returns (LidarSequence, per-frame truth label arrays). Scan coordinates
    are in each frame's own sensor frame; poses map them back to the shared
    world frame.
    """
    scene_rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, 0x5CE7E)))
    corridor = (-10.0, SPEED * spec.num_frames + 10.0)
    pillars = np.stack([
        scene_rng.uniform(corridor[0], corridor[1], NUM_PILLARS),
        scene_rng.uniform(-EXTENT, EXTENT, NUM_PILLARS),
    ], axis=1)
    canopies = np.stack([
        scene_rng.uniform(corridor[0], corridor[1], NUM_CANOPIES),
        scene_rng.uniform(-EXTENT, EXTENT, NUM_CANOPIES),
    ], axis=1)

    scans, poses, truths = [], [], []
    counts = _class_counts(spec.points_per_frame)
    for frame in range(spec.num_frames):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, frame)))
        pose = _sensor_pose(frame)
        center = pose.translation[:2]

        ground = np.stack([
            rng.uniform(center[0] - EXTENT, center[0] + EXTENT, counts[0]),
            rng.uniform(center[1] - EXTENT, center[1] + EXTENT, counts[0]),
            rng.uniform(*GROUND_Z, counts[0]),
        ], axis=1)
        which = rng.integers(0, NUM_PILLARS, counts[1])
        angle = rng.uniform(0, 2 * np.pi, counts[1])
        radius = rng.uniform(0.05, 0.4, counts[1])
        pillar = np.stack([
            pillars[which, 0] + radius * np.cos(angle),
            pillars[which, 1] + radius * np.sin(angle),
            rng.uniform(*PILLAR_Z, counts[1]),
        ], axis=1)
        which = rng.integers(0, NUM_CANOPIES, counts[2])
        canopy = np.stack([
            canopies[which, 0] + rng.uniform(-2.0, 2.0, counts[2]),
            canopies[which, 1] + rng.uniform(-2.0, 2.0, counts[2]),
            rng.uniform(*CANOPY_Z, counts[2]),
        ], axis=1)

        world = np.concatenate([ground, pillar, canopy], axis=0)
        truth = np.concatenate([
            np.zeros(counts[0], dtype=np.int64),
            np.ones(counts[1], dtype=np.int64),
            np.full(counts[2], 2, dtype=np.int64),
        ])
        local = invert(pose).apply(world)
        intensity = rng.uniform(0.0, 1.0, len(local))
        scans.append(PointCloud(points=local, intensity=intensity, frame_id=frame))
        poses.append(pose)
        truths.append(truth)
    return LidarSequence(scans=scans, poses=poses), truths


def _class_counts(total: int):
    ground = int(round(total * CLASS_MIX[0]))
    pillar = int(round(total * CLASS_MIX[1]))
    return ground, pillar, total - ground - pillar


def write_dataset(directory, sequence: LidarSequence, truths) -> None:
    """KITTI-style layout: velodyne/%06d.bin, labels/%06d.label, poses.txt."""
    directory = Path(directory)
    (directory / "velodyne").mkdir(parents=True, exist_ok=True)
    (directory / "labels").mkdir(parents=True, exist_ok=True)
    for frame, (scan, truth) in enumerate(zip(sequence.scans, truths)):
        save_point_cloud_bin(scan, directory / "velodyne" / f"{frame:06d}.bin")
        save_labels(truth, directory / "labels" / f"{frame:06d}.label")
    save_poses(sequence.poses, directory / "poses.txt")
