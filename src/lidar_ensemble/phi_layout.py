"""Versioned layout of the per-neighbor-pair feature vector.

A pair (query point p, dense-cloud neighbor p') is described by
2K + 3 scalars, in this fixed order:

    [0]            Euclidean distance ||p - p'||
    [1 .. K]       query pseudo-label row v(p)
    [K+1 .. 2K]    neighbor pseudo-label row v(p')
    [2K+1]         temporal offset of p' normalized by the window (in (-1, +1))
    [2K+2]         range of p' to its own sensor origin

The layout version is recorded in refinement manifests so stored features
and checkpoints can be validated against the code that reads them.
"""

import numpy as np

PHI_LAYOUT_VERSION = 1


def feature_dim(num_classes: int) -> int:
    return 2 * num_classes + 3


def num_classes_of(feature_dim_: int) -> int:
    if feature_dim_ < 5 or (feature_dim_ - 3) % 2 != 0:
        raise ValueError(f"{feature_dim_} is not a valid feature dimension (must be 2K+3)")
    return (feature_dim_ - 3) // 2


DISTANCE_COLUMN = 0


def query_label_columns(num_classes: int) -> slice:
    return slice(1, 1 + num_classes)


def neighbor_label_columns(num_classes: int) -> slice:
    return slice(1 + num_classes, 1 + 2 * num_classes)


def temporal_column(num_classes: int) -> int:
    return 2 * num_classes + 1


def sensor_distance_column(num_classes: int) -> int:
    return 2 * num_classes + 2


def temporal_feature(offset, window: int, out=None):
    """The temporal column of pairs whose neighbors lie offset frames from
    their query (integers of any type): offset times 1 / window, or 0 for
    a zero-width window; written into out when it is given."""
    return np.multiply(offset, 1.0 / window if window >= 1 else 0.0, out=out)


def write_rows(out, distance, query_probs, neighbor_probs, temporal, sensor_distance):
    """Fill out, (R, 2K + 3), with the feature rows of R pairs, one column
    group at a time; returns out. Every phi row of the package is built
    here."""
    k = query_probs.shape[1]
    out[:, DISTANCE_COLUMN] = distance
    out[:, query_label_columns(k)] = query_probs
    out[:, neighbor_label_columns(k)] = neighbor_probs
    out[:, temporal_column(k)] = temporal
    out[:, sensor_distance_column(k)] = sensor_distance
    return out
