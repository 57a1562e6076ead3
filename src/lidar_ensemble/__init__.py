"""Self-training pipeline for LiDAR segmentation around a pluggable predictor:
structured beam subsampling, within-frame and cross-frame pseudo-label
ensembling with uniform or learned kernels, class-balanced label selection,
and segmentation metrics."""

__version__ = "0.1.0"

from .aggregate import AggregationSpec, LamKernel, UniformKernel, refine_labels
from .geometry import (
    PointCloud,
    RangeImageIndex,
    RigidTransform,
    SensorConfig,
    compose,
    invert,
    project_to_range_image,
)
from .lam import (
    LamParams,
    LamTrainingSet,
    RowMoments,
    TrainConfig,
    lam_forward,
    modulate_statistics,
    train_lam,
    weight_histograms,
)
from .metrics import ConfusionMatrix, IouReport, condense_static_dynamic, confusion, iou
from .neighbors import (
    DenseCloud,
    Neighborhoods,
    SpatialIndex,
    build_dense_cloud,
    precompute_neighborhoods,
)
from .selftrain import (
    AdaptationConfig,
    CbstConfig,
    LidarSequence,
    Predictor,
    PseudoLabelSet,
    cbst_select,
    run_adaptation,
)
from .subsample import (
    PredictionMatrix,
    SubsampleSpec,
    apply_row_mask,
    make_ensemble,
    row_mask,
    within_frame_ensemble,
)
