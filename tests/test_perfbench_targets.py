"""The benchmark's span tracer names library functions by dotted path; a
renamed or deleted function would break `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from lidar_ensemble.neighbors import SpatialIndex, precompute_neighborhoods

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = load_tracer()
    for span, dotted in tracer.TARGETS.items():
        module_name, *attrs = dotted.split(".")
        owner = importlib.import_module(f"lidar_ensemble.{module_name}")
        for attr in attrs:
            assert hasattr(owner, attr), f"{span}: lidar_ensemble.{dotted} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), span


def test_neighborhood_counts_read_the_search_result():
    tracer = load_tracer()
    points = np.random.default_rng(0).normal(size=(50, 3))
    nbh = precompute_neighborhoods(SpatialIndex(points), points[:7], k=4, eps=0.5)
    assert hasattr(nbh, "capacity") and hasattr(nbh, "valid_count")
    counts = tracer.COUNTS["neighbors.precompute"]({}, nbh)
    assert counts["queries"] == 7 and counts["slots"] == 28
    assert counts["valid"] == int(nbh.valid_count.sum())
    assert counts["empty"] == int((nbh.valid_count == 0).sum())
