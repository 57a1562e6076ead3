"""Span tracer for one lidar-ensemble command, kept outside the program.

Run as a script, it installs wrappers around the public functions of every
lidar_ensemble module, runs one CLI command in this process and writes the
recorded spans as JSON when the command ends:

    python3 perfbench/tracer.py --spans spans.json --run-id ID -- pipeline --config ...

Each wrapper records a span (name, start, end, parent span, thread, run id)
plus counts taken from the call's arguments and result. A function is
replaced in every module namespace that binds it, so calls through
``from .x import f`` copies are seen too. Imported by run.py, the module
turns recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

# span name -> dotted path of the wrapped function inside lidar_ensemble
TARGETS = {
    "geometry.project": "geometry.project_to_range_image",
    "geometry.load_scan": "geometry.load_point_cloud_bin",
    "geometry.load_poses": "geometry.load_poses",
    "selftrain.load_labels": "selftrain.load_labels",
    "subsample.make_ensemble": "subsample.make_ensemble",
    "subsample.within": "subsample.within_frame_ensemble",
    "selftrain.refine_pass": "selftrain.generate_refined_predictions",
    "selftrain.apply_cbst": "selftrain.apply_cbst",
    "selftrain.cbst_select": "selftrain.cbst_select",
    "selftrain.save_labels": "selftrain.save_labels",
    "selftrain.save_mask": "selftrain.save_selection_mask",
    "selftrain.write_manifest": "selftrain.write_manifest",
    "selftrain.trainset": "selftrain.build_lam_training_set",
    "neighbors.dense": "neighbors.build_dense_cloud",
    "neighbors.index": "neighbors.SpatialIndex.__init__",
    "neighbors.precompute": "neighbors.precompute_neighborhoods",
    "neighbors.query_batch": "neighbors.SpatialIndex.query_batch",
    "aggregate.refine": "aggregate.refine_labels",
    "aggregate.phi": "aggregate.phi_pairs",
    "lam.forward": "lam.lam_forward",
    "lam.eval": "lam.eval_scores",
    "lam.backward": "lam.lam_backward",
    "lam.loss": "lam.training_loss_and_grads",
    "lam.train": "lam.train_lam",
    "lam.modulate": "lam.modulate_statistics",
    "lam.histogram": "lam.weight_histograms",
    "metrics.confusion": "metrics.confusion",
    "metrics.iou": "metrics.iou",
    "config.load": "config.load_config",
}
PREDICT = "selftrain.predict"
CLI = "cli.command"


def _dense_bytes(dense):
    return sum(getattr(dense, name).nbytes for name in
               ("points", "probs", "temporal_offset", "sensor_distance", "source_frame"))


# span name -> function(arguments by parameter name, result) -> counts recorded on the span
COUNTS = {
    "geometry.project": lambda a, r: {"points": len(a["cloud"])},
    "geometry.load_scan": lambda a, r: {"points": len(r)},
    "subsample.make_ensemble": lambda a, r: {"trial_points": sum(len(sub) for sub, _ in r)},
    PREDICT: lambda a, r: {"points": len(a["cloud"])},
    "selftrain.save_labels": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "selftrain.save_mask": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "selftrain.write_manifest": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "selftrain.trainset": lambda a, r: {"neighborhoods": len(r)},
    "neighbors.dense": lambda a, r: {"points": len(r), "bytes": _dense_bytes(r)},
    "neighbors.precompute": lambda a, r: {
        "queries": len(r), "slots": len(r) * r.capacity,
        "valid": int(r.valid_count.sum()), "empty": int((r.valid_count == 0).sum())},
    "aggregate.phi": lambda a, r: {"pairs": len(r[0])},
    "lam.forward": lambda a, r: {"rows": len(a["feats"])},
}


class Tracer:
    """Records spans in memory; each thread keeps its own stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"id": next(self._ids), "name": name, "parent": stack[-1] if stack else None,
                    "thread": threading.get_ident(), "run": self.run_id}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                span["counts"] = count(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def install(tracer: Tracer):
    """Wrap every target in every lidar_ensemble module that binds it."""
    import lidar_ensemble.cli as cli
    import lidar_ensemble.selftrain as selftrain

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "lidar_ensemble" or name.startswith("lidar_ensemble."))]
    for span_name, dotted in TARGETS.items():
        module_name, *attrs = dotted.split(".")
        owner = sys.modules[f"lidar_ensemble.{module_name}"]
        if len(attrs) == 2:  # a method: replace it on the class itself
            cls = getattr(owner, attrs[0])
            setattr(cls, attrs[1], tracer.wrap(span_name, getattr(cls, attrs[1])))
            continue
        original = getattr(owner, attrs[0])
        wrapped = tracer.wrap(span_name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    # every concrete predictor's __call__ (NoisyPredictor's covers RangeGatedNoisyPredictor)
    for cls in vars(selftrain).values():
        if (isinstance(cls, type) and issubclass(cls, selftrain.Predictor)
                and "__call__" in vars(cls) and not getattr(cls.__call__, "__isabstractmethod__", False)):
            cls.__call__ = tracer.wrap(PREDICT, cls.__call__)
    # build_parser binds cmd_* when called, so replacing the module names suffices
    for attr, value in list(vars(cli).items()):
        if attr.startswith("cmd_") and callable(value):
            setattr(cli, attr, tracer.wrap(CLI, value))


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------

# metric -> span names whose busy self time it sums
SELF_TIME = {
    "geometry.project_s": ["geometry.project"],
    "geometry.load_s": ["geometry.load_scan", "geometry.load_poses", "selftrain.load_labels"],
    "subsample.ensemble_s": ["subsample.make_ensemble"],
    "subsample.within_s": ["subsample.within"],
    "selftrain.predict_s": [PREDICT],
    "selftrain.cbst_s": ["selftrain.apply_cbst", "selftrain.cbst_select"],
    "selftrain.write_s": ["selftrain.save_labels", "selftrain.save_mask", "selftrain.write_manifest"],
    "selftrain.trainset_s": ["selftrain.trainset"],
    "neighbors.dense_s": ["neighbors.dense"],
    "neighbors.index_s": ["neighbors.index"],
    "neighbors.query_s": ["neighbors.precompute", "neighbors.query_batch"],
    "aggregate.refine_s": ["aggregate.refine"],
    "aggregate.phi_s": ["aggregate.phi"],
    "lam.forward_s": ["lam.forward"],
    "lam.eval_s": ["lam.eval"],
    "lam.backward_s": ["lam.backward"],
    "lam.loss_s": ["lam.loss"],
    "lam.train_self_s": ["lam.train"],
    "lam.modulate_s": ["lam.modulate"],
    "lam.histogram_s": ["lam.histogram"],
    "metrics.score_s": ["metrics.confusion", "metrics.iou"],
    "config.load_s": ["config.load"],
    "cli.self_s": [CLI],
}
# metric -> (span names, count key or None for the number of spans)
TOTALS = {
    "geometry.project_points": (["geometry.project"], "points"),
    "subsample.trial_points": (["subsample.make_ensemble"], "trial_points"),
    "selftrain.refine_passes": (["selftrain.refine_pass"], None),
    "selftrain.files_written": (["selftrain.save_labels", "selftrain.save_mask",
                                 "selftrain.write_manifest"], None),
    "selftrain.bytes_written": (["selftrain.save_labels", "selftrain.save_mask",
                                 "selftrain.write_manifest"], "bytes"),
    "selftrain.trainset_neighborhoods": (["selftrain.trainset"], "neighborhoods"),
    "neighbors.dense_builds": (["neighbors.dense"], None),
    "neighbors.dense_points": (["neighbors.dense"], "points"),
    "neighbors.index_builds": (["neighbors.index"], None),
    "neighbors.query_calls": (["neighbors.precompute"], None),
    "neighbors.queries": (["neighbors.precompute"], "queries"),
    "aggregate.refine_calls": (["aggregate.refine"], None),
    "aggregate.pairs": (["aggregate.phi"], "pairs"),
    "lam.forward_calls": (["lam.forward"], None),
    "lam.forward_rows": (["lam.forward"], "rows"),
    "lam.steps": (["lam.backward"], None),
}


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    A child runs on its parent's thread and inside its interval, so the
    children of one span never overlap each other.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, main_thread: int, traced_wall_s: float):
    """Per-layer metrics of one traced run (trace.overhead_s is added by the caller)."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(names):
        return [s for n in names for s in by_name.get(n, [])]

    def count(span, key):  # a call that raised has no counts
        return span.get("counts", {}).get(key, 0)

    def total(names, key):
        return sum(count(s, key) for s in named(names))

    out = {metric: sum(own[s["id"]] for s in named(names)) for metric, names in SELF_TIME.items()}
    for metric, (names, key) in TOTALS.items():
        out[metric] = len(named(names)) if key is None else total(names, key)

    # a wrapper predictor calls its base predictor: count only the outermost call
    outer = [s for s in named([PREDICT])
             if s["parent"] is None or by_id[s["parent"]]["name"] != PREDICT]
    out["selftrain.predict_calls"] = len(outer)
    out["selftrain.predict_points"] = sum(count(s, "points") for s in outer)

    dense = named(["neighbors.dense"])
    out["neighbors.dense_mb_max"] = max((count(s, "bytes") for s in dense), default=0) / 1e6
    queries = out["neighbors.queries"]
    slots = total(["neighbors.precompute"], "slots")
    scan_points = total(["geometry.load_scan"], "points")
    out["neighbors.fill"] = total(["neighbors.precompute"], "valid") / slots if slots else 0.0
    out["neighbors.empty_frac"] = total(["neighbors.precompute"], "empty") / queries if queries else 0.0
    out["neighbors.queries_per_scan_point"] = queries / scan_points if scan_points else 0.0

    top = sum(s["end"] - s["start"] for s in spans
              if s["parent"] is None and s["thread"] == main_thread)
    out["trace.coverage"] = top / traced_wall_s
    return out


def main(argv):
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1:]
    spans_path = opts[opts.index("--spans") + 1]
    run_id = opts[opts.index("--run-id") + 1]

    import lidar_ensemble.cli as cli

    tracer = Tracer(run_id)
    install(tracer)
    try:
        code = cli.main(command)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"run": run_id, "main_thread": threading.main_thread().ident,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
