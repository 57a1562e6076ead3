"""Offline benchmark of the lidar-ensemble command line.

    python3 perfbench/run.py --workload pipeline-uniform --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

One invocation benchmarks one workload. It builds the workload's synthetic
drive and config file from --seed under .perfbench_work/. Then, for
--seconds seconds, it alternates a fresh process that only imports the CLI,
loads the config and loads the drive (setup_s) with a fresh process running
the workload's command (wall_s, peak_rss_mb), one at a time. Every run
writes to a fresh output directory whose digest and contents are checked.
With --trace 1 one more run goes through tracer.py and the per-layer metrics
are reported instead of the end-to-end ones. The last line of standard
output is a JSON object {correct, attempted, failed, metrics}; the exit code
is 0 only when every output check passed. perfbench/baseline.json records
the expected digests and the reference figures.

The program is imported from src/ of the checkout this file lives in; child
processes get one BLAS thread, so a workload's compute threads equal its
--threads value.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

DEADLINE_S = 170.0
MIN_RUNS = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_CLI = "from lidar_ensemble.cli import entry; entry()"
# what every command pays before per-frame work: imports, the config (which
# loads the LAM checkpoint it names) and the drive
SETUP_PROBE = """
import sys
from lidar_ensemble.cli import load_config
from lidar_ensemble.geometry import load_point_cloud_bin, load_poses
from lidar_ensemble.selftrain import load_labels
cfg = load_config(sys.argv[1])
for i, path in enumerate(sorted(cfg.scans_dir.glob("*.bin"))):
    load_point_cloud_bin(path, frame_id=i)
load_poses(cfg.poses_path)
for path in sorted(cfg.labels_dir.glob("*.label")):
    load_labels(path)
"""

# synthetic sensor and acceptance-criterion-7 aggregation, shared by the LAM workloads
SYNTH_SENSOR = {"height": "32", "width": "512", "fov_up": "15", "fov_down": "25", "beams": "32"}
CRITERION_7 = {"k": "16", "epsilon": "", "window": "20", "stride": "1"}
GATED_NOISE = {"near_noise": "0.05", "far_noise": "0.75", "range_threshold": "10"}
LAM_EPOCHS = 2
LAM_BATCH = 256
NUM_CLASSES = 3

TRAIN_CONFIG = {
    "dataset": {"root": "drives/source"},
    "sensor": SYNTH_SENSOR,
    "aggregate": CRITERION_7,
    "lam": {"epochs": str(LAM_EPOCHS), "batch": str(LAM_BATCH)},
    "predictor": GATED_NOISE,
}


@dataclass(frozen=True)
class Workload:
    command: str
    threads: int
    config: dict          # sections over the paper defaults; run.seed is added
    target: tuple = ()    # (frames, points) of the drive refined by pipeline
    source: tuple = ()    # (frames, points) of the labeled drive LAM trains on
    outputs: tuple = ()   # files every run must write, besides per-frame labels

    @property
    def pipeline(self) -> bool:
        return self.command == "pipeline"


PIPELINE_OUTPUTS = ("manifest.txt", "run_manifest.txt", "histograms.csv", "report.csv",
                    "summary.json", "confusion.csv")
WORKLOADS = {
    "pipeline-uniform": Workload(
        "pipeline", threads=2, target=(12, 4000), outputs=PIPELINE_OUTPUTS,
        config={"dataset": {"root": "drives/target"}, "predictor": {"noise": "0.3"}}),
    "pipeline-lam": Workload(
        "pipeline", threads=1, target=(6, 2000), source=(14, 700), outputs=PIPELINE_OUTPUTS,
        config={"dataset": {"root": "drives/target"}, "sensor": SYNTH_SENSOR,
                "aggregate": {"kernel": "lam", "checkpoint": "../../train/lam.ckpt", **CRITERION_7},
                "predictor": GATED_NOISE}),
    "lam-train": Workload(
        "lam-train", threads=1, source=(14, 700), outputs=("lam.ckpt", "loss_trace.csv", "manifest.txt"),
        config=TRAIN_CONFIG),
}
# drive sizes of the self-test
TINY = {"target": (3, 400), "source": (3, 300)}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


@dataclass
class Run:
    kind: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list = field(default_factory=list)
    digest: str = ""
    quality: float = float("nan")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "LIDAR_ENSEMBLE_THREADS"}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, log_path: Path, deadline: float):
    """Run argv in WORK to completion: (wall seconds, rusage, exit code).

    The child's own rusage gives its CPU time and peak RSS. A child still
    running at the deadline is killed, and reaped before this returns.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=child_env(), stdout=log, stderr=log)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def cli_argv(workload: Workload, out: str, threads: int):
    return [sys.executable, "-c", RUN_CLI, workload.command, "--config", "config.ini", "--out", out,
            "--threads", str(threads)]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def write_config(path: Path, sections: dict, seed: int) -> None:
    parser = configparser.ConfigParser()
    for section, items in {**sections, "run": {"seed": str(seed)}}.items():
        parser[section] = items
    with open(path, "w") as fh:
        parser.write(fh)


def build_inputs(workload: Workload, seed: int, sizes: dict, deadline: float) -> dict:
    """Drives, config file and (for pipeline-lam) a trained checkpoint, all under WORK.

    Paths are relative to WORK and fixed, because manifest.txt records
    config.dataset.root and per-input checksums.
    """
    from lidar_ensemble.synth import SyntheticSceneSpec, generate_sequence, write_dataset

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "runs").mkdir(parents=True)
    info = {}
    for role, offset in (("target", 0), ("source", 1)):
        shape = getattr(workload, role)
        if not shape:
            continue
        frames, points = sizes.get(role, shape)
        spec = SyntheticSceneSpec(num_frames=frames, points_per_frame=points, seed=2 * seed + offset)
        sequence, truths = generate_sequence(spec)
        write_dataset(WORK / "drives" / role, sequence, truths)
        info[role] = {"frames": frames, "points": points, "synth_seed": spec.seed}
    write_config(WORK / "config.ini", workload.config, seed)
    if workload.config.get("aggregate", {}).get("kernel") == "lam":
        write_config(WORK / "train.ini", TRAIN_CONFIG, seed)
        argv = [sys.executable, "-c", RUN_CLI, "lam-train", "--config", "train.ini", "--out", "train",
                "--threads", "1"]
        wall, _, code = spawn(argv, WORK / "train.log", deadline)
        if code != 0:
            raise BenchError(f"checkpoint training exited {code}; see {WORK / 'train.log'}")
        info["checkpoint"] = {"epochs": LAM_EPOCHS, "train_s": wall}
    return info


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def tree_digest(directory: Path) -> str:
    """sha256 over the sorted relative paths and bytes of every file."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _labels(path: Path):
    return (np.fromfile(path, dtype="<u4") & 0xFFFF).astype(np.int64)


def miou_percent(pred, truth, classes: int) -> float:
    """Mean IoU over the classes that occur in prediction or truth."""
    counts = np.bincount(truth * classes + pred, minlength=classes * classes).reshape(classes, classes)
    tp = np.diag(counts)
    denom = counts.sum(axis=0) + counts.sum(axis=1) - tp
    return float(np.mean(100.0 * tp[denom > 0] / denom[denom > 0]))


def check_outputs(workload: Workload, out: Path, frames: int):
    """(problems, quality): mIoU recomputed from the labels, or the final loss."""
    problems = [f"missing {name}" for name in workload.outputs if not (out / name).is_file()]
    if problems:
        return problems, float("nan")
    if workload.pipeline:
        seq = out / "iteration_00" / "sequence"
        truth_dir = WORK / "drives" / "target" / "labels"
        names = [f"{t:06d}" for t in range(frames)]
        missing = [n for n in names for ext in (".label", ".mask") if not (seq / (n + ext)).is_file()]
        if missing:
            return [f"missing labels or masks for frames {sorted(set(missing))}"], float("nan")
        pred = np.concatenate([_labels(seq / f"{n}.label") for n in names])
        truth = np.concatenate([_labels(truth_dir / f"{n}.label") for n in names])
        if len(pred) != len(truth) or pred.max() >= NUM_CLASSES:
            return ["labels do not cover the drive with valid classes"], float("nan")
        quality = miou_percent(pred, truth, NUM_CLASSES)
        reported = json.loads((out / "summary.json").read_text())["miou"]
        if abs(reported - quality) > 0.0051:
            problems.append(f"summary.json mIoU {reported} but labels give {quality:.4f}")
        return problems, quality
    rows = (out / "loss_trace.csv").read_text().splitlines()[1:]
    totals = [float(row.split(",")[3]) for row in rows]
    manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    if len(totals) != LAM_EPOCHS or not all(math.isfinite(t) and t > 0 for t in totals):
        problems.append(f"loss trace has {len(totals)} epochs of {LAM_EPOCHS} or a non-finite total")
    elif float(manifest.get("final_loss", "nan")) != totals[-1]:
        problems.append("manifest final_loss differs from the loss trace")
    return problems, totals[-1] if totals else float("nan")


def run_once(name, workload, threads, index, frames, deadline, kind="timed"):
    out = f"runs/{index:03d}"
    argv = cli_argv(workload, out, threads)
    if kind == "traced":  # the same CLI arguments, run under the tracer
        argv = [sys.executable, str(HERE / "tracer.py"), "--spans", "spans.json",
                "--run-id", f"{name}-traced", "--"] + argv[3:]
    wall, usage, code = spawn(argv, WORK / f"{out}.log", deadline)
    run = Run(kind, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, code)
    if code != 0:
        run.problems.append(f"exit code {code}; see {WORK / out}.log")
    else:
        try:
            run.problems, run.quality = check_outputs(workload, WORK / out, frames)
        except (ValueError, KeyError, IndexError) as exc:
            run.problems.append(f"malformed output: {exc}")
        run.digest = tree_digest(WORK / out)
    shutil.rmtree(WORK / out, ignore_errors=True)
    return run


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def versions():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def load_program():
    if not (SRC / "lidar_ensemble" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import lidar_ensemble

    if Path(lidar_ensemble.__file__).resolve().parent != SRC / "lidar_ensemble":
        raise BenchError(f"imported {lidar_ensemble.__file__}, not the checkout's program")


def benchmark(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; returns the run record, including the metrics."""
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    sizes = sizes or {}
    threads = min(workload.threads, available_cpus())
    inputs = build_inputs(workload, seed, sizes, deadline)
    frames = inputs["target"]["frames"] if workload.pipeline else 0

    probe = [sys.executable, "-c", SETUP_PROBE, "config.ini"]

    def set_up() -> float:
        wall, _, code = spawn(probe, WORK / "setup.log", deadline)
        if code != 0:
            raise BenchError(f"set-up probe exited {code}; see {WORK / 'setup.log'}")
        return wall

    # the first probe warms the bytecode and file caches; later probes are
    # interleaved with the runs so both sample the same stretch of time
    set_up()
    setups, timed = [], []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(timed) < MIN_RUNS:
        setups.append(set_up())
        timed.append(run_once(name, workload, threads, len(timed), frames, deadline))
    runs = list(timed)
    if workload.pipeline and threads > 1:
        runs.append(run_once(name, workload, 1, len(runs), frames, deadline, kind="threads-1"))
    if trace:
        runs.append(run_once(name, workload, threads, len(runs), frames, deadline, kind="traced"))
    # every run must reproduce the recorded digest at the recorded seed, and
    # otherwise the first timed run's: reruns, thread counts and tracing change no byte
    expected = json.loads(BASELINE.read_text())["workloads"][name]
    if seed == expected["seed"] and not sizes:
        reference, source = expected["digest"], "the digest recorded in baseline.json"
    else:
        reference, source = next((r.digest for r in timed if r.digest), ""), "the first timed run's"
    for i, run in enumerate(runs):
        if run.digest and run.digest != reference:
            run.problems.append(f"output digest {run.digest} differs from {source}")
    problems = [f"{run.kind} run {i}: {p}" for i, run in enumerate(runs) for p in run.problems]

    wall_s = statistics.median(r.wall_s for r in timed)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
    }
    if trace:
        traced = runs[-1]
        spans = json.loads((WORK / "spans.json").read_text())
        metrics.update(tracer.layer_metrics(spans["spans"], spans["main_thread"], traced.wall_s))
        metrics["trace.overhead_s"] = traced.wall_s - wall_s
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "threads": threads, "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"], "nproc": available_cpus(),
        "versions": versions(), "inputs": inputs, "setup_probes_s": setups,
        "runs": [vars(r) for r in runs],
        "quality": {"miou" if workload.pipeline else "final_loss": timed[0].quality},
        "attempted": len(runs), "failed": sum(1 for r in runs if r.problems),
        "problems": problems, "metrics": metrics,
    }


def declared_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(record: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(record["metrics"]))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    timed = [r["wall_s"] for r in record["runs"] if r["kind"] == "timed"]
    quality = ", ".join(f"{k} {v:.4f}" for k, v in record["quality"].items())
    print(f"{record['workload']} seed {record['seed']}: {len(timed)} runs at --threads "
          f"{record['threads']} (nproc {record['nproc']}), wall min {min(timed):.3f} s "
          f"max {max(timed):.3f} s; {quality}; error_rate {record['failed'] / record['attempted']} "
          f"({record['failed']} of {record['attempted']} runs failed)")
    for problem in record["problems"]:
        print(f"  check failed: {problem}")
    for metric, unit in units.items():
        print(f"  {metric} = {record['metrics'][metric]:.6g} {unit}")
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": record["metrics"][m], "unit": u} for m, u in units.items()},
    }


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def self_test() -> list:
    """Run every workload on tiny drives with tracing; check metrics and closed-form counts."""
    failures = []
    units = {**declared_metrics(False), **declared_metrics(True)}
    for name, workload in WORKLOADS.items():
        record = benchmark(name, seed=1, seconds=0, trace=True, sizes=TINY)
        m = record["metrics"]
        failures += [f"{name}: {p}" for p in record["problems"]]
        failures += [f"{name}: metric {k} not produced" for k in units if k not in m]
        frames = record["inputs"]["target" if workload.pipeline else "source"]["frames"]
        if workload.pipeline:
            expect = {"neighbors.query_calls": 3 * frames, "selftrain.refine_passes": 2,
                      "neighbors.queries_per_scan_point": 3.0}
            if name == "pipeline-lam":
                expect["neighbors.fill"] = 1.0
        else:
            neighborhoods = frames * record["inputs"]["source"]["points"]
            expect = {"selftrain.trainset_neighborhoods": neighborhoods,
                      "lam.steps": LAM_EPOCHS * math.ceil(neighborhoods / LAM_BATCH)}
        for metric, value in expect.items():
            if m.get(metric) != value:
                failures.append(f"{name}: {metric} = {m.get(metric)}, expected {value}")
        print(f"self-test {name}: " + ", ".join(f"{k} {m.get(k)}" for k in expect))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        load_program()
        if args.self_test:
            failures = self_test()
            for failure in failures:
                print(f"FAIL {failure}")
            print("self-test " + ("failed" if failures else "passed"))
            return 1 if failures else 0
        if args.workload is None:
            parser.error("--workload is required")
        units = declared_metrics(bool(args.trace))
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
        (WORK / "record.json").write_text(json.dumps(record, indent=1) + "\n")
        result = report(record, units)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
