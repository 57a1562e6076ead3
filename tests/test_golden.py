"""Golden digests: the sha256 of every output file of every command, run on
tiny synthetic drives, against the table in tests/golden_digests.json.

Criterion 11 compares reruns and thread counts with each other; this test
compares them with a record, so a change that moves any output byte fails
here. A change that moves bytes on purpose re-records the table and
declares the entries it moved, which the recorder prints, one (case, file)
digest added, changed or dropped per line:

    PYTHONPATH=src python -m tests.test_golden --record

Every path in the configs and on the command lines is relative to one work
directory, so the manifests are covered too. The run is traced: every
function in src/ must be called by some case or be listed in UNREACHED,
every defaulted parameter must be set off its default by some case or be
listed in DEFAULT_ONLY, every callable parameter must be filled by two
functions or be listed in CONSTANT_CALLABLES, and some case must cross
each block size in BLOCKS.
"""

import argparse
import ast
import hashlib
import importlib
import inspect
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

import lidar_ensemble
from lidar_ensemble import aggregate, lam, neighbors
from lidar_ensemble.cli import EXIT_OK, build_parser, main
from lidar_ensemble.selftrain import load_labels
from lidar_ensemble.subsample import PredictionMatrix, write_prediction_matrix

TABLE = Path(__file__).resolve().parent / "golden_digests.json"

SENSOR = "[sensor]\nheight = 32\nwidth = 512\nfov_up = 15\nfov_down = 25\nbeams = 32\n"
# 19 classes, SemanticKITTI's count: 18 height thresholds over the 3-class drive
THRESHOLDS_19 = ",".join(f"{0.25 * i:g}" for i in range(1, 19))
LAM_CLASSES = 19

CONFIGS = {
    # uniform kernel inside eps, mock labeler with i.i.d. noise
    "uniform.ini": SENSOR + """
[dataset]
root = target
[subsample]
trials = 2
[aggregate]
k = 10
epsilon = 0.5
window = 2
stride = 1
[predictor]
noise = 0.2
[run]
seed = 3
""",
    # kNN without eps, a stride that does not divide the window, range-gated
    # noise and an ignore label
    "knn.ini": SENSOR + """
[dataset]
root = target
[aggregate]
k = 6
epsilon =
window = 4
stride = 3
[predictor]
near_noise = 0.05
far_noise = 0.5
range_threshold = 8
[run]
seed = 5
ignore_label = 1
""",
    # the LAM at 19 classes: training on the source drive
    "lam-train.ini": SENSOR + f"""
[dataset]
root = source
[subsample]
trials = 2
[aggregate]
k = 8
epsilon =
window = 2
stride = 1
[lam]
epochs = 2
batch = 128
[predictor]
thresholds = {THRESHOLDS_19}
noise = 0.3
[run]
seed = 7
ignore_label = 2
""",
    # the LAM at 3 classes inside eps: a stride of 2 over a window of 4 on
    # 3 frames clips the middle frame's window at both ends of the drive
    "lam-train-eps.ini": SENSOR + """
[dataset]
root = source
[aggregate]
k = 8
epsilon = 0.5
window = 4
stride = 2
[lam]
epochs = 2
batch = 64
[predictor]
noise = 0.2
[run]
seed = 9
ignore_label = 1
""",
    # ... and refining the target drive with the trained checkpoint
    "lam.ini": SENSOR + f"""
[dataset]
root = target
[subsample]
trials = 2
[aggregate]
kernel = lam
checkpoint = ../lam-train/lam.ckpt
k = 8
epsilon =
window = 2
stride = 1
[cbst]
portion = 0.5
[predictor]
thresholds = {THRESHOLDS_19}
noise = 0.3
[run]
seed = 7
""",
    # the radial-bands labeler, regular row subsampling, and a second
    # iteration (intensity on, no pair records)
    "bands.ini": SENSOR + """
[dataset]
root = target
[subsample]
mode = regular
ratio = 0.5
trials = 3
[aggregate]
k = 5
epsilon = 0.6
window = 1
stride = 1
[adaptation]
iterations = 2
[predictor]
kind = mock_bands
band_width = 3.0
num_classes = 4
noise = 0.1
[run]
seed = 13
""",
    # random subsampling, noise and a second iteration: pins the seeds of
    # the draws after iteration 0 (_iteration_seed)
    "iterations.ini": SENSOR + """
[dataset]
root = target
[subsample]
trials = 2
[aggregate]
k = 6
epsilon = 0.5
window = 1
stride = 1
[adaptation]
iterations = 2
[predictor]
noise = 0.2
[run]
seed = 19
""",
    # window 0: each scan refined against itself only, so the labels are
    # the within-frame argmax, while histograms.csv comes from each scan's
    # search of itself at iteration 0; random subsampling, noise and a
    # second iteration
    "window0.ini": SENSOR + """
[dataset]
root = target
[subsample]
trials = 2
[aggregate]
k = 6
epsilon = 0.5
window = 0
stride = 1
[adaptation]
iterations = 2
[predictor]
noise = 0.2
[run]
seed = 23
""",
    # the LAM at 3 classes with the loss weights and the learning rate off
    # their defaults
    "lam-train-weights.ini": SENSOR + """
[dataset]
root = source
[aggregate]
k = 6
epsilon =
window = 2
stride = 1
[lam]
learning_rate = 0.01
epochs = 2
batch = 64
ce_weight = 0.5
lovasz_weight = 2.0
[predictor]
noise = 0.2
[run]
seed = 29
""",
    # random subsampling without the untouched cloud as trial 0: four
    # draws of 80% of the rows, which together cover every point
    "no-identity.ini": SENSOR + """
[dataset]
root = target
[subsample]
ratio = 0.8
trials = 4
include_identity = false
[aggregate]
k = 6
epsilon = 0.5
window = 1
stride = 1
[predictor]
noise = 0.2
[run]
seed = 31
""",
    # kNN at k 8 on 4000-point frames: each frame's 32000 pairs cross the
    # refinement's pair blocks and its 4000 queries the search's query
    # blocks, and the drive's 96000 pairs cross the histogram blocks
    "blocks.ini": SENSOR + """
[dataset]
root = wide
[subsample]
trials = 2
[aggregate]
k = 8
epsilon =
window = 1
stride = 1
[predictor]
noise = 0.2
[run]
seed = 37
""",
    # the stored 19-class predictions as the teacher
    "precomputed.ini": SENSOR + """
[dataset]
root = target
[subsample]
trials = 1
[aggregate]
k = 7
epsilon = 0.5
window = 1
stride = 1
[cbst]
portion = 0.4
[predictor]
kind = precomputed
directory = ../preds
num_classes = 19
[run]
seed = 17
""",
}

# case -> command line; each case writes under its own output directory, given
# as --out unless the command line names its own output file in that directory
COMMANDS = {
    "pipeline-uniform-t1": ["pipeline", "--config", "uniform.ini", "--threads", "1"],
    "pipeline-uniform-t2": ["pipeline", "--config", "uniform.ini", "--threads", "2"],
    "pipeline-knn-t2": ["pipeline", "--config", "knn.ini", "--threads", "2", "--bins", "7"],
    "lam-train": ["lam-train", "--config", "lam-train.ini", "--threads", "2"],
    "lam-train-eps": ["lam-train", "--config", "lam-train-eps.ini", "--threads", "1"],
    "lam-train-weights": ["lam-train", "--config", "lam-train-weights.ini", "--threads", "1"],
    "pipeline-lam-t1": ["pipeline", "--config", "lam.ini", "--threads", "1"],
    "aggregate": ["aggregate", "--config", "lam.ini", "--pred-dir", "preds"],
    "aggregate-modulate": ["aggregate", "--config", "lam.ini", "--pred-dir", "preds", "--modulate"],
    "lam-analyze": ["lam-analyze", "--config", "lam.ini", "--pred-dir", "preds", "--bins", "5"],
    "cbst": ["cbst", "--config", "lam.ini", "--pred-dir", "aggregate/refined"],
    "metrics": ["metrics", "--pred", "cbst", "--truth", "target/labels",
                "--classes", str(LAM_CLASSES), "--ignore", "1", "--static", "0,2",
                "--dynamic", ",".join(map(str, [1, *range(3, LAM_CLASSES)]))],
    "project": ["project", "--config", "uniform.ini", "--frame", "1", "--out", "project/points.csv"],
    "subsample-random": ["subsample", "--config", "uniform.ini", "--frame", "2"],
    "subsample-regular": ["subsample", "--config", "bands.ini", "--frame", "0"],
    "ensemble": ["ensemble", "--inputs", "preds/000000.lprb", "aggregate/refined/000000.lprb",
                 "--parent-size", "220", "--out", "ensemble/000000.lprb"],
    "pipeline-bands-t2": ["pipeline", "--config", "bands.ini", "--threads", "2"],
    "pipeline-precomputed-t1": ["pipeline", "--config", "precomputed.ini", "--threads", "1"],
    "pipeline-iterations-t1": ["pipeline", "--config", "iterations.ini", "--threads", "1"],
    "pipeline-window0-t1": ["pipeline", "--config", "window0.ini", "--threads", "1"],
    "pipeline-no-identity-t1": ["pipeline", "--config", "no-identity.ini", "--threads", "1"],
    "pipeline-blocks-t2": ["pipeline", "--config", "blocks.ini", "--threads", "2"],
}


def _write_predictions(directory: Path, truth_dir: Path):
    """Soft 19-class rows that lean towards the truth, as an external
    network would export them."""
    directory.mkdir()
    rng = np.random.default_rng(11)
    for path in sorted(truth_dir.glob("*.label")):
        truth = load_labels(path)
        probs = rng.random((len(truth), LAM_CLASSES))
        probs[np.arange(len(truth)), truth] += 2.0
        probs /= probs.sum(axis=1, keepdims=True)
        write_prediction_matrix(PredictionMatrix(probs, np.arange(len(truth))),
                                directory / f"{path.stem}.lprb")


def run_all(work: Path) -> dict:
    """Runs every case in `work` and returns {case: {relative path: sha256}}."""
    work = Path(work)
    previous = os.getcwd()
    os.chdir(work)
    try:
        for drive, points, seed in (("target", "220", "21"), ("source", "220", "22"), ("wide", "4000", "24")):
            assert main(["synthgen", "--out", drive, "--frames", "3", "--points", points,
                         "--seed", seed]) == EXIT_OK
        for name, text in CONFIGS.items():
            Path(name).write_text(text)
        _write_predictions(Path("preds"), Path("target/labels"))
        for case, argv in COMMANDS.items():
            assert main(argv if "--out" in argv else argv + ["--out", case]) == EXIT_OK, case
    finally:
        os.chdir(previous)
    return {case: {path.relative_to(work / case).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted((work / case).rglob("*")) if path.is_file()}
            for case in COMMANDS}


# the functions in src/ that no case calls, as module.qualified_name; the
# reach test fails on any other, and on an entry here that a case calls
UNREACHED = {
    # the console-script wrapper around cli.main, which the cases call
    "cli.entry",
    # argparse's hook for a malformed command line, which no case has
    "cli._Parser.error",
    # abstract: every predictor the cases build overrides it
    "selftrain.Predictor.__call__",
    # sizes that the library offers and the pipeline does not ask for
    "neighbors.DenseCloud.__len__",
    # the documented reader of the .mask files that pipeline and cbst write
    "selftrain.load_selection_mask",
}


# each block size in src/, with the functions that cut their input into
# blocks of that size and the size of one call's input, read from the
# call's arguments; the block test fails unless some case exceeds each, so
# a budget change cannot leave every case inside one block
BLOCKS = {
    "aggregate._PAIR_BUDGET": (aggregate._PAIR_BUDGET, [aggregate.refine_labels],
                               lambda args: len(args["nbh"].indices)),
    "neighbors._CANDIDATE_BUDGET // 9": (neighbors._CANDIDATE_BUDGET // len(neighbors._COLUMNS),
                                         [neighbors._grid_chunks], lambda args: len(args["queries"])),
    # the candidate pairs of one query block of _grid_chunks, which
    # _query_blocks cuts into chunks; aggregate cuts by _PAIR_BUDGET with it
    "neighbors._CANDIDATE_BUDGET": (neighbors._CANDIDATE_BUDGET, [neighbors._query_blocks],
                                    lambda args: int(args["offsets"][-1])
                                    if args["budget"] == neighbors._CANDIDATE_BUDGET else 0),
    "lam._HISTOGRAM_BLOCK": (lam._HISTOGRAM_BLOCK, [lam.weight_histograms],
                             lambda args: sum(len(r.weights) for r in args["records"])),
    "lam._ROW_BLOCK": (lam._ROW_BLOCK, [lam.eval_scores, lam.column_moments], lambda args: args["rows"]),
}


def _filler(value):
    """The code a function or bound method runs; a class or builtin itself;
    None for a value that is neither, a callable instance included."""
    code = getattr(getattr(value, "__func__", value), "__code__", None)
    if code is None and (inspect.isclass(value) or inspect.isbuiltin(value)
                         or inspect.ismethoddescriptor(value)):
        return value
    return code


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The digests of one run of every case, the code objects it called in
    any thread (sys.setprofile), the defaulted parameters, as
    module.qualified_name.parameter, that some call bound to another value,
    {parameter: _filler of each function that filled it} of the
    parameters of every function and method in src/, and the input sizes
    of each of the BLOCKS."""
    called, overridden = set(), set()
    defaulted = defaulted_parameters()
    parameters = source_parameters()
    filled = {}
    sizes = {block: set() for block in BLOCKS}
    probes = {fn.__code__: (block, size) for block, (_, fns, size) in BLOCKS.items() for fn in fns}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add(code)
            params = defaulted.get(code)
            if params is not None:
                values = frame.f_locals
                overridden.update(name for name, param, default in params
                                  if not _is_default(values[param], default))
            params = parameters.get(code)
            if params is not None:
                values = frame.f_locals
                for name, param in params:
                    filler = _filler(values[param])
                    if filler is not None:
                        filled.setdefault(name, set()).add(filler)
            if code in probes:
                block, size = probes[code]
                sizes[block].add(size(frame.f_locals))  # set.add: atomic across the run's threads

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        digests = run_all(tmp_path_factory.mktemp("golden"))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return digests, called, overridden, filled, sizes


@pytest.fixture(scope="module")
def digests(golden_run):
    return golden_run[0]


def _first_line(node) -> int:
    """The first line of the code object of a def or lambda node: a
    decorated function's code starts at its first decorator."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def source_functions():
    """{(file, first line of its code object): module.qualified_name} of
    every function and method defined in src/lidar_ensemble."""
    found = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[(str(path), _first_line(child))] = f"{path.stem}.{prefix}{child.name}"
                walk(path, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(path, child, f"{prefix}{child.name}.")

    for path in sorted(Path(lidar_ensemble.__file__).resolve().parent.glob("*.py")):
        walk(path, ast.parse(path.read_text()), "")
    return found


def _is_default(value, default) -> bool:
    """value is default: equal for a literal of the default's own type,
    else the same object."""
    if type(value) is type(default) and isinstance(default, (bool, int, float, str, tuple, type(None))):
        return value == default
    return value is default


def source_modules():
    """(path, module) of every module of src/lidar_ensemble."""
    for path in sorted(Path(lidar_ensemble.__file__).resolve().parent.glob("*.py")):
        yield path, importlib.import_module(f"lidar_ensemble.{path.stem}")


def module_functions(module):
    """Every module-level function and method (a property's getter, a
    dataclass __init__) that module defines."""
    functions = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            functions += [m.fget if isinstance(m, property) else getattr(m, "__func__", m)
                          for m in vars(obj).values()]
        else:
            functions.append(obj)
    return list(filter(inspect.isfunction, functions))


def source_parameters():
    """{code object: [(module.qualified_name.parameter, parameter)]} of
    every module-level function and method in src/lidar_ensemble."""
    return {fn.__code__: [(f"{path.stem}.{fn.__qualname__}.{param}", param)
                          for param in inspect.signature(fn).parameters]
            for path, module in source_modules() for fn in module_functions(module)}


def defaulted_parameters():
    """{code object: [(module.qualified_name.parameter, parameter, default)]}
    of every function, method and dataclass __init__ in src/lidar_ensemble
    that has a defaulted parameter. A nested function's defaults, which
    live only on the function objects its parent makes, are read from its
    source as literals."""
    found = {}

    def add(code, name, defaults, nodes):
        if defaults:
            found[code] = [(f"{name}.{param}", param, default) for param, default in defaults.items()]
        for const in filter(inspect.iscode, code.co_consts):
            args = nodes.get((const.co_firstlineno, const.co_name))  # None for a comprehension
            literal = {}
            if args is not None:
                params = args.posonlyargs + args.args
                literal = {a.arg: ast.literal_eval(d) for a, d in
                           zip(params[len(params) - len(args.defaults):], args.defaults)}
                literal.update((a.arg, ast.literal_eval(d)) for a, d in
                               zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            add(const, f"{name}.{const.co_name}", literal, nodes)

    for path, module in source_modules():
        # (first line of its code object, name): the arguments of every def and lambda
        nodes = {(_first_line(n), getattr(n, "name", "<lambda>")): n.args
                 for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))}
        for fn in module_functions(module):
            defaults = {p.name: p.default for p in inspect.signature(fn).parameters.values()
                        if p.default is not inspect.Parameter.empty}
            add(fn.__code__, f"{path.stem}.{fn.__qualname__}", defaults, nodes)
    return found


def test_every_function_is_reached_by_a_case(golden_run):
    called = {(code.co_filename, code.co_firstlineno) for code in golden_run[1]}
    unreached = {name for key, name in source_functions().items() if key not in called}
    assert sorted(unreached) == sorted(UNREACHED)


# the defaulted parameters in src/ that no case binds to another value, as
# module.qualified_name.parameter; the default test fails on any other, and
# on an entry here that a case overrides
DEFAULT_ONLY = {
    # the cases train at the paper's widths; the tests build small networks,
    # which lam_forward, lam_backward and load_lam_params accept at any width
    "lam.initialize_lam_params.hidden_sizes",
}


def test_every_default_is_overridden_by_a_case(golden_run):
    defaulted = {name for params in defaulted_parameters().values() for name, _, _ in params}
    assert sorted(defaulted - golden_run[2]) == sorted(DEFAULT_ONLY)


# the parameters of functions and methods in src/ that one function fills
# in every call of every case, as module.qualified_name.parameter; the
# callable test fails on any other, and on an entry here that a case fills
# with two functions or never fills with one
CONSTANT_CALLABLES = {
    # the documented extension point of run_adaptation: a student trainer
    # plugs in here, and no command trains one (ROADMAP item 14)
    "selftrain.run_adaptation.student_hook",
    # run_adaptation's finish; perfbench's tracer counts
    # selftrain.refine_passes by calls of generate_refined_predictions, so
    # folding it into run_adaptation waits on a benchmark change; the tests
    # also pass oracles.keep_refined
    "selftrain.generate_refined_predictions.finish",
    # refine_labels' phi_pairs rows: lam cannot import aggregate.phi_pairs,
    # and the fill is the protocol column_moments takes from two callers
    "lam.eval_scores.fill",
}


def test_every_callable_parameter_takes_two_functions(golden_run):
    constant = {name for name, codes in golden_run[3].items() if len(codes) == 1}
    assert sorted(constant) == sorted(CONSTANT_CALLABLES)


def test_some_case_crosses_every_block(golden_run):
    largest = {block: max(sizes, default=0) for block, sizes in golden_run[4].items()}
    below = {block: (largest[block], limit) for block, (limit, _, _) in BLOCKS.items()
             if largest[block] <= limit}
    assert not below, f"no case exceeds these blocks (largest input, block size): {below}"


def test_every_public_command_has_a_case():
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    public = subcommands.metavar.strip("{}").split(",")
    assert sorted(set(public) - {argv[0] for argv in COMMANDS.values()}) == []


def test_table_covers_every_case():
    assert sorted(json.loads(TABLE.read_text())["cases"]) == sorted(COMMANDS)


def moved_entries(old: dict, new: dict):
    """(change, case, file) of every digest that is in new and not old
    ("added"), in both with another value ("changed") or in old only
    ("dropped"), in case and file order."""
    moved = []
    for case in sorted(old.keys() | new.keys()):
        before, after = old.get(case, {}), new.get(case, {})
        for path in sorted(before.keys() | after.keys()):
            if path not in before:
                moved.append(("added", case, path))
            elif path not in after:
                moved.append(("dropped", case, path))
            elif before[path] != after[path]:
                moved.append(("changed", case, path))
    return moved


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_output_bytes_match_the_table(case, digests):
    table = json.loads(TABLE.read_text())
    expected, actual = table["cases"][case], digests[case]
    moved = [path for _, _, path in moved_entries({case: expected}, {case: actual})]
    assert not moved, (f"{case}: {moved} differ from the table (recorded with numpy "
                       f"{table['numpy']}, running numpy {np.__version__})")


def test_the_recorder_names_every_moved_entry():
    old = {"a": {"x": "1", "y": "2"}, "b": {"z": "3"}}
    new = {"a": {"x": "1", "y": "9", "w": "4"}, "c": {"z": "3"}}
    assert moved_entries(old, new) == [("added", "a", "w"), ("changed", "a", "y"), ("dropped", "b", "z"),
                                       ("added", "c", "z")]
    assert moved_entries(old, old) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_golden --record")
    with tempfile.TemporaryDirectory() as work:
        cases = run_all(Path(work))
    old = json.loads(TABLE.read_text())["cases"] if TABLE.exists() else {}
    for change, case, path in moved_entries(old, cases):
        print(f"{change} {case} {path}")
    TABLE.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, cases.values()))} digests in {TABLE}")
