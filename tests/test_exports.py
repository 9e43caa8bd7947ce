import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from helpers import gaussian_clusters, write_libsvm

import slidesvm
import slidesvm.cli
import slidesvm.data
import slidesvm.model
import slidesvm.tuning
from slidesvm import admm
from slidesvm.data import kfold_plan, parse_libsvm
from slidesvm.loss import SlideParams, prox_slide_vector
from slidesvm.model import accuracy, confusion_counts, dumps_model

MODULES = ["slidesvm"] + [
    f"slidesvm.{info.name}" for info in pkgutil.iter_modules(slidesvm.__path__)
]


def test_the_package_top_level_holds_only_its_version():
    public = [
        attr for attr, obj in vars(slidesvm).items()
        if not attr.startswith("_") and not isinstance(obj, types.ModuleType)
    ]
    assert public == [] and isinstance(slidesvm.__version__, str)


# what only the tests call stays out of the package: the paper's conditions
# and the serial cross-validation live in tests/oracles.py, the test data and
# the stock config list in tests/helpers.py, and one sample is predicted as a
# one-row dataset
ORACLES = [
    "SubdiffKind", "SubdiffSet", "slide_subdifferential", "MarginReport",
    "margin_identity_check", "reconstruct_hyperplane", "cross_validate", "repeat_cv",
    "predict", "gaussian_clusters", "write_libsvm", "default_grid",
]


@pytest.mark.parametrize("name", MODULES)
def test_no_test_oracle_ships_in_the_package(name):
    module = importlib.import_module(name)
    assert [n for n in ORACLES if hasattr(module, n)] == []


# the one public definition no package code calls: the all-row
# proximal-stationarity certificate, kept for judging a solver variant or an
# exact finish on a working set by more than the solver's own stop test
UNREFERENCED = {("admm", "check_proximal_stationarity")}


def test_every_public_definition_is_used_by_the_package():
    # parse every module of the package; a public module-level function or
    # class must be named by package code outside its own definition
    src = Path(slidesvm.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defined = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    named = {}  # name -> nodes that name it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                named.setdefault(node.attr, []).append(node)
    unused = set()
    for (module, name), definition in defined.items():
        inside = set(ast.walk(definition))
        if all(node in inside for node in named.get(name, [])):
            unused.add((module, name))
    assert unused == UNREFERENCED


def test_the_solver_keeps_no_test_only_member_or_argument():
    assert not hasattr(admm.WorkingSet, "complement_mask")
    assert list(inspect.signature(admm.solve_w_system).parameters) == ["a_t", "r_t", "delta"]
    # a value the callee derives is not passed in: the prox computes its
    # thresholds, and accuracy and the counts predict for themselves
    assert list(inspect.signature(prox_slide_vector).parameters) == ["s", "gamma_c", "p"]
    for fn in (accuracy, confusion_counts):
        assert list(inspect.signature(fn).parameters) == ["model", "ds"]
    assert not hasattr(slidesvm.model, "decision_values")
    # the fold plan is the array of each sample's fold, and the search
    # reshapes its task scores with no helper to cut or assemble them
    assert not hasattr(slidesvm.data, "FoldPlan")
    folds = kfold_plan(7, 3, 0)
    assert isinstance(folds, np.ndarray) and folds.dtype == np.int64 and folds.shape == (7,)
    assert set(folds.tolist()) == {0, 1, 2}
    assert not hasattr(slidesvm.tuning, "_split") and not hasattr(slidesvm.tuning, "_cv_result")
    # train builds its config through the grid's path, the one place that
    # decides epsilon = v/10
    assert not hasattr(slidesvm.cli, "_slide_params")
    assert not hasattr(slidesvm.cli, "_train_config")


@pytest.fixture()
def report(monkeypatch):
    """The benchmark's report module, whose names the tracer wraps."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("report")


def test_every_traced_name_is_a_function_of_its_module(report):
    # the tracer wraps module-level functions by name; a name that no longer
    # resolves reads as absent in the trace, with its metrics at 0
    absent = []
    for dotted in report.EXPECTED:
        layer, name = dotted.split(".")
        module = importlib.import_module(f"slidesvm.{layer}")
        fn = getattr(module, name, None)
        if not (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__):
            absent.append(dotted)
    assert absent == []


def test_the_harness_reads_sweeps_and_convergence_from_trains_second_result():
    # the harness reads these two fields of each solve through getattr, with
    # defaults; without either field it would report every solve unconverged
    ds = gaussian_clusters(40, seed=0)
    outcomes = []
    for K, tol in ((1000, 1e-3), (7, 1e-12)):
        cfg = admm.TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), K=K, tol=tol)
        mdl, diag = admm.train(ds, cfg)
        assert type(diag.iterations) is int and type(diag.converged) is bool
        assert (diag.iterations, diag.converged) == (mdl.iterations, mdl.converged)
        outcomes.append(diag.converged)
    assert outcomes == [True, False]


@pytest.fixture()
def phase_calls(report, monkeypatch):
    """Calls of each sweep phase, counted through its module-level name."""
    calls = {}

    def counting(dotted, fn):
        def wrapper(*args, **kwargs):
            calls[dotted] = calls.get(dotted, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for dotted in report.PHASES.values():
        layer, name = dotted.split(".")
        assert layer == "admm"
        monkeypatch.setattr(admm, name, counting(dotted, getattr(admm, name)))
    return calls


def test_train_calls_each_phase_by_its_module_name_once_per_sweep(report, phase_calls):
    # the tracer times the phases by rebinding these module attributes, so it
    # sees a phase only while train calls it through that name. With the
    # history every phase runs once per sweep. Without it the objective runs
    # once per solve, and the residuals on sweeps whose e3 is below tol and
    # on sweep K, whose residuals are returned.
    residuals, objective = report.PHASES["residuals"], report.PHASES["objective"]
    cfg = admm.TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), K=7, tol=1e-12)
    ds = gaussian_clusters(40, seed=0)
    _, diag = admm.train(ds, cfg)
    assert diag.iterations == 7 and not diag.converged
    every_sweep = {dotted: 7 for dotted in report.PHASES.values()}
    assert phase_calls == every_sweep | {residuals: 1, objective: 1}
    phase_calls.clear()
    admm.train(ds, cfg, history=True)
    assert phase_calls == every_sweep


@pytest.mark.parametrize("K", [1000, 200])  # converges at sweep 218; capped
def test_train_computes_the_full_residuals_only_where_e3_could_stop(report, phase_calls, K):
    cfg = admm.TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0), K=K)
    ds = gaussian_clusters(200, seed=42)
    _, full = admm.train(ds, cfg, history=True)
    e3 = [res.e3 for _, res, _ in full.history]
    residuals = report.PHASES["residuals"]
    phase_calls.clear()
    _, diag = admm.train(ds, cfg)
    assert (diag.iterations, diag.converged) == (full.iterations, full.converged)
    could_stop = sum(e < cfg.tol for e in e3)
    expected = could_stop + (e3[-1] >= cfg.tol)
    assert phase_calls[residuals] == expected < diag.iterations
    assert phase_calls[report.PHASES["select"]] == diag.iterations


# run in a fresh interpreter: scores a model written by this test, then trains
_IMPORT_PROBE = """
import sys

import slidesvm.cli as cli


def unused():
    return sorted(
        m for m in sys.modules
        if m.startswith("scipy") or m == "concurrent.futures.process"
    )


data, model, out = sys.argv[1:]
assert unused() == [], unused()
assert cli.main(["eval", "--model", model, "--data", data]) == 0
assert unused() == [], unused()
assert cli.main(["train", "--data", data, "--out", out]) == 0
assert "scipy.linalg._flapack" in sys.modules, unused()
assert "scipy.linalg" not in sys.modules, unused()
"""


def test_cli_loads_no_scipy_package_but_lapacks_extension(tmp_path):
    # every CLI process pays for what ``import slidesvm.cli`` loads: the
    # scipy.linalg package takes about 0.3 s and the process pool about
    # 20 ms, and neither the import nor eval uses them. The first solve loads
    # the LAPACK extension alone, and the model it gives keeps its bytes.
    data, model, out = tmp_path / "data.txt", tmp_path / "model.txt", tmp_path / "out.txt"
    data.write_text(write_libsvm(gaussian_clusters(40, seed=0)))
    cfg = admm.TrainConfig(C=1.0, delta=1.0, slide=SlideParams(0.1, 1.0))
    model.write_text(dumps_model(admm.train(parse_libsvm(data.read_bytes()), cfg)[0]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(data), str(model), str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("accuracy ")
    assert out.read_bytes() == model.read_bytes()


def _src_env():
    src = Path(slidesvm.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": str(src)}


# run in a fresh interpreter, with the solver's LAPACK loaded before or after
# the scipy.linalg package
_SAME_LAPACK_PROBE = """
import sys

import numpy as np

from slidesvm import admm

if sys.argv[1] == "solver-first":
    ours = admm._lapack()
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
else:
    import scipy.linalg
    ours = admm._lapack()
theirs = scipy.linalg.get_lapack_funcs(("posv",), (np.empty(0),))[0]
assert ours is theirs, (ours, theirs)
assert theirs.typecode == "d" and "dposv" in repr(theirs)
"""


@pytest.mark.parametrize("order", ["solver-first", "package-first"])
def test_solver_lapack_is_scipys_own_in_either_import_order(order):
    # the very function objects, so every solve keeps its bits
    done = subprocess.run(
        [sys.executable, "-c", _SAME_LAPACK_PROBE, order],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_a_missing_lapack_extension_names_the_directory_searched(tmp_path, monkeypatch):
    import scipy

    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    where = re.escape(str(tmp_path / "scipy" / "linalg"))
    with pytest.raises(ImportError, match=f"no LAPACK extension _flapack in {where}$"):
        admm._lapack.__wrapped__()
