"""The public surface: every name a module exports exists, and no module
imports another's private names."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pathfuse
from pathfuse.evaluation import ROBUST_STUDY_AMBIENT_SCALE

from conftest import ROBUST_SEED

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathfuse.__path__))


def test_every_module_is_checked():
    assert {"atmosphere", "estimators", "evaluation", "io", "models"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"pathfuse.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_package_name_resolves_and_is_listed():
    # the package loads each name's module on first use, from one table
    missing = [n for n in pathfuse.__all__ if not hasattr(pathfuse, n)]
    assert missing == []
    assert set(pathfuse.__all__) <= set(dir(pathfuse))
    with pytest.raises(AttributeError):
        pathfuse.no_such_name


def test_no_module_imports_a_private_name_from_another():
    # a private helper shared across modules is a public API in disguise
    crossings = []
    for name in MODULES:
        path = Path(pathfuse.__path__[0]) / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("pathfuse")
            crossings += [f"{name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if internal and alias.name.startswith("_")]
    assert crossings == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _constant(path, name):
    """The literal value of ``name = ...`` in the module at ``path``, unimported."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def test_the_benchmark_harness_still_finds_what_it_calls(capsys):
    # perfbench wraps these layers by module and name, and times set-up by
    # running SETUP_CODE, which calls the loaders with no arguments
    layers = _constant(PERFBENCH / "spans.py", "LAYERS")
    missing = [f"{module}.{name}" for module, name, _ in layers
               if not callable(getattr(importlib.import_module(f"pathfuse.{module}"),
                                       name, None))]
    assert missing == []
    setup = _constant(PERFBENCH / "run.py", "SETUP_CODE")
    calls = {node.func.id: node for node in ast.walk(ast.parse(setup))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    for loader in ("load_registry", "load_reference_targets"):
        assert not (calls[loader].args or calls[loader].keywords)
    exec(setup, {})
    assert float(capsys.readouterr().out) > 0


FIT = """
from pathfuse import (PipelineConfig, SynthesisSpec, fit_pathloss_model, load_registry,
                      sigma_map, substream, synthesize_corpus)
models = load_registry()[:3]
corpus = synthesize_corpus(models, SynthesisSpec(points_per_model=40), substream(0, "api"))
fit_pathloss_model(corpus, PipelineConfig(), sigma_by_source=sigma_map(models))
"""

IMPORT_AND_FIT = """
import sys
import pathfuse.io
print(sorted(m for m in ("pathfuse.estimators", "pathfuse.evaluation") if m in sys.modules))
""" + FIT + """
try:
    with open("/proc/self/status") as fh:
        print(next(int(line.split()[1]) for line in fh if line.startswith("Threads:")))
except (OSError, StopIteration):
    print(None)
"""


def test_io_loads_alone_and_a_fit_runs_on_one_thread():
    # a fresh process, without the variable that importing pathfuse sets here
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(pathfuse.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", IMPORT_AND_FIT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded, threads = done.stdout.split("\n")[:2]
    assert loaded == "[]"
    if threads == "None":
        pytest.skip("the thread count cannot be read on this system")
    assert threads == "1"


#: prints the size of numpy's OpenBLAS pool, read with the getter that sits
#: beside the setter pathfuse calls, or None where no getter is found
PRINT_POOL = """
import ctypes, glob
import numpy as np
def pool():
    for path in glob.glob(np.__path__[0] + "/../numpy.libs/*openblas*"):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if get := getattr(lib, name, None):
                get.restype = ctypes.c_int
                return get()
print(pool())
"""


def _blas_pool(code, threads=None):
    """The OpenBLAS pool size after ``code`` in a fresh process whose
    ``OPENBLAS_NUM_THREADS`` is ``threads`` (unset if None)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(pathfuse.__file__).parent.parent)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run([sys.executable, "-c", code + PRINT_POOL], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    pool = done.stdout.split()[-1]
    if pool == "None":
        pytest.skip("numpy's OpenBLAS has no thread-count getter here")
    return int(pool)


def test_a_users_blas_threads_outlast_a_fit():
    # OpenBLAS caps its pool at the CPUs this process may run on
    affinity = getattr(os, "sched_getaffinity", None)
    usable = len(affinity(0)) if affinity else os.cpu_count()
    assert _blas_pool("import pathfuse\n" + FIT, threads=2) == min(2, usable)


def test_numpy_loaded_first_gets_one_blas_thread_from_the_import():
    assert _blas_pool("import numpy\nimport pathfuse.io\n") == 1


def test_the_calibration_script_still_builds_its_specs():
    # scripts/calibrate.py builds SynthesisSpec and OutlierSpec itself; its
    # two quickest sections run both
    script = PERFBENCH.parent / "scripts" / "calibrate.py"
    env = {**os.environ, "PYTHONPATH": str(Path(pathfuse.__file__).parent.parent)}
    done = subprocess.run([sys.executable, str(script), "--section", "ambient",
                           "--section", "magnitude"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_calibration_script_draws_the_robust_studys_clean_corpora(robust_result):
    # scripts/calibrate.py rebuilds the Robust trials' clean corpora with its
    # own copy of their substream labels: its OLS sigma is the study's, exactly
    path = PERFBENCH.parent / "scripts" / "calibrate.py"
    spec = importlib.util.spec_from_file_location("calibrate", path)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    assert (calibrate.SEED, calibrate.TRIALS) == (ROBUST_SEED, 10)
    model = calibrate._study_model()
    sigma = np.mean([calibrate._ols_sigma(calibrate._clean_corpus(
        model, ROBUST_STUDY_AMBIENT_SCALE, t)) for t in range(10)])
    ols = next(report for report in robust_result.reports if report.method == "ols")
    assert sigma == ols.sigma_clean_db
