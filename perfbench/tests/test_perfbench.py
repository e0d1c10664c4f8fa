"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pathfuse import evaluation  # noqa: E402
from pathfuse.evaluation import ExperimentSpec  # noqa: E402
from pathfuse.models import PathLossSample  # noqa: E402


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m.get("unit") for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_match_benchmark_json(trace, kind):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-fit",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    assert set(declared("workloads")) == set(workloads.WORKLOADS)


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "integration",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_perturbed_golden_value_fails_a_check(tmp_path):
    golden = workloads.load_golden()
    workload = workloads.make("small-studies", 0, str(tmp_path), golden)
    out = workload.call()
    assert all(ok for _, ok in workload.checks(out))

    perturbed = copy.deepcopy(golden)
    report = next(iter(perturbed["small-studies"]["reports"].values()))
    report["sigma_db"] += 1e-6
    workload.golden = perturbed["small-studies"]
    tally = run.Tally()
    for name, ok in workload.checks(out):
        tally.add(name, ok)
    assert tally.failed == 1
    assert tally.failed / tally.attempted > 0


def _bound_functions():
    return {
        (module.__name__, attribute): value
        for module in spans._pathfuse_modules()
        for attribute, value in vars(module).items()
        if callable(value)
    }


@pytest.mark.parametrize("raises", [False, True])
def test_wrappers_are_restored_after_a_traced_run(raises):
    before = _bound_functions()
    init = PathLossSample.__init__
    tracer = spans.Tracer()
    counts = {}
    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        with tracer.installed(), spans.counting_sample_objects(counts):
            assert spans.leftover_wrappers()
            evaluation.run_robust_study(ExperimentSpec("RobustStudy", trials=1, seed=1))
            if raises:
                raise RuntimeError("workload failed")
    assert spans.leftover_wrappers() == []
    after = _bound_functions()
    assert all(after[key] is value for key, value in before.items())
    assert PathLossSample.__init__ is init
    names = {name for name, *_ in tracer.spans}
    assert {"estimators.tune_penalty_kfold", "estimators.fit_ransac"} <= names
    assert counts[spans.SAMPLE_OBJECTS] > 0


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert tracer.self_times() == {"a": (6.0, 1), "b": (3.0, 2), "c": (1.0, 1)}


def test_tail_leaves_ten_values_beyond_it():
    assert spans.tail(range(1, 21)) == 10
    assert spans.tail([3.0, 1.0, 2.0]) == 3.0
