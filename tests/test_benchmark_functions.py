"""The benchmark's files name homocat functions and fix the verdict of every
check it runs.  A rename in homocat would only show up as an absent function
in a traced benchmark run, and a wrong verdict only as a failed benchmark, so
both are checked here against the benchmark's own files."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_tracer():
    return load("tracer")


def test_every_traced_function_resolves():
    tracer = load_tracer()
    for module, fns in tracer.LAYERS:
        owner = importlib.import_module(f"homocat.{module}")
        for fn in fns:
            obj = owner
            for part in tracer.ATTRIBUTE_PATHS.get((module, fn), (fn,)):
                obj = getattr(obj, part, None)
            assert callable(obj), f"{module}.{fn} is not in homocat"


def test_matmul_is_the_matrix_product():
    tracer = load_tracer()
    assert tracer.ATTRIBUTE_PATHS[("exactlinalg", "matmul")] == \
        ("Matrix", "__mul__")
    from homocat.exactlinalg import Matrix
    assert "__mul__" in vars(Matrix)


def test_exact_rings_verdicts():
    """Every exact_rings scenario (Z, Q, the integers and mixed demos)
    reaches the verdicts the benchmark expects."""
    from homocat.cli import run_scenario
    scenarios = load("workloads").WORKLOADS["exact_rings"]
    for label, scenario, expected in scenarios:
        report = run_scenario(dict(scenario, seed=1))
        got = {r["id"]: r["status"] for r in report["checks"]}
        assert got == expected, label
