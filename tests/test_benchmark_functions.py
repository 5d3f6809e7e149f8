"""The benchmark tracer wraps homocat functions by name.  A rename in
homocat would only show up as an absent function in a traced benchmark run,
so every name it wraps is resolved here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
