"""The benchmark wraps and calls package functions by name; they must exist."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Called by name outside the tracer: perfbench/run.py's train-eval pin (lines 221-238) and its
# entry point (lines 86 and 369), and perfbench/tests/selftest.py (lines 20, 70 and 91-98).
BENCHMARK_CALLS = [
    ("mergemodel", "predict_matrix"),
    ("mergemodel", "deserialize"),
    ("pairspace", "align_training_record"),
    ("pairspace", "PairFeatures"),
    ("pairspace", "PairFeatures.as_vector"),
    ("pairspace", "ShapeParams"),
    ("cli", "main"),
    ("vqm", "select_model"),
]


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(f"scatterscore.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [*tracing.TRACED, *tracing.COUNTED, *BENCHMARK_CALLS]
    assert tracing.TRACED
    assert [f"{m}.{a}" for m, a in names if not _resolves(m, a)] == []
