"""The traced benchmark run wraps package functions by name; they must exist."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(f"scatterscore.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [*tracing.TRACED, *tracing.COUNTED]
    assert names
    assert [f"{m}.{a}" for m, a in names if not _resolves(m, a)] == []
