"""The package still offers every name the benchmark's tracer wraps, so a
rename or a deletion fails here rather than in the benchmark."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import cornerclip

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_are_the_package_functions():
    for info in pkgutil.iter_modules(cornerclip.__path__):
        importlib.import_module(f"cornerclip.{info.name}")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.assert_untraced()
